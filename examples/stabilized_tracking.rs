//! Stabilized tracking — the §7 future-work stack in action: a drone
//! camera with heavy, jerky shake tracks a moving target using pure
//! extrapolation between sparse inferences, comparing three motion
//! sources:
//!
//! 1. plain ISP block matching (the paper's baseline MC input),
//! 2. codec-style predictive search (per-block motion history),
//! 3. IMU-fused search (gyro re-centers the window; the filter runs in
//!    the object's frame of reference).
//!
//! ```text
//! cargo run --release --example stabilized_tracking
//! ```

use euphrates::camera::imu::{ImuConfig, ImuSensor};
use euphrates::camera::scene::{SceneBuilder, SceneEffects, SceneObject};
use euphrates::camera::sprite::{Shape, Sprite};
use euphrates::camera::texture::Texture;
use euphrates::camera::trajectory::{Profile, Trajectory};
use euphrates::common::geom::{Vec2f, Vec2i};
use euphrates::common::image::{rgb_to_luma, Resolution};
use euphrates::common::table::{fnum, Table};
use euphrates::isp::motion::{BlockMatcher, SearchStrategy};
use euphrates::isp::predictive::PredictiveBlockMatcher;
use euphrates::mc::algorithm::{ExtrapolationConfig, Extrapolator, RoiState};
use euphrates::mc::fusion::FusedExtrapolator;

const RES: Resolution = Resolution::new(320, 240);
const FRAMES: u32 = 48;
const EW: u32 = 8; // sparse inference: 7 of 8 frames extrapolate

fn shaky_scene(shake: f64, seed: u64) -> euphrates::camera::scene::Scene {
    let effects = SceneEffects {
        shake_amplitude: shake,
        shake_period: 9.0, // jerky: peak camera speed ~ 2π·A/9 px/frame
        ..SceneEffects::default()
    };
    SceneBuilder::new(RES, seed)
        .effects(effects)
        .object(SceneObject {
            id: 0,
            label: 1,
            sprite: Sprite::rigid(
                56.0,
                48.0,
                Shape::Rectangle,
                Texture::object_noise(seed + 9),
            ),
            trajectory: Trajectory::Sinusoid {
                center: Vec2f::new(160.0, 120.0),
                amplitude: Vec2f::new(70.0, 40.0),
                period: Vec2f::new(180.0, 240.0),
                phase: 0.4,
            },
            scale: Profile::one(),
            rotation: Profile::zero(),
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .build()
}

#[derive(Clone, Copy)]
enum Source {
    Plain,
    Predictive,
    Fused,
}

/// EW-8 tracking: ground truth re-anchors the ROI on I-frames (a perfect
/// tracker isolates the motion-source comparison); E-frames extrapolate.
fn run(scene: &euphrates::camera::scene::Scene, source: Source, seed: u64) -> f64 {
    let cfg = ExtrapolationConfig::default();
    let plain = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
    let mut predictive = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    let fused_pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    let imu = ImuSensor::new(ImuConfig::default(), seed);
    let extrapolator = Extrapolator::new(cfg);
    let fused = FusedExtrapolator::new(extrapolator);

    let mut renderer = scene.renderer();
    let first = renderer.render(0);
    let mut prev_luma = rgb_to_luma(&first.rgb);
    let mut roi = first.truth[0].rect;
    let mut state = RoiState::new(&cfg);
    let mut iou_sum = 0.0;
    let mut scored = 0u32;

    for f in 1..FRAMES {
        let frame = renderer.render(f);
        let luma = rgb_to_luma(&frame.rgb);
        if f % EW == 0 {
            // I-frame: re-anchor (ideal inference isolates the comparison).
            roi = frame.truth[0].rect;
            state.reset();
        } else {
            roi = match source {
                Source::Plain => {
                    let field = plain.estimate(&luma, &prev_luma).unwrap();
                    extrapolator.extrapolate(&roi, &field, &mut state)
                }
                Source::Predictive => {
                    let field = predictive.estimate(&luma, &prev_luma).unwrap();
                    extrapolator.extrapolate(&roi, &field, &mut state)
                }
                Source::Fused => {
                    let reading = imu.read(scene.effects(), f);
                    let predictor = Vec2i::new(
                        reading.motion.x.round() as i16,
                        reading.motion.y.round() as i16,
                    );
                    let field = fused_pm
                        .estimate_with_global_predictor(&luma, &prev_luma, predictor)
                        .unwrap();
                    fused.extrapolate(&roi, &field, reading.motion, &mut state)
                }
            };
            iou_sum += roi.iou(&frame.truth[0].rect);
            scored += 1;
        }
        prev_luma = luma;
    }
    iou_sum / f64::from(scored)
}

fn main() {
    println!("Stabilized tracking under jerky camera shake (EW-8, E-frame IoU)\n");
    let mut table = Table::new([
        "shake (px)",
        "peak cam speed",
        "plain BM",
        "predictive",
        "IMU-fused",
    ]);
    for shake in [0.0, 6.0, 10.0, 14.0] {
        let scene = shaky_scene(shake, 1234);
        let peak = std::f64::consts::TAU * shake / 9.0;
        table.row([
            fnum(shake, 0),
            format!("{peak:.1} px/frame"),
            fnum(run(&scene, Source::Plain, 1234), 3),
            fnum(run(&scene, Source::Predictive, 1234), 3),
            fnum(run(&scene, Source::Fused, 1234), 3),
        ]);
    }
    println!("{table}");
    println!("Once the camera's own motion exceeds the ±7 px search window,");
    println!("plain block matching can no longer see the world move. Note that");
    println!("per-block *prediction* makes things worse here: its constant-");
    println!("velocity assumption is exactly wrong for oscillating shake (it");
    println!("helps for ballistic object motion — see the paper run's extensions).");
    println!("Only the gyro, which measures the reversal directly, re-centers");
    println!("the window correctly — the Pixel-2-style fusion the paper points");
    println!("to in §7.");
}
