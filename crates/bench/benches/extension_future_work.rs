//! Extensions — the future-work directions the paper sketches in §7/§8,
//! implemented and measured:
//!
//! 1. **Codec-style predictive motion search** (§7 "Hardware Design
//!    Alternatives"): per-block predicted motion vectors recover fast
//!    motion beyond the ±7 px window at small-window cost.
//! 2. **IMU/vision fusion** (§7): factoring the gyro's global-motion
//!    estimate out of the field keeps extrapolation stable under heavy
//!    camera shake.
//! 3. **Raw-domain motion estimation** (§8): block matching on the Bayer
//!    green quincunx agrees with the RGB-path field, enabling
//!    ISP-bypassing pipelines.
//! 4. **Motion-compensated frame upsampling** (§2.2): the same exported
//!    MVs synthesize intermediate frames far better than blending.

use euphrates_camera::imu::{ImuConfig, ImuSensor};
use euphrates_camera::scene::{SceneBuilder, SceneEffects};
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_camera::sprite::{Shape, Sprite};
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::{rgb_to_luma, Resolution};
use euphrates_common::table::{fnum, Table};
use euphrates_isp::interpolate::{mc_interpolate, mean_abs_error};
use euphrates_isp::motion::{BlockMatcher, SearchStats, SearchStrategy};
use euphrates_isp::predictive::PredictiveBlockMatcher;
use euphrates_isp::raw_motion::RawBlockMatcher;
use euphrates_mc::algorithm::{ExtrapolationConfig, Extrapolator, RoiState};
use euphrates_mc::fusion::FusedExtrapolator;

const RES: Resolution = Resolution::new(320, 240);

fn fast_scene(speed: f64, shake: f64, seed: u64) -> euphrates_camera::scene::Scene {
    // Short-period (jerky) shake: at amplitude A the peak camera speed is
    // 2πA/T px/frame, exceeding the ±7 search window for A ≳ 10.
    let effects = SceneEffects {
        shake_amplitude: shake,
        shake_period: 9.0,
        ..SceneEffects::default()
    };
    SceneBuilder::new(RES, seed)
        .effects(effects)
        .object(euphrates_camera::scene::SceneObject {
            id: 0,
            label: 1,
            sprite: Sprite::rigid(
                56.0,
                48.0,
                Shape::Rectangle,
                Texture::object_noise(seed + 3),
            ),
            trajectory: Trajectory::Linear {
                start: Vec2f::new(40.0, 110.0),
                velocity: Vec2f::new(speed, 0.3),
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

/// Mean IoU of pure extrapolation (no inference at all) over `frames`
/// frames, given a motion-field provider.
fn extrapolation_iou<F>(scene: &euphrates_camera::scene::Scene, frames: u32, mut field_of: F) -> f64
where
    F: FnMut(
        &euphrates_common::image::LumaFrame,
        &euphrates_common::image::LumaFrame,
    ) -> euphrates_isp::motion::MotionField,
{
    let mut renderer = scene.renderer();
    let ex = Extrapolator::new(ExtrapolationConfig::default());
    let mut state = RoiState::new(ex.config());
    let first = renderer.render(0);
    let mut roi = first.truth[0].rect;
    let mut prev_luma = rgb_to_luma(&first.rgb);
    let mut iou_sum = 0.0;
    for f in 1..frames {
        let frame = renderer.render(f);
        let luma = rgb_to_luma(&frame.rgb);
        let field = field_of(&luma, &prev_luma);
        roi = ex.extrapolate(&roi, &field, &mut state);
        iou_sum += roi.iou(&frame.truth[0].rect);
        prev_luma = luma;
    }
    iou_sum / f64::from(frames - 1)
}

fn part1_predictive_search() {
    println!("-- 1. codec-style predictive search vs plain TSS (pure extrapolation) --");
    let mut table = Table::new([
        "object speed",
        "plain TSS mean IoU",
        "predictive ES mean IoU",
        "predictive TSS mean IoU",
        "predictive ES probes/block",
        "predictive TSS probes/block",
    ]);
    for speed in [3.0, 6.0, 10.0, 13.0] {
        let scene = fast_scene(speed, 0.0, 21);
        let plain = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let tss = extrapolation_iou(&scene, 18, |c, p| plain.estimate(c, p).unwrap());
        let mut row = vec![format!("{speed:.0} px/frame"), fnum(tss, 3)];
        let mut probes = Vec::new();
        for strategy in [SearchStrategy::Exhaustive, SearchStrategy::ThreeStep] {
            let mut pm = PredictiveBlockMatcher::new(16, 7, strategy).unwrap();
            let mut stats = SearchStats::default();
            let iou = extrapolation_iou(&scene, 18, |c, p| {
                let (field, s) = pm.estimate_with_stats(c, p).unwrap();
                stats.blocks += s.blocks;
                stats.probes += s.probes;
                field
            });
            row.push(fnum(iou, 3));
            probes.push(fnum(stats.probes_per_block(), 1));
        }
        row.extend(probes);
        table.row(row);
    }
    println!("{table}");
    println!("beyond ~7 px/frame the memoryless window loses the object while");
    println!("the predictor keeps tracking — §7's fast-motion limitation, fixed.");
    println!("Probes are measured on the shared search walk: the predictor moves");
    println!("the window, the strategy still sets its cost and its reach.\n");
}

fn part2_imu_fusion() {
    println!("-- 2. IMU/vision fusion under camera shake (pure extrapolation) --");
    let mut table = Table::new(["shake amplitude", "vision only mean IoU", "fused mean IoU"]);
    for shake in [0.0, 4.0, 8.0, 12.0] {
        let scene = fast_scene(2.0, shake, 33);
        let matcher = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let vision = extrapolation_iou(&scene, 24, |c, p| matcher.estimate(c, p).unwrap());

        // Fused: the IMU's global estimate re-centers the block search
        // window (so shake beyond ±7 px stays measurable), and the
        // extrapolation filter runs in the object's frame of reference.
        let imu = ImuSensor::new(ImuConfig::default(), 33);
        let pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let fused_ex = FusedExtrapolator::new(Extrapolator::new(ExtrapolationConfig::default()));
        let mut renderer = scene.renderer();
        let first = renderer.render(0);
        let mut roi = first.truth[0].rect;
        let mut prev_luma = rgb_to_luma(&first.rgb);
        let mut state = RoiState::new(&ExtrapolationConfig::default());
        let mut iou_sum = 0.0;
        for f in 1..24 {
            let frame = renderer.render(f);
            let luma = rgb_to_luma(&frame.rgb);
            let reading = imu.read(scene.effects(), f);
            let predictor = euphrates_common::geom::Vec2i::new(
                reading.motion.x.round() as i16,
                reading.motion.y.round() as i16,
            );
            let field = pm
                .estimate_with_global_predictor(&luma, &prev_luma, predictor)
                .unwrap();
            roi = fused_ex.extrapolate(&roi, &field, reading.motion, &mut state);
            iou_sum += roi.iou(&frame.truth[0].rect);
            prev_luma = luma;
        }
        table.row([
            format!("{shake:.0} px"),
            fnum(vision, 3),
            fnum(iou_sum / 23.0, 3),
        ]);
    }
    println!("{table}");
    println!("fusion keeps the Equ. 3 filter state in the object's frame of");
    println!("reference, so shake no longer pollutes the motion history.\n");
}

fn part3_raw_domain() {
    println!("-- 3. raw-Bayer motion estimation vs the RGB path --");
    let scene = fast_scene(4.0, 0.0, 55);
    let sensor = ImageSensor::new(
        SensorConfig {
            resolution: RES,
            ..SensorConfig::default()
        },
        55,
    );
    let rgb_matcher = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    let raw_matcher = RawBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    let mut renderer = scene.renderer();
    let mut prev = renderer.render(0);
    let mut agree = 0u32;
    let mut total = 0u32;
    for f in 1..10u32 {
        let cur = renderer.render(f);
        let rgb_field = rgb_matcher
            .estimate(&rgb_to_luma(&cur.rgb), &rgb_to_luma(&prev.rgb))
            .unwrap();
        let raw_field = raw_matcher
            .estimate(
                &sensor.capture(&cur.rgb, f).unwrap(),
                &sensor.capture(&prev.rgb, f - 1).unwrap(),
            )
            .unwrap();
        for by in 0..rgb_field.blocks_y() {
            for bx in 0..rgb_field.blocks_x() {
                let a = rgb_field.at_block(bx, by).v;
                let b = raw_field.at_block(bx, by).v;
                let dx = i32::from(a.x) - i32::from(b.x);
                let dy = i32::from(a.y) - i32::from(b.y);
                if dx.abs() <= 2 && dy.abs() <= 2 {
                    agree += 1;
                }
                total += 1;
            }
        }
        prev = cur;
    }
    println!(
        "per-block agreement (within 2 px): {}/{} = {:.1}%",
        agree,
        total,
        100.0 * f64::from(agree) / f64::from(total)
    );
    println!("raw-domain matching needs no demosaic — Euphrates ported to");
    println!("RedEye/ASP-Vision-style raw pipelines (§8).\n");
}

fn part4_frame_upsampling() {
    println!("-- 4. motion-compensated frame upsampling (§2.2) --");
    let scene = fast_scene(6.0, 0.0, 77);
    let mut renderer = scene.renderer();
    let matcher = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    let mut table = Table::new(["pair", "blend MAE", "MC-interp MAE"]);
    for f in [2u32, 6, 10] {
        let a = rgb_to_luma(&renderer.render(f).rgb);
        let truth = rgb_to_luma(&renderer.render(f + 1).rgb);
        let b = rgb_to_luma(&renderer.render(f + 2).rgb);
        let field = matcher.estimate(&b, &a).unwrap();
        let mc = mc_interpolate(&a, &b, &field, 0.5, 0.5).unwrap();
        let blend = mc_interpolate(&a, &b, &field, 0.5, 2.0).unwrap();
        table.row([
            format!("frames {f}->{}", f + 2),
            fnum(mean_abs_error(&blend, &truth), 2),
            fnum(mean_abs_error(&mc, &truth), 2),
        ]);
    }
    println!("{table}");
    println!("the same exported MVs double the capture rate for display or for");
    println!("denser extrapolation anchors.");
}

fn main() {
    println!("== Future-work extensions (paper §2.2, §7, §8) ==\n");
    part1_predictive_search();
    part2_imu_fusion();
    part3_raw_domain();
    part4_frame_upsampling();
}
