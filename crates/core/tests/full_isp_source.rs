//! Ties the full-ISP frame source to [`IspPipeline::process`]: one
//! detection-suite sequence is streamed through [`frame_source`] with
//! `full_isp` set, and the same sensor captures are driven through
//! `process` by hand. Every frame's motion field must be bit-equal, so
//! whatever the source runs in place of `process` exports exactly the
//! motion the whole pipeline exports.

use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_common::image::{BayerFrame, RgbFrame};
use euphrates_core::frontend::{frame_source, MotionConfig};
use euphrates_datasets::{detection_suite, DatasetScale};
use euphrates_isp::motion::SearchStrategy;
use euphrates_isp::pipeline::{IspConfig, IspPipeline};

#[test]
fn full_isp_source_matches_pipeline_process_frame_by_frame() {
    let mut seq = detection_suite(42, DatasetScale::fraction(0.1)).swap_remove(0);
    seq.frames = 8;
    let res = seq.resolution();
    // TSS is the benchmarked full-ISP strategy; the hierarchical default
    // builds its pyramid inside the matcher.
    for strategy in [SearchStrategy::ThreeStep, SearchStrategy::Hierarchical] {
        let config = MotionConfig {
            full_isp: true,
            strategy,
            ..MotionConfig::default()
        };
        let sensor = ImageSensor::new(
            SensorConfig {
                resolution: res,
                ..SensorConfig::default()
            },
            seq.scene.seed(),
        );
        let mut isp = IspPipeline::new(IspConfig {
            mb_size: config.mb_size,
            search_range: config.search_range,
            strategy,
            ..IspConfig::standard(res)
        })
        .unwrap();
        let mut renderer = seq.scene.renderer();
        let mut rgb = RgbFrame::new(res.width, res.height).unwrap();
        let mut raw = BayerFrame::new(res.width, res.height).unwrap();
        let mut source = frame_source(&seq, &config).unwrap();
        let mut moving = 0;
        for index in 0..seq.frames {
            let truth = renderer.render_into(index, &mut rgb);
            sensor.capture_into(&rgb, index, &mut raw).unwrap();
            let want = isp.process(&raw).unwrap();
            let got = source.next().unwrap().unwrap();
            assert_eq!(got.motion, want.motion, "{strategy:?} frame {index}");
            assert_eq!(got.truth, truth, "{strategy:?} frame {index}");
            moving += usize::from(want.motion.mean_magnitude() > 0.0);
        }
        assert!(source.next().is_none());
        assert!(moving > 0, "{strategy:?}: no frame carried motion");
    }
}
