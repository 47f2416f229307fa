//! Bit-level goldens for the ISP stage kernels.
//!
//! Every digest below is an FNV-1a hash of a stage's complete output,
//! recorded from the original per-pixel `at_clamped` implementations of
//! dead-pixel correction, demosaic, white balance, temporal denoise and
//! the color-correction/gamma finish. The row-slice kernels that replaced
//! them must reproduce every bit, at every frame size from 1×1 (where
//! every pixel is a border pixel) up to VGA, so a change that moves a
//! single sample fails here.
//!
//! Inputs are seeded and self-contained (a local splitmix generator), so
//! the digests do not depend on any other crate's RNG.

use euphrates_common::geom::Vec2i;
use euphrates_common::image::{BayerFrame, LumaFrame, Resolution, Rgb, RgbFrame};
use euphrates_isp::color::{ColorCorrection, Gamma};
use euphrates_isp::motion::{MotionField, MotionVector};
use euphrates_isp::pipeline::{IspConfig, IspPipeline};
use euphrates_isp::stages::{DeadPixelCorrection, Demosaic, TemporalDenoise, WhiteBalance};

/// Frame sizes: degenerate (every pixel on the border), odd and even
/// small sizes, partial macroblocks, and the benchmark's VGA.
const SIZES: [(u32, u32); 8] = [
    (1, 1),
    (2, 3),
    (3, 2),
    (5, 5),
    (6, 7),
    (17, 9),
    (65, 49),
    (640, 480),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    fn luma(&mut self, f: &LumaFrame) -> &mut Self {
        self.u32(f.width()).u32(f.height()).bytes(f.samples())
    }

    fn rgb(&mut self, f: &RgbFrame) -> &mut Self {
        self.u32(f.width()).u32(f.height());
        for p in f.samples() {
            self.bytes(&[p.r, p.g, p.b]);
        }
        self
    }

    fn field(&mut self, f: &MotionField) -> &mut Self {
        for by in 0..f.blocks_y() {
            for bx in 0..f.blocks_x() {
                let mv = f.at_block(bx, by);
                self.bytes(&mv.v.x.to_le_bytes())
                    .bytes(&mv.v.y.to_le_bytes())
                    .u32(mv.sad);
            }
        }
        self
    }
}

/// splitmix64: a tiny, well-mixed, self-contained generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// Stateless hash of a lattice cell, for smooth texture.
fn cell(seed: u64, x: i64, y: i64) -> u8 {
    let mut r =
        Rng::new(seed ^ (x as u64).wrapping_mul(0x9e37) ^ (y as u64).wrapping_mul(0x7f4a_7c15));
    r.byte()
}

/// Textured Bayer mosaic: a 4×4 lattice texture moved by `(2, 1)` px
/// per `frame`, seen through a per-color gain, with per-frame noise and
/// injected hot (255) and dead (0) sites.
fn bayer(w: u32, h: u32, seed: u64, frame: i64) -> BayerFrame {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(frame as u64));
    let shift = (2 * frame, frame);
    let mut f = BayerFrame::new(w, h).unwrap();
    for y in 0..h {
        for x in 0..w {
            let tx = (i64::from(x) - shift.0).div_euclid(4);
            let ty = (i64::from(y) - shift.1).div_euclid(4);
            let base = i64::from(cell(seed, tx, ty));
            let gain = match (y & 1, x & 1) {
                (0, 0) => 3,
                (1, 1) => 2,
                _ => 4,
            };
            let noise = rng.below(17) as i64 - 8;
            let mut v = (base * gain / 4 + noise).clamp(0, 255) as u8;
            match rng.below(97) {
                0 | 1 => v = 255,
                2 => v = 0,
                _ => {}
            }
            f.set(x, y, v);
        }
    }
    f
}

/// Uniformly random RGB frame (reaches every rounding corner of the CCM).
fn random_rgb(w: u32, h: u32, seed: u64) -> RgbFrame {
    let mut rng = Rng::new(seed);
    let mut f = RgbFrame::new(w, h).unwrap();
    for p in f.samples_mut() {
        *p = Rgb::new(rng.byte(), rng.byte(), rng.byte());
    }
    f
}

/// RGB frame with a strong cast: red near black, blue near white, so the
/// gray-world gains hit both ends of their clamp.
fn cast_rgb(w: u32, h: u32, seed: u64) -> RgbFrame {
    let mut rng = Rng::new(seed);
    let mut f = RgbFrame::new(w, h).unwrap();
    for p in f.samples_mut() {
        *p = Rgb::new(
            rng.below(12) as u8,
            100 + rng.below(60) as u8,
            230 + rng.below(26) as u8,
        );
    }
    f
}

fn random_luma(w: u32, h: u32, seed: u64) -> LumaFrame {
    let mut rng = Rng::new(seed);
    let mut f = LumaFrame::new(w, h).unwrap();
    for p in f.samples_mut() {
        *p = rng.byte();
    }
    f
}

/// A motion field whose vectors reach past every frame edge: the first
/// block points up-left out of the frame, the last down-right, the rest
/// are random over the whole window, with SADs spanning confidence 0–1.
fn hostile_field(w: u32, h: u32, mb: u32, range: u32, seed: u64) -> MotionField {
    let mut rng = Rng::new(seed);
    let mut field = MotionField::zeroed(Resolution::new(w, h), mb, range).unwrap();
    let r = range as i16;
    let (nx, ny) = (field.blocks_x(), field.blocks_y());
    for by in 0..ny {
        for bx in 0..nx {
            let v = if (bx, by) == (0, 0) {
                Vec2i::new(r, r)
            } else if (bx, by) == (nx - 1, ny - 1) {
                Vec2i::new(-r, -r)
            } else {
                let span = u64::from(2 * range + 1);
                Vec2i::new(rng.below(span) as i16 - r, rng.below(span) as i16 - r)
            };
            let n = u64::from(field.block_pixels(bx, by));
            let sad = match rng.below(4) {
                0 => 0,
                1 => (255 * n * 2) as u32,
                _ => rng.below(255 * n / 2 + 1) as u32,
            };
            field.set_block(bx, by, MotionVector { v, sad });
        }
    }
    field
}

fn label(stage: &str, (w, h): (u32, u32), variant: &str) -> String {
    format!("{stage} {w}x{h} {variant}")
}

/// Compares every digest, printing the whole actual table on mismatch.
fn assert_digests(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((al, ad), (el, ed))| al == el && ad == ed);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(l, d)| format!("        (\"{l}\", {d:#018x}),\n"))
            .collect();
        panic!("stage output bits changed; actual digests:\n{table}");
    }
}

#[test]
fn dead_pixel_correction_bits_are_pinned() {
    let mut got = Vec::new();
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        for threshold in [0u8, 60, 255] {
            let mut raw = bayer(w, h, 100 + i as u64, 0);
            let n = DeadPixelCorrection { threshold }.process(&mut raw);
            let d = Fnv::new().u32(n).luma(&raw).0;
            got.push((label("dpc", (w, h), &format!("t{threshold}")), d));
        }
    }
    assert_digests(&got, DPC);
}

#[test]
fn demosaic_bits_are_pinned() {
    let mut got = Vec::new();
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let raw = bayer(w, h, 200 + i as u64, 0);
        let rgb = Demosaic.process(&raw).unwrap();
        got.push((label("demosaic", (w, h), "-"), Fnv::new().rgb(&rgb).0));
    }
    assert_digests(&got, DEMOSAIC);
}

#[test]
fn white_balance_bits_are_pinned() {
    let mut got = Vec::new();
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let inputs = [
            (
                "mosaic",
                Demosaic.process(&bayer(w, h, 300 + i as u64, 0)).unwrap(),
            ),
            ("random", random_rgb(w, h, 310 + i as u64)),
            ("cast", cast_rgb(w, h, 320 + i as u64)),
        ];
        for (name, input) in &inputs {
            for max_gain in [4.0, 1.5] {
                let mut rgb = input.clone();
                let (rg, bg) = WhiteBalance { max_gain }.process(&mut rgb);
                let d = Fnv::new().f64(rg).f64(bg).rgb(&rgb).0;
                got.push((label("wb", (w, h), &format!("{name} g{max_gain}")), d));
            }
        }
    }
    assert_digests(&got, WB);
}

#[test]
fn color_correction_and_gamma_bits_are_pinned() {
    let negative = ColorCorrection {
        matrix: [[1.9, -0.7, -0.2], [-0.45, 1.6, -0.15], [-0.35, -0.55, 1.9]],
    };
    let mut got = Vec::new();
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let input = random_rgb(w, h, 400 + i as u64);
        for (name, ccm) in [
            ("default", ColorCorrection::default()),
            ("identity", ColorCorrection::identity()),
            ("negative", negative),
        ] {
            let mut rgb = input.clone();
            ccm.process(&mut rgb);
            got.push((label("ccm", (w, h), name), Fnv::new().rgb(&rgb).0));
        }
        let mut rgb = input.clone();
        Gamma::default().process(&mut rgb);
        got.push((label("gamma", (w, h), "-"), Fnv::new().rgb(&rgb).0));
    }
    assert_digests(&got, CCM);
}

#[test]
fn temporal_denoise_bits_are_pinned() {
    let mut got = Vec::new();
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let cur = random_luma(w, h, 500 + i as u64);
        let prev = random_luma(w, h, 510 + i as u64);
        let mb = if w >= 64 { 16 } else { 4 };
        let field = hostile_field(w, h, mb, 7, 520 + i as u64);
        for strength in [0.5, 1.0] {
            let out = TemporalDenoise { strength }
                .process(&cur, &prev, &field)
                .unwrap();
            got.push((
                label("td", (w, h), &format!("s{strength}")),
                Fnv::new().luma(&out).0,
            ));
        }
    }
    assert_digests(&got, TD);
}

#[test]
fn pipeline_bits_are_pinned_over_six_frames() {
    let mut got = Vec::new();
    for (w, h) in [(640, 480), (65, 49)] {
        let mut isp = IspPipeline::new(IspConfig::standard(Resolution::new(w, h))).unwrap();
        for k in 0..6i64 {
            let raw = bayer(w, h, 600, k);
            let out = isp.process(&raw).unwrap();
            let d = Fnv::new()
                .u32(out.dead_pixels_corrected)
                .rgb(&out.rgb)
                .luma(&out.luma)
                .field(&out.motion)
                .0;
            got.push((label("pipeline", (w, h), &format!("f{k}")), d));
        }
    }
    assert_digests(&got, PIPELINE);
}

const DPC: &[(&str, u64)] = &[
    ("dpc 1x1 t0", 0xf5dacb6c4b8f9e11),
    ("dpc 1x1 t60", 0xf5dacb6c4b8f9e11),
    ("dpc 1x1 t255", 0xf5dacb6c4b8f9e11),
    ("dpc 2x3 t0", 0xbfad78ccfdb04e1f),
    ("dpc 2x3 t60", 0x23be15e06c8a3eb7),
    ("dpc 2x3 t255", 0x23be15e06c8a3eb7),
    ("dpc 3x2 t0", 0x9b2861709b0cba23),
    ("dpc 3x2 t60", 0x784549018cb06676),
    ("dpc 3x2 t255", 0x784549018cb06676),
    ("dpc 5x5 t0", 0x24b66dea5fa1eff8),
    ("dpc 5x5 t60", 0xc966502471198bbe),
    ("dpc 5x5 t255", 0xc966502471198bbe),
    ("dpc 6x7 t0", 0x1314734b1896f94a),
    ("dpc 6x7 t60", 0x691aef0f72c1957a),
    ("dpc 6x7 t255", 0x8e76d216fa995999),
    ("dpc 17x9 t0", 0xf4a3efbfc1c37103),
    ("dpc 17x9 t60", 0x94f2570fcc1ac9d6),
    ("dpc 17x9 t255", 0x599a4d6eb934c439),
    ("dpc 65x49 t0", 0xa4f2dca16f002ea3),
    ("dpc 65x49 t60", 0xb758ee157d532c07),
    ("dpc 65x49 t255", 0xc94de140d6c73442),
    ("dpc 640x480 t0", 0x42de0cecba4f35c6),
    ("dpc 640x480 t60", 0xc5b9fd918bd84742),
    ("dpc 640x480 t255", 0xe38902cec3112282),
];
const DEMOSAIC: &[(&str, u64)] = &[
    ("demosaic 1x1 -", 0x7de384708ad1fae5),
    ("demosaic 2x3 -", 0x14db53e6a4344efa),
    ("demosaic 3x2 -", 0x53003e82ccef8877),
    ("demosaic 5x5 -", 0xed705d7d71b5366b),
    ("demosaic 6x7 -", 0xfe9561b1a6d46fc1),
    ("demosaic 17x9 -", 0x87083d9d05a7625a),
    ("demosaic 65x49 -", 0xfc93683a29d9e598),
    ("demosaic 640x480 -", 0x7b8d2f2e70910849),
];
const WB: &[(&str, u64)] = &[
    ("wb 1x1 mosaic g4", 0xaa280356e15d17e3),
    ("wb 1x1 mosaic g1.5", 0xb29dabf406f8f377),
    ("wb 1x1 random g4", 0xf09d346a17e243b4),
    ("wb 1x1 random g1.5", 0xe6d1abb140278285),
    ("wb 1x1 cast g4", 0x6cfab8a0ae6a8de4),
    ("wb 1x1 cast g1.5", 0x9d032c210be4496a),
    ("wb 2x3 mosaic g4", 0x4ea053fc05309b57),
    ("wb 2x3 mosaic g1.5", 0x882a71b24fc4cd78),
    ("wb 2x3 random g4", 0xceb1362fc8d8dbb3),
    ("wb 2x3 random g1.5", 0x1af2e2948766565c),
    ("wb 2x3 cast g4", 0x662bdda8ad36dc81),
    ("wb 2x3 cast g1.5", 0xfa2fe38e7161a2c8),
    ("wb 3x2 mosaic g4", 0xc499cdca3ccac483),
    ("wb 3x2 mosaic g1.5", 0xebad31cce3f84096),
    ("wb 3x2 random g4", 0x412272ad68979fc2),
    ("wb 3x2 random g1.5", 0xb6b588369a6119e7),
    ("wb 3x2 cast g4", 0xba3ac5fe38881fab),
    ("wb 3x2 cast g1.5", 0x366c397de7c2667c),
    ("wb 5x5 mosaic g4", 0x3cfa7ab43288d333),
    ("wb 5x5 mosaic g1.5", 0x3cfa7ab43288d333),
    ("wb 5x5 random g4", 0x6026ddbbb36f2c44),
    ("wb 5x5 random g1.5", 0x6026ddbbb36f2c44),
    ("wb 5x5 cast g4", 0xb4675536c0f28c89),
    ("wb 5x5 cast g1.5", 0xa82a3371ac25acfd),
    ("wb 6x7 mosaic g4", 0x0d5f8154e23f8a88),
    ("wb 6x7 mosaic g1.5", 0x546065d97c1fc8df),
    ("wb 6x7 random g4", 0xc3b784acd88bc3c6),
    ("wb 6x7 random g1.5", 0xc3b784acd88bc3c6),
    ("wb 6x7 cast g4", 0x287ba53291ca0384),
    ("wb 6x7 cast g1.5", 0xc5096e1efe089d86),
    ("wb 17x9 mosaic g4", 0x0b68a940dc9c6167),
    ("wb 17x9 mosaic g1.5", 0x045885cd50a26d40),
    ("wb 17x9 random g4", 0x702f807db12b7de2),
    ("wb 17x9 random g1.5", 0x702f807db12b7de2),
    ("wb 17x9 cast g4", 0xb0b269a4c520cab8),
    ("wb 17x9 cast g1.5", 0xa4e7235af6acffe0),
    ("wb 65x49 mosaic g4", 0x04aa5186d4dbc3f2),
    ("wb 65x49 mosaic g1.5", 0x65aa11065fd0c742),
    ("wb 65x49 random g4", 0xf6230a79ffed1631),
    ("wb 65x49 random g1.5", 0xf6230a79ffed1631),
    ("wb 65x49 cast g4", 0x70a7750b4dedc269),
    ("wb 65x49 cast g1.5", 0xad8fc6862df16110),
    ("wb 640x480 mosaic g4", 0x874f26507e101b9e),
    ("wb 640x480 mosaic g1.5", 0xb5f7e77c7cf485bc),
    ("wb 640x480 random g4", 0xe9761fa4ecb5f16c),
    ("wb 640x480 random g1.5", 0xe9761fa4ecb5f16c),
    ("wb 640x480 cast g4", 0xe75e9b39003ddbed),
    ("wb 640x480 cast g1.5", 0x6ac31371b2120ce4),
];
const CCM: &[(&str, u64)] = &[
    ("ccm 1x1 default", 0x10d28670ddf3946d),
    ("ccm 1x1 identity", 0x8fd77771b76f6e6a),
    ("ccm 1x1 negative", 0x686628710fd3a7cf),
    ("gamma 1x1 -", 0xe345d77155e08517),
    ("ccm 2x3 default", 0x4d978be4abefeb95),
    ("ccm 2x3 identity", 0x2f9c586d3ad24105),
    ("ccm 2x3 negative", 0x75ee1bcfcde963f4),
    ("gamma 2x3 -", 0xf43f10b165ac16d1),
    ("ccm 3x2 default", 0xf8e0809592e99eb4),
    ("ccm 3x2 identity", 0xaf8e5d4e855a13cc),
    ("ccm 3x2 negative", 0x306bfb222c8f31a8),
    ("gamma 3x2 -", 0x33991923dc203d70),
    ("ccm 5x5 default", 0x60fd7e9682f6dcae),
    ("ccm 5x5 identity", 0x0fd69c3b663ecc7a),
    ("ccm 5x5 negative", 0x4e34349e808865d7),
    ("gamma 5x5 -", 0x0a6ec393c63270b9),
    ("ccm 6x7 default", 0x8ef58e0478db1ae8),
    ("ccm 6x7 identity", 0xcb551813e24a4b2d),
    ("ccm 6x7 negative", 0x3b6ce2d3cdd83675),
    ("gamma 6x7 -", 0x456a75f6374d097b),
    ("ccm 17x9 default", 0x2c34ba2adb7fef17),
    ("ccm 17x9 identity", 0xc1760418a153e1b3),
    ("ccm 17x9 negative", 0xa00c4997842a2b87),
    ("gamma 17x9 -", 0x5475de987a8b71cd),
    ("ccm 65x49 default", 0xbb8e33dbf30a5a82),
    ("ccm 65x49 identity", 0xe0efcfa993359d3e),
    ("ccm 65x49 negative", 0x743d8b42271d25f8),
    ("gamma 65x49 -", 0x7bf0ebb088574aae),
    ("ccm 640x480 default", 0x2537c62c97a98978),
    ("ccm 640x480 identity", 0xd8f663b26ac938bc),
    ("ccm 640x480 negative", 0x12d7d08bf36a342e),
    ("gamma 640x480 -", 0x1fc96627eec431b0),
];
const TD: &[(&str, u64)] = &[
    ("td 1x1 s0.5", 0x5f4949070d44feea),
    ("td 1x1 s1", 0x5f4923070d44be58),
    ("td 2x3 s0.5", 0x4e3050d675852882),
    ("td 2x3 s1", 0x4e3050d675852882),
    ("td 3x2 s0.5", 0x5bc3a8201c88b0c9),
    ("td 3x2 s1", 0x18f2f39df0635898),
    ("td 5x5 s0.5", 0xe421f943e74e0afb),
    ("td 5x5 s1", 0x584161b714b77c5c),
    ("td 6x7 s0.5", 0x745794e2424f9321),
    ("td 6x7 s1", 0x0da64517a0dab9b4),
    ("td 17x9 s0.5", 0x97a5525e593cdb0b),
    ("td 17x9 s1", 0x371b49c908c949f6),
    ("td 65x49 s0.5", 0xb73678ec134ef7c6),
    ("td 65x49 s1", 0xa6b023b4ef1c6215),
    ("td 640x480 s0.5", 0x625ee460e75ae4e3),
    ("td 640x480 s1", 0x11c15ba04246c13b),
];
const PIPELINE: &[(&str, u64)] = &[
    ("pipeline 640x480 f0", 0xc7bf788a805f383e),
    ("pipeline 640x480 f1", 0x5f414b34fbc09cd1),
    ("pipeline 640x480 f2", 0x28f98139e86b539b),
    ("pipeline 640x480 f3", 0x4165dd1b118f1a43),
    ("pipeline 640x480 f4", 0xdb21b0a38c3fa3e3),
    ("pipeline 640x480 f5", 0x4b59d3462cb9eca4),
    ("pipeline 65x49 f0", 0x8832beca1e87511c),
    ("pipeline 65x49 f1", 0x1da5130d6b7ef846),
    ("pipeline 65x49 f2", 0xa86c47f6c16196ad),
    ("pipeline 65x49 f3", 0xe6d5693c2da8fe6b),
    ("pipeline 65x49 f4", 0xec491696f1e70ce7),
    ("pipeline 65x49 f5", 0xa20cc3e8515680bd),
];
