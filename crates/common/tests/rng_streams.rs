//! Stream pins for the seeded generator behind every dataset, oracle,
//! IMU walk and property case: the first 1,000 draws of each kind the
//! workspace makes, folded into one FNV-1a digest per kind.
//!
//! The digests were recorded once and are not re-recorded: a moved digest
//! means the generator, its seeding or a draw's arithmetic changed, and
//! with it every calibrated figure downstream.

use euphrates_common::rngx::{self, Fnv1a};
use proptest::prelude::*;

const DRAWS: usize = 1_000;

/// The three (base, stream, index) triples every kind is drawn under.
const TRIPLES: [(u64, u64, u64); 3] = [(0, 0, 0), (42, 1, 7), (0xDEAD_BEEF, 0x7EAC, u64::MAX)];

/// Folds `DRAWS` draws of one kind, under each triple, into one digest.
fn digest(mut draw: impl FnMut(&mut rngx::Rng) -> u64) -> u64 {
    let mut h = Fnv1a::new();
    for (base, stream, index) in TRIPLES {
        let mut rng = rngx::derived_rng(base, stream, index);
        for _ in 0..DRAWS {
            h.write(&draw(&mut rng).to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn derived_streams_match_recorded_digests() {
    let got = [
        ("u64", digest(|r| r.next_u64())),
        ("unit f64", digest(|r| r.unit_f64().to_bits())),
        (
            "f64 range",
            digest(|r| r.gen_range(-2.5..7.25f64).to_bits()),
        ),
        ("u32 range", digest(|r| u64::from(r.gen_range(3u32..1_000)))),
        (
            "i16 inclusive",
            digest(|r| r.gen_range(-6i16..=6) as u16 as u64),
        ),
        ("gen_bool(0.3)", digest(|r| u64::from(r.gen_bool(0.3)))),
        (
            "gaussian",
            digest(|r| rngx::gaussian(r, 1.5, 0.75).to_bits()),
        ),
    ];
    let want = [
        ("u64", 0xB69E_B360_6575_515D),
        ("unit f64", 0x909A_6F28_B21F_263E),
        ("f64 range", 0xC83C_CF87_4F9E_904A),
        ("u32 range", 0xBA64_335B_745B_4E6A),
        ("i16 inclusive", 0xA21F_27F6_0AE0_4260),
        ("gen_bool(0.3)", 0x898C_C46F_FD5F_8685),
        ("gaussian", 0x4B5E_B901_B76C_9140),
    ];
    assert_eq!(got, want);
}

#[test]
fn proptest_case_stream_matches_recorded_digest() {
    let mut rng = proptest::test_rng("proptest_case_stream_matches_recorded_digest");
    let cases = (
        -5.0f64..5.0,
        0.0f64..=1.0,
        0u32..10,
        -3i64..=3,
        any::<u64>(),
        any::<bool>(),
    );
    let bytes = collection::vec(any::<u8>(), 0..6);
    let mut h = Fnv1a::new();
    for _ in 0..DRAWS {
        let (a, b, c, d, e, f) = cases.sample(&mut rng);
        let v = bytes.sample(&mut rng);
        h.write(&a.to_bits().to_le_bytes());
        h.write(&b.to_bits().to_le_bytes());
        h.write(&c.to_le_bytes());
        h.write(&d.to_le_bytes());
        h.write(&e.to_le_bytes());
        h.write(&[u8::from(f), v.len() as u8]);
        h.write(&v);
    }
    assert_eq!(h.finish(), 0x019D_CF9B_56EA_1C45);
}
