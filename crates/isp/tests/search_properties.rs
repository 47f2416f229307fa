//! Property tests for the pluggable motion-search engines: every
//! strategy must (a) never return a match worse than its window centre
//! (the zero vector, or the predictive matcher's predictor), (b) recover
//! pure global translation within its search range, and (c) stay within
//! its declared probe-budget cost model, predictive or not — the contract
//! that keeps new strategies honest about their compute claims
//! (ISSUE 2 satellites; acceptance: Diamond/Hierarchical match
//! exhaustive on translations at ≥5× fewer measured probes).

use euphrates_common::geom::Vec2i;
use euphrates_common::image::LumaFrame;
use euphrates_common::rngx;
use euphrates_isp::motion::{BlockMatcher, CachedPlanes, RowPrefix, SearchStrategy};
use euphrates_isp::predictive::PredictiveBlockMatcher;
use proptest::prelude::*;
use rand::Rng;

/// A textured frame that block matching can lock onto.
fn textured(width: u32, height: u32, seed: u64) -> LumaFrame {
    let mut f = LumaFrame::new(width, height).unwrap();
    for y in 0..height {
        for x in 0..width {
            let v = (rngx::lattice_hash(seed, i64::from(x / 4), i64::from(y / 4)) * 255.0) as u8;
            f.set(x, y, v);
        }
    }
    f
}

/// Shifts frame content by (dx, dy) with clamped edges.
fn shifted(src: &LumaFrame, dx: i32, dy: i32) -> LumaFrame {
    let mut out = LumaFrame::new(src.width(), src.height()).unwrap();
    for y in 0..src.height() {
        for x in 0..src.width() {
            out.set(
                x,
                y,
                src.at_clamped(i64::from(x) - i64::from(dx), i64::from(y) - i64::from(dy)),
            );
        }
    }
    out
}

/// SAD of the block at `(x0, y0)` against the previous frame's block
/// displaced by `-v` (edge-clamped) — the bound no strategy centred on `v`
/// may exceed, computed independently of the search machinery.
#[allow(clippy::too_many_arguments)]
fn offset_sad(
    cur: &LumaFrame,
    prev: &LumaFrame,
    x0: u32,
    y0: u32,
    bw: u32,
    bh: u32,
    v: Vec2i,
) -> u32 {
    let mut sad = 0u32;
    for y in y0..y0 + bh {
        for x in x0..x0 + bw {
            let p = prev.at_clamped(i64::from(x) - i64::from(v.x), i64::from(y) - i64::from(v.y));
            sad += u32::from(cur.at(x, y).abs_diff(p));
        }
    }
    sad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SWAR SAD micro-kernel must be bit-identical to a scalar
    /// per-pixel reference over arbitrary blocks — partial edge blocks
    /// and clamped-edge reference reads included. The reference
    /// evaluates every candidate in full (no early exit) with the
    /// row-major first-wins tie-break, which the engine's total-order
    /// tie-break (SAD, |v|², then (vy, vx)) reproduces exactly, so any
    /// kernel or walk divergence shows up as a field mismatch.
    #[test]
    fn swar_sad_kernel_bit_matches_scalar_reference(
        seed_a in 0u64..500,
        seed_b in 0u64..500,
        w in 33u32..90,
        h in 25u32..70,
        dx in -9i32..=9,
        dy in -9i32..=9,
    ) {
        let prev = textured(w, h, seed_a);
        let cur = shifted(&textured(w, h, seed_b), dx, dy);
        let (mb, d) = (16u32, 7i32);
        let m = BlockMatcher::new(mb, d as u32, SearchStrategy::Exhaustive).unwrap();
        let field = m.estimate(&cur, &prev).unwrap();
        for by in 0..field.blocks_y() {
            for bx in 0..field.blocks_x() {
                let x0 = bx * mb;
                let y0 = by * mb;
                let bw = (w - x0).min(mb);
                let bh = (h - y0).min(mb);
                // Scalar reference: full SAD of every window offset,
                // per-pixel clamped reads, row-major first-wins.
                let mut best: Option<(u32, i32, i32)> = None;
                for vy in -d..=d {
                    for vx in -d..=d {
                        let mut sad = 0u32;
                        for row in 0..bh {
                            for col in 0..bw {
                                let a = cur.at(x0 + col, y0 + row);
                                let b = prev.at_clamped(
                                    i64::from(x0 + col) - i64::from(vx),
                                    i64::from(y0 + row) - i64::from(vy),
                                );
                                sad += u32::from(a.abs_diff(b));
                            }
                        }
                        let better = match best {
                            None => true,
                            Some((bs, bx_, by_)) => {
                                sad < bs
                                    || (sad == bs
                                        && vx * vx + vy * vy < bx_ * bx_ + by_ * by_)
                            }
                        };
                        if better {
                            best = Some((sad, vx, vy));
                        }
                    }
                }
                let (ref_sad, ref_vx, ref_vy) = best.unwrap();
                let mv = field.at_block(bx, by);
                prop_assert_eq!(
                    (mv.sad, i32::from(mv.v.x), i32::from(mv.v.y)),
                    (ref_sad, ref_vx, ref_vy),
                    "block ({}, {}) of {}x{} shift ({},{})", bx, by, w, h, dx, dy
                );
            }
        }
    }

    /// Pyramid-cached hierarchical search must return exactly the
    /// motion vectors (and measured effort) of the per-call pyramid it
    /// replaces, on arbitrary content — including frames whose halved
    /// dimensions are odd.
    #[test]
    fn pyramid_cached_hierarchical_matches_per_call(
        seed_a in 0u64..500,
        w in 33u32..101,
        h in 25u32..81,
        dx in -7i32..=7,
        dy in -7i32..=7,
    ) {
        let prev = textured(w, h, seed_a);
        let cur = shifted(&prev, dx, dy);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Hierarchical).unwrap();
        prop_assert!(m.wants_pyramid());
        let (per_call, per_call_stats) = m.estimate_with_stats(&cur, &prev).unwrap();
        let ccur = euphrates_common::image::downsample2(&cur);
        let cprev = euphrates_common::image::downsample2(&prev);
        let pyramid = |coarse_cur| CachedPlanes {
            pyramid: Some((coarse_cur, &cprev)),
            ..CachedPlanes::default()
        };
        let (cached, cached_stats) = m.estimate_cached(&cur, &prev, pyramid(&ccur)).unwrap();
        prop_assert_eq!(per_call, cached);
        prop_assert_eq!(per_call_stats, cached_stats);
        // Mis-shaped coarse planes are rejected, not silently accepted.
        prop_assert!(m.estimate_cached(&cur, &prev, pyramid(&prev)).is_err());
        // Strategies that never consult the pyramid ignore it.
        let es = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        prop_assert!(!es.wants_pyramid());
        let (a, _) = es.estimate_cached(&cur, &prev, pyramid(&ccur)).unwrap();
        prop_assert_eq!(a, es.estimate(&cur, &prev).unwrap());
    }

    /// The SAD lower-bound prefilter must be a pure optimization: on
    /// arbitrary noisy content — partial edge blocks and clamped-edge
    /// candidates included — every strategy returns a bit-identical
    /// motion field with a bit-identical measured probe count whether
    /// the prefilter is on or off (a rejected candidate is charged
    /// exactly like the evaluation it replaced). Only `sad_ops` (work
    /// actually done) and `lb_skips` (rejections) may differ, and a
    /// caller-cached [`RowPrefix`] must behave exactly like the
    /// internally built one.
    #[test]
    fn prefiltered_search_bit_matches_unfiltered(
        seed in 0u64..1000,
        w in 33u32..101,
        h in 25u32..81,
        dx in -7i32..=7,
        dy in -7i32..=7,
    ) {
        let prev = textured(w, h, seed);
        let mut cur = shifted(&prev, dx, dy);
        let mut rng = rngx::derived_rng(seed, 1, 2);
        for px in cur.samples_mut() {
            let noise: i16 = rng.gen_range(-6..=6);
            *px = (i16::from(*px) + noise).clamp(0, 255) as u8;
        }
        let prefix = RowPrefix::build(&prev);
        for strategy in SearchStrategy::BUILTIN {
            let off = BlockMatcher::new(16, 7, strategy).unwrap();
            prop_assert!(!off.prefilter());
            let on = off.with_prefilter(true);
            let (f_on, s_on) = on.estimate_with_stats(&cur, &prev).unwrap();
            let (f_off, s_off) = off.estimate_with_stats(&cur, &prev).unwrap();
            prop_assert_eq!(&f_on, &f_off, "{:?} field diverged", strategy);
            prop_assert_eq!(s_on.blocks, s_off.blocks);
            prop_assert_eq!(
                s_on.probes, s_off.probes,
                "{:?}: probe count not invariant under the prefilter", strategy
            );
            prop_assert_eq!(s_off.lb_skips, 0);
            prop_assert!(s_on.sad_ops <= s_off.sad_ops);
            // A caller-cached prefix table is the same computation.
            let (f_cached, s_cached) = on
                .estimate_cached(
                    &cur,
                    &prev,
                    CachedPlanes { prefix_prev: Some(&prefix), ..CachedPlanes::default() },
                )
                .unwrap();
            prop_assert_eq!(&f_on, &f_cached, "{:?} cached-prefix field diverged", strategy);
            prop_assert_eq!(s_on, s_cached);
        }
        // Mis-shaped prefix tables are rejected, not silently accepted.
        let wrong = RowPrefix::build(&textured(w + 1, h, seed));
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        prop_assert!(m
            .estimate_cached(
                &cur,
                &prev,
                CachedPlanes { prefix_prev: Some(&wrong), ..CachedPlanes::default() },
            )
            .is_err());
    }

    /// (a) No strategy may return a SAD worse than the zero vector, on
    /// any content — including uncorrelated frames where search can only
    /// flail. Centred on a predictor, no strategy may return a SAD worse
    /// than the predictor's.
    #[test]
    fn no_strategy_is_worse_than_the_zero_vector(
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        dx in -9i32..=9,
        dy in -9i32..=9,
        px in -12i16..=12,
        py in -12i16..=12,
    ) {
        let prev = textured(80, 64, seed_a);
        let moved = shifted(&textured(80, 64, seed_b), dx, dy);
        let predictor = Vec2i::new(px, py);
        for strategy in SearchStrategy::BUILTIN {
            let m = BlockMatcher::new(16, 7, strategy).unwrap();
            let pm = PredictiveBlockMatcher::new(16, 7, strategy).unwrap();
            let fields = [
                (Vec2i::ZERO, m.estimate(&moved, &prev).unwrap()),
                (
                    predictor,
                    pm.estimate_with_global_predictor(&moved, &prev, predictor).unwrap(),
                ),
            ];
            for (centre, field) in fields {
                for by in 0..field.blocks_y() {
                    for bx in 0..field.blocks_x() {
                        let x0 = bx * 16;
                        let y0 = by * 16;
                        let bw = (80 - x0).min(16);
                        let bh = (64 - y0).min(16);
                        let bound = offset_sad(&moved, &prev, x0, y0, bw, bh, centre);
                        prop_assert!(
                            field.at_block(bx, by).sad <= bound,
                            "{strategy:?} centred on {centre:?}, block ({bx},{by}): \
                             sad {} > centre bound {bound}",
                            field.at_block(bx, by).sad
                        );
                    }
                }
            }
        }
    }

    /// (b) Every strategy recovers a pure global translation exactly on
    /// interior blocks, within its reliable envelope: exhaustive anywhere
    /// in the window, the fixed-shape walks (TSS, hierarchical) up to
    /// |shift|∞ = 4, diamond (which trades large-motion reach for the
    /// lowest probe count on smooth motion) up to |shift|∞ = 3. The
    /// envelopes were measured by scanning every shift in the ±7 window
    /// over 20 textures: the first heuristic misses appear at magnitude
    /// 6 (TSS, hierarchical) and 4 (diamond).
    #[test]
    fn every_strategy_recovers_global_translation(
        seed in 0u64..1000,
        dx in -7i32..=7,
        dy in -7i32..=7,
    ) {
        let prev = textured(96, 96, seed);
        let cur = shifted(&prev, dx, dy);
        let mag = dx.abs().max(dy.abs());
        for strategy in SearchStrategy::BUILTIN {
            let envelope = match strategy {
                SearchStrategy::Exhaustive => 7,
                SearchStrategy::Diamond => 3,
                _ => 4,
            };
            if mag > envelope {
                continue;
            }
            let m = BlockMatcher::new(16, 7, strategy).unwrap();
            let field = m.estimate(&cur, &prev).unwrap();
            let mv = field.at_block(2, 2);
            prop_assert_eq!(
                (i32::from(mv.v.x), i32::from(mv.v.y)),
                (dx, dy),
                "{:?} missed shift ({},{})", strategy, dx, dy
            );
            prop_assert_eq!(mv.sad, 0);
        }
    }

    /// (c) Measured probe counts stay within each strategy's declared
    /// budget: the model is an upper bound that adaptive walks never
    /// exceed, and it is tight enough to be meaningful (walks use at
    /// least a quarter of it; exhaustive uses it exactly). The
    /// predictive matcher, its windows centred on the per-block motion
    /// of a warm-up pair shifted by `(px, py)`, runs the same walks
    /// under the same budget — so three-step search probes strictly
    /// fewer candidates than exhaustive there too.
    #[test]
    fn measured_probes_stay_within_the_cost_model(
        seed in 0u64..1000,
        dx in -7i32..=7,
        dy in -7i32..=7,
        d in 3u32..=9,
        px in -12i32..=12,
        py in -12i32..=12,
    ) {
        let prev = textured(96, 96, seed);
        let cur = shifted(&prev, dx, dy);
        let warm_up = shifted(&prev, px, py);
        let mut predictive_probes = Vec::new();
        for strategy in SearchStrategy::BUILTIN {
            let mut pm = PredictiveBlockMatcher::new(16, d, strategy).unwrap();
            pm.estimate(&warm_up, &prev).unwrap();
            let (_, stats) = pm.estimate_with_stats(&cur, &prev).unwrap();
            let budget = stats.blocks * strategy.probes_per_block(d);
            prop_assert!(
                stats.probes <= budget,
                "predictive {strategy:?} at d={d}: measured {} probes exceed budget {budget}",
                stats.probes
            );
            if strategy == SearchStrategy::Exhaustive {
                prop_assert_eq!(stats.probes, budget);
            }
            predictive_probes.push((strategy, stats.probes));
        }
        let probes_of = |s| predictive_probes.iter().find(|(k, _)| *k == s).unwrap().1;
        prop_assert!(
            probes_of(SearchStrategy::ThreeStep) < probes_of(SearchStrategy::Exhaustive),
            "predictive probes {predictive_probes:?}"
        );
        for strategy in SearchStrategy::BUILTIN {
            let m = BlockMatcher::new(16, d, strategy).unwrap();
            let (_, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
            let budget = stats.blocks * strategy.probes_per_block(d);
            prop_assert!(
                stats.probes <= budget,
                "{strategy:?} at d={d}: measured {} probes exceed budget {budget}",
                stats.probes
            );
            match strategy {
                // Exhaustive probes every window offset exactly once.
                SearchStrategy::Exhaustive => {
                    prop_assert_eq!(stats.probes, budget);
                }
                // Diamond's budget is a worst-case walk bound; the
                // honest floor is its fixed pattern cost (center + LDSP
                // + SDSP).
                SearchStrategy::Diamond => {
                    prop_assert!(stats.probes >= 13 * stats.blocks);
                }
                // The fixed-shape walks track their model tightly.
                _ => {
                    prop_assert!(
                        4 * stats.probes >= budget,
                        "{strategy:?} at d={d}: measured {} probes, budget {budget} is not tight",
                        stats.probes
                    );
                }
            }
        }
    }
}

/// Acceptance: on global translations the cheap searches agree with
/// exhaustive on interior blocks while measuring ≥5× fewer probes.
#[test]
fn diamond_and_hierarchical_match_exhaustive_at_5x_fewer_probes() {
    let prev = textured(128, 128, 77);
    let es = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
    for (dx, dy) in [(2, 1), (-3, 2), (0, -3), (3, 3), (-2, -2)] {
        let cur = shifted(&prev, dx, dy);
        let (ref_field, ref_stats) = es.estimate_with_stats(&cur, &prev).unwrap();
        for strategy in [SearchStrategy::Diamond, SearchStrategy::Hierarchical] {
            let m = BlockMatcher::new(16, 7, strategy).unwrap();
            let (field, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
            // Interior blocks (clamped edges excluded) agree exactly.
            for by in 2..6 {
                for bx in 2..6 {
                    assert_eq!(
                        field.at_block(bx, by).v,
                        ref_field.at_block(bx, by).v,
                        "{strategy:?} block ({bx},{by}) shift ({dx},{dy})"
                    );
                }
            }
            assert!(
                stats.probes * 5 <= ref_stats.probes,
                "{strategy:?} shift ({dx},{dy}): {} probes vs exhaustive {} — less than 5x saving",
                stats.probes,
                ref_stats.probes
            );
        }
    }
}

/// Acceptance: the lower-bound prefilter resolves a substantial share
/// of probes without pixel work on realistic (textured + sensor-noise)
/// content, for both the exhaustive walk and the hierarchical pyramid
/// walk (whose coarse probes go through the coarse prefix table) — and
/// the fully cached-planes streaming path is the same computation.
///
/// The thresholds are strategy-specific because the walks differ in
/// how separable their candidates are: the exhaustive ring walk spends
/// most probes on far-off losers the bound rejects outright (measured
/// 65 % skipped here, 91 % on rendered noisy VGA), while the
/// hierarchical fine pass probes a coarse-seeded neighborhood whose
/// candidates are all near-winners (measured 20 % here, 58 % on
/// rendered VGA). Content and engine are deterministic, so the
/// measured counts are exact; the asserted floors leave ≥1.3× slack.
#[test]
fn prefilter_skips_substantially_on_noisy_content() {
    let prev = textured(128, 96, 55);
    let mut cur = shifted(&prev, 3, -2);
    let mut rng = rngx::derived_rng(55, 3, 4);
    for px in cur.samples_mut() {
        let noise: i16 = rng.gen_range(-5..=5);
        *px = (i16::from(*px) + noise).clamp(0, 255) as u8;
    }
    for (strategy, denom) in [
        (SearchStrategy::Exhaustive, 2),
        (SearchStrategy::Hierarchical, 8),
    ] {
        let m = BlockMatcher::new(16, 7, strategy)
            .unwrap()
            .with_prefilter(true);
        let (_, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
        assert!(
            stats.lb_skips * denom >= stats.probes,
            "{strategy:?}: only {} of {} probes prefilter-skipped",
            stats.lb_skips,
            stats.probes
        );
    }
    // The streaming shape: every derived plane caller-cached at once.
    let m = BlockMatcher::new(16, 7, SearchStrategy::Hierarchical)
        .unwrap()
        .with_prefilter(true);
    let (ccur, cprev) = (
        euphrates_common::image::downsample2(&cur),
        euphrates_common::image::downsample2(&prev),
    );
    let (prefix, cprefix) = (RowPrefix::build(&prev), RowPrefix::build(&cprev));
    let (cached_field, cached_stats) = m
        .estimate_cached(
            &cur,
            &prev,
            CachedPlanes {
                pyramid: Some((&ccur, &cprev)),
                prefix_prev: Some(&prefix),
                coarse_prefix_prev: Some(&cprefix),
            },
        )
        .unwrap();
    let (field, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
    assert_eq!(field, cached_field);
    assert_eq!(stats, cached_stats);
    // A coarse prefix without its pyramid is rejected.
    assert!(m
        .estimate_cached(
            &cur,
            &prev,
            CachedPlanes {
                coarse_prefix_prev: Some(&cprefix),
                ..CachedPlanes::default()
            },
        )
        .is_err());
}

/// The TSS cost-model satellite: the reported budget tracks the probes
/// the walk actually performs (within tolerance), at every range — the
/// historical closed form drifted at ranges that are not 2^k − 1.
#[test]
fn tss_model_matches_measured_probes_within_tolerance() {
    let prev = textured(96, 96, 31);
    let cur = shifted(&prev, 3, -2);
    for d in [1u32, 3, 4, 7, 10, 15] {
        let m = BlockMatcher::new(16, d, SearchStrategy::ThreeStep).unwrap();
        let (_, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
        let model = SearchStrategy::ThreeStep.probes_per_block(d) as f64;
        let measured = stats.probes_per_block();
        assert!(
            measured <= model && measured >= 0.6 * model,
            "d={d}: measured {measured:.1} probes/block vs model {model}"
        );
    }
}
