//! Block-matching motion estimation (§2.3 of the paper).
//!
//! The frame is divided into `L × L` macroblocks; for each, the matcher
//! finds the offset within a `(2d+1)²` search window of the *previous*
//! frame minimizing the Sum of Absolute Differences (SAD). *How* the
//! window is explored is a strategy: the paper evaluates exhaustive
//! search against the three-step search (Fig. 11b), and related work
//! treats the search pattern as a first-class accuracy/compute knob.
//! [`SearchStrategy`] names one of four built-in walks, each with an
//! explicit probe-budget cost model
//! ([`SearchStrategy::probes_per_block`]):
//! [`Exhaustive`](SearchStrategy::Exhaustive) (`(2d+1)²` probes),
//! [`ThreeStep`](SearchStrategy::ThreeStep) (Koga et al., `1 + 8·steps`
//! probes), [`Diamond`](SearchStrategy::Diamond) (Zhu & Ma's LDSP/SDSP
//! walk), and [`Hierarchical`](SearchStrategy::Hierarchical) (two-level
//! pyramid: coarse TSS on a 2×-downsampled plane, ±1 refinement at full
//! resolution). Every walk runs through one metered search context that
//! counts each SAD evaluation, so reported probe counts
//! ([`SearchStats`]) are measured, not assumed.
//!
//! Each motion vector carries its SAD, from which the per-block confidence
//! of Equ. 2 is derived: `α = 1 − SAD / (255 · n)`, with `n` the number of
//! pixels actually compared (edge blocks may be partial).
//!
//! The SAD kernel is a SWAR micro-kernel: rows are evaluated as 8-pixel
//! lanes in fixed-width per-byte reductions the compiler lowers to the
//! hardware SAD instruction where one exists (`psadbw` on x86-64), with
//! rows addressed by running offsets into the flat sample storage, the
//! ubiquitous 16-px block width fully unrolled (two rows per early-exit
//! check), and candidates abandoned once they provably exceed the
//! incumbent best — abandoned, never mis-scored, so results are
//! bit-identical to the naive kernel. Ahead of the kernel an opt-in SAD
//! *lower-bound prefilter* can be enabled (see
//! [`BlockMatcher::with_prefilter`]): per-row sums of the reference
//! frame are prefix-summed once per frame pair ([`RowPrefix`]), so each
//! fully in-bounds candidate gets a triangle-inequality bound on its
//! SAD from `bh` additions — candidates whose bound already exceeds the
//! incumbent are rejected before a single pixel load, with fields and
//! probe counts provably unchanged. On noisy VGA content the prefilter
//! eliminates ~91 % of exhaustive-search candidate evaluations (4.8×
//! fewer absolute-difference ops) and ~58 % of hierarchical ones
//! (1.55× fewer ops) — the right default for a hardware ISP, where
//! pixel fetches are the cost. It is *off* by default on the host path
//! because the SWAR early exit already floors a losing candidate at
//! roughly the price of the bound walk itself, so host wall-clock is
//! neutral while the bound adds work to every surviving candidate
//! (measured, not hypothesized — see `ablation_motion_engine`).
//! The best-match tie-break is a
//! *total* order (SAD, then |v|², then `(vy, vx)`), which makes the
//! winner independent of probe order and lets walks reorder probes for
//! early-exit efficiency (the exhaustive walk probes center-out rings).
//! Pyramid strategies can reuse caller-cached 2×-downsampled planes via
//! [`BlockMatcher::estimate_cached`] — how the streaming frontend
//! avoids rebuilding both levels every frame pair. Every walk searches a
//! window around a per-block centre: zero here, the block's predicted
//! motion in [`PredictiveBlockMatcher`](crate::predictive::PredictiveBlockMatcher),
//! which shares this walk and SAD kernel.

use euphrates_common::error::{Error, Result};
use euphrates_common::geom::{Rect, Vec2i};
use euphrates_common::image::{downsample2, downsample2_dims, LumaFrame, Resolution};
use euphrates_common::units::Bytes;
use std::fmt;

/// A motion vector with its matching cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Offset of the best match in the previous frame: the block at `(x,y)`
    /// matched the block at `(x−vx, y−vy)` of the previous frame, i.e. the
    /// content *moved by* `v` between the frames.
    pub v: Vec2i,
    /// Sum of absolute differences of the best match.
    pub sad: u32,
}

// ---------------------------------------------------------------------------
// Strategy names
// ---------------------------------------------------------------------------

/// The name of a block-matching search strategy.
///
/// This is the cheap, copyable, hashable identifier carried by
/// configuration structs; the matcher resolves it to the built-in walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Full search of every offset in the window (most accurate).
    Exhaustive,
    /// Three-step search: logarithmic refinement (≈9× cheaper at d=7).
    ThreeStep,
    /// Diamond search: large/small diamond pattern walk (Zhu & Ma); fewest
    /// probes on smooth motion, gracefully degrades toward TSS cost.
    Diamond,
    /// Two-level hierarchical (pyramid) search: coarse TSS at half
    /// resolution, ±1 full-resolution refinement.
    Hierarchical,
}

impl SearchStrategy {
    /// The four built-in strategies, in cost-descending order.
    pub const BUILTIN: [SearchStrategy; 4] = [
        SearchStrategy::Exhaustive,
        SearchStrategy::ThreeStep,
        SearchStrategy::Diamond,
        SearchStrategy::Hierarchical,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::ThreeStep => "three-step",
            SearchStrategy::Diamond => "diamond",
            SearchStrategy::Hierarchical => "hierarchical",
        }
    }

    /// The walk this name selects.
    pub(crate) fn resolve(self) -> &'static dyn MotionSearch {
        match self {
            SearchStrategy::Exhaustive => &ExhaustiveSearch,
            SearchStrategy::ThreeStep => &ThreeStepSearch,
            SearchStrategy::Diamond => &DiamondSearch,
            SearchStrategy::Hierarchical => &HierarchicalSearch,
        }
    }

    /// SAD probes per macroblock under this strategy's cost model.
    pub fn probes_per_block(self, search_range: u32) -> u64 {
        self.resolve().probes_per_block(search_range)
    }

    /// Arithmetic operations per macroblock for this strategy, per the
    /// paper's cost model (§2.3).
    pub fn ops_per_block(self, mb_size: u32, search_range: u32) -> u64 {
        self.resolve().ops_per_block(mb_size, search_range)
    }
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// MotionSearch trait + metered search context
// ---------------------------------------------------------------------------

/// One block-matching search algorithm: a probe-budget cost model plus
/// the search walk itself.
///
/// Implementations explore the window exclusively through
/// [`SearchCtx::probe`] (and [`SearchCtx::probe_coarse`] for pyramid
/// strategies), which meters every SAD evaluation, memoizes visited
/// offsets, early-exits against the incumbent best, and maintains the
/// best-so-far under the deterministic tie-break (lower SAD, then
/// shorter vector, then smaller `(vy, vx)` lexicographically). The
/// tie-break is a *total* order, so the winner over any candidate set is
/// independent of visiting order — which is what lets walks reorder
/// probes for better early-exit behaviour without changing results.
///
/// The window is centred on a per-block offset ([`SearchCtx::centre`]):
/// zero for [`BlockMatcher`], the block's clamped predictor for
/// [`PredictiveBlockMatcher`](crate::predictive::PredictiveBlockMatcher).
/// Walks start from that centre, and the centre is always probed before
/// `search` runs, so no strategy can return a match worse than it.
pub(crate) trait MotionSearch {
    /// Cost model: SAD probes per macroblock at search range `d`. An
    /// upper bound for adaptive walks; measured counts
    /// ([`SearchStats::probes`]) must never exceed it.
    fn probes_per_block(&self, search_range: u32) -> u64;

    /// Cost model: arithmetic operations per `mb_size²` macroblock. The
    /// default charges one op per pixel per probe; pyramid strategies
    /// override it to price coarse probes at their smaller block size.
    fn ops_per_block(&self, mb_size: u32, search_range: u32) -> u64 {
        u64::from(mb_size) * u64::from(mb_size) * self.probes_per_block(search_range)
    }

    /// `true` if the engine needs the 2×-downsampled pyramid level
    /// ([`SearchCtx::probe_coarse`]); the matcher then builds it once per
    /// frame pair.
    fn wants_pyramid(&self) -> bool {
        false
    }

    /// Explores the window for the block described by `ctx`. The result
    /// is whatever [`SearchCtx::best`] holds afterwards.
    fn search(&self, ctx: &mut SearchCtx<'_>);
}

/// Measured search-effort counters for one [`BlockMatcher::estimate_with_stats`]
/// call (or an aggregate of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Macroblocks searched.
    pub blocks: u64,
    /// Candidate evaluations charged: every offset a walk evaluates, at
    /// either pyramid level (memoized re-probes and out-of-range
    /// candidates are not counted). The
    /// count is *invariant* under the lower-bound prefilter — a probe
    /// the prefilter resolves without touching pixels is charged
    /// exactly like the full evaluation it replaced
    /// ([`lb_skips`][SearchStats::lb_skips] says how many went that
    /// way).
    pub probes: u64,
    /// Absolute-difference operations actually performed (early-exited
    /// probes charge only the rows they evaluated; prefilter-skipped
    /// probes charge none).
    pub sad_ops: u64,
    /// Probes resolved by the SAD lower-bound prefilter alone — the
    /// row-sum bound already exceeded the incumbent, so no pixel data
    /// was loaded. A subset of [`probes`][SearchStats::probes]; zero
    /// when the prefilter is disabled.
    pub lb_skips: u64,
}

impl SearchStats {
    /// Mean measured probes per macroblock.
    pub fn probes_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.probes as f64 / self.blocks as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Row-prefix tables (SAD lower-bound prefilter)
// ---------------------------------------------------------------------------

/// Per-row inclusive prefix sums of a luma plane: the sum of any row
/// segment in O(1). One table per *reference* frame serves every
/// macroblock and every candidate offset of a frame pair — the fuel for
/// the SAD lower-bound prefilter (see [`BlockMatcher::with_prefilter`]). Per row,
/// `|Σ cur − Σ cand| = |Σ (cur − cand)| ≤ Σ |cur − cand|` (triangle
/// inequality), so summing the per-row absolute sum differences bounds
/// the block SAD from below; a candidate whose bound already exceeds
/// the incumbent is rejected from `bh` additions instead of up to
/// `bh·bw` pixel loads — and provably could not have won, so fields are
/// bit-identical. Streaming callers build each frame's table once
/// ([`rebuild`][RowPrefix::rebuild] into a reused buffer) and
/// double-buffer it alongside the luma planes, exactly like the
/// pyramid level (see [`BlockMatcher::estimate_cached`]).
#[derive(Debug, Clone, Default)]
pub struct RowPrefix {
    /// Row stride: plane width + 1 (each row leads with a zero).
    w1: usize,
    h: usize,
    data: Vec<u32>,
}

impl RowPrefix {
    /// Builds the table for `frame`.
    pub fn build(frame: &LumaFrame) -> Self {
        let mut t = RowPrefix::default();
        t.rebuild(frame);
        t
    }

    /// Rebuilds the table in place for `frame`, reusing the allocation
    /// (the steady-state entry point for streaming callers).
    pub fn rebuild(&mut self, frame: &LumaFrame) {
        let w = frame.width() as usize;
        self.w1 = w + 1;
        self.h = frame.height() as usize;
        self.data.resize(self.w1 * self.h, 0);
        for (out, row) in self
            .data
            .chunks_exact_mut(self.w1)
            .zip(frame.samples().chunks_exact(w))
        {
            let mut run = 0u32;
            out[0] = 0;
            for (o, &px) in out[1..].iter_mut().zip(row) {
                run += u32::from(px);
                *o = run;
            }
        }
    }

    /// `true` if the table was built for a plane of `frame`'s shape.
    pub fn matches(&self, frame: &LumaFrame) -> bool {
        self.w1 == frame.width() as usize + 1 && self.h == frame.height() as usize
    }

    /// `true` if the candidate block at `(rx, ry)` provably cannot beat
    /// `limit`: the running row-sum bound is compared against `limit`
    /// after every row, so clear losers are rejected after a couple of
    /// additions — the same early-exit shape as the SAD kernel itself.
    /// The row walk is a strength-reduced stride over one up-front
    /// subslice (no per-row multiply, one range check for the window).
    #[inline]
    fn rejects(&self, cur_rows: &[u32], rx: usize, ry: usize, bw: usize, limit: u32) -> bool {
        let Some(last) = cur_rows.len().checked_sub(1) else {
            return false;
        };
        let start = ry * self.w1 + rx;
        let tab = &self.data[start..start + last * self.w1 + bw + 1];
        let mut bound = 0u32;
        let mut base = 0usize;
        for &cr in cur_rows {
            bound += cr.abs_diff(tab[base + bw] - tab[base]);
            if bound > limit {
                return true;
            }
            base += self.w1;
        }
        false
    }
}

/// Reusable per-call scratch (visited-offset bitmaps and the current
/// block's row sums), so per-block bookkeeping costs a `fill` instead
/// of an allocation.
#[derive(Debug, Default)]
struct Scratch {
    visited: Vec<bool>,
    coarse_visited: Vec<bool>,
    cur_rows: Vec<u32>,
    ccur_rows: Vec<u32>,
}

/// The metered view of one macroblock's search a [`MotionSearch`] engine
/// operates through.
pub(crate) struct SearchCtx<'a> {
    cur: &'a LumaFrame,
    prev: &'a LumaFrame,
    coarse: Option<(&'a LumaFrame, &'a LumaFrame)>,
    x0: u32,
    y0: u32,
    bw: u32,
    bh: u32,
    /// Coarse block geometry (origin + extent in the pyramid plane),
    /// hoisted out of the per-probe path: halved origin/extent, clamped
    /// into the plane (odd origins floor toward it).
    cgeom: (u32, u32, u32, u32),
    /// Window centre (fine) and its floor-halved pyramid counterpart:
    /// probes are confined to `|v − centre| ≤ d` (`dc` at the coarse
    /// level).
    centre: Vec2i,
    coarse_centre: Vec2i,
    d: i32,
    dc: i32,
    best: MotionVector,
    probes: u64,
    sad_ops: u64,
    lb_skips: u64,
    visited: &'a mut [bool],
    coarse_visited: &'a mut [bool],
    /// Reference-frame row-prefix tables (fine, coarse) — present only
    /// when the matcher's lower-bound prefilter is enabled.
    prefix: Option<&'a RowPrefix>,
    cprefix: Option<&'a RowPrefix>,
    /// Row sums of the current block (fine, coarse), filled when the
    /// matching prefix table is present.
    cur_rows: &'a [u32],
    ccur_rows: &'a [u32],
}

impl<'a> SearchCtx<'a> {
    #[allow(clippy::too_many_arguments)] // constructed in one place, by the matcher
    fn new(
        cur: &'a LumaFrame,
        prev: &'a LumaFrame,
        coarse: Option<(&'a LumaFrame, &'a LumaFrame)>,
        prefix: Option<&'a RowPrefix>,
        cprefix: Option<&'a RowPrefix>,
        scratch: &'a mut Scratch,
        x0: u32,
        y0: u32,
        bw: u32,
        bh: u32,
        d: i32,
        centre: Vec2i,
    ) -> Self {
        let dc = coarse_range(d);
        let fine_cells = ((2 * d + 1) * (2 * d + 1)) as usize;
        let coarse_cells = ((2 * dc + 1) * (2 * dc + 1)) as usize;
        scratch.visited.resize(fine_cells, false);
        scratch.visited.fill(false);
        scratch.coarse_visited.resize(coarse_cells, false);
        scratch.coarse_visited.fill(false);
        let cgeom = match coarse {
            Some((ccur, _)) => {
                let cw = ccur.width();
                let ch = ccur.height();
                let cx0 = (x0 / 2).min(cw - 1);
                let cy0 = (y0 / 2).min(ch - 1);
                (
                    cx0,
                    cy0,
                    (bw / 2).max(1).min(cw - cx0),
                    (bh / 2).max(1).min(ch - cy0),
                )
            }
            None => (0, 0, 0, 0),
        };
        // Block row sums for the prefilter bound, once per block — the
        // cost of roughly one probe, amortized over the whole walk.
        scratch.cur_rows.clear();
        if prefix.is_some() {
            for r in 0..bh {
                let row = &cur.row(y0 + r)[x0 as usize..(x0 + bw) as usize];
                scratch.cur_rows.push(row_total(row));
            }
        }
        scratch.ccur_rows.clear();
        if cprefix.is_some() {
            if let Some((ccur, _)) = coarse {
                let (cx0, cy0, cbw, cbh) = cgeom;
                for r in 0..cbh {
                    let row = &ccur.row(cy0 + r)[cx0 as usize..(cx0 + cbw) as usize];
                    scratch.ccur_rows.push(row_total(row));
                }
            }
        }
        let mut ctx = SearchCtx {
            cur,
            prev,
            coarse,
            x0,
            y0,
            bw,
            bh,
            cgeom,
            centre,
            coarse_centre: Vec2i::new(centre.x >> 1, centre.y >> 1),
            d,
            dc,
            best: MotionVector {
                v: centre,
                sad: u32::MAX,
            },
            probes: 0,
            sad_ops: 0,
            lb_skips: 0,
            visited: &mut scratch.visited,
            coarse_visited: &mut scratch.coarse_visited,
            prefix,
            cprefix,
            cur_rows: &scratch.cur_rows,
            ccur_rows: &scratch.ccur_rows,
        };
        // Seed: the centre is always evaluated first, so no strategy can
        // return a match worse than it.
        ctx.probe(i32::from(centre.x), i32::from(centre.y));
        ctx
    }

    /// The window centre: probes are confined to
    /// `|vx − cx|, |vy − cy| ≤ d`, and walks start here.
    pub fn centre(&self) -> Vec2i {
        self.centre
    }

    /// The coarse-level window centre (the fine centre halved, rounding
    /// toward −∞), where pyramid walks start.
    pub fn coarse_centre(&self) -> Vec2i {
        self.coarse_centre
    }

    /// Search range `d` around [`SearchCtx::centre`].
    pub fn range(&self) -> i32 {
        self.d
    }

    /// Coarse-level search range (pyramid strategies).
    pub fn coarse_range(&self) -> i32 {
        self.dc
    }

    /// `true` if the matcher built the 2×-downsampled pyramid level for
    /// this frame pair (i.e. the engine declared
    /// [`MotionSearch::wants_pyramid`]).
    pub fn has_pyramid(&self) -> bool {
        self.coarse.is_some()
    }

    /// The best match found so far (the centre is always probed before
    /// the engine runs).
    pub fn best(&self) -> MotionVector {
        self.best
    }

    /// Bitmap slot of offset `(vx, vy)` in the `(2r+1)²` window centred
    /// on `c`, or `None` outside the window.
    fn window_index(r: i32, c: Vec2i, vx: i32, vy: i32) -> Option<usize> {
        let (rx, ry) = (vx - i32::from(c.x), vy - i32::from(c.y));
        if rx.abs() > r || ry.abs() > r {
            return None;
        }
        Some(((ry + r) * (2 * r + 1) + (rx + r)) as usize)
    }

    /// Probes offset `(vx, vy)`: evaluates the block SAD (early-exiting
    /// once it provably exceeds the incumbent best) and folds the result
    /// into [`SearchCtx::best`]. Returns `false` without evaluating
    /// anything for out-of-range or already-probed offsets, so adaptive
    /// walks may revisit freely at zero cost.
    ///
    /// When the matcher's lower-bound prefilter is enabled, a fully
    /// in-bounds candidate whose row-sum bound (see [`RowPrefix`])
    /// *strictly* exceeds the incumbent SAD is rejected without loading
    /// a pixel: its true SAD is at least the bound, so it could not
    /// have displaced the best under the `(SAD, |v|², (vy, vx))` total
    /// order. Exact-bound ties are always fully evaluated, keeping the
    /// shorter-vector tie-break bit-identical to the unfiltered walk;
    /// the rejection is metered as a probe, so probe counts are
    /// invariant too.
    pub fn probe(&mut self, vx: i32, vy: i32) -> bool {
        let Some(idx) = Self::window_index(self.d, self.centre, vx, vy) else {
            return false;
        };
        if self.visited[idx] {
            return false;
        }
        self.visited[idx] = true;
        let limit = self.best.sad;
        if let Some(pf) = self.prefix {
            let rx = i64::from(self.x0) - i64::from(vx);
            let ry = i64::from(self.y0) - i64::from(vy);
            let in_bounds = rx >= 0
                && ry >= 0
                && rx + i64::from(self.bw) <= i64::from(self.prev.width())
                && ry + i64::from(self.bh) <= i64::from(self.prev.height());
            if in_bounds
                && pf.rejects(
                    self.cur_rows,
                    rx as usize,
                    ry as usize,
                    self.bw as usize,
                    limit,
                )
            {
                self.probes += 1;
                self.lb_skips += 1;
                return true;
            }
        }
        let (sad, rows) = sad_block(
            self.cur, self.prev, self.x0, self.y0, self.bw, self.bh, vx, vy, limit,
        );
        self.probes += 1;
        self.sad_ops += u64::from(rows) * u64::from(self.bw);
        let v = Vec2i::new(vx as i16, vy as i16);
        if sad < self.best.sad
            || (sad == self.best.sad
                && (v.norm_sq(), v.y, v.x) < (self.best.v.norm_sq(), self.best.v.y, self.best.v.x))
        {
            self.best = MotionVector { v, sad };
        }
        true
    }

    /// Probes offset `(vx, vy)` at the coarse pyramid level, returning
    /// the coarse SAD. Coarse probes are metered like fine ones (at the
    /// coarse block's smaller pixel count) but do not touch
    /// [`SearchCtx::best`] — the engine owns coarse-level bookkeeping,
    /// including the early-exit `limit`: a returned SAD strictly greater
    /// than `limit` may be partial (the evaluation abandoned the
    /// candidate as soon as it provably lost to the engine's coarse
    /// incumbent), so it is only meaningful as "worse than limit". Pass
    /// `u32::MAX` for exact SADs. Returns `None` when out of coarse
    /// range, already probed, or no pyramid was built.
    pub fn probe_coarse(&mut self, vx: i32, vy: i32, limit: u32) -> Option<u32> {
        let (ccur, cprev) = self.coarse?;
        let idx = Self::window_index(self.dc, self.coarse_centre, vx, vy)?;
        if self.coarse_visited[idx] {
            return None;
        }
        self.coarse_visited[idx] = true;
        let (cx0, cy0, cbw, cbh) = self.cgeom;
        if let Some(pf) = self.cprefix {
            let rx = i64::from(cx0) - i64::from(vx);
            let ry = i64::from(cy0) - i64::from(vy);
            let in_bounds = rx >= 0
                && ry >= 0
                && rx + i64::from(cbw) <= i64::from(cprev.width())
                && ry + i64::from(cbh) <= i64::from(cprev.height());
            if in_bounds
                && pf.rejects(
                    self.ccur_rows,
                    rx as usize,
                    ry as usize,
                    cbw as usize,
                    limit,
                )
            {
                // Contract-compatible rejection: the (partial) bound
                // is a lower bound on the true SAD and strictly
                // exceeds `limit`, which is exactly the "partial SAD"
                // shape an early-exited evaluation would return — the
                // engine's incumbent test rejects it the same way, so
                // coarse walks are bit-identical. `limit + 1` is the
                // smallest value with that property.
                self.probes += 1;
                self.lb_skips += 1;
                return Some(limit.saturating_add(1));
            }
        }
        let (sad, rows) = sad_block(ccur, cprev, cx0, cy0, cbw, cbh, vx, vy, limit);
        self.probes += 1;
        self.sad_ops += u64::from(rows) * u64::from(cbw);
        Some(sad)
    }
}

/// Coarse pyramid search range covering fine range `d` after ×2 upscale.
fn coarse_range(d: i32) -> i32 {
    ((d + 1) / 2).max(1)
}

// ---------------------------------------------------------------------------
// Built-in strategies
// ---------------------------------------------------------------------------

/// Full-window search: every offset probed, in center-out Chebyshev
/// rings. Ring order reaches the true match (small for typical tracking
/// motion) after ~`(2|v|+1)²` probes instead of half the window, so the
/// incumbent drops early and the SAD kernel's early exit abandons the
/// remaining candidates after a row or two — same probe count, same
/// result (the tie-break is visit-order-independent), much less
/// arithmetic.
struct ExhaustiveSearch;

impl MotionSearch for ExhaustiveSearch {
    fn probes_per_block(&self, search_range: u32) -> u64 {
        let w = 2 * u64::from(search_range) + 1;
        w * w
    }

    fn search(&self, ctx: &mut SearchCtx<'_>) {
        let d = ctx.range();
        let (cx, cy) = (i32::from(ctx.centre().x), i32::from(ctx.centre().y));
        for r in 1..=d {
            for vx in -r..=r {
                ctx.probe(cx + vx, cy - r);
                ctx.probe(cx + vx, cy + r);
            }
            for vy in (-r + 1)..r {
                ctx.probe(cx - r, cy + vy);
                ctx.probe(cx + r, cy + vy);
            }
        }
    }
}

/// The TSS starting step at range `d`: the largest power of two ≤
/// max(1, ⌈d/2⌉). The single source of truth shared by the walks and
/// their cost models, so neither can silently drift from the other.
fn tss_initial_step(d: i32) -> i32 {
    let mut step = 1i32;
    while step * 2 <= (d + 1) / 2 {
        step *= 2;
    }
    step
}

/// The number of step-halving rounds TSS performs at range `d`.
fn tss_steps(search_range: u32) -> u32 {
    (tss_initial_step(search_range as i32) as u32).ilog2() + 1
}

const RING8: [(i32, i32); 8] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// Three-step search (Koga et al.): probe 8 neighbors at logarithmically
/// shrinking steps, re-centering on the best.
struct ThreeStepSearch;

impl MotionSearch for ThreeStepSearch {
    /// Exact probe count of the walk: the center plus 8 ring probes per
    /// step round. (The historical `1 + 8·log₂(d+1)` closed form
    /// over-counted at ranges that are not `2^k − 1`; this model counts
    /// the rounds the walk actually performs, and the conformance test
    /// in `crates/isp/tests` keeps measured counts within it.)
    fn probes_per_block(&self, search_range: u32) -> u64 {
        1 + 8 * u64::from(tss_steps(search_range))
    }

    fn search(&self, ctx: &mut SearchCtx<'_>) {
        let d = ctx.range();
        let mut center = ctx.centre();
        let mut step = tss_initial_step(d);
        while step >= 1 {
            for (sx, sy) in RING8 {
                ctx.probe(
                    i32::from(center.x) + sx * step,
                    i32::from(center.y) + sy * step,
                );
            }
            center = ctx.best().v;
            step /= 2;
        }
    }
}

/// Large diamond search pattern: the 8 non-center points of a radius-2
/// diamond.
const LDSP: [(i32, i32); 8] = [
    (0, -2),
    (1, -1),
    (2, 0),
    (1, 1),
    (0, 2),
    (-1, 1),
    (-2, 0),
    (-1, -1),
];

/// Small diamond search pattern (final refinement).
const SDSP: [(i32, i32); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];

/// Diamond search (Zhu & Ma, 2000): walk the large diamond pattern until
/// the best stays at the center, then refine with the small diamond.
struct DiamondSearch;

impl MotionSearch for DiamondSearch {
    /// Sound upper bound: the walk performs at most `2d` large-diamond
    /// rounds (enforced by the loop cap below), each probing at most 8
    /// new points (memoization keeps revisits free), plus the seed probe
    /// and the 4-point small diamond — and never more than the window
    /// holds. Typical measured cost on tracking content is ~13–20 probes.
    fn probes_per_block(&self, search_range: u32) -> u64 {
        let window = (2 * u64::from(search_range) + 1).pow(2);
        (13 + 16 * u64::from(search_range)).min(window)
    }

    fn search(&self, ctx: &mut SearchCtx<'_>) {
        let d = ctx.range();
        let mut center = ctx.centre();
        // The incumbent (SAD, |v|²) strictly improves every re-centering
        // round, so the walk cannot cycle; the `2d`-round cap both bounds
        // pathological winding paths and makes `probes_per_block` a true
        // upper bound (1 seed + 8·2d LDSP + 4 SDSP ≤ 13 + 16d).
        for _ in 0..(2 * d.max(1)) {
            for (ox, oy) in LDSP {
                ctx.probe(i32::from(center.x) + ox, i32::from(center.y) + oy);
            }
            let best = ctx.best().v;
            if best == center {
                break;
            }
            center = best;
        }
        for (ox, oy) in SDSP {
            ctx.probe(i32::from(center.x) + ox, i32::from(center.y) + oy);
        }
    }
}

/// Two-level hierarchical (pyramid) search: a coarse TSS walk on the
/// 2×-downsampled plane picks a candidate, which a ±1 full-resolution
/// window refines (covering the ×2 upscale quantization).
struct HierarchicalSearch;

impl MotionSearch for HierarchicalSearch {
    /// One fine seed probe + the coarse TSS walk + the 3×3 refinement.
    fn probes_per_block(&self, search_range: u32) -> u64 {
        let dc = coarse_range(search_range as i32) as u32;
        1 + (1 + 8 * u64::from(tss_steps(dc))) + 9
    }

    /// Coarse probes compare quarter-size blocks; price them accordingly.
    fn ops_per_block(&self, mb_size: u32, search_range: u32) -> u64 {
        let dc = coarse_range(search_range as i32) as u32;
        let l2 = u64::from(mb_size) * u64::from(mb_size);
        let coarse = (1 + 8 * u64::from(tss_steps(dc))) * (l2 / 4).max(1);
        let fine = 10 * l2; // seed + 3×3 refinement
        coarse + fine
    }

    fn wants_pyramid(&self) -> bool {
        true
    }

    fn search(&self, ctx: &mut SearchCtx<'_>) {
        if !ctx.has_pyramid() {
            // Degenerate fallback (never reached through BlockMatcher,
            // which builds the pyramid for us): plain three-step.
            ThreeStepSearch.search(ctx);
            return;
        }
        // Coarse TSS walk. Coarse bookkeeping is local: probe_coarse
        // meters evaluations but the fine incumbent is untouched; the
        // coarse incumbent doubles as the early-exit limit, so losing
        // candidates abandon after a row or two (a partial SAD is by
        // contract > best.0, which the `better` test rejects exactly as
        // the full SAD would).
        let dc = ctx.coarse_range();
        let cc = ctx.coarse_centre();
        let mut center = (i32::from(cc.x), i32::from(cc.y));
        let mut best = (
            ctx.probe_coarse(center.0, center.1, u32::MAX)
                .unwrap_or(u32::MAX),
            center,
        );
        let mut step = tss_initial_step(dc);
        while step >= 1 {
            for (sx, sy) in RING8 {
                let (vx, vy) = (center.0 + sx * step, center.1 + sy * step);
                if let Some(sad) = ctx.probe_coarse(vx, vy, best.0) {
                    let better = sad < best.0
                        || (sad == best.0
                            && vx * vx + vy * vy < best.1 .0.pow(2) + best.1 .1.pow(2));
                    if better {
                        best = (sad, (vx, vy));
                    }
                }
            }
            center = best.1;
            step /= 2;
        }
        // Fine refinement: ±1 around the upscaled coarse candidate (the
        // seed probe already covered the centre). The candidate
        // itself goes first — it is the likeliest winner, and a low fine
        // incumbent makes the 8 neighbours abandon early (probe order
        // cannot change the result: the tie-break is a total order).
        let (fx, fy) = (2 * best.1 .0, 2 * best.1 .1);
        ctx.probe(fx, fy);
        for ey in -1..=1 {
            for ex in -1..=1 {
                ctx.probe(fx + ex, fy + ey);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MotionField
// ---------------------------------------------------------------------------

/// Per-frame motion metadata: one [`MotionVector`] per macroblock.
///
/// This is the data structure the augmented ISP writes into the frame
/// buffer's metadata section (§4.2) and the Motion Controller consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionField {
    mb_size: u32,
    search_range: u32,
    width: u32,
    height: u32,
    blocks_x: u32,
    blocks_y: u32,
    vectors: Vec<MotionVector>,
}

impl MotionField {
    /// Creates a zero-motion field (used for the first frame of a stream,
    /// which has no predecessor).
    pub fn zeroed(resolution: Resolution, mb_size: u32, search_range: u32) -> Result<Self> {
        validate_params(mb_size, search_range)?;
        let (bx, by) = resolution.macroblocks(mb_size);
        Ok(MotionField {
            mb_size,
            search_range,
            width: resolution.width,
            height: resolution.height,
            blocks_x: bx,
            blocks_y: by,
            vectors: vec![MotionVector::default(); (bx * by) as usize],
        })
    }

    /// Macroblock edge length.
    pub fn mb_size(&self) -> u32 {
        self.mb_size
    }

    /// Search range `d` the field was estimated with.
    pub fn search_range(&self) -> u32 {
        self.search_range
    }

    /// Number of macroblock columns.
    pub fn blocks_x(&self) -> u32 {
        self.blocks_x
    }

    /// Number of macroblock rows.
    pub fn blocks_y(&self) -> u32 {
        self.blocks_y
    }

    /// Frame resolution the field describes.
    pub fn resolution(&self) -> Resolution {
        Resolution::new(self.width, self.height)
    }

    /// Total number of macroblocks.
    pub fn block_count(&self) -> usize {
        self.vectors.len()
    }

    /// The motion vector of block `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn at_block(&self, bx: u32, by: u32) -> MotionVector {
        assert!(
            bx < self.blocks_x && by < self.blocks_y,
            "block out of range"
        );
        self.vectors[(by * self.blocks_x + bx) as usize]
    }

    /// Overwrites the motion vector of block `(bx, by)` (used by
    /// alternative motion sources: raw-domain matching, codec MVs, IMU
    /// fusion).
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn set_block(&mut self, bx: u32, by: u32, mv: MotionVector) {
        assert!(
            bx < self.blocks_x && by < self.blocks_y,
            "block out of range"
        );
        self.vectors[(by * self.blocks_x + bx) as usize] = mv;
    }

    /// The motion vector inherited by pixel `(x, y)` — each pixel takes the
    /// MV of the macroblock containing it (§3.2).
    pub fn at_pixel(&self, x: u32, y: u32) -> MotionVector {
        let bx = (x / self.mb_size).min(self.blocks_x - 1);
        let by = (y / self.mb_size).min(self.blocks_y - 1);
        self.at_block(bx, by)
    }

    /// Number of pixels block `(bx, by)` actually covers (edge blocks may
    /// be partial).
    pub fn block_pixels(&self, bx: u32, by: u32) -> u32 {
        let w = (self.width - bx * self.mb_size).min(self.mb_size);
        let h = (self.height - by * self.mb_size).min(self.mb_size);
        w * h
    }

    /// Confidence of block `(bx, by)` per Equ. 2: `1 − SAD/(255·n)`,
    /// clamped to `[0, 1]`.
    pub fn confidence(&self, bx: u32, by: u32) -> f64 {
        let mv = self.at_block(bx, by);
        let n = self.block_pixels(bx, by);
        if n == 0 {
            return 0.0;
        }
        (1.0 - f64::from(mv.sad) / (255.0 * f64::from(n))).clamp(0.0, 1.0)
    }

    /// The pixel rectangle covered by block `(bx, by)`.
    pub fn block_rect(&self, bx: u32, by: u32) -> Rect {
        let x = f64::from(bx * self.mb_size);
        let y = f64::from(by * self.mb_size);
        let w = f64::from((self.width - bx * self.mb_size).min(self.mb_size));
        let h = f64::from((self.height - by * self.mb_size).min(self.mb_size));
        Rect::new(x, y, w, h)
    }

    /// Iterates over `(bx, by, MotionVector)` for blocks whose rectangle
    /// intersects `roi`. This is the access pattern of the extrapolation
    /// engine (Equ. 1 averages the MVs an ROI covers).
    pub fn blocks_in_roi<'a>(
        &'a self,
        roi: &Rect,
    ) -> impl Iterator<Item = (u32, u32, MotionVector)> + 'a {
        let mb = f64::from(self.mb_size);
        let bx0 = (roi.x / mb).floor().max(0.0) as u32;
        let by0 = (roi.y / mb).floor().max(0.0) as u32;
        let bx1 = ((roi.right() / mb).ceil() as i64).clamp(0, i64::from(self.blocks_x)) as u32;
        let by1 = ((roi.bottom() / mb).ceil() as i64).clamp(0, i64::from(self.blocks_y)) as u32;
        let roi = *roi;
        (by0..by1).flat_map(move |by| {
            (bx0..bx1).filter_map(move |bx| {
                let r = self.block_rect(bx, by);
                if r.intersection(&roi).area() > 0.0 {
                    Some((bx, by, self.at_block(bx, by)))
                } else {
                    None
                }
            })
        })
    }

    /// Bytes of frame-buffer metadata this field occupies: per block, 1 byte
    /// per MV component (d ≤ 127) plus 2 bytes of SAD-derived confidence,
    /// matching the §4.2 estimate of ~8 KB per 1080p frame for the MVs.
    pub fn metadata_bytes(&self) -> Bytes {
        Bytes(self.vectors.len() as u64 * 4)
    }

    /// Mean motion magnitude over all blocks (diagnostic).
    pub fn mean_magnitude(&self) -> f64 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .vectors
            .iter()
            .map(|mv| (mv.v.norm_sq() as f64).sqrt())
            .sum();
        sum / self.vectors.len() as f64
    }
}

fn validate_params(mb_size: u32, search_range: u32) -> Result<()> {
    if mb_size == 0 {
        return Err(Error::config("macroblock size must be positive"));
    }
    if search_range == 0 || search_range > 127 {
        return Err(Error::config(format!(
            "search range must be in 1..=127, got {search_range}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// BlockMatcher
// ---------------------------------------------------------------------------

/// Caller-cached derived planes for [`BlockMatcher::estimate_cached`].
///
/// Streaming callers build each frame's derived planes exactly once and
/// double-buffer them alongside the luma planes; anything left `None`
/// that the configuration needs is built internally per call (results
/// are bit-identical either way — the search sees the same data).
#[derive(Debug, Default, Clone, Copy)]
pub struct CachedPlanes<'a> {
    /// 2×-downsampled planes of the current / previous frame
    /// ([`downsample2`] of each), consumed by pyramid strategies.
    pub pyramid: Option<(&'a LumaFrame, &'a LumaFrame)>,
    /// Row-prefix table of the *previous* (reference) frame, consumed
    /// by the lower-bound prefilter.
    pub prefix_prev: Option<&'a RowPrefix>,
    /// Row-prefix table of the coarse previous plane (requires
    /// `pyramid`).
    pub coarse_prefix_prev: Option<&'a RowPrefix>,
}

/// Block-matching motion estimator driving one [`SearchStrategy`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMatcher {
    mb_size: u32,
    search_range: u32,
    strategy: SearchStrategy,
    prefilter: bool,
}

impl BlockMatcher {
    /// Creates a matcher with macroblock size `mb_size` (typically 16),
    /// search range `d` (typically 7), and the given strategy. The SAD
    /// lower-bound prefilter starts disabled (it never changes results
    /// — see [`BlockMatcher::with_prefilter`] for when to turn it on).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero macroblock size or a
    /// search range outside `1..=127` (MVs must fit the 1-byte encoding).
    pub fn new(mb_size: u32, search_range: u32, strategy: SearchStrategy) -> Result<Self> {
        validate_params(mb_size, search_range)?;
        Ok(BlockMatcher {
            mb_size,
            search_range,
            strategy,
            prefilter: false,
        })
    }

    /// Enables or disables the SAD lower-bound prefilter (default:
    /// disabled). The prefilter rejects candidates whose per-row
    /// bound (see [`RowPrefix`]) already exceeds the incumbent SAD
    /// before any pixel is loaded; motion fields and measured probe
    /// counts are bit-identical either way (pinned by the property
    /// suite in `tests/search_properties.rs`), only
    /// [`SearchStats::sad_ops`] / [`SearchStats::lb_skips`] change.
    ///
    /// Enable it when candidate evaluation is expensive — a scalar or
    /// non-early-exit kernel, or when modelling the hardware ISP, where
    /// every absolute-difference op is a pixel fetch and the op-count
    /// cut is the point (4.8× on noisy VGA exhaustive search, 1.55× hierarchical; see the module
    /// docs and `ablation_motion_engine`). On the host's SWAR kernel
    /// the early exit already floors losing candidates at roughly the
    /// bound's own cost, so wall-clock stays neutral and the default
    /// is off.
    #[must_use]
    pub fn with_prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }

    /// `true` if the SAD lower-bound prefilter is enabled.
    pub fn prefilter(&self) -> bool {
        self.prefilter
    }

    /// Macroblock size.
    pub fn mb_size(&self) -> u32 {
        self.mb_size
    }

    /// Search range `d`.
    pub fn search_range(&self) -> u32 {
        self.search_range
    }

    /// Search strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Arithmetic operations per frame at `resolution` under the
    /// strategy's cost model (feeds the ISP power overhead estimate).
    pub fn ops_per_frame(&self, resolution: Resolution) -> u64 {
        let (bx, by) = resolution.macroblocks(self.mb_size);
        u64::from(bx) * u64::from(by) * self.strategy.ops_per_block(self.mb_size, self.search_range)
    }

    /// SAD probes per frame at `resolution` under the strategy's cost
    /// model (an upper bound for adaptive walks).
    pub fn probes_per_frame(&self, resolution: Resolution) -> u64 {
        let (bx, by) = resolution.macroblocks(self.mb_size);
        u64::from(bx) * u64::from(by) * self.strategy.probes_per_block(self.search_range)
    }

    /// Estimates the motion field of `cur` relative to `prev`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the frames differ in size.
    pub fn estimate(&self, cur: &LumaFrame, prev: &LumaFrame) -> Result<MotionField> {
        self.estimate_with_stats(cur, prev).map(|(field, _)| field)
    }

    /// Estimates the motion field, also returning measured search-effort
    /// counters (actual SAD probes and absolute-difference operations).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the frames differ in size.
    pub fn estimate_with_stats(
        &self,
        cur: &LumaFrame,
        prev: &LumaFrame,
    ) -> Result<(MotionField, SearchStats)> {
        self.estimate_inner(cur, prev, CachedPlanes::default(), |_, _| Vec2i::ZERO)
    }

    /// `true` if this matcher's strategy consumes the 2×-downsampled
    /// pyramid level — the signal for streaming callers to cache one
    /// [`downsample2`] plane per frame slot and pass it to
    /// [`estimate_cached`][BlockMatcher::estimate_cached] as
    /// [`CachedPlanes::pyramid`] instead of letting every
    /// [`estimate`][BlockMatcher::estimate] call rebuild both levels.
    pub fn wants_pyramid(&self) -> bool {
        self.strategy.resolve().wants_pyramid()
    }

    /// [`estimate_with_stats`][BlockMatcher::estimate_with_stats] with
    /// any subset of caller-cached derived planes: the 2×-downsampled
    /// pyramid level and the prefilter's [`RowPrefix`] tables. A
    /// streaming frontend builds each frame's derived planes exactly
    /// once (coarse plane via
    /// [`downsample2_into`][euphrates_common::image::downsample2_into],
    /// prefix tables via [`RowPrefix::rebuild`]) and double-buffers
    /// them alongside the fine planes, where a bare
    /// [`estimate`][BlockMatcher::estimate] call would rebuild
    /// everything per frame pair. Results are bit-identical to
    /// [`estimate`][BlockMatcher::estimate] by construction. Planes the
    /// configuration does not need (no pyramid strategy, prefilter
    /// disabled) are ignored; needed planes left `None` are built
    /// internally for this call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the frames differ in size,
    /// if a coarse plane does not have the pyramid dimensions of its
    /// fine plane, if `prefix_prev` was not built for `prev`'s shape,
    /// or if `coarse_prefix_prev` is supplied without its pyramid or
    /// does not match the coarse plane's shape.
    pub fn estimate_cached(
        &self,
        cur: &LumaFrame,
        prev: &LumaFrame,
        planes: CachedPlanes<'_>,
    ) -> Result<(MotionField, SearchStats)> {
        if let Some((coarse_cur, coarse_prev)) = planes.pyramid {
            let (cw, ch) = downsample2_dims(cur);
            for (name, plane) in [("coarse_cur", coarse_cur), ("coarse_prev", coarse_prev)] {
                if plane.width() != cw || plane.height() != ch {
                    return Err(Error::shape(format!(
                        "{name} is {}x{}, expected pyramid level {cw}x{ch}",
                        plane.width(),
                        plane.height()
                    )));
                }
            }
        }
        if let Some(pf) = planes.prefix_prev {
            if !pf.matches(prev) {
                return Err(Error::shape(
                    "prefix_prev was not built for the previous frame's shape",
                ));
            }
        }
        if let Some(cpf) = planes.coarse_prefix_prev {
            match planes.pyramid {
                Some((_, coarse_prev)) if cpf.matches(coarse_prev) => {}
                Some(_) => {
                    return Err(Error::shape(
                        "coarse_prefix_prev was not built for the coarse plane's shape",
                    ));
                }
                None => {
                    return Err(Error::shape(
                        "coarse_prefix_prev supplied without its pyramid planes",
                    ));
                }
            }
        }
        self.estimate_inner(cur, prev, planes, |_, _| Vec2i::ZERO)
    }

    /// The shared per-block walk: searches block `(bx, by)` in a window
    /// centred on `centre(bx, by)` (see [`SearchCtx::centre`]).
    pub(crate) fn estimate_inner(
        &self,
        cur: &LumaFrame,
        prev: &LumaFrame,
        ext: CachedPlanes<'_>,
        centre: impl Fn(u32, u32) -> Vec2i,
    ) -> Result<(MotionField, SearchStats)> {
        if !cur.same_shape(prev) {
            return Err(Error::shape(format!(
                "current {}x{} vs previous {}x{}",
                cur.width(),
                cur.height(),
                prev.width(),
                prev.height()
            )));
        }
        let search = self.strategy.resolve();
        let res = Resolution::new(cur.width(), cur.height());
        let mut field = MotionField::zeroed(res, self.mb_size, self.search_range)?;
        let (blocks_x, blocks_y) = (field.blocks_x, field.blocks_y);
        // Derived planes are shared by every block of the frame pair:
        // prefer the caller's cached ones; build once per call only
        // what the configuration needs and nobody supplied.
        let owned_pyramid = if search.wants_pyramid() && ext.pyramid.is_none() {
            Some((downsample2(cur), downsample2(prev)))
        } else {
            None
        };
        let coarse = if search.wants_pyramid() {
            ext.pyramid
                .or_else(|| owned_pyramid.as_ref().map(|(a, b)| (a, b)))
        } else {
            None
        };
        let owned_prefix = if self.prefilter && ext.prefix_prev.is_none() {
            Some(RowPrefix::build(prev))
        } else {
            None
        };
        let prefix = if self.prefilter {
            ext.prefix_prev.or(owned_prefix.as_ref())
        } else {
            None
        };
        let owned_cprefix = if self.prefilter && ext.coarse_prefix_prev.is_none() {
            coarse.map(|(_, cprev)| RowPrefix::build(cprev))
        } else {
            None
        };
        let cprefix = if self.prefilter && coarse.is_some() {
            ext.coarse_prefix_prev.or(owned_cprefix.as_ref())
        } else {
            None
        };
        let d = self.search_range as i32;
        let mb = self.mb_size;
        let mut scratch = Scratch::default();
        let mut stats = SearchStats::default();
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let x0 = bx * mb;
                let y0 = by * mb;
                let bw = (cur.width() - x0).min(mb);
                let bh = (cur.height() - y0).min(mb);
                let mut ctx = SearchCtx::new(
                    cur,
                    prev,
                    coarse,
                    prefix,
                    cprefix,
                    &mut scratch,
                    x0,
                    y0,
                    bw,
                    bh,
                    d,
                    centre(bx, by),
                );
                search.search(&mut ctx);
                field.vectors[(by * blocks_x + bx) as usize] = ctx.best();
                stats.blocks += 1;
                stats.probes += ctx.probes;
                stats.sad_ops += ctx.sad_ops;
                stats.lb_skips += ctx.lb_skips;
            }
        }
        Ok((field, stats))
    }
}

// ---------------------------------------------------------------------------
// SAD kernel
// ---------------------------------------------------------------------------

/// SAD of one 8-pixel lane pair: the per-byte absolute differences of
/// two 8-byte lanes reduced into one u32 chunk. Written as a fixed
/// 8-wide reduction so the compiler keeps the whole lane in one vector
/// register and lowers it to the hardware SAD instruction where one
/// exists (`psadbw` on x86-64).
#[inline]
fn lane_sad(x: &[u8; 8], y: &[u8; 8]) -> u32 {
    let mut chunk = 0u32;
    for k in 0..8 {
        chunk += u32::from(x[k].abs_diff(y[k]));
    }
    chunk
}

/// Borrows an 8-pixel lane as a fixed-size array.
#[inline]
fn lane(p: &[u8]) -> &[u8; 8] {
    p.try_into().expect("8-byte lane")
}

/// SAD of one 16-pixel row (two packed lanes) — the macroblock-width
/// special case, reduced in one fixed 16-wide pass so the compiler can
/// use a full-width vector SAD.
#[inline]
fn row_sad16(a: &[u8; 16], b: &[u8; 16]) -> u32 {
    let mut chunk = 0u32;
    for k in 0..16 {
        chunk += u32::from(a[k].abs_diff(b[k]));
    }
    chunk
}

/// Borrows a 16-pixel row as a fixed-size array.
#[inline]
fn row16(p: &[u8]) -> &[u8; 16] {
    p.try_into().expect("16-byte row")
}

/// Total of one block row — `Σ px = SAD(row, 0)`, so the 8-wide lanes
/// lower to the same hardware SAD instruction as the match kernel.
/// Feeds the current-block side of the lower-bound prefilter.
#[inline]
fn row_total(p: &[u8]) -> u32 {
    const ZERO: [u8; 8] = [0; 8];
    let mut sum = 0u32;
    let mut c = p.chunks_exact(8);
    for lane8 in c.by_ref() {
        sum += lane_sad(lane(lane8), &ZERO);
    }
    for &x in c.remainder() {
        sum += u32::from(x);
    }
    sum
}

/// Sum of absolute differences of two equal-length rows: 8-pixel lanes
/// accumulated in u32 chunks (see [`lane_sad`]).
#[inline]
fn row_sad(a: &[u8], b: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        sum += lane_sad(lane(pa), lane(pb));
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += u32::from(x.abs_diff(*y));
    }
    sum
}

/// SAD between the block at `(x0, y0)` of `cur` and the block displaced by
/// `(-vx, -vy)` in `prev` (the content moved *by* `(vx, vy)`). Reference
/// pixels outside the frame are clamped to the edge. Evaluation walks row
/// slices and stops after any row whose running total strictly exceeds
/// `limit` — such a candidate can never beat the incumbent, and exact
/// ties (`== limit`) are always fully evaluated so the shorter-vector
/// tie-break stays deterministic. Returns the (possibly partial) SAD and
/// the number of rows actually evaluated.
#[allow(clippy::too_many_arguments)] // mirrors the hardware datapath's ports
#[inline]
fn sad_block(
    cur: &LumaFrame,
    prev: &LumaFrame,
    x0: u32,
    y0: u32,
    bw: u32,
    bh: u32,
    vx: i32,
    vy: i32,
    limit: u32,
) -> (u32, u32) {
    let rx = i64::from(x0) - i64::from(vx);
    let ry = i64::from(y0) - i64::from(vy);
    let w = i64::from(prev.width());
    let h = i64::from(prev.height());
    let in_bounds = rx >= 0 && ry >= 0 && rx + i64::from(bw) <= w && ry + i64::from(bh) <= h;
    let mut sad = 0u32;
    if in_bounds {
        // Fast path: whole reference block is inside the frame. Rows are
        // addressed by running offsets into the flat sample storage (one
        // slice-bounds check per row instead of the row()+subslice pair),
        // with the ubiquitous 16-px block width fully unrolled into two
        // u64 lanes per row.
        let ca = cur.samples();
        let pa = prev.samples();
        let mut ai = y0 as usize * cur.width() as usize + x0 as usize;
        let mut bi = ry as usize * prev.width() as usize + rx as usize;
        let (cw, pw) = (cur.width() as usize, prev.width() as usize);
        if bw == 16 {
            // Two rows (four u64 lanes) per early-exit check: the lane
            // SADs of a row pair are independent and pipeline, and the
            // abandon test still only rejects candidates whose partial
            // SAD already exceeds the incumbent.
            let mut row = 0;
            while row + 2 <= bh {
                let a0 = row16(&ca[ai..ai + 16]);
                let b0 = row16(&pa[bi..bi + 16]);
                let a1 = row16(&ca[ai + cw..ai + cw + 16]);
                let b1 = row16(&pa[bi + pw..bi + pw + 16]);
                sad += row_sad16(a0, b0) + row_sad16(a1, b1);
                row += 2;
                if sad > limit {
                    return (sad, row);
                }
                ai += 2 * cw;
                bi += 2 * pw;
            }
            if row < bh {
                sad += row_sad16(row16(&ca[ai..ai + 16]), row16(&pa[bi..bi + 16]));
                row += 1;
                if sad > limit {
                    return (sad, row);
                }
            }
        } else if bw == 8 {
            // The coarse pyramid level's block width: one lane per row,
            // two rows per early-exit check.
            let mut row = 0;
            while row + 2 <= bh {
                sad += lane_sad(lane(&ca[ai..ai + 8]), lane(&pa[bi..bi + 8]))
                    + lane_sad(
                        lane(&ca[ai + cw..ai + cw + 8]),
                        lane(&pa[bi + pw..bi + pw + 8]),
                    );
                row += 2;
                if sad > limit {
                    return (sad, row);
                }
                ai += 2 * cw;
                bi += 2 * pw;
            }
            if row < bh {
                sad += lane_sad(lane(&ca[ai..ai + 8]), lane(&pa[bi..bi + 8]));
                row += 1;
                if sad > limit {
                    return (sad, row);
                }
            }
        } else {
            for row in 0..bh {
                sad += row_sad(&ca[ai..ai + bw as usize], &pa[bi..bi + bw as usize]);
                if sad > limit {
                    return (sad, row + 1);
                }
                ai += cw;
                bi += pw;
            }
        }
        return (sad, bh);
    }
    // Clamped path: split each row into a left edge-clamped run, an
    // in-bounds middle slice, and a right edge-clamped run.
    let lo = (-rx).clamp(0, i64::from(bw)) as u32; // columns clamped to x = 0
    let hi = (w - rx).clamp(i64::from(lo), i64::from(bw)) as u32; // first right-clamped column
    for row in 0..bh {
        let a = &cur.row(y0 + row)[x0 as usize..(x0 + bw) as usize];
        let ry_c = (ry + i64::from(row)).clamp(0, h - 1) as u32;
        let b = prev.row(ry_c);
        let mut row_total = 0u32;
        if lo > 0 {
            let left = b[0];
            for &pa in &a[..lo as usize] {
                row_total += u32::from(pa.abs_diff(left));
            }
        }
        if hi > lo {
            let bx0 = (rx + i64::from(lo)) as usize;
            row_total += row_sad(
                &a[lo as usize..hi as usize],
                &b[bx0..bx0 + (hi - lo) as usize],
            );
        }
        if hi < bw {
            let right = b[b.len() - 1];
            for &pa in &a[hi as usize..] {
                row_total += u32::from(pa.abs_diff(right));
            }
        }
        sad += row_total;
        if sad > limit {
            return (sad, row + 1);
        }
    }
    (sad, bh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::rngx;
    use rand::Rng;

    /// A textured frame that block matching can lock onto.
    fn textured(width: u32, height: u32, seed: u64) -> LumaFrame {
        let mut f = LumaFrame::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                let v =
                    (rngx::lattice_hash(seed, i64::from(x / 4), i64::from(y / 4)) * 255.0) as u8;
                f.set(x, y, v);
            }
        }
        f
    }

    /// Shifts frame content by (dx, dy) with clamped edges: the returned
    /// frame shows the same texture moved by (dx, dy).
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

    #[test]
    fn static_scene_yields_zero_motion() {
        let f = textured(64, 64, 1);
        for strategy in SearchStrategy::BUILTIN {
            let m = BlockMatcher::new(16, 7, strategy).unwrap();
            let field = m.estimate(&f, &f).unwrap();
            for by in 0..field.blocks_y() {
                for bx in 0..field.blocks_x() {
                    let mv = field.at_block(bx, by);
                    assert_eq!(mv.v, Vec2i::ZERO, "{strategy:?} block ({bx},{by})");
                    assert_eq!(mv.sad, 0);
                    assert_eq!(field.confidence(bx, by), 1.0);
                }
            }
        }
    }

    #[test]
    fn exhaustive_recovers_global_translation() {
        let prev = textured(96, 96, 2);
        for (dx, dy) in [(3, 0), (0, -5), (4, 4), (-7, 6)] {
            let cur = shifted(&prev, dx, dy);
            let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
            let field = m.estimate(&cur, &prev).unwrap();
            // Interior blocks (away from clamped edges) must see (dx, dy).
            let mv = field.at_block(2, 2);
            assert_eq!(
                (i32::from(mv.v.x), i32::from(mv.v.y)),
                (dx, dy),
                "shift ({dx},{dy})"
            );
            assert_eq!(mv.sad, 0);
        }
    }

    #[test]
    fn tss_recovers_global_translation() {
        let prev = textured(96, 96, 3);
        for (dx, dy) in [(2, 0), (0, 4), (-3, -3), (6, -1)] {
            let cur = shifted(&prev, dx, dy);
            let m = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
            let field = m.estimate(&cur, &prev).unwrap();
            let mv = field.at_block(2, 2);
            assert_eq!(
                (i32::from(mv.v.x), i32::from(mv.v.y)),
                (dx, dy),
                "shift ({dx},{dy})"
            );
        }
    }

    #[test]
    fn diamond_and_hierarchical_recover_global_translation() {
        // Shifts within both strategies' reliable envelope (the property
        // suite in tests/search_properties.rs maps the envelopes).
        let prev = textured(96, 96, 12);
        for strategy in [SearchStrategy::Diamond, SearchStrategy::Hierarchical] {
            for (dx, dy) in [(2, 0), (0, 3), (-3, -3), (3, -2)] {
                let cur = shifted(&prev, dx, dy);
                let m = BlockMatcher::new(16, 7, strategy).unwrap();
                let field = m.estimate(&cur, &prev).unwrap();
                let mv = field.at_block(2, 2);
                assert_eq!(
                    (i32::from(mv.v.x), i32::from(mv.v.y)),
                    (dx, dy),
                    "{strategy:?} shift ({dx},{dy})"
                );
                assert_eq!(mv.sad, 0, "{strategy:?} shift ({dx},{dy})");
            }
        }
    }

    #[test]
    fn motion_beyond_search_range_is_not_recovered() {
        // §7 of the paper: fast motion beyond the window is fundamentally
        // unobtainable. A 12-px shift with d=7 must NOT come back as 12.
        let prev = textured(128, 128, 4);
        let cur = shifted(&prev, 12, 0);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let field = m.estimate(&cur, &prev).unwrap();
        let mv = field.at_block(3, 3);
        assert!(i32::from(mv.v.x) <= 7);
        // And the match quality is poor: confidence drops.
        assert!(field.confidence(3, 3) < 0.999);
    }

    #[test]
    fn confidence_reflects_match_quality() {
        let prev = textured(64, 64, 5);
        let cur = shifted(&prev, 2, 1);
        // Replace one block of `cur` with uncorrelated noise: its best match
        // will be bad.
        let mut cur = cur;
        let junk = textured(64, 64, 999);
        for y in 16..32 {
            for x in 16..32 {
                cur.set(x, y, junk.at(x, y));
            }
        }
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let field = m.estimate(&cur, &prev).unwrap();
        let good = field.confidence(3, 3);
        let bad = field.confidence(1, 1);
        assert!(
            good > bad + 0.05,
            "good {good} should exceed bad {bad} clearly"
        );
    }

    #[test]
    fn partial_edge_blocks_are_handled() {
        // 70x50 with mb=16 -> 5x4 blocks, last column 6 px, last row 2 px.
        let prev = textured(70, 50, 6);
        let cur = shifted(&prev, 1, 1);
        for strategy in SearchStrategy::BUILTIN {
            let m = BlockMatcher::new(16, 7, strategy).unwrap();
            let field = m.estimate(&cur, &prev).unwrap();
            assert_eq!((field.blocks_x(), field.blocks_y()), (5, 4));
            assert_eq!(field.block_pixels(4, 0), 6 * 16);
            assert_eq!(field.block_pixels(0, 3), 16 * 2);
            assert_eq!(field.block_pixels(4, 3), 6 * 2);
            // Confidence of partial blocks is still within [0,1].
            let c = field.confidence(4, 3);
            assert!((0.0..=1.0).contains(&c), "{strategy:?}");
        }
    }

    #[test]
    fn at_pixel_inherits_block_mv() {
        let prev = textured(64, 64, 7);
        let cur = shifted(&prev, 3, 2);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let field = m.estimate(&cur, &prev).unwrap();
        assert_eq!(field.at_pixel(40, 40), field.at_block(2, 2));
        assert_eq!(field.at_pixel(0, 0), field.at_block(0, 0));
        // Clamp beyond-last-block pixels to the last block.
        assert_eq!(field.at_pixel(63, 63), field.at_block(3, 3));
    }

    #[test]
    fn blocks_in_roi_selects_intersecting_blocks() {
        let field = MotionField::zeroed(Resolution::new(64, 64), 16, 7).unwrap();
        // ROI covering the central 2x2 blocks.
        let roi = Rect::new(20.0, 20.0, 24.0, 24.0);
        let blocks: Vec<(u32, u32)> = field.blocks_in_roi(&roi).map(|(x, y, _)| (x, y)).collect();
        assert_eq!(blocks, vec![(1, 1), (2, 1), (1, 2), (2, 2)]);
        // Out-of-frame ROI yields nothing.
        let far = Rect::new(500.0, 500.0, 10.0, 10.0);
        assert_eq!(field.blocks_in_roi(&far).count(), 0);
        // Empty ROI yields nothing.
        let empty = Rect::new(10.0, 10.0, 0.0, 0.0);
        assert_eq!(field.blocks_in_roi(&empty).count(), 0);
    }

    #[test]
    fn ops_model_matches_paper_formulas() {
        // ES at L=16, d=7: 16^2 * 15^2 = 57,600 ops/block.
        assert_eq!(SearchStrategy::Exhaustive.ops_per_block(16, 7), 256 * 225);
        // TSS at L=16, d=7: 16^2 * (1 + 8*3 steps) = 256 * 25 = 6,400.
        assert_eq!(SearchStrategy::ThreeStep.ops_per_block(16, 7), 256 * 25);
        // The paper's 8/9 reduction claim: 6400 / 57600 = 1/9.
        let es = SearchStrategy::Exhaustive.ops_per_block(16, 7) as f64;
        let tss = SearchStrategy::ThreeStep.ops_per_block(16, 7) as f64;
        assert!((tss / es - 1.0 / 9.0).abs() < 0.01);
    }

    #[test]
    fn tss_probe_model_counts_actual_steps() {
        // d=7: initial step 4 -> rounds {4,2,1} -> 1 + 8*3 = 25 probes.
        assert_eq!(SearchStrategy::ThreeStep.probes_per_block(7), 25);
        // d=10: (d+1)/2 = 5 -> initial step 4 (not 8) -> still 3 rounds.
        // The old closed form `1 + 8*log2(d+1)` rounded this up to 29.
        assert_eq!(SearchStrategy::ThreeStep.probes_per_block(10), 25);
        // d=1: initial step 1 -> single round -> the full 3x3 window.
        assert_eq!(SearchStrategy::ThreeStep.probes_per_block(1), 9);
        // d=15: initial step 8 -> 4 rounds.
        assert_eq!(SearchStrategy::ThreeStep.probes_per_block(15), 33);
    }

    #[test]
    fn cheaper_strategies_model_fewer_probes_than_exhaustive() {
        // TSS never exceeds the window at any range.
        for d in [1u32, 4, 7, 15] {
            assert!(
                SearchStrategy::ThreeStep.probes_per_block(d)
                    <= SearchStrategy::Exhaustive.probes_per_block(d),
                "three-step budget exceeds exhaustive at d={d}"
            );
        }
        // Diamond and hierarchical carry fixed pattern/pyramid overheads
        // that only amortize at realistic ranges (the paper uses d=7).
        for d in [4u32, 7, 15] {
            let es = SearchStrategy::Exhaustive.probes_per_block(d);
            for s in [SearchStrategy::Diamond, SearchStrategy::Hierarchical] {
                assert!(
                    s.probes_per_block(d) <= es,
                    "{s} budget exceeds exhaustive at d={d}"
                );
            }
        }
    }

    #[test]
    fn frame_ops_at_1080p_match_paper_scale() {
        // §5.1: "a 1080p image requires about 50 million arithmetic
        // operations to generate motion vectors" (TSS).
        let m = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let ops = m.ops_per_frame(Resolution::FULL_HD);
        assert!(
            (40_000_000..70_000_000).contains(&ops),
            "got {ops} ops/frame"
        );
    }

    #[test]
    fn metadata_size_matches_paper_estimate() {
        // §4.2: 1080p with 16x16 blocks -> ~8,100 MVs ≈ 8 KB (1 B/MV); we
        // store 4 B/block (MV + confidence), i.e. ~32 KB, same order.
        let field = MotionField::zeroed(Resolution::FULL_HD, 16, 7).unwrap();
        let bytes = field.metadata_bytes().0;
        assert_eq!(bytes, u64::from(field.blocks_x() * field.blocks_y()) * 4);
        assert!(bytes < 64 * 1024);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(BlockMatcher::new(0, 7, SearchStrategy::Exhaustive).is_err());
        assert!(BlockMatcher::new(16, 0, SearchStrategy::Exhaustive).is_err());
        assert!(BlockMatcher::new(16, 128, SearchStrategy::Exhaustive).is_err());
        assert!(MotionField::zeroed(Resolution::VGA, 0, 7).is_err());
    }

    #[test]
    fn mismatched_frames_are_rejected() {
        let a = LumaFrame::new(64, 64).unwrap();
        let b = LumaFrame::new(32, 64).unwrap();
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        assert!(m.estimate(&a, &b).is_err());
    }

    #[test]
    fn tss_close_to_es_on_noisy_translation() {
        // Fig. 11b's premise: TSS tracks ES closely. On a noisy shifted
        // frame, the two fields should agree on the dominant motion.
        let prev = textured(96, 96, 8);
        let mut cur = shifted(&prev, 4, -3);
        let mut rng = rngx::derived_rng(0xA5, 0, 0);
        for px in cur.samples_mut() {
            let noise: i16 = rng.gen_range(-4..=4);
            *px = (i16::from(*px) + noise).clamp(0, 255) as u8;
        }
        let es = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let tss = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let fe = es.estimate(&cur, &prev).unwrap();
        let ft = tss.estimate(&cur, &prev).unwrap();
        let mut agree = 0;
        let interior: Vec<(u32, u32)> = (1..5).flat_map(|y| (1..5).map(move |x| (x, y))).collect();
        for &(bx, by) in &interior {
            if fe.at_block(bx, by).v == ft.at_block(bx, by).v {
                agree += 1;
            }
        }
        assert!(
            agree >= interior.len() - 2,
            "agree {agree}/{}",
            interior.len()
        );
    }

    #[test]
    fn mean_magnitude_tracks_shift_size() {
        let prev = textured(96, 96, 9);
        let small = shifted(&prev, 1, 0);
        let large = shifted(&prev, 6, 0);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let f_small = m.estimate(&small, &prev).unwrap();
        let f_large = m.estimate(&large, &prev).unwrap();
        assert!(f_large.mean_magnitude() > f_small.mean_magnitude());
    }

    #[test]
    fn stats_meter_actual_probes() {
        let prev = textured(96, 96, 10);
        let cur = shifted(&prev, 3, -2);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let (field, stats) = m.estimate_with_stats(&cur, &prev).unwrap();
        assert_eq!(stats.blocks, field.block_count() as u64);
        // ES probes every window offset exactly once per block.
        assert_eq!(stats.probes, stats.blocks * 225);
        // Early exit means far fewer ops than the full 225 * 256 model.
        assert!(stats.sad_ops < stats.blocks * 225 * 256);
        assert!(stats.sad_ops > 0);
    }
}
