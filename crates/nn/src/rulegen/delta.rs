//! Delta rule generation: incrementally patch the previous frame's rule
//! structures instead of regenerating them from scratch.
//!
//! Consecutive frames of a persistent drive share most of their active
//! pillars (PR 5 measures ~0.88 consecutive-frame overlap on scripted
//! scenarios), yet a full sweep ([`crate::rulegen::streaming`]) rebuilds
//! every output row of every layer each frame. Both sweeps there — the
//! RGU reference merge that builds rule books and the row-bitmap sweep of
//! pattern-level execution — are row-independent: output row `o` reads
//! only the input rows inside its receptive-field band (`input_row_band`)
//! and emits a contiguous run of output indices. So a frame-to-frame change
//! confined to a few input rows can only affect the output rows whose halo
//! band touches them. The delta path exploits exactly that, at two levels:
//! [`patch_rule_book`] splices rule books with the merge's
//! `sweep_output_row`, and the executor's per-row splices
//! (`ExecutionArena::delta_dilate_and_count` and
//! `delta_count_submanifold`) re-sweep dirty rows with the bitmap sweep.
//! The steps, for rule books:
//!
//! 1. **Coord diff** — consecutive frames' CPR coord sets are compared with
//!    a merge walk (both sides already sorted, the same shape as
//!    `PillarizedCloud::pillar_overlap`); a *dirty* input row is one whose
//!    column set changed.
//! 2. **Halo rows** — an output row is dirty iff any input row in its
//!    receptive-field band is dirty.
//! 3. **Patch** — dirty output rows are re-swept with the streaming
//!    module's `sweep_output_row`; clean rows are spliced from the previous
//!    frame's book with two uniform index shifts (outputs shift by the
//!    insertions/removals in earlier output rows, inputs by the shift of
//!    the one input row feeding that `(tap, output row)` pair).
//! 4. **Fallback** — when the changed fraction exceeds the
//!    [`DeltaPolicy`] threshold (always for frame 0 and i.i.d. drives,
//!    where overlap is near zero), the full sweep runs instead; the delta
//!    path never pays more than one extra merge walk.
//!
//! Byte-identity with the full sweep is structural, not approximate: the
//! sweep emits exactly one rule per `(tap, output)` pair, per-tap rules in
//! ascending output order, and each output row as one contiguous index
//! run — so splicing clean rows between freshly swept dirty rows
//! reproduces the full sweep's emission order *exactly*. The property
//! tests pin [`patch_rule_book`] against the [`generate`] oracle on every
//! frame of every named drive scenario.
//!
//! [`FrameDeltaState`] carries the cross-frame caches for the
//! pattern-level executor ([`crate::graph::execute_pattern_delta`]): the
//! previous frame's per-layer inputs, dilated outputs, per-row rule
//! counts, and row spans, plus the scratch buffers the splice reuses so
//! the steady-state delta path allocates nothing per frame.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::output_grid;
use crate::rulegen::streaming::{generate, input_row_band, sweep_output_row, StreamState};
use serde::{Deserialize, Serialize};
use spade_tensor::{CprTensor, GridShape, PillarCoord};
use std::sync::Arc;

/// When to take the delta path instead of a full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaPolicy {
    /// Maximum changed fraction (see [`changed_fraction`]) at which the
    /// delta path still runs; above it the full sweep is cheaper than
    /// patching. Frames *at* the threshold take the delta path.
    pub threshold: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        // Persistent scripted drives measure ~0.1 changed fraction between
        // consecutive frames; i.i.d. drives measure ~1.0. Anything near the
        // middle means most rows are dirty and the splice saves little.
        Self { threshold: 0.35 }
    }
}

impl DeltaPolicy {
    /// Whether a frame with the given changed fraction takes the delta path.
    #[must_use]
    pub fn accepts(&self, fraction: f64) -> bool {
        fraction <= self.threshold
    }
}

/// The fraction of active pillars that changed between two sorted coord
/// sets: `|symmetric difference| / max(|prev|, |next|, 1)`, a single merge
/// walk over the two CPR-ordered slices. Ranges over `[0, 2]` (a fully
/// disjoint pair counts both its additions and removals).
#[must_use]
pub fn changed_fraction(prev: &[PillarCoord], next: &[PillarCoord]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < prev.len() && j < next.len() {
        match prev[i].cmp(&next[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let changed = (prev.len() - inter) + (next.len() - inter);
    changed as f64 / prev.len().max(next.len()).max(1) as f64
}

/// [`changed_fraction`] over two CPR tensors on the same grid, walking the
/// per-row column slices instead of materialising coordinate vectors.
#[must_use]
pub fn changed_fraction_cpr(prev: &CprTensor, next: &CprTensor) -> f64 {
    debug_assert_eq!(prev.grid(), next.grid());
    let mut inter = 0usize;
    for r in 0..prev.grid().height {
        let a = prev.pillars_in_row(r);
        let b = next.pillars_in_row(r);
        let mut i = 0;
        let mut j = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    let (p, n) = (prev.num_active(), next.num_active());
    let changed = (p - inter) + (n - inter);
    changed as f64 / p.max(n).max(1) as f64
}

/// Incrementally patches `prev_book` (the rule book `generate` produced for
/// `prev_in`) into the rule book for `next_in`, re-sweeping only the output
/// rows whose receptive-field band contains a changed input row.
///
/// The result is byte-identical to `generate(next_in, kind, kernel)`
/// regardless of how much changed; the *cost* scales with the number of
/// dirty output rows. [`ConvKind::Dense`] has no sparse structure to patch
/// and falls through to the full generator.
///
/// # Panics
///
/// Panics if the two frames' grids differ (a drive's BEV grid is fixed).
#[must_use]
pub fn patch_rule_book(
    prev_in: &CprTensor,
    prev_book: &RuleBook,
    next_in: &CprTensor,
    kind: ConvKind,
    kernel: KernelShape,
) -> RuleBook {
    assert_eq!(
        prev_in.grid(),
        next_in.grid(),
        "delta patching requires a stable grid across frames"
    );
    if kind == ConvKind::Dense {
        return generate(next_in, kind, kernel);
    }
    let in_grid = next_in.grid();
    let out_grid = output_grid(in_grid, kind);
    let taps = kernel.num_taps();
    debug_assert_eq!(prev_book.output_grid(), out_grid);
    debug_assert_eq!(prev_book.num_taps(), taps);
    let submanifold = kind == ConvKind::SpConvS;

    // Coord diff: a dirty input row is one whose column set changed.
    let dirty_in: Vec<bool> = (0..in_grid.height)
        .map(|r| prev_in.pillars_in_row(r) != next_in.pillars_in_row(r))
        .collect();

    // Row spans over the previous book's outputs (they are CPR-ordered).
    let mut prev_out_ptr = vec![0usize; out_grid.height as usize + 1];
    for c in prev_book.output_coords() {
        prev_out_ptr[c.row as usize + 1] += 1;
    }
    for r in 0..out_grid.height as usize {
        prev_out_ptr[r + 1] += prev_out_ptr[r];
    }

    let mut book = if submanifold {
        // Submanifold outputs are the inputs; indices coincide.
        RuleBook::new(taps, out_grid, next_in.coords())
    } else {
        RuleBook::streamed(taps, out_grid)
    };
    let mut streams: Vec<StreamState> = Vec::with_capacity(taps);
    // One forward cursor per tap over the previous book's rules: per-tap
    // rules are in ascending output order, so each row's rules form the
    // next contiguous run.
    let mut cursors = vec![0usize; taps];
    let kw = i64::from(kernel.kw);
    let centre_r = if kernel.kh % 2 == 1 {
        i64::from(kernel.kh / 2)
    } else {
        0
    };

    for o in 0..out_grid.height {
        let span = (prev_out_ptr[o as usize], prev_out_ptr[o as usize + 1]);
        let dirty = input_row_band(o, in_grid, kind, kernel)
            .is_some_and(|(lo, hi)| (lo..=hi).any(|r| dirty_in[r as usize]));
        if dirty {
            // Halo hit: re-sweep the row against the new frame and discard
            // the previous book's superseded rules for it.
            sweep_output_row(&next_in, in_grid, kind, kernel, &mut streams, &mut book, o);
            for (tap, cursor) in cursors.iter_mut().enumerate() {
                let rules = prev_book.rules_for_tap(tap);
                while *cursor < rules.len() && rules[*cursor].output < span.1 {
                    *cursor += 1;
                }
            }
        } else {
            // Clean row: splice the previous frame's outputs and rules in.
            // Within one (tap, output row) all rules read the same input
            // row and target this output row, so a single pair of index
            // shifts re-bases them onto the new frame's CPR orderings.
            let out_base = book.num_outputs();
            if !submanifold {
                for &c in &prev_book.output_coords()[span.0..span.1] {
                    book.push_output(c);
                }
            }
            for (tap, cursor) in cursors.iter_mut().enumerate() {
                let rules = prev_book.rules_for_tap(tap);
                if *cursor >= rules.len() || rules[*cursor].output >= span.1 {
                    continue;
                }
                let dr = tap as i64 / kw - centre_r;
                let p_row = match kind {
                    ConvKind::SpStConv => 2 * i64::from(o) + dr,
                    ConvKind::SpDeconv => (i64::from(o) - dr) / 2,
                    _ => i64::from(o) + dr,
                };
                debug_assert!(
                    p_row >= 0 && p_row < i64::from(in_grid.height),
                    "a clean row with rules has its feeding input row in bounds"
                );
                let p = p_row as u32;
                let in_shift = next_in.row_range(p).0 as i64 - prev_in.row_range(p).0 as i64;
                let out_shift = if submanifold {
                    next_in.row_range(o).0 as i64 - prev_in.row_range(o).0 as i64
                } else {
                    out_base as i64 - span.0 as i64
                };
                while *cursor < rules.len() && rules[*cursor].output < span.1 {
                    let r = rules[*cursor];
                    book.push(
                        tap,
                        (r.input as i64 + in_shift) as usize,
                        (r.output as i64 + out_shift) as usize,
                    );
                    *cursor += 1;
                }
            }
        }
    }
    book
}

/// Patches when the policy accepts the frame-to-frame change, otherwise
/// regenerates. Returns the book and whether the delta path ran — the
/// boundary cases (fraction exactly at threshold, empty frame, fully
/// changed frame) are pinned through this wrapper.
#[must_use]
pub fn generate_or_patch(
    policy: DeltaPolicy,
    prev: Option<(&CprTensor, &RuleBook)>,
    next: &CprTensor,
    kind: ConvKind,
    kernel: KernelShape,
) -> (RuleBook, bool) {
    if kind != ConvKind::Dense {
        if let Some((prev_in, prev_book)) = prev {
            if prev_in.grid() == next.grid() && policy.accepts(changed_fraction_cpr(prev_in, next))
            {
                return (
                    patch_rule_book(prev_in, prev_book, next, kind, kernel),
                    true,
                );
            }
        }
    }
    (generate(next, kind, kernel), false)
}

/// Deterministic counters of what the delta path did over a drive.
///
/// `modelled_speedup` is the rulegen-row ratio (rows a full per-frame sweep
/// would walk over rows actually swept) — a pure function of the frame
/// stream, so it is identical across `--jobs` settings, unlike wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Frames executed through a delta-capable entry point.
    pub frames_total: usize,
    /// Frames that took the delta path (vs full-sweep fallback).
    pub frames_delta: usize,
    /// Layer executions served wholesale from the previous frame (input
    /// unchanged).
    pub layers_reused: usize,
    /// Layer executions row-spliced (some rows re-swept, the rest copied).
    pub layers_patched: usize,
    /// Layer executions that ran the full sweep (fallback or first frame).
    pub layers_full: usize,
    /// Output rows a from-scratch sweep of every frame would have walked.
    pub rows_full_equivalent: u64,
    /// Output rows actually re-swept.
    pub rows_swept: u64,
}

impl DeltaStats {
    /// Rulegen work ratio: rows a full sweep would walk over rows swept.
    /// `1.0` when nothing ran.
    #[must_use]
    pub fn modelled_speedup(&self) -> f64 {
        if self.rows_full_equivalent == 0 {
            return 1.0;
        }
        self.rows_full_equivalent as f64 / self.rows_swept.max(1) as f64
    }

    /// Folds another drive's counters into this one (per-model aggregation
    /// in the DSE sweep).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.frames_total += other.frames_total;
        self.frames_delta += other.frames_delta;
        self.layers_reused += other.layers_reused;
        self.layers_patched += other.layers_patched;
        self.layers_full += other.layers_full;
        self.rows_full_equivalent += other.rows_full_equivalent;
        self.rows_swept += other.rows_swept;
    }
}

/// Per-layer cross-frame cache: the previous frame's inputs and outputs of
/// one layer, with the row structure needed to splice rows.
#[derive(Debug, Default)]
pub(crate) struct LayerDeltaCache {
    /// The layer's input coords last frame.
    pub(crate) input: Option<Arc<[PillarCoord]>>,
    /// Row pointer over `input` (`height + 1` entries).
    pub(crate) in_row_ptr: Vec<usize>,
    /// The dilated (pre-pruning) output coords last frame.
    pub(crate) dilated: Option<Arc<[PillarCoord]>>,
    /// Row pointer over `dilated` (`out height + 1` entries).
    pub(crate) out_row_ptr: Vec<usize>,
    /// Rule count of each output row last frame.
    pub(crate) row_rules: Vec<u64>,
    /// Total rule count last frame.
    pub(crate) rules: u64,
    /// The post-pruning output coords last frame (equals `dilated` for
    /// non-pruning kinds) — kept so an unchanged pruned output reuses the
    /// same `Arc` and downstream layers see pointer-equal inputs.
    pub(crate) output: Option<Arc<[PillarCoord]>>,
}

impl LayerDeltaCache {
    /// Whether the cache holds a complete previous-frame snapshot.
    pub(crate) fn is_populated(&self) -> bool {
        self.input.is_some()
    }
}

/// Cross-frame state for [`crate::graph::execute_pattern_delta`]: one
/// drive's rolling cache of the previous frame plus the scratch buffers the
/// row splice reuses. Feed frames of **one** drive in order through a single
/// state; the executor resets the caches automatically if the network or
/// grid changes underneath it.
#[derive(Debug)]
pub struct FrameDeltaState {
    /// Fallback policy.
    pub(crate) policy: DeltaPolicy,
    /// Running counters (never reset by cache invalidation).
    pub(crate) stats: DeltaStats,
    /// The previous frame's normalised initial coords.
    pub(crate) prev_initial: Option<Arc<[PillarCoord]>>,
    /// Grid the caches were recorded on.
    pub(crate) grid: Option<GridShape>,
    /// Fingerprint of the network the caches were recorded for (layer
    /// count; specs are static per model).
    pub(crate) num_layers: Option<usize>,
    /// Per-layer caches, indexed like the pattern's layer list.
    pub(crate) layers: Vec<LayerDeltaCache>,
    /// Scratch: dirty flag per input row of the current layer.
    pub(crate) dirty_in: Vec<bool>,
    /// Scratch: the spliced output coords being staged.
    pub(crate) staged_coords: Vec<PillarCoord>,
    /// Scratch: row pointer being staged alongside `staged_coords`.
    pub(crate) staged_row_ptr: Vec<usize>,
    /// Scratch: per-row rule counts being staged.
    pub(crate) staged_row_rules: Vec<u64>,
}

impl FrameDeltaState {
    /// A fresh state with the given fallback policy.
    #[must_use]
    pub fn new(policy: DeltaPolicy) -> Self {
        Self {
            policy,
            stats: DeltaStats::default(),
            prev_initial: None,
            grid: None,
            num_layers: None,
            layers: Vec::new(),
            dirty_in: Vec::new(),
            staged_coords: Vec::new(),
            staged_row_ptr: Vec::new(),
            staged_row_rules: Vec::new(),
        }
    }

    /// The fallback policy.
    #[must_use]
    pub fn policy(&self) -> DeltaPolicy {
        self.policy
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Returns the counters accumulated since the last take and resets
    /// them (the frame caches are untouched). This is the hand-off a
    /// long-lived owner uses to fold one state's recent activity into an
    /// aggregate — e.g. `spade-serve` keeps one state per (drive, model)
    /// stream and drains each state's counters into its service-wide
    /// [`DeltaStats`] after every frame, without double counting and
    /// without giving up the state's warm caches.
    pub fn take_stats(&mut self) -> DeltaStats {
        std::mem::take(&mut self.stats)
    }

    /// Drops the cached previous frame (the counters survive). The next
    /// frame runs the full path and re-records.
    pub fn invalidate(&mut self) {
        self.prev_initial = None;
        self.grid = None;
        self.num_layers = None;
        for layer in &mut self.layers {
            *layer = LayerDeltaCache::default();
        }
    }

    /// Capacities of the reusable scratch buffers — pinned by the arena
    /// test that asserts the steady-state delta path stops allocating.
    #[must_use]
    pub fn scratch_capacities(&self) -> [usize; 4] {
        [
            self.dirty_in.capacity(),
            self.staged_coords.capacity(),
            self.staged_row_ptr.capacity(),
            self.staged_row_rules.capacity(),
        ]
    }
}

impl Default for FrameDeltaState {
    fn default() -> Self {
        Self::new(DeltaPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_stats_drains_counters_but_keeps_the_frame_cache() {
        let mut state = FrameDeltaState::default();
        state.stats.frames_total = 3;
        state.stats.frames_delta = 2;
        state.prev_initial = Some(Arc::from(&[PillarCoord::new(1, 1)][..]));
        let taken = state.take_stats();
        assert_eq!(taken.frames_total, 3);
        assert_eq!(taken.frames_delta, 2);
        // Counters reset; the cached previous frame survives, so the next
        // frame can still take the delta path.
        assert_eq!(state.stats(), DeltaStats::default());
        assert!(state.prev_initial.is_some());
    }

    fn tensor(grid: GridShape, coords: &[(u32, u32)]) -> CprTensor {
        let coords: Vec<PillarCoord> = coords
            .iter()
            .map(|&(r, c)| PillarCoord::new(r, c))
            .collect();
        CprTensor::from_coords(grid, 1, &coords)
    }

    /// Deterministic pseudo-random coord set: dense enough to exercise
    /// multi-pillar rows, sparse enough to leave empty rows.
    fn seeded_coords(grid: GridShape, seed: u64, target: usize) -> Vec<PillarCoord> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(target);
        for _ in 0..target {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let r = (s >> 16) as u32 % grid.height;
            let c = (s >> 40) as u32 % grid.width;
            out.push(PillarCoord::new(r, c));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Moves a handful of pillars between frames, mimicking a coherent drive.
    fn perturb(
        grid: GridShape,
        coords: &[PillarCoord],
        seed: u64,
        moves: usize,
    ) -> Vec<PillarCoord> {
        let mut out = coords.to_vec();
        let extra = seeded_coords(grid, seed, moves);
        for (i, e) in extra.into_iter().enumerate() {
            if i % 2 == 0 {
                out.push(e);
            } else if !out.is_empty() {
                let idx = (seed as usize).wrapping_add(i * 7) % out.len();
                out.remove(idx);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn all_kinds() -> [(ConvKind, KernelShape); 9] {
        [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpConvS, KernelShape::k3x3()),
            (ConvKind::SpConvP, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
            (ConvKind::Dense, KernelShape::k3x3()),
            (ConvKind::SpConv, KernelShape::k1x1()),
            (ConvKind::SpConvS, KernelShape::k1x1()),
            (ConvKind::SpStConv, KernelShape::k1x1()),
        ]
    }

    #[test]
    fn patched_books_match_the_full_sweep_oracle() {
        let grid = GridShape::new(32, 32);
        for seed in 0..8u64 {
            let prev_coords = seeded_coords(grid, seed + 1, 90);
            let next_coords = perturb(grid, &prev_coords, seed + 100, 12);
            let prev = CprTensor::from_coords(grid, 1, &prev_coords);
            let next = CprTensor::from_coords(grid, 1, &next_coords);
            for (kind, kernel) in all_kinds() {
                let prev_book = generate(&prev, kind, kernel);
                let patched = patch_rule_book(&prev, &prev_book, &next, kind, kernel);
                let oracle = generate(&next, kind, kernel);
                assert_eq!(patched, oracle, "seed {seed} kind {kind} kernel {kernel:?}");
            }
        }
    }

    #[test]
    fn patching_handles_total_change_and_emptiness() {
        let grid = GridShape::new(16, 16);
        let a = tensor(grid, &[(1, 1), (1, 5), (7, 7), (12, 3)]);
        let b = tensor(grid, &[(2, 2), (9, 9), (14, 14)]); // fully disjoint
        let empty = CprTensor::empty(grid, 1);
        for (kind, kernel) in all_kinds() {
            for (prev, next) in [(&a, &b), (&a, &empty), (&empty, &a), (&empty, &empty)] {
                let prev_book = generate(prev, kind, kernel);
                let patched = patch_rule_book(prev, &prev_book, next, kind, kernel);
                assert_eq!(patched, generate(next, kind, kernel), "kind {kind}");
            }
        }
    }

    #[test]
    fn identical_frames_patch_to_an_identical_book() {
        let grid = GridShape::new(24, 24);
        let coords = seeded_coords(grid, 5, 60);
        let t = CprTensor::from_coords(grid, 1, &coords);
        for (kind, kernel) in all_kinds() {
            let book = generate(&t, kind, kernel);
            assert_eq!(patch_rule_book(&t, &book, &t, kind, kernel), book);
        }
    }

    #[test]
    fn changed_fraction_is_a_merge_walk_symdiff() {
        let a = [
            PillarCoord::new(0, 0),
            PillarCoord::new(1, 1),
            PillarCoord::new(2, 2),
        ];
        let b = [
            PillarCoord::new(0, 0),
            PillarCoord::new(1, 2),
            PillarCoord::new(2, 2),
        ];
        // One removed + one added over max size 3.
        assert!((changed_fraction(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(changed_fraction(&a, &a), 0.0);
        assert_eq!(changed_fraction(&[], &[]), 0.0);
        assert_eq!(changed_fraction(&a, &[]), 1.0);
        // Fully disjoint sets count both sides of the symmetric difference.
        let c = [PillarCoord::new(5, 5)];
        assert!((changed_fraction(&a, &c) - 4.0 / 3.0).abs() < 1e-12);
        // The CPR walk agrees with the slice walk.
        let grid = GridShape::new(8, 8);
        let ta = CprTensor::from_coords(grid, 1, &a);
        let tb = CprTensor::from_coords(grid, 1, &b);
        assert!((changed_fraction_cpr(&ta, &tb) - changed_fraction(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn policy_boundary_is_inclusive() {
        let policy = DeltaPolicy { threshold: 0.25 };
        assert!(policy.accepts(0.25), "exactly at threshold takes delta");
        assert!(!policy.accepts(0.25 + 1e-9));
        let grid = GridShape::new(8, 8);
        // prev has 4 coords, next removes exactly one: fraction 1/4.
        let prev = tensor(grid, &[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let next = tensor(grid, &[(1, 1), (2, 2), (3, 3)]);
        let kind = ConvKind::SpConv;
        let kernel = KernelShape::k3x3();
        let prev_book = generate(&prev, kind, kernel);
        let (book, used_delta) =
            generate_or_patch(policy, Some((&prev, &prev_book)), &next, kind, kernel);
        assert!(used_delta, "fraction exactly at threshold must patch");
        assert_eq!(book, generate(&next, kind, kernel));
        // A fully-changed frame falls back.
        let far = tensor(grid, &[(6, 6), (7, 7)]);
        let (book, used_delta) =
            generate_or_patch(policy, Some((&prev, &prev_book)), &far, kind, kernel);
        assert!(!used_delta, "fully changed frame must fall back");
        assert_eq!(book, generate(&far, kind, kernel));
        // No previous frame falls back.
        let (_, used_delta) = generate_or_patch(policy, None, &next, kind, kernel);
        assert!(!used_delta);
    }

    #[test]
    fn stats_speedup_is_the_row_ratio() {
        let mut s = DeltaStats::default();
        assert_eq!(s.modelled_speedup(), 1.0);
        s.rows_full_equivalent = 100;
        s.rows_swept = 10;
        assert!((s.modelled_speedup() - 10.0).abs() < 1e-12);
        let mut t = DeltaStats {
            frames_total: 2,
            frames_delta: 1,
            ..DeltaStats::default()
        };
        t.merge(&s);
        assert_eq!(t.rows_full_equivalent, 100);
        assert_eq!(t.frames_total, 2);
    }

    #[test]
    fn delta_state_invalidation_keeps_counters() {
        let mut state = FrameDeltaState::default();
        state.stats.frames_total = 3;
        state.layers.push(LayerDeltaCache {
            input: Some(Arc::from(&[PillarCoord::new(0, 0)][..])),
            ..LayerDeltaCache::default()
        });
        assert!(state.layers[0].is_populated());
        state.invalidate();
        assert!(!state.layers[0].is_populated());
        assert_eq!(state.stats().frames_total, 3);
        assert!(state.scratch_capacities().iter().all(|&c| c == 0));
    }
}
