//! Reusable scratch buffers for pattern-level network execution.
//!
//! The layer loop of [`crate::graph::execute_pattern`] used to pay per-layer
//! allocations for everything it touched: a `CprTensor` built from the input
//! coordinates, a `BTreeSet` for output dilation, and a third walk of the
//! inputs to count rules. [`ExecutionArena`] holds the scratch state those
//! passes need — a row index over the input slice, the bitmaps of the
//! row-bitmap sweep ([`crate::rulegen::streaming`]), output-coordinate
//! buffers, and a cache of dense all-cells sets — so consecutive layers (and
//! consecutive `execute_pattern` calls that share one arena) reuse the same
//! capacity instead of reallocating.
//!
//! Every sweep here only needs output coordinates and rule counts, so each
//! runs the row-bitmap sweep rather than the RGU reference merge; the
//! outputs and counts are the same.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rulegen::delta::{FrameDeltaState, LayerDeltaCache};
use crate::rulegen::output_grid;
use crate::rulegen::streaming::{input_row_band, BitmapSweep, RowSource, SliceRows};
use spade_tensor::{GridShape, PillarCoord};
use std::sync::Arc;

/// Scratch buffers threaded through pattern-level execution. Create one and
/// reuse it across layers and frames; every buffer retains its capacity.
#[derive(Debug, Default)]
pub struct ExecutionArena {
    /// Row pointer array over the current input slice (`height + 1` entries).
    row_ptr: Vec<usize>,
    /// Column index of each input pillar, grouped by row.
    cols: Vec<u32>,
    /// The current input as one bitmap row per grid row (stride-1 kinds).
    in_bits: Vec<u64>,
    /// The output row the bitmap sweep is assembling.
    out_bits: Vec<u64>,
    /// Output coordinates of the current sweep.
    out_coords: Vec<PillarCoord>,
    /// General coordinate scratch (union merging, input normalisation).
    pub(crate) scratch: Vec<PillarCoord>,
    /// Cached all-cells coordinate sets, one per dense grid seen.
    dense_cells: Vec<(GridShape, Arc<[PillarCoord]>)>,
}

impl ExecutionArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the row index (`row_ptr` + `cols`) over a CPR-sorted slice.
    fn index_rows(&mut self, coords: &[PillarCoord], grid: GridShape) {
        // An out-of-grid column would set a bit in the next row's bitmap
        // word, so the sweeps need in-bounds coordinates as well as order.
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]) && coords.iter().all(|c| c.in_bounds(grid)),
            "arena sweeps require strictly CPR-sorted, in-bounds coordinates"
        );
        self.row_ptr.clear();
        self.row_ptr.resize(grid.height as usize + 1, 0);
        for c in coords {
            self.row_ptr[c.row as usize + 1] += 1;
        }
        for i in 1..self.row_ptr.len() {
            self.row_ptr[i] += self.row_ptr[i - 1];
        }
        self.cols.clear();
        self.cols.extend(coords.iter().map(|c| c.col));
    }

    /// Indexes `coords` and prepares a row-bitmap sweep over them, returning
    /// it with the (cleared) output-coordinate buffer.
    fn sweep(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> (BitmapSweep<'_, SliceRows<'_>>, &mut Vec<PillarCoord>) {
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            in_bits,
            out_bits,
            out_coords,
            ..
        } = self;
        out_coords.clear();
        let rows = SliceRows { row_ptr, cols };
        let sweep = BitmapSweep::new(rows, in_bits, out_bits, in_grid, kind, kernel);
        (sweep, out_coords)
    }

    /// One `O(P·K)` sweep for a dilating layer: computes the active output
    /// coordinates (CPR order, in an internal buffer) *and* the rule count
    /// together. Valid for every kind except [`ConvKind::Dense`] and
    /// [`ConvKind::SpConvS`], whose output sets need no sweep.
    ///
    /// `coords` must be strictly CPR-sorted and inside `in_grid` (checked
    /// with a debug assertion); the executor normalises its input to that.
    ///
    /// Returns the output slice (borrowed from the arena) and the rule count.
    pub fn dilate_and_count(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> (&[PillarCoord], u64) {
        let (mut sweep, out) = self.sweep(coords, in_grid, kind, kernel);
        let rules = sweep.sweep_all(out);
        (out, rules)
    }

    /// Rule count of a submanifold ([`ConvKind::SpConvS`]) layer in one
    /// sweep (the output set is the input set, so nothing is materialised).
    ///
    /// `coords` must be strictly CPR-sorted and inside `in_grid` (checked
    /// with a debug assertion); the executor normalises its input to that.
    pub fn count_submanifold_rules(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kernel: KernelShape,
    ) -> u64 {
        let (mut sweep, out) = self.sweep(coords, in_grid, ConvKind::SpConvS, kernel);
        sweep.sweep_all(out)
    }

    /// As [`ExecutionArena::dilate_and_count`], but additionally records the
    /// per-row structure (input row pointer, output row spans, per-row rule
    /// counts) into a layer's delta cache so the *next* frame can splice
    /// clean rows instead of re-sweeping them. Same sweeps, same outputs.
    pub(crate) fn dilate_count_and_record(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
        cache: &mut LayerDeltaCache,
    ) -> (&[PillarCoord], u64) {
        let out_grid = output_grid(in_grid, kind);
        let (mut sweep, out) = self.sweep(coords, in_grid, kind, kernel);
        cache.out_row_ptr.clear();
        cache.out_row_ptr.push(0);
        cache.row_rules.clear();
        let mut rules = 0u64;
        for o in 0..out_grid.height {
            let row_rules = sweep.sweep_row(o);
            sweep.emit_row(o, out);
            cache.out_row_ptr.push(out.len());
            cache.row_rules.push(row_rules);
            rules += row_rules;
        }
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(sweep.rows().row_ptr);
        cache.rules = rules;
        (out, rules)
    }

    /// As [`ExecutionArena::count_submanifold_rules`], recording the per-row
    /// rule counts for the delta path (submanifold layers keep their input
    /// set, so only the counts need caching).
    pub(crate) fn count_submanifold_rules_and_record(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kernel: KernelShape,
        cache: &mut LayerDeltaCache,
    ) -> u64 {
        let (mut sweep, _) = self.sweep(coords, in_grid, ConvKind::SpConvS, kernel);
        cache.row_rules.clear();
        let mut rules = 0u64;
        for o in 0..in_grid.height {
            let row_rules = sweep.sweep_row(o);
            cache.row_rules.push(row_rules);
            rules += row_rules;
        }
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(sweep.rows().row_ptr);
        cache.rules = rules;
        rules
    }

    /// Row-granular delta re-dilation: output rows whose receptive-field band
    /// saw no input change are copied from the previous frame's cache; dirty
    /// rows are re-swept with the same per-row sweep the full path uses, so
    /// the spliced result is byte-identical to a from-scratch
    /// [`ExecutionArena::dilate_and_count`]. The cache is updated to the new
    /// frame (except `input`, which the caller owns and re-points).
    ///
    /// Returns the new dilated set (the previous frame's `Arc` is reused when
    /// the value did not change, propagating pointer-equality downstream),
    /// the rule count, and the number of rows actually swept.
    pub(crate) fn delta_dilate_and_count(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
        state: &mut FrameDeltaState,
        layer_idx: usize,
    ) -> (Arc<[PillarCoord]>, u64, u64) {
        let out_grid = output_grid(in_grid, kind);
        let (mut sweep, _) = self.sweep(coords, in_grid, kind, kernel);
        let FrameDeltaState {
            layers,
            dirty_in,
            staged_coords,
            staged_row_ptr,
            staged_row_rules,
            ..
        } = state;
        let cache = &mut layers[layer_idx];
        mark_dirty_rows(cache, sweep.rows(), in_grid, dirty_in);
        let prev_dilated = cache
            .dilated
            .as_ref()
            .expect("delta splice requires a recorded dilation");
        staged_coords.clear();
        staged_row_ptr.clear();
        staged_row_ptr.push(0);
        staged_row_rules.clear();
        let mut rules = 0u64;
        let mut rows_swept = 0u64;
        for o in 0..out_grid.height {
            let dirty = input_row_band(o, in_grid, kind, kernel)
                .is_some_and(|(lo, hi)| dirty_in[lo as usize..=hi as usize].contains(&true));
            let row_rules = if dirty {
                rows_swept += 1;
                let rr = sweep.sweep_row(o);
                sweep.emit_row(o, staged_coords);
                rr
            } else {
                let span =
                    &prev_dilated[cache.out_row_ptr[o as usize]..cache.out_row_ptr[o as usize + 1]];
                staged_coords.extend_from_slice(span);
                cache.row_rules[o as usize]
            };
            staged_row_ptr.push(staged_coords.len());
            staged_row_rules.push(row_rules);
            rules += row_rules;
        }
        let dilated: Arc<[PillarCoord]> = if staged_coords[..] == prev_dilated[..] {
            Arc::clone(prev_dilated)
        } else {
            Arc::from(&staged_coords[..])
        };
        // Commit the new frame into the cache, swapping the staged row
        // structures in so the scratch capacity is reused next frame.
        std::mem::swap(&mut cache.out_row_ptr, staged_row_ptr);
        std::mem::swap(&mut cache.row_rules, staged_row_rules);
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(sweep.rows().row_ptr);
        cache.dilated = Some(Arc::clone(&dilated));
        cache.rules = rules;
        (dilated, rules, rows_swept)
    }

    /// Row-granular delta rule recount for a submanifold layer (the output
    /// set is the input set; only per-row rule counts are spliced).
    ///
    /// Returns the rule count and the number of rows re-swept.
    pub(crate) fn delta_count_submanifold(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kernel: KernelShape,
        state: &mut FrameDeltaState,
        layer_idx: usize,
    ) -> (u64, u64) {
        let (mut sweep, _) = self.sweep(coords, in_grid, ConvKind::SpConvS, kernel);
        let FrameDeltaState {
            layers,
            dirty_in,
            staged_row_rules,
            ..
        } = state;
        let cache = &mut layers[layer_idx];
        mark_dirty_rows(cache, sweep.rows(), in_grid, dirty_in);
        staged_row_rules.clear();
        let mut rules = 0u64;
        let mut rows_swept = 0u64;
        for o in 0..in_grid.height {
            let dirty = input_row_band(o, in_grid, ConvKind::SpConvS, kernel)
                .is_some_and(|(lo, hi)| dirty_in[lo as usize..=hi as usize].contains(&true));
            let row_rules = if dirty {
                rows_swept += 1;
                sweep.sweep_row(o)
            } else {
                cache.row_rules[o as usize]
            };
            staged_row_rules.push(row_rules);
            rules += row_rules;
        }
        std::mem::swap(&mut cache.row_rules, staged_row_rules);
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(sweep.rows().row_ptr);
        cache.rules = rules;
        (rules, rows_swept)
    }

    /// Capacities of the arena's scratch buffers — pinned by the test that
    /// asserts the steady-state delta path stops allocating.
    #[must_use]
    pub fn scratch_capacities(&self) -> [usize; 6] {
        [
            self.row_ptr.capacity(),
            self.cols.capacity(),
            self.in_bits.capacity(),
            self.out_bits.capacity(),
            self.out_coords.capacity(),
            self.scratch.capacity(),
        ]
    }

    /// The all-cells coordinate set of a grid, cached per grid shape so the
    /// dense layers of a network share one allocation.
    pub fn dense_cells(&mut self, grid: GridShape) -> Arc<[PillarCoord]> {
        if let Some((_, cells)) = self.dense_cells.iter().find(|(g, _)| *g == grid) {
            return Arc::clone(cells);
        }
        let cells: Arc<[PillarCoord]> = Arc::from(grid.all_cells());
        self.dense_cells.push((grid, Arc::clone(&cells)));
        cells
    }

    /// Union of several CPR-sorted coordinate sets, cropped to `grid` —
    /// the concatenation semantics of [`crate::graph::LayerInput::Union`].
    pub(crate) fn union_coords<'a>(
        &mut self,
        sets: impl Iterator<Item = &'a [PillarCoord]>,
        grid: GridShape,
    ) -> Arc<[PillarCoord]> {
        self.scratch.clear();
        for s in sets {
            self.scratch
                .extend(s.iter().copied().filter(|c| c.in_bounds(grid)));
        }
        // The scratch holds one sorted run per set. The stable sort detects
        // those runs and merges them (O(n log k) for k sets) instead of
        // re-sorting from scratch; the result is the same.
        self.scratch.sort();
        self.scratch.dedup();
        Arc::from(&self.scratch[..])
    }
}

/// Marks the dirty input rows of a layer in `dirty_in`: rows whose column
/// set differs between the cached previous input and the current one.
fn mark_dirty_rows(
    cache: &LayerDeltaCache,
    rows: &SliceRows<'_>,
    in_grid: GridShape,
    dirty_in: &mut Vec<bool>,
) {
    let prev_input = cache
        .input
        .as_ref()
        .expect("delta splice requires a populated layer cache");
    dirty_in.clear();
    dirty_in.resize(in_grid.height as usize, false);
    for (r, dirty) in dirty_in.iter_mut().enumerate() {
        let prev = &prev_input[cache.in_row_ptr[r]..cache.in_row_ptr[r + 1]];
        let next = rows.row(r as u32).1;
        *dirty = prev.len() != next.len() || prev.iter().zip(next).any(|(p, &n)| p.col != n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rulegen;
    use spade_tensor::CprTensor;

    fn coords() -> Vec<PillarCoord> {
        vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(4, 6),
            PillarCoord::new(7, 0),
        ]
    }

    #[test]
    fn dilate_and_count_matches_reference_passes() {
        let grid = GridShape::new(8, 8);
        let cs = coords();
        let t = CprTensor::from_sorted_coords(grid, 1, &cs);
        let mut arena = ExecutionArena::new();
        for kind in [ConvKind::SpConv, ConvKind::SpConvP, ConvKind::SpStConv] {
            let (out, rules) = arena.dilate_and_count(&cs, grid, kind, KernelShape::k3x3());
            assert_eq!(
                out,
                &rulegen::output_coords(&t, kind, KernelShape::k3x3())[..],
                "outputs for {kind}"
            );
            let book = rulegen::generate_rules(&t, kind, KernelShape::k3x3());
            assert_eq!(rules, book.num_rules() as u64, "rules for {kind}");
        }
        let (out, rules) =
            arena.dilate_and_count(&cs, grid, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(
            out,
            &rulegen::output_coords(&t, ConvKind::SpDeconv, KernelShape::k2x2())[..]
        );
        let book = rulegen::generate_rules(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(rules, book.num_rules() as u64);
    }

    #[test]
    fn submanifold_count_matches_rulebook() {
        let grid = GridShape::new(8, 8);
        let cs = coords();
        let t = CprTensor::from_sorted_coords(grid, 1, &cs);
        let mut arena = ExecutionArena::new();
        let rules = arena.count_submanifold_rules(&cs, grid, KernelShape::k3x3());
        let book = rulegen::generate_rules(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(rules, book.num_rules() as u64);
    }

    #[test]
    fn dense_cells_are_cached_and_row_major() {
        let mut arena = ExecutionArena::new();
        let a = arena.dense_cells(GridShape::new(3, 2));
        let b = arena.dense_cells(GridShape::new(3, 2));
        assert!(Arc::ptr_eq(&a, &b), "same grid must share one allocation");
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn delta_splice_methods_match_full_sweeps() {
        let grid = GridShape::new(16, 16);
        let prev: Vec<PillarCoord> = vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(4, 6),
            PillarCoord::new(7, 0),
            PillarCoord::new(12, 9),
        ];
        // Move one pillar: rows 4 and 5 become dirty, the rest splice.
        let next: Vec<PillarCoord> = vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(5, 6),
            PillarCoord::new(7, 0),
            PillarCoord::new(12, 9),
        ];
        let prev_arc: Arc<[PillarCoord]> = Arc::from(&prev[..]);
        for (kind, kernel) in [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
        ] {
            let mut arena = ExecutionArena::new();
            let mut state = crate::rulegen::delta::FrameDeltaState::default();
            state.layers.push(Default::default());
            let (out, rules) =
                arena.dilate_count_and_record(&prev, grid, kind, kernel, &mut state.layers[0]);
            let recorded: Arc<[PillarCoord]> = Arc::from(out);
            state.layers[0].dilated = Some(Arc::clone(&recorded));
            state.layers[0].input = Some(Arc::clone(&prev_arc));
            let (full_out, full_rules) = {
                let mut fresh = ExecutionArena::new();
                let (o, r) = fresh.dilate_and_count(&prev, grid, kind, kernel);
                (o.to_vec(), r)
            };
            assert_eq!(&recorded[..], &full_out[..], "record diverged for {kind}");
            assert_eq!(rules, full_rules, "record rules diverged for {kind}");
            let (patched, rules, swept) =
                arena.delta_dilate_and_count(&next, grid, kind, kernel, &mut state, 0);
            let mut fresh = ExecutionArena::new();
            let (oracle, oracle_rules) = fresh.dilate_and_count(&next, grid, kind, kernel);
            assert_eq!(&patched[..], oracle, "splice diverged for {kind}");
            assert_eq!(rules, oracle_rules, "splice rules diverged for {kind}");
            let out_rows = u64::from(crate::rulegen::output_grid(grid, kind).height);
            assert!(swept > 0 && swept < out_rows, "kind {kind}: swept {swept}");
        }
        // Submanifold counts splice row-wise too.
        let mut arena = ExecutionArena::new();
        let mut state = crate::rulegen::delta::FrameDeltaState::default();
        state.layers.push(Default::default());
        let k = KernelShape::k3x3();
        arena.count_submanifold_rules_and_record(&prev, grid, k, &mut state.layers[0]);
        state.layers[0].input = Some(Arc::clone(&prev_arc));
        let (rules, swept) = arena.delta_count_submanifold(&next, grid, k, &mut state, 0);
        let mut fresh = ExecutionArena::new();
        assert_eq!(rules, fresh.count_submanifold_rules(&next, grid, k));
        assert!(swept > 0 && swept < u64::from(grid.height));
    }

    #[test]
    fn delta_path_stops_allocating_after_warm_up() {
        use crate::conv::LayerSpec;
        use crate::graph::{
            execute_pattern_delta, ExecutionContext, LayerInput, NetworkLayer, NetworkSpec,
        };
        let grid = GridShape::new(32, 32);
        let spec = NetworkSpec {
            name: "warm".into(),
            encoder_channels: 4,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("sub", ConvKind::SpConvS, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("conv", ConvKind::SpConv, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("down", ConvKind::SpStConv, 4, 4),
                    input: LayerInput::Previous,
                    stage: 2,
                    densify_input: false,
                },
            ],
        };
        // Two alternating frames differing by one moved pillar: every frame
        // after the first takes the delta path.
        let a: Vec<PillarCoord> = (0..30)
            .map(|i| PillarCoord::new((i * 7) % 32, (i * 11) % 32))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut b = a.clone();
        b.retain(|c| *c != a[4]);
        b.push(PillarCoord::new(a[4].row, (a[4].col + 1) % 32));
        b.sort();
        b.dedup();
        let ctx = ExecutionContext::default();
        let mut arena = ExecutionArena::new();
        let mut state = crate::rulegen::delta::FrameDeltaState::default();
        // Warm-up: one full frame plus one delta frame of each flavour.
        for coords in [&a, &b, &a] {
            let _ = execute_pattern_delta(&spec, coords, grid, 0, &ctx, &mut arena, &mut state);
        }
        let arena_caps = arena.scratch_capacities();
        let state_caps = state.scratch_capacities();
        // Steady state: the coord-diff and halo-row scratch buffers must be
        // reused as-is — zero reallocation on the delta path.
        for coords in [&b, &a, &b, &a, &b] {
            let _ = execute_pattern_delta(&spec, coords, grid, 0, &ctx, &mut arena, &mut state);
            assert_eq!(arena.scratch_capacities(), arena_caps);
            assert_eq!(state.scratch_capacities(), state_caps);
        }
        assert_eq!(state.stats().frames_total, 8);
        assert_eq!(state.stats().frames_delta, 7);
    }

    /// Kernels for the bitmap-sweep oracles: every shape the zoo uses, the
    /// 1-D ones, and two wider than 128 columns so column shifts cross two
    /// or more words (`|dc| ≥ 64`) in both directions.
    fn oracle_kernels() -> [KernelShape; 8] {
        let k = |kh, kw| KernelShape { kh, kw };
        [
            k(1, 1),
            k(2, 2),
            k(3, 3),
            k(5, 5),
            k(1, 3),
            k(3, 1),
            k(1, 131),
            k(2, 130),
        ]
    }

    /// Grids for the oracles: widths on both sides of each word boundary
    /// and the zoo's widths, with odd heights for stride 2.
    fn oracle_grids() -> impl Iterator<Item = GridShape> {
        [1, 63, 64, 65, 128, 129, 496, 512]
            .into_iter()
            .flat_map(|w| [1, 4, 7].map(|h| GridShape::new(h, w)))
    }

    /// A deterministic occupancy with every row shape the sweeps branch on:
    /// row 1 full, row 2 empty, both edge columns of the first and last rows
    /// occupied, and the rest of the grid about one-third occupied.
    fn oracle_coords(grid: GridShape, seed: u64) -> Vec<PillarCoord> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let last = grid.height - 1;
        let mut out = Vec::new();
        for r in 0..grid.height {
            for c in 0..grid.width {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let edge = (r == 0 || r == last) && (c == 0 || c == grid.width - 1);
                let keep = match r {
                    1 => true,
                    2 => false,
                    _ => edge || s.is_multiple_of(3),
                };
                if keep {
                    out.push(PillarCoord::new(r, c));
                }
            }
        }
        out
    }

    /// `prev` with the middle row's occupancy flipped and the bottom-right
    /// cell toggled: a frame whose change is confined to two rows.
    fn oracle_next(grid: GridShape, prev: &[PillarCoord]) -> Vec<PillarCoord> {
        let mut flip: Vec<PillarCoord> = (0..grid.width)
            .map(|c| PillarCoord::new(grid.height / 2, c))
            .collect();
        flip.push(PillarCoord::new(grid.height - 1, grid.width - 1));
        let mut next: Vec<PillarCoord> =
            prev.iter().filter(|c| !flip.contains(c)).copied().collect();
        next.extend(flip.iter().filter(|c| !prev.contains(c)));
        next.sort();
        next.dedup();
        next
    }

    /// `graph::count_rules` treats SpDeconv offsets as unsigned, so it only
    /// covers kernels without negative offsets there.
    fn count_rules_covers(kind: ConvKind, kernel: KernelShape) -> bool {
        let no_negative = |k: u32| k == 1 || k.is_multiple_of(2);
        kind != ConvKind::SpDeconv || (no_negative(kernel.kh) && no_negative(kernel.kw))
    }

    const SPARSE_KINDS: [ConvKind; 5] = [
        ConvKind::SpConv,
        ConvKind::SpConvS,
        ConvKind::SpConvP,
        ConvKind::SpStConv,
        ConvKind::SpDeconv,
    ];

    #[test]
    fn bitmap_sweep_matches_the_merge_and_count_rules() {
        // One arena for every case, so each sweep also runs over bitmaps a
        // different grid left behind.
        let mut arena = ExecutionArena::new();
        for grid in oracle_grids() {
            for coords in [Vec::new(), oracle_coords(grid, u64::from(grid.width))] {
                let t = CprTensor::from_sorted_coords(grid, 1, &coords);
                for kind in SPARSE_KINDS {
                    for kernel in oracle_kernels() {
                        let case =
                            format!("{kind} {kernel:?} on {grid:?}, {} inputs", coords.len());
                        let book = rulegen::generate_rules(&t, kind, kernel);
                        let out_grid = rulegen::output_grid(grid, kind);
                        let rules = if kind == ConvKind::SpConvS {
                            arena.count_submanifold_rules(&coords, grid, kernel)
                        } else {
                            let (out, rules) = arena.dilate_and_count(&coords, grid, kind, kernel);
                            assert_eq!(out, book.output_coords(), "outputs: {case}");
                            rules
                        };
                        assert_eq!(rules, book.num_rules() as u64, "rules: {case}");
                        assert_eq!(
                            rulegen::output_coords(&t, kind, kernel),
                            book.output_coords(),
                            "output_coords: {case}"
                        );
                        if count_rules_covers(kind, kernel) {
                            let counted =
                                crate::graph::count_rules(&coords, grid, out_grid, kind, kernel);
                            assert_eq!(rules, counted, "count_rules: {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bitmap_delta_splices_match_the_merge() {
        let mut arena = ExecutionArena::new();
        for grid in oracle_grids() {
            let prev = oracle_coords(grid, u64::from(grid.width) + 7);
            let next = oracle_next(grid, &prev);
            let prev_arc: Arc<[PillarCoord]> = Arc::from(&prev[..]);
            let prev_t = CprTensor::from_sorted_coords(grid, 1, &prev);
            let next_t = CprTensor::from_sorted_coords(grid, 1, &next);
            for kind in SPARSE_KINDS {
                for kernel in oracle_kernels() {
                    let case = format!("{kind} {kernel:?} on {grid:?}");
                    let (prev_book, next_book) = (
                        rulegen::generate_rules(&prev_t, kind, kernel),
                        rulegen::generate_rules(&next_t, kind, kernel),
                    );
                    let mut state = crate::rulegen::delta::FrameDeltaState::default();
                    state.layers.push(Default::default());
                    let cache = &mut state.layers[0];
                    if kind == ConvKind::SpConvS {
                        let rules =
                            arena.count_submanifold_rules_and_record(&prev, grid, kernel, cache);
                        assert_eq!(rules, prev_book.num_rules() as u64, "record: {case}");
                        cache.input = Some(Arc::clone(&prev_arc));
                        let (rules, _) =
                            arena.delta_count_submanifold(&next, grid, kernel, &mut state, 0);
                        assert_eq!(rules, next_book.num_rules() as u64, "splice: {case}");
                    } else {
                        let (out, rules) =
                            arena.dilate_count_and_record(&prev, grid, kind, kernel, cache);
                        assert_eq!(out, prev_book.output_coords(), "record outputs: {case}");
                        assert_eq!(rules, prev_book.num_rules() as u64, "record rules: {case}");
                        cache.dilated = Some(Arc::from(out));
                        cache.input = Some(Arc::clone(&prev_arc));
                        let (out, rules, _) =
                            arena.delta_dilate_and_count(&next, grid, kind, kernel, &mut state, 0);
                        assert_eq!(
                            &out[..],
                            next_book.output_coords(),
                            "splice outputs: {case}"
                        );
                        assert_eq!(rules, next_book.num_rules() as u64, "splice rules: {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn union_crops_and_dedups() {
        let mut arena = ExecutionArena::new();
        let a = [PillarCoord::new(0, 0), PillarCoord::new(2, 2)];
        let b = [PillarCoord::new(0, 0), PillarCoord::new(5, 5)];
        let grid = GridShape::new(3, 3);
        let u = arena.union_coords([&a[..], &b[..]].into_iter(), grid);
        assert_eq!(&u[..], &[PillarCoord::new(0, 0), PillarCoord::new(2, 2)]);
    }
}
