//! Reusable scratch buffers for pattern-level network execution.
//!
//! The layer loop of [`crate::graph::execute_pattern`] used to pay per-layer
//! allocations for everything it touched: a `CprTensor` built from the input
//! coordinates, a `BTreeSet` for output dilation, and a third walk of the
//! inputs to count rules. [`ExecutionArena`] holds the scratch state those
//! passes need — a row index over the input slice, the merge streams of the
//! fused sweep, output-coordinate buffers, and a cache of dense all-cells
//! sets — so consecutive layers (and consecutive `execute_pattern` calls that
//! share one arena) reuse the same capacity instead of reallocating.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rulegen::delta::{FrameDeltaState, LayerDeltaCache};
use crate::rulegen::output_grid;
use crate::rulegen::streaming::{
    fused_sweep, input_row_band, sweep_output_row, CoordSink, NullSink, SliceRows, StreamState,
};
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
    /// Merge-stream state of the fused sweep (`kh·kw` entries at most).
    streams: Vec<StreamState>,
    /// Output coordinates of the current fused sweep.
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
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "arena sweeps require strictly CPR-sorted coordinates"
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

    /// One fused `O(P·K)` sweep for a dilating layer: computes the active
    /// output coordinates (CPR order, in an internal buffer) *and* the rule
    /// count together. Valid for every kind except [`ConvKind::Dense`] and
    /// [`ConvKind::SpConvS`], whose output sets need no sweep.
    ///
    /// Returns the output slice (borrowed from the arena) and the rule count.
    pub fn dilate_and_count(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> (&[PillarCoord], u64) {
        let out_grid = output_grid(in_grid, kind);
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            streams,
            out_coords,
            ..
        } = self;
        out_coords.clear();
        let rows = SliceRows { row_ptr, cols };
        let (_, rules) = fused_sweep(
            &rows,
            in_grid,
            out_grid,
            kind,
            kernel,
            streams,
            &mut CoordSink(out_coords),
        );
        (out_coords, rules)
    }

    /// Rule count of a submanifold ([`ConvKind::SpConvS`]) layer in one fused
    /// sweep (the output set is the input set, so nothing is materialised).
    pub fn count_submanifold_rules(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kernel: KernelShape,
    ) -> u64 {
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            streams,
            ..
        } = self;
        let rows = SliceRows { row_ptr, cols };
        let (_, rules) = fused_sweep(
            &rows,
            in_grid,
            in_grid,
            ConvKind::SpConvS,
            kernel,
            streams,
            &mut NullSink,
        );
        rules
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
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            streams,
            out_coords,
            ..
        } = self;
        out_coords.clear();
        cache.out_row_ptr.clear();
        cache.out_row_ptr.push(0);
        cache.row_rules.clear();
        let rows = SliceRows { row_ptr, cols };
        let mut rules = 0u64;
        for o in 0..out_grid.height {
            let base = out_coords.len();
            let (_, row_rules) = sweep_output_row(
                &rows,
                in_grid,
                out_grid,
                kind,
                kernel,
                streams,
                &mut CoordSink(out_coords),
                o,
                base,
            );
            cache.out_row_ptr.push(out_coords.len());
            cache.row_rules.push(row_rules);
            rules += row_rules;
        }
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(row_ptr);
        cache.rules = rules;
        (out_coords, rules)
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
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            streams,
            ..
        } = self;
        cache.row_rules.clear();
        let rows = SliceRows { row_ptr, cols };
        let mut rules = 0u64;
        for o in 0..in_grid.height {
            let (_, row_rules) = sweep_output_row(
                &rows,
                in_grid,
                in_grid,
                ConvKind::SpConvS,
                kernel,
                streams,
                &mut NullSink,
                o,
                0,
            );
            cache.row_rules.push(row_rules);
            rules += row_rules;
        }
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(row_ptr);
        cache.rules = rules;
        rules
    }

    /// Marks the dirty input rows of a layer in `dirty_in`: rows whose column
    /// set differs between the cached previous input and the current one.
    fn mark_dirty_rows(
        &self,
        cache: &LayerDeltaCache,
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
            let next = &self.cols[self.row_ptr[r]..self.row_ptr[r + 1]];
            *dirty = prev.len() != next.len() || prev.iter().zip(next).any(|(p, &n)| p.col != n);
        }
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
        self.index_rows(coords, in_grid);
        let FrameDeltaState {
            layers,
            dirty_in,
            staged_coords,
            staged_row_ptr,
            staged_row_rules,
            ..
        } = state;
        let cache = &mut layers[layer_idx];
        self.mark_dirty_rows(cache, in_grid, dirty_in);
        let Self {
            row_ptr,
            cols,
            streams,
            ..
        } = self;
        let rows = SliceRows { row_ptr, cols };
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
                let base = staged_coords.len();
                let (_, rr) = sweep_output_row(
                    &rows,
                    in_grid,
                    out_grid,
                    kind,
                    kernel,
                    streams,
                    &mut CoordSink(staged_coords),
                    o,
                    base,
                );
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
        cache.in_row_ptr.extend_from_slice(row_ptr);
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
        self.index_rows(coords, in_grid);
        let FrameDeltaState {
            layers,
            dirty_in,
            staged_row_rules,
            ..
        } = state;
        let cache = &mut layers[layer_idx];
        self.mark_dirty_rows(cache, in_grid, dirty_in);
        let Self {
            row_ptr,
            cols,
            streams,
            ..
        } = self;
        let rows = SliceRows { row_ptr, cols };
        staged_row_rules.clear();
        let mut rules = 0u64;
        let mut rows_swept = 0u64;
        for o in 0..in_grid.height {
            let dirty = input_row_band(o, in_grid, ConvKind::SpConvS, kernel)
                .is_some_and(|(lo, hi)| dirty_in[lo as usize..=hi as usize].contains(&true));
            let row_rules = if dirty {
                rows_swept += 1;
                let (_, rr) = sweep_output_row(
                    &rows,
                    in_grid,
                    in_grid,
                    ConvKind::SpConvS,
                    kernel,
                    streams,
                    &mut NullSink,
                    o,
                    0,
                );
                rr
            } else {
                cache.row_rules[o as usize]
            };
            staged_row_rules.push(row_rules);
            rules += row_rules;
        }
        std::mem::swap(&mut cache.row_rules, staged_row_rules);
        cache.in_row_ptr.clear();
        cache.in_row_ptr.extend_from_slice(row_ptr);
        cache.rules = rules;
        (rules, rows_swept)
    }

    /// Capacities of the arena's scratch buffers — pinned by the test that
    /// asserts the steady-state delta path stops allocating.
    #[must_use]
    pub fn scratch_capacities(&self) -> [usize; 5] {
        [
            self.row_ptr.capacity(),
            self.cols.capacity(),
            self.streams.capacity(),
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
