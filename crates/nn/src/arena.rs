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
use crate::rulegen::streaming::{BitmapSweep, SliceRows};
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

    /// Capacities of the arena's scratch buffers — pinned by the test that
    /// asserts the steady-state executor stops allocating.
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
    fn executor_stops_allocating_after_warm_up() {
        use crate::conv::LayerSpec;
        use crate::graph::{
            execute_pattern_with_arena, ExecutionContext, LayerInput, NetworkLayer, NetworkSpec,
        };
        use crate::zoo::{Model, ModelKind};
        let grid = GridShape::new(32, 32);
        let toy = NetworkSpec {
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
        // Two alternating frames differing by one moved pillar.
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
        for spec in [toy, Model::build(ModelKind::Spp2).spec().clone()] {
            let mut arena = ExecutionArena::new();
            // Warm-up: both frames once, so every buffer has seen its peak.
            for coords in [&a, &b, &a] {
                let _ = execute_pattern_with_arena(&spec, coords, grid, 0, &ctx, &mut arena);
            }
            let caps = arena.scratch_capacities();
            // Steady state: every scratch buffer is reused as-is.
            for coords in [&b, &a, &b, &a, &b] {
                let _ = execute_pattern_with_arena(&spec, coords, grid, 0, &ctx, &mut arena);
                assert_eq!(arena.scratch_capacities(), caps, "{}", spec.name);
            }
        }
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
    fn union_crops_and_dedups() {
        let mut arena = ExecutionArena::new();
        let a = [PillarCoord::new(0, 0), PillarCoord::new(2, 2)];
        let b = [PillarCoord::new(0, 0), PillarCoord::new(5, 5)];
        let grid = GridShape::new(3, 3);
        let u = arena.union_coords([&a[..], &b[..]].into_iter(), grid);
        assert_eq!(&u[..], &[PillarCoord::new(0, 0), PillarCoord::new(2, 2)]);
    }
}
