//! The paper's streaming rule-generation algorithm (Sec. III-B), plus the
//! row-bitmap sweep that pattern-level execution runs in its place.
//!
//! Because the input is CPR-encoded (rows in order, columns sorted within a
//! row), every output row can be produced by looking only at the `kh` input
//! rows that overlap its receptive field. Two sweeps build on that:
//!
//! * **The RGU reference** (`fused_sweep`, driven by [`generate`]) copies the
//!   hardware's dataflow:
//!   1. **Alignment** — the `kh` relevant input rows are walked
//!      simultaneously.
//!   2. **Row merge** — each (input row, kernel column) pair forms one sorted
//!      stream of candidate output columns; the `kh·kw` streams are merged
//!      with a k-way comparator scan.
//!   3. **Column-wise dilation** — the merged stream yields the active output
//!      columns in ascending order, so the output coordinate set and the rule
//!      book fall out of the *same* pass: a monotone output counter assigns
//!      output indices exactly as the RGU hardware does, with no hash table,
//!      no sort, and no binary search.
//!
//!   Each active pillar is touched a constant number of times (once per
//!   kernel tap), giving the `O(P·K)` complexity the RGU exploits; the k-way
//!   head comparison is a fixed `K ≤ 9`-wide scan that hardware evaluates in
//!   parallel. The rule books it builds feed the functional convolutions, the
//!   hash/sort equivalence checks, the delta patcher and the Fig. 5(b) cost
//!   model.
//! * **The row-bitmap sweep** (`BitmapSweep`) serves pattern-level
//!   execution ([`crate::arena::ExecutionArena`] and
//!   [`crate::rulegen::output_coords`]), which only needs each layer's output
//!   coordinates and rule count. It assembles one output row at a time as a
//!   `u64` bitmap. Stride-1 kinds work a word at a time: the output row is
//!   the OR of the `kh·kw` column-shifted input rows, and the rule count is
//!   the sum of their popcounts (ANDed with the row's own inputs for
//!   [`ConvKind::SpConvS`]). Strided and transposed kinds scatter each
//!   (input, kernel column) candidate through the same column map as the
//!   merge. Outputs leave the bitmap in ascending column order, so the
//!   coordinates and counts equal the merge's by construction; the tests pin
//!   them against it.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::output_grid;
use spade_tensor::{CprTensor, GridShape, PillarCoord};

/// Sentinel head value for a drained merge stream.
const EXHAUSTED: u32 = u32::MAX;

/// Row-indexed access to a CPR-ordered coordinate set: the global index of a
/// row's first pillar plus the row's sorted column indices.
pub(crate) trait RowSource {
    /// Returns `(global index of the first pillar in row r, columns of row r)`.
    fn row(&self, r: u32) -> (usize, &[u32]);
}

impl RowSource for &CprTensor {
    fn row(&self, r: u32) -> (usize, &[u32]) {
        (self.row_range(r).0, self.pillars_in_row(r))
    }
}

/// A [`RowSource`] over scratch `row_ptr`/`cols` buffers built from a sorted
/// coordinate slice (see [`crate::arena::ExecutionArena`]).
pub(crate) struct SliceRows<'a> {
    /// Row pointer array, `height + 1` entries.
    pub row_ptr: &'a [usize],
    /// Column index of every pillar, grouped by row.
    pub cols: &'a [u32],
}

impl RowSource for SliceRows<'_> {
    fn row(&self, r: u32) -> (usize, &[u32]) {
        let start = self.row_ptr[r as usize];
        let end = self.row_ptr[r as usize + 1];
        (start, &self.cols[start..end])
    }
}

/// Tap offset of kernel row 0 and column 0 from the output position, negated:
/// the same centring convention as [`KernelShape::offsets`] (odd kernels are
/// centred, even kernels use offsets `0..k`).
fn centre(kernel: KernelShape) -> (i64, i64) {
    let c = |k: u32| if k % 2 == 1 { i64::from(k / 2) } else { 0 };
    (c(kernel.kh), c(kernel.kw))
}

/// The input row that kernel row offset `dr` reads for output row `o`, if it
/// exists and lies inside the input grid.
fn input_row(o: u32, dr: i64, in_grid: GridShape, kind: ConvKind) -> Option<u32> {
    let p_row: i64 = match kind {
        ConvKind::SpStConv => 2 * i64::from(o) + dr,
        ConvKind::SpDeconv => {
            // q.row = 2·p.row + dr ⇒ p.row = (o − dr) / 2.
            let v = i64::from(o) - dr;
            if v % 2 != 0 {
                return None;
            }
            v / 2
        }
        _ => i64::from(o) + dr,
    };
    (0..i64::from(in_grid.height))
        .contains(&p_row)
        .then_some(p_row as u32)
}

/// The candidate output column that input column `col` reaches through kernel
/// column offset `dc`; negative when parity or the left grid edge rules it
/// out. The map is monotone in `col`, so a candidate past the right grid edge
/// means every later column of the row is past it too.
fn output_col(col: u32, dc: i64, kind: ConvKind) -> i64 {
    match kind {
        ConvKind::SpStConv => {
            // q.col = (p.col - dc) / 2, parity permitting.
            let v = i64::from(col) - dc;
            if v % 2 == 0 {
                v / 2
            } else {
                -1
            }
        }
        ConvKind::SpDeconv => 2 * i64::from(col) + dc,
        // Stride-1: q.col = p.col - dc.
        _ => i64::from(col) - dc,
    }
}

/// One merge stream: a single (input row, kernel tap) pair emitting candidate
/// output columns in ascending order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamState {
    /// Input row this stream reads.
    row: u32,
    /// Cursor within the row's column slice.
    cursor: usize,
    /// Global CPR index of the row's first pillar.
    base: usize,
    /// Column offset (`dc`) of the tap.
    dc: i32,
    /// Kernel tap index this stream feeds.
    tap: u32,
    /// Current candidate output column ([`EXHAUSTED`] when drained).
    head: u32,
}

/// Advances `s` to its next valid candidate output column. Candidates past
/// the right grid edge drain the stream outright.
fn settle<R: RowSource>(rows: &R, s: &mut StreamState, kind: ConvKind, out_w: u32) {
    let (_, cols) = rows.row(s.row);
    while s.cursor < cols.len() {
        let cand = output_col(cols[s.cursor], i64::from(s.dc), kind);
        if cand >= i64::from(out_w) {
            break;
        }
        if cand >= 0 {
            s.head = cand as u32;
            return;
        }
        s.cursor += 1;
    }
    s.head = EXHAUSTED;
}

/// The fused streaming sweep: walks every output row once, k-way-merging the
/// overlapping input rows, and pushes output coordinates (in CPR order) and
/// rules (`(tap, input index, output index)`) into `book` together.
///
/// For [`ConvKind::SpConvS`] the output set is the input set, so `book` must
/// already hold the input coordinates as its outputs and only rules are
/// pushed. [`ConvKind::Dense`] has no sparse structure to stream and is
/// handled by the callers directly.
pub(crate) fn fused_sweep<R: RowSource>(
    rows: &R,
    in_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    streams: &mut Vec<StreamState>,
    book: &mut RuleBook,
) {
    for o in 0..book.output_grid().height {
        sweep_output_row(rows, in_grid, kind, kernel, streams, book, o);
    }
}

/// Sweeps a single output row `o` into `book`. Because the fused sweep is
/// row-independent (each output row only reads its own overlapping input
/// rows and emits a contiguous run of output indices), a full frame is just
/// this function applied to every row in order — and the delta patcher
/// ([`crate::rulegen::delta`]) applies it to *dirty* rows only, splicing the
/// results between untouched spans of the previous frame.
pub(crate) fn sweep_output_row<R: RowSource>(
    rows: &R,
    in_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    streams: &mut Vec<StreamState>,
    book: &mut RuleBook,
    o: u32,
) {
    debug_assert!(kind != ConvKind::Dense, "dense layers bypass the sweep");
    let out_w = book.output_grid().width;
    let (kh, kw) = (i64::from(kernel.kh), i64::from(kernel.kw));
    let (centre_r, centre_c) = centre(kernel);
    let submanifold = kind == ConvKind::SpConvS;

    // Alignment: one stream per (overlapping input row, kernel column).
    streams.clear();
    for kr in 0..kh {
        let Some(p_row) = input_row(o, kr - centre_r, in_grid, kind) else {
            continue;
        };
        let (base, cols) = rows.row(p_row);
        if cols.is_empty() {
            continue;
        }
        for kc in 0..kw {
            let mut s = StreamState {
                row: p_row,
                cursor: 0,
                base,
                dc: (kc - centre_c) as i32,
                tap: (kr * kw + kc) as u32,
                head: EXHAUSTED,
            };
            settle(rows, &mut s, kind, out_w);
            if s.head != EXHAUSTED {
                streams.push(s);
            }
        }
    }
    if streams.is_empty() {
        return;
    }
    // For submanifold convolution the active outputs of this row are the
    // active inputs of the same row; a forward cursor intersects the
    // merged candidate stream with them in the same pass.
    let (out_base, out_cols) = if submanifold {
        rows.row(o)
    } else {
        (0, &[][..])
    };
    let mut oc = 0usize;
    let mut last_emitted = EXHAUSTED;

    // Row merge + column-wise dilation.
    loop {
        let mut best = EXHAUSTED;
        for s in streams.iter() {
            if s.head < best {
                best = s.head;
            }
        }
        if best == EXHAUSTED {
            break;
        }
        let q_idx = if submanifold {
            while oc < out_cols.len() && out_cols[oc] < best {
                oc += 1;
            }
            (oc < out_cols.len() && out_cols[oc] == best).then(|| out_base + oc)
        } else {
            if last_emitted != best {
                book.push_output(PillarCoord::new(o, best));
            }
            Some(book.num_outputs() - 1)
        };
        last_emitted = best;
        for s in streams.iter_mut() {
            if s.head == best {
                if let Some(q) = q_idx {
                    book.push(s.tap as usize, s.base + s.cursor, q);
                }
                s.cursor += 1;
                settle(rows, s, kind, out_w);
            }
        }
    }
}

/// The input rows the sweep of output row `o` reads, as an inclusive range
/// clipped to the input grid — the receptive-field ("halo") row band. Any
/// change confined to input rows outside this band cannot affect output row
/// `o`, which is the row-granular invariant the delta patcher relies on.
pub(crate) fn input_row_band(
    o: u32,
    in_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
) -> Option<(u32, u32)> {
    let (centre_r, _) = centre(kernel);
    let mut band: Option<(u32, u32)> = None;
    let rows =
        (0..i64::from(kernel.kh)).filter_map(|kr| input_row(o, kr - centre_r, in_grid, kind));
    // Submanifold sweeps additionally intersect with the *output* row's own
    // input set, which sits at input row `o` — inside the band already for
    // odd kernels, but include it defensively.
    let own = (kind == ConvKind::SpConvS && o < in_grid.height).then_some(o);
    for r in rows.chain(own) {
        band = Some(band.map_or((r, r), |(lo, hi)| (lo.min(r), hi.max(r))));
    }
    band
}

/// Number of `u64` words a bitmap row of `width` columns occupies.
fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// The `words` words of a zero-padded bitmap row shifted so that bit `q` of
/// the result is bit `q + dc` of the row, for any `dc`: a word offset plus a
/// bit offset. `row` holds the row's words behind `pad` zero words on each
/// side, with `pad > |dc| / 64`, so no shift reads past it.
fn shifted(row: &[u64], pad: usize, words: usize, dc: i64) -> impl Iterator<Item = u64> + '_ {
    let start = (pad as i64 + dc.div_euclid(64)) as usize;
    let bo = dc.rem_euclid(64) as u32;
    // `(hi << 1) << (63 - bo)` is `hi << (64 - bo)`, and zero when `bo == 0`.
    row[start..=start + words]
        .windows(2)
        .map(move |w| (w[0] >> bo) | ((w[1] << 1) << (63 - bo)))
}

/// The row-bitmap sweep of pattern-level execution: per output row, the
/// active output columns (as a bitmap in `out_bits`) and the rule count,
/// equal to what [`sweep_output_row`] would emit for the same row.
///
/// Stride-1 kinds read a zero-padded bitmap of every input row (`in_bits`,
/// built once by [`BitmapSweep::new`]); strided and transposed kinds
/// scatter straight from the row's columns.
pub(crate) struct BitmapSweep<'a, R> {
    rows: R,
    /// `pad + in_words + pad` words per input row (stride-1 kinds only).
    in_bits: &'a [u64],
    /// The output row being assembled, one word per 64 output columns.
    out_bits: &'a mut Vec<u64>,
    in_grid: GridShape,
    out_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    in_words: usize,
    /// Zero words on each side of an input bitmap row.
    pad: usize,
}

impl<'a, R: RowSource> BitmapSweep<'a, R> {
    /// Prepares a sweep over `rows` (CPR-ordered, every column inside
    /// `in_grid`), reusing the two bitmap buffers.
    pub(crate) fn new(
        rows: R,
        in_bits: &'a mut Vec<u64>,
        out_bits: &'a mut Vec<u64>,
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> Self {
        debug_assert!(kind != ConvKind::Dense, "dense layers bypass the sweep");
        let out_grid = output_grid(in_grid, kind);
        let in_words = words_for(in_grid.width);
        let centre_c = centre(kernel).1;
        let max_dc = centre_c.max(i64::from(kernel.kw) - 1 - centre_c);
        let pad = max_dc as usize / 64 + 1;
        in_bits.clear();
        if matches!(
            kind,
            ConvKind::SpConv | ConvKind::SpConvP | ConvKind::SpConvS
        ) {
            let stride = in_words + 2 * pad;
            in_bits.resize(in_grid.height as usize * stride, 0);
            for (r, bits) in in_bits.chunks_exact_mut(stride).enumerate() {
                for &c in rows.row(r as u32).1 {
                    bits[pad + c as usize / 64] |= 1 << (c % 64);
                }
            }
        }
        out_bits.clear();
        out_bits.resize(words_for(out_grid.width), 0);
        Self {
            rows,
            in_bits,
            out_bits,
            in_grid,
            out_grid,
            kind,
            kernel,
            in_words,
            pad,
        }
    }

    /// The input rows the sweep reads.
    pub(crate) fn rows(&self) -> &R {
        &self.rows
    }

    /// Input row `r` as a padded bitmap (stride-1 kinds).
    fn in_row(&self, r: u32) -> &'a [u64] {
        let stride = self.in_words + 2 * self.pad;
        &self.in_bits[r as usize * stride..(r as usize + 1) * stride]
    }

    /// Sweeps output row `o`: leaves its active columns in the row bitmap
    /// (left empty for [`ConvKind::SpConvS`], whose outputs are its inputs)
    /// and returns its rule count.
    pub(crate) fn sweep_row(&mut self, o: u32) -> u64 {
        self.out_bits.fill(0);
        let (centre_r, centre_c) = centre(self.kernel);
        let (pad, words) = (self.pad, self.in_words);
        // Columns of the last output word that lie inside the grid.
        let tail = match self.out_grid.width % 64 {
            0 => u64::MAX,
            w => (1 << w) - 1,
        };
        let mut rules = 0u64;
        for kr in 0..i64::from(self.kernel.kh) {
            let Some(p_row) = input_row(o, kr - centre_r, self.in_grid, self.kind) else {
                continue;
            };
            let cols = self.rows.row(p_row).1;
            if cols.is_empty() {
                continue;
            }
            let dcs = (0..i64::from(self.kernel.kw)).map(|kc| kc - centre_c);
            match self.kind {
                ConvKind::SpConvS => {
                    let (src, own) = (self.in_row(p_row), &self.in_row(o)[pad..pad + words]);
                    for dc in dcs {
                        for (w, own) in shifted(src, pad, words, dc).zip(own) {
                            rules += u64::from((w & own).count_ones());
                        }
                    }
                }
                ConvKind::SpConv | ConvKind::SpConvP => {
                    let src = self.in_row(p_row);
                    for dc in dcs {
                        for (i, (out, w)) in self
                            .out_bits
                            .iter_mut()
                            .zip(shifted(src, pad, words, dc))
                            .enumerate()
                        {
                            let w = if i + 1 == words { w & tail } else { w };
                            *out |= w;
                            rules += u64::from(w.count_ones());
                        }
                    }
                }
                _ => {
                    let out_w = i64::from(self.out_grid.width);
                    for dc in dcs {
                        for &col in cols {
                            let q = output_col(col, dc, self.kind);
                            if q >= out_w {
                                break;
                            }
                            // Branch-free: stride-2 parity rejects about
                            // half the columns at random.
                            let hit = q >= 0;
                            let q = q.max(0) as usize;
                            self.out_bits[q / 64] |= u64::from(hit) << (q % 64);
                            rules += u64::from(hit);
                        }
                    }
                }
            }
        }
        rules
    }

    /// Appends the active outputs of the last swept row `o` to `out`, in
    /// ascending column (CPR) order.
    pub(crate) fn emit_row(&self, o: u32, out: &mut Vec<PillarCoord>) {
        for (i, &word) in self.out_bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(PillarCoord::new(o, 64 * i as u32 + w.trailing_zeros()));
                w &= w - 1;
            }
        }
    }

    /// Sweeps every output row, appending the outputs of dilating kinds to
    /// `out`; returns the layer's rule count.
    pub(crate) fn sweep_all(&mut self, out: &mut Vec<PillarCoord>) -> u64 {
        let mut rules = 0u64;
        for o in 0..self.out_grid.height {
            rules += self.sweep_row(o);
            self.emit_row(o, out);
        }
        rules
    }
}

/// Generates a rule book with the fused streaming sweep: output coordinates,
/// per-tap rules, and the rule count are produced in one `O(P·K)` pass.
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    let out_grid = output_grid(input.grid(), kind);
    let mut streams: Vec<StreamState> = Vec::with_capacity(kernel.num_taps());
    let mut book = match kind {
        ConvKind::Dense => {
            // Every grid cell is an active output, so the output index is the
            // linear cell index — no lookup of any kind.
            let mut book = RuleBook::new(kernel.num_taps(), out_grid, out_grid.all_cells());
            for (p_idx, p) in input.iter_coords().enumerate() {
                for (tap, (dr, dc)) in kernel.offsets().into_iter().enumerate() {
                    if let Some(q) = p.offset(-dr, -dc, out_grid) {
                        book.push(tap, p_idx, q.linear_index(out_grid));
                    }
                }
            }
            return book;
        }
        // Submanifold outputs are the inputs; indices coincide.
        ConvKind::SpConvS => RuleBook::new(kernel.num_taps(), out_grid, input.coords()),
        _ => RuleBook::streamed(kernel.num_taps(), out_grid),
    };
    fused_sweep(&input, input.grid(), kind, kernel, &mut streams, &mut book);
    book
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_tensor::GridShape;

    fn sample() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(6, 6),
            1,
            &[
                PillarCoord::new(1, 1),
                PillarCoord::new(1, 4),
                PillarCoord::new(3, 3),
            ],
        )
    }

    #[test]
    fn spconv_rules_cover_all_input_tap_pairs_in_bounds() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConv, KernelShape::k3x3());
        // Every (input, tap) pair whose output is in bounds yields a rule.
        // Input (1,1): all 9 in bounds. (1,4): all 9. (3,3): all 9.
        assert_eq!(book.num_rules(), 27);
        assert!(book.check_monotone());
    }

    #[test]
    fn edge_inputs_lose_out_of_bounds_rules() {
        let t = CprTensor::from_coords(GridShape::new(6, 6), 1, &[PillarCoord::new(0, 0)]);
        let book = generate(&t, ConvKind::SpConv, KernelShape::k3x3());
        // The corner input can only produce the 4 in-bounds outputs.
        assert_eq!(book.num_rules(), 4);
        assert_eq!(book.num_outputs(), 4);
    }

    #[test]
    fn submanifold_rules_only_target_active_outputs() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(book.num_outputs(), 3);
        // (1,1) and (1,4) are not neighbours, (3,3) is diagonal to neither
        // within a 3x3 window, so each output only sees its own centre tap.
        assert_eq!(book.num_rules(), 3);
        for tap in 0..9 {
            if tap == 4 {
                assert_eq!(book.rules_for_tap(tap).len(), 3);
            } else {
                assert_eq!(book.rules_for_tap(tap).len(), 0);
            }
        }
    }

    #[test]
    fn deconv_rules_have_no_output_overlap() {
        let t = sample();
        let book = generate(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        let mut seen = std::collections::HashSet::new();
        for tap in 0..book.num_taps() {
            for r in book.rules_for_tap(tap) {
                assert!(seen.insert(r.output), "deconv outputs must not overlap");
            }
        }
        assert_eq!(book.num_rules(), 12);
    }

    #[test]
    fn strided_rules_match_parity() {
        let t = sample();
        let book = generate(&t, ConvKind::SpStConv, KernelShape::k3x3());
        assert!(book.num_rules() > 0);
        assert_eq!(book.output_grid(), GridShape::new(3, 3));
        assert!(book.check_monotone());
    }

    #[test]
    fn fused_outputs_match_output_coords_helper() {
        let t = sample();
        for kind in [ConvKind::SpConv, ConvKind::SpStConv] {
            let book = generate(&t, kind, KernelShape::k3x3());
            let outs = crate::rulegen::output_coords(&t, kind, KernelShape::k3x3());
            assert_eq!(book.output_coords(), &outs[..], "kind {kind}");
        }
        let book = generate(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        let outs = crate::rulegen::output_coords(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(book.output_coords(), &outs[..]);
    }

    #[test]
    fn one_by_one_kernels_stream_correctly() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConv, KernelShape::k1x1());
        // A 1x1 SpConv maps each input onto itself.
        assert_eq!(book.num_rules(), t.num_active());
        assert_eq!(book.num_outputs(), t.num_active());
        assert_eq!(book.output_coords(), &t.coords()[..]);
        assert!(book.check_monotone());
    }

    #[test]
    fn empty_input_yields_empty_book() {
        let t = CprTensor::empty(GridShape::new(8, 8), 1);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            let book = generate(&t, kind, KernelShape::k3x3());
            assert_eq!(book.num_rules(), 0, "kind {kind}");
            assert_eq!(book.num_outputs(), 0, "kind {kind}");
        }
    }
}
