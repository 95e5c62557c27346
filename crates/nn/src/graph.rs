//! Layer graphs and pattern-level network execution.
//!
//! Network-scale evaluation (Table I, Fig. 2, Fig. 9–12) does not need actual
//! feature values — it needs, per layer, the set of active pillars, the number
//! of input-output rules, and the operation counts. The executor in this
//! module propagates active-coordinate sets through the layer graph (including
//! dynamic pruning for SpConv-P layers), producing a [`NetworkTrace`] with
//! per-layer statistics and a list of [`LayerWorkload`]s that the accelerator
//! models consume.
//!
//! This is the repository's hottest path (every bench and DSE cell funnels
//! through it), so each layer runs the row-bitmap sweep of
//! [`crate::rulegen::streaming`] — output dilation and rule counting in one
//! pass over [`ExecutionArena`] scratch, word-parallel for stride-1 kinds,
//! with the same outputs and counts as the RGU reference merge — and
//! coordinate sets are
//! shared (`Arc`) between a layer's output, the next layer's input, and the
//! emitted workloads rather than cloned. A layer whose explicit source,
//! kind and kernel repeat an earlier layer's (the three detection heads over
//! the concatenated neck) executes once: the later ones reuse its sets,
//! rule count and pruning result.

use crate::arena::ExecutionArena;
use crate::conv::{ConvKind, LayerSpec};
use crate::pruning::{ImportanceModel, PruningConfig, VectorPruner};
use serde::{Deserialize, Serialize};
use spade_pointcloud::pillarize::PillarizationConfig;
use spade_pointcloud::Scene;
use spade_tensor::stats::iopr;
use spade_tensor::{GridShape, PillarCoord};
use std::collections::HashMap;
use std::sync::Arc;

/// Where a layer's input activations come from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerInput {
    /// The previous layer's output (or the encoder output for the first layer).
    Previous,
    /// The output of an earlier layer, by index.
    Layer(usize),
    /// The channel-wise concatenation of several earlier layers' outputs
    /// (active set = union of their active sets; all must share a grid).
    Union(Vec<usize>),
}

/// One layer in a network: its convolution spec, where its input comes from,
/// which backbone stage it belongs to, and whether its input is densified
/// first (the PointPillars pseudo-image path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkLayer {
    /// The convolution specification.
    pub spec: LayerSpec,
    /// The input source.
    pub input: LayerInput,
    /// Backbone stage index (1-based; 0 for encoder-level layers).
    pub stage: usize,
    /// If `true`, the input active set is replaced by the full grid before the
    /// layer executes (dense pseudo-image processing).
    pub densify_input: bool,
}

/// A complete network specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name (e.g. "SPP2").
    pub name: String,
    /// Number of channels produced by the pillar feature encoder.
    pub encoder_channels: usize,
    /// The layers in execution order.
    pub layers: Vec<NetworkLayer>,
}

impl NetworkSpec {
    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Per-layer execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Convolution kind.
    pub kind: ConvKind,
    /// Backbone stage.
    pub stage: usize,
    /// Input grid shape.
    pub in_grid: GridShape,
    /// Output grid shape.
    pub out_grid: GridShape,
    /// Active input pillars.
    pub in_active: usize,
    /// Active output pillars before pruning.
    pub dilated_active: usize,
    /// Active output pillars after pruning (equals `dilated_active` for
    /// non-pruning layers).
    pub out_active: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Number of input-output rules (kernel-tap pairs).
    pub rules: u64,
    /// Multiply-accumulates executed by this layer.
    pub macs: u64,
    /// Multiply-accumulates of the dense equivalent of this layer.
    pub dense_macs: u64,
    /// Input-output pillar ratio (Fig. 2(d–f)).
    pub iopr: f64,
}

/// Whole-network execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkTrace {
    /// Network name.
    pub name: String,
    /// Per-layer traces.
    pub layers: Vec<LayerTrace>,
    /// Encoder MACs (pillar feature encoder).
    pub encoder_macs: u64,
    /// Fraction of foreground (in-box) pillars retained after all pruning, if
    /// a scene was supplied (drives the accuracy proxy).
    pub foreground_coverage: Option<f64>,
}

impl NetworkTrace {
    /// Total MACs including the encoder.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.encoder_macs + self.layers.iter().map(|l| l.macs).sum::<u64>()
    }

    /// Dense-equivalent MACs including the encoder.
    #[must_use]
    pub fn dense_macs(&self) -> u64 {
        self.encoder_macs + self.layers.iter().map(|l| l.dense_macs).sum::<u64>()
    }

    /// Total giga-operations (2 ops per MAC), the paper's GOPs metric.
    #[must_use]
    pub fn total_gops(&self) -> f64 {
        self.total_macs() as f64 * 2.0 / 1e9
    }

    /// Dense-equivalent giga-operations.
    #[must_use]
    pub fn dense_gops(&self) -> f64 {
        self.dense_macs() as f64 * 2.0 / 1e9
    }

    /// Computation savings relative to the dense equivalent (Table I's
    /// "Sparsity" column): `1 − ops / dense_ops`.
    #[must_use]
    pub fn computation_savings(&self) -> f64 {
        1.0 - self.total_macs() as f64 / self.dense_macs().max(1) as f64
    }
}

/// One layer's workload handed to the accelerator models: the concrete active
/// input and output coordinate sets plus the layer spec.
///
/// Coordinate sets are shared slices (`Arc<[PillarCoord]>`): a layer's output
/// set *is* the next layer's input set, so chaining layers and fanning
/// workloads across accelerator models never copies coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// The layer specification.
    pub spec: LayerSpec,
    /// Backbone stage index.
    pub stage: usize,
    /// Input grid shape.
    pub input_grid: GridShape,
    /// Active input coordinates (CPR order).
    pub input_coords: Arc<[PillarCoord]>,
    /// Output grid shape.
    pub output_grid: GridShape,
    /// Active output coordinates (CPR order, after pruning).
    pub output_coords: Arc<[PillarCoord]>,
    /// Number of input-output rules.
    pub rules: u64,
}

/// Execution context: pruning configuration and (optionally) the scene that
/// drives the importance model and foreground-coverage accounting.
#[derive(Debug, Clone, Default)]
pub struct ExecutionContext<'a> {
    /// Pruning configuration for SpConv-P layers.
    pub pruning: PruningConfig,
    /// The scene providing ground-truth boxes for the importance model.
    pub scene: Option<&'a Scene>,
    /// The pillarisation configuration of the base grid.
    pub pillar_config: Option<&'a PillarizationConfig>,
    /// Seed for the deterministic importance noise.
    pub seed: u64,
}

/// Executes a network at pattern level.
///
/// `initial_coords` are the active pillars produced by the pillar encoder on
/// the base grid `grid`. Allocates a fresh [`ExecutionArena`]; loops that
/// execute many networks or frames should hold one arena and call
/// [`execute_pattern_with_arena`] so scratch capacity carries over.
#[must_use]
pub fn execute_pattern(
    spec: &NetworkSpec,
    initial_coords: &[PillarCoord],
    grid: GridShape,
    encoder_macs: u64,
    ctx: &ExecutionContext<'_>,
) -> (NetworkTrace, Vec<LayerWorkload>) {
    execute_pattern_with_arena(
        spec,
        initial_coords,
        grid,
        encoder_macs,
        ctx,
        &mut ExecutionArena::new(),
    )
}

/// One executed layer's results, kept so that later layers can read its
/// output and a layer with the same source can reuse all of it.
#[derive(Clone)]
struct LayerRun {
    in_grid: GridShape,
    in_coords: Arc<[PillarCoord]>,
    out_grid: GridShape,
    /// Active output pillars before pruning.
    dilated_active: usize,
    rules: u64,
    /// Output set after pruning.
    out_coords: Arc<[PillarCoord]>,
    /// Fraction of the dilated foreground pillars that pruning kept (SpConv-P
    /// layers with a scene and some foreground only).
    fg_ratio: Option<f64>,
}

/// For each layer, the first earlier layer it duplicates, if any: the same
/// explicit source (`Layer(i)` or `Union(..)`), densify flag, kind and
/// kernel give the same input set, dilated set, rule count and kept set.
/// In the zoo these are the three detection heads over the concatenated
/// neck. `Previous` never matches, because it names a different layer at
/// every position.
fn same_source_layers(spec: &NetworkSpec) -> Vec<Option<usize>> {
    let same = |a: &NetworkLayer, b: &NetworkLayer| {
        a.input == b.input
            && a.densify_input == b.densify_input
            && a.spec.kind == b.spec.kind
            && a.spec.kernel == b.spec.kernel
    };
    spec.layers
        .iter()
        .enumerate()
        .map(|(j, layer)| match layer.input {
            LayerInput::Previous => None,
            _ => spec.layers[..j]
                .iter()
                .position(|earlier| same(earlier, layer)),
        })
        .collect()
}

/// [`execute_pattern`] with caller-owned scratch: every layer's dilation,
/// rule count, and output set come from one row-bitmap sweep over the
/// arena's reusable buffers, so the layer loop performs no per-layer
/// `BTreeSet`/`CprTensor` construction and no repeated input walks.
#[must_use]
pub fn execute_pattern_with_arena(
    spec: &NetworkSpec,
    initial_coords: &[PillarCoord],
    grid: GridShape,
    encoder_macs: u64,
    ctx: &ExecutionContext<'_>,
    arena: &mut ExecutionArena,
) -> (NetworkTrace, Vec<LayerWorkload>) {
    let pruner = VectorPruner::new(ctx.pruning);
    // Layers always produce CPR-ordered in-bounds sets, but the encoder
    // output arrives from the caller: normalise it once up front (the common
    // case — already sorted, unique, in bounds — is a zero-copy check).
    let initial: Arc<[PillarCoord]> = if initial_coords.windows(2).all(|w| w[0] < w[1])
        && initial_coords.iter().all(|c| c.in_bounds(grid))
    {
        Arc::from(initial_coords)
    } else {
        arena.scratch.clear();
        arena
            .scratch
            .extend(initial_coords.iter().copied().filter(|c| c.in_bounds(grid)));
        arena.scratch.sort_unstable();
        arena.scratch.dedup();
        Arc::from(&arena.scratch[..])
    };
    let same_source = same_source_layers(spec);
    let mut runs: Vec<LayerRun> = Vec::with_capacity(spec.layers.len());
    let mut importance_cache: HashMap<u32, ImportanceModel> = HashMap::new();
    // Foreground accounting at the base resolution.
    let base_importance = match (ctx.scene, ctx.pillar_config) {
        (Some(scene), Some(cfg)) => Some(ImportanceModel::for_scene(
            scene,
            cfg,
            grid,
            1,
            ctx.seed,
            ctx.pruning.finetuned,
        )),
        _ => None,
    };
    let initial_foreground = base_importance
        .as_ref()
        .map(|m| initial.iter().filter(|c| m.is_foreground(**c)).count());

    for (li, layer) in spec.layers.iter().enumerate() {
        // A layer with the same source as an earlier one reuses its results,
        // so the trace and the foreground coverage read as if it had executed.
        if let Some(src) = same_source[li] {
            runs.push(runs[src].clone());
            continue;
        }
        let (in_grid, mut in_coords): (GridShape, Arc<[PillarCoord]>) = match &layer.input {
            LayerInput::Previous => runs
                .last()
                .map(|r| (r.out_grid, Arc::clone(&r.out_coords)))
                .unwrap_or_else(|| (grid, Arc::clone(&initial))),
            LayerInput::Layer(i) => (runs[*i].out_grid, Arc::clone(&runs[*i].out_coords)),
            LayerInput::Union(indices) => {
                // Concatenated branches may differ by a row/column when odd
                // grid sizes round up through stride-2 / deconv chains; crop
                // to the smallest grid, as real detection necks do.
                let g = indices
                    .iter()
                    .map(|&i| runs[i].out_grid)
                    .min_by_key(|g| (g.height, g.width))
                    .expect("union must reference at least one layer");
                let merged = arena.union_coords(indices.iter().map(|&i| &*runs[i].out_coords), g);
                (g, merged)
            }
        };
        if layer.densify_input {
            in_coords = arena.dense_cells(in_grid);
        }
        let sp = &layer.spec;
        let out_grid = sp.output_grid(in_grid);
        // One bitmap sweep per layer produces the dilated output set and the
        // rule count together (dense layers need neither sweep: their output
        // set is the whole grid and their rule count is closed-form;
        // submanifold layers keep their input set as the output set).
        let (dilated, rules): (Arc<[PillarCoord]>, u64) = match sp.kind {
            ConvKind::Dense => (
                arena.dense_cells(out_grid),
                out_grid.num_cells() as u64 * sp.kernel.num_taps() as u64,
            ),
            ConvKind::SpConvS => (
                Arc::clone(&in_coords),
                arena.count_submanifold_rules(&in_coords, in_grid, sp.kernel),
            ),
            _ => {
                let (out, rules) = arena.dilate_and_count(&in_coords, in_grid, sp.kind, sp.kernel);
                (Arc::from(out), rules)
            }
        };
        // Dynamic pruning for SpConv-P layers.
        let (out_coords, fg_ratio) = if sp.kind == ConvKind::SpConvP {
            let downsample = (grid.height / out_grid.height).max(1);
            let model = match (ctx.scene, ctx.pillar_config) {
                (Some(scene), Some(cfg)) => {
                    Some(&*importance_cache.entry(downsample).or_insert_with(|| {
                        ImportanceModel::for_scene(
                            scene,
                            cfg,
                            out_grid,
                            downsample,
                            ctx.seed,
                            ctx.pruning.finetuned,
                        )
                    }))
                }
                _ => None,
            };
            let scores = match model {
                Some(model) => model.scores(&dilated),
                None => dilated
                    .iter()
                    .map(|c| {
                        // Deterministic pseudo-importance when no scene is given.
                        let h = (u64::from(c.row) << 32) ^ u64::from(c.col) ^ ctx.seed;
                        (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64
                    })
                    .collect(),
            };
            let kept = pruner.prune_coords(&dilated, &scores);
            let fg_ratio = model.and_then(|model| {
                let fg_before = dilated.iter().filter(|c| model.is_foreground(**c)).count();
                let fg_after = kept.iter().filter(|c| model.is_foreground(**c)).count();
                (fg_before > 0).then(|| fg_after as f64 / fg_before as f64)
            });
            (Arc::from(kept), fg_ratio)
        } else {
            // Non-pruning layers pass the dilated set through unchanged — an
            // `Arc` clone, not a coordinate copy.
            (Arc::clone(&dilated), None)
        };
        runs.push(LayerRun {
            in_grid,
            in_coords,
            out_grid,
            dilated_active: dilated.len(),
            rules,
            out_coords,
            fg_ratio,
        });
    }

    let mut traces = Vec::with_capacity(spec.layers.len());
    let mut workloads = Vec::with_capacity(spec.layers.len());
    for (layer, run) in spec.layers.iter().zip(&runs) {
        let sp = &layer.spec;
        let (in_grid, out_grid, rules) = (run.in_grid, run.out_grid, run.rules);
        let macs = match sp.kind {
            ConvKind::Dense => {
                out_grid.num_cells() as u64
                    * sp.kernel.num_taps() as u64
                    * sp.macs_per_rule() as u64
            }
            _ => rules * sp.macs_per_rule() as u64,
        };
        let dense_macs = dense_macs_for(sp, in_grid, out_grid);
        traces.push(LayerTrace {
            name: sp.name.clone(),
            kind: sp.kind,
            stage: layer.stage,
            in_grid,
            out_grid,
            in_active: run.in_coords.len(),
            dilated_active: run.dilated_active,
            out_active: run.out_coords.len(),
            in_channels: sp.in_channels,
            out_channels: sp.out_channels,
            rules,
            macs,
            dense_macs,
            iopr: iopr(run.in_coords.len(), run.out_coords.len()),
        });
        workloads.push(LayerWorkload {
            spec: sp.clone(),
            stage: layer.stage,
            input_grid: in_grid,
            input_coords: Arc::clone(&run.in_coords),
            output_grid: out_grid,
            output_coords: Arc::clone(&run.out_coords),
            rules,
        });
    }

    // Foreground coverage: fraction retained through all pruning stages,
    // relative to the foreground evidence present in the encoder output.
    let foreground_coverage = initial_foreground.map(|initial| {
        if initial == 0 {
            1.0
        } else {
            runs.iter()
                .filter_map(|r| r.fg_ratio)
                .product::<f64>()
                .clamp(0.0, 1.0)
        }
    });

    (
        NetworkTrace {
            name: spec.name.clone(),
            layers: traces,
            encoder_macs,
            foreground_coverage,
        },
        workloads,
    )
}

/// Counts the number of input-output rules for a layer analytically (without
/// materialising the rule book).
///
/// The submanifold path binary-searches `input_coords` directly when the
/// slice is already in CPR order (as every layer input in this crate is);
/// unsorted input is handled via a one-off sorted copy.
#[must_use]
pub fn count_rules(
    input_coords: &[PillarCoord],
    in_grid: GridShape,
    out_grid: GridShape,
    kind: ConvKind,
    kernel: crate::kernel::KernelShape,
) -> u64 {
    let offsets = kernel.offsets();
    match kind {
        ConvKind::Dense => out_grid.num_cells() as u64 * offsets.len() as u64,
        ConvKind::SpConv | ConvKind::SpConvP => {
            let mut rules = 0u64;
            for p in input_coords {
                for &(dr, dc) in &offsets {
                    if p.offset(-dr, -dc, out_grid).is_some() {
                        rules += 1;
                    }
                }
            }
            rules
        }
        ConvKind::SpConvS => {
            // Every in-repo layer input is CPR-sorted, so membership is a
            // binary search on the slice itself; an unsorted caller (legal,
            // just slower) falls back to an owned sorted copy so the counts
            // stay correct in release builds too.
            let sorted_copy: Vec<PillarCoord>;
            let sorted: &[PillarCoord] = if input_coords.windows(2).all(|w| w[0] < w[1]) {
                input_coords
            } else {
                let mut v = input_coords.to_vec();
                v.sort_unstable();
                v.dedup();
                sorted_copy = v;
                &sorted_copy
            };
            let mut rules = 0u64;
            for p in input_coords {
                for &(dr, dc) in &offsets {
                    if let Some(q) = p.offset(-dr, -dc, in_grid) {
                        if sorted.binary_search(&q).is_ok() {
                            rules += 1;
                        }
                    }
                }
            }
            rules
        }
        ConvKind::SpStConv => {
            let mut rules = 0u64;
            for p in input_coords {
                for &(dr, dc) in &offsets {
                    let qr2 = i64::from(p.row) - i64::from(dr);
                    let qc2 = i64::from(p.col) - i64::from(dc);
                    if qr2 >= 0
                        && qc2 >= 0
                        && qr2 % 2 == 0
                        && qc2 % 2 == 0
                        && (qr2 / 2) < i64::from(out_grid.height)
                        && (qc2 / 2) < i64::from(out_grid.width)
                    {
                        rules += 1;
                    }
                }
            }
            rules
        }
        ConvKind::SpDeconv => {
            let mut rules = 0u64;
            for p in input_coords {
                for &(dr, dc) in &offsets {
                    let q = PillarCoord::new(p.row * 2 + dr as u32, p.col * 2 + dc as u32);
                    if q.in_bounds(out_grid) {
                        rules += 1;
                    }
                }
            }
            rules
        }
    }
}

/// Dense-equivalent MAC count for a layer (what an ideal dense accelerator or
/// GPU computes for the same layer shape).
#[must_use]
pub fn dense_macs_for(spec: &LayerSpec, in_grid: GridShape, out_grid: GridShape) -> u64 {
    let cells = match spec.kind {
        ConvKind::SpDeconv => in_grid.num_cells(),
        _ => out_grid.num_cells(),
    } as u64;
    cells * spec.kernel.num_taps() as u64 * spec.macs_per_rule() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelShape;
    use spade_tensor::CprTensor;

    fn simple_spec(kind: ConvKind) -> NetworkSpec {
        NetworkSpec {
            name: "test".into(),
            encoder_channels: 4,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("L1", kind, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("L2", kind, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
            ],
        }
    }

    fn initial() -> (Vec<PillarCoord>, GridShape) {
        let grid = GridShape::new(16, 16);
        let coords = vec![
            PillarCoord::new(2, 2),
            PillarCoord::new(2, 3),
            PillarCoord::new(8, 8),
            PillarCoord::new(12, 5),
        ];
        (coords, grid)
    }

    #[test]
    fn submanifold_network_preserves_active_count() {
        let (coords, grid) = initial();
        let (trace, workloads) = execute_pattern(
            &simple_spec(ConvKind::SpConvS),
            &coords,
            grid,
            100,
            &ExecutionContext::default(),
        );
        assert_eq!(trace.layers.len(), 2);
        for l in &trace.layers {
            assert_eq!(l.in_active, 4);
            assert_eq!(l.out_active, 4);
            assert!((l.iopr - 1.0).abs() < 1e-12);
        }
        assert_eq!(workloads.len(), 2);
        assert_eq!(trace.encoder_macs, 100);
    }

    #[test]
    fn spconv_network_dilates_layer_by_layer() {
        let (coords, grid) = initial();
        let (trace, _) = execute_pattern(
            &simple_spec(ConvKind::SpConv),
            &coords,
            grid,
            0,
            &ExecutionContext::default(),
        );
        assert!(trace.layers[0].out_active > trace.layers[0].in_active);
        assert!(trace.layers[1].out_active > trace.layers[1].in_active);
        assert!(trace.layers[0].iopr > 1.0);
    }

    #[test]
    fn sparse_network_saves_computation_vs_dense() {
        let (coords, grid) = initial();
        let ctx = ExecutionContext::default();
        let (sparse, _) = execute_pattern(&simple_spec(ConvKind::SpConvS), &coords, grid, 0, &ctx);
        let (dense, _) = execute_pattern(&simple_spec(ConvKind::Dense), &coords, grid, 0, &ctx);
        assert!(sparse.total_macs() < dense.total_macs());
        assert!(sparse.computation_savings() > 0.5);
        assert!(dense.computation_savings().abs() < 1e-9);
    }

    #[test]
    fn pruning_layers_reduce_dilated_outputs() {
        let (coords, grid) = initial();
        let ctx = ExecutionContext {
            pruning: PruningConfig {
                keep_ratio: 0.5,
                min_keep: 1,
                finetuned: true,
            },
            ..Default::default()
        };
        let (trace, _) = execute_pattern(&simple_spec(ConvKind::SpConvP), &coords, grid, 0, &ctx);
        for l in &trace.layers {
            assert!(l.out_active < l.dilated_active);
        }
    }

    #[test]
    fn densify_flag_fills_grid() {
        let (coords, grid) = initial();
        let mut spec = simple_spec(ConvKind::Dense);
        spec.layers[0].densify_input = true;
        let (trace, workloads) =
            execute_pattern(&spec, &coords, grid, 0, &ExecutionContext::default());
        assert_eq!(trace.layers[0].in_active, grid.num_cells());
        assert_eq!(workloads[0].input_coords.len(), grid.num_cells());
    }

    #[test]
    fn union_input_merges_active_sets() {
        let spec = NetworkSpec {
            name: "u".into(),
            encoder_channels: 2,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("A", ConvKind::SpConvS, 2, 2),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("B", ConvKind::SpConv, 2, 2),
                    input: LayerInput::Layer(0),
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("C", ConvKind::SpConvS, 4, 2),
                    input: LayerInput::Union(vec![0, 1]),
                    stage: 2,
                    densify_input: false,
                },
            ],
        };
        let (coords, grid) = initial();
        let (trace, _) = execute_pattern(&spec, &coords, grid, 0, &ExecutionContext::default());
        // The union contains at least as many pillars as the submanifold branch.
        assert!(trace.layers[2].in_active >= trace.layers[0].out_active);
        assert_eq!(trace.layers[2].in_active, trace.layers[1].out_active);
    }

    #[test]
    fn count_rules_matches_rulebook_for_sparse_kinds() {
        let (coords, grid) = initial();
        let t = CprTensor::from_coords(grid, 1, &coords);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            let book = crate::rulegen::generate_rules(&t, kind, KernelShape::k3x3());
            let counted = count_rules(
                &coords,
                grid,
                crate::rulegen::output_grid(grid, kind),
                kind,
                KernelShape::k3x3(),
            );
            assert_eq!(counted, book.num_rules() as u64, "kind {kind}");
        }
        let book = crate::rulegen::generate_rules(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        let counted = count_rules(
            &coords,
            grid,
            grid.upsample(2),
            ConvKind::SpDeconv,
            KernelShape::k2x2(),
        );
        assert_eq!(counted, book.num_rules() as u64);
    }

    fn mixed_spec() -> NetworkSpec {
        let mk = |name: &str, kind, input| NetworkLayer {
            spec: LayerSpec::new(name, kind, 4, 4),
            input,
            stage: 1,
            densify_input: false,
        };
        NetworkSpec {
            name: "mixed".into(),
            encoder_channels: 4,
            layers: vec![
                mk("sub", ConvKind::SpConvS, LayerInput::Previous),
                mk("conv", ConvKind::SpConv, LayerInput::Previous),
                mk("down", ConvKind::SpStConv, LayerInput::Previous),
                mk("prune", ConvKind::SpConvP, LayerInput::Previous),
                mk("up", ConvKind::SpDeconv, LayerInput::Previous),
                mk("merge", ConvKind::SpConvS, LayerInput::Union(vec![1, 4])),
                // Same sources as an earlier layer: executed once, reused.
                mk("head_a", ConvKind::SpConvP, LayerInput::Layer(1)),
                mk("head_b", ConvKind::SpConvP, LayerInput::Layer(1)),
                mk("merge_b", ConvKind::SpConvS, LayerInput::Union(vec![1, 4])),
            ],
        }
    }

    #[test]
    fn mixed_spec_covers_same_source_reuse() {
        assert_eq!(
            same_source_layers(&mixed_spec()),
            vec![None, None, None, None, None, None, None, Some(6), Some(5)]
        );
    }

    #[test]
    fn previous_inputs_are_never_deduplicated() {
        // Two identical layers reading `Previous` see different inputs.
        let spec = simple_spec(ConvKind::SpConv);
        assert_eq!(same_source_layers(&spec), vec![None, None]);
        let (coords, grid) = initial();
        let (trace, _) = execute_pattern(&spec, &coords, grid, 0, &ExecutionContext::default());
        assert!(trace.layers[1].in_active > trace.layers[0].in_active);
    }

    /// A 64 × 64 base grid at 0.5 m with two cars and a truck, and a frame
    /// whose active pillars are the vehicles' cells plus scattered
    /// background.
    fn scene_frame() -> (Scene, PillarizationConfig, Vec<PillarCoord>) {
        use spade_pointcloud::{ObjectClass, SceneConfig, SceneObject};
        let cfg = PillarizationConfig {
            x_range: (0.0, 32.0),
            y_range: (-16.0, 16.0),
            pillar_size_x: 0.5,
            pillar_size_y: 0.5,
            ..PillarizationConfig::kitti_like()
        };
        let scene = Scene::from_objects(
            SceneConfig::kitti_like(),
            vec![
                SceneObject::at(ObjectClass::Car, 8.0, -4.0, 0.3),
                SceneObject::at(ObjectClass::Car, 20.0, 6.0, 1.2),
                SceneObject::at(ObjectClass::Truck, 27.0, -10.0, 0.0),
            ],
        );
        let grid = cfg.grid_shape();
        let mut coords: Vec<PillarCoord> = grid
            .all_cells()
            .into_iter()
            .filter(|c| {
                let (x, y) = (
                    f64::from(c.row) * 0.5 + 0.25,
                    f64::from(c.col) * 0.5 - 15.75,
                );
                scene.objects().iter().any(|o| o.bbox.contains_bev(x, y))
            })
            .collect();
        coords.extend(drifting_frames(grid, 1).concat());
        coords.sort_unstable();
        coords.dedup();
        (scene, cfg, coords)
    }

    /// `spec` with its second and third heads reading the neck union in
    /// other orders: the same input sets, but no layer is deduplicated.
    fn without_same_source(spec: &NetworkSpec) -> NetworkSpec {
        let mut oracle = spec.clone();
        let heads: Vec<usize> = (0..spec.layers.len())
            .filter(|&i| spec.layers[i].spec.name.starts_with('H'))
            .collect();
        let LayerInput::Union(necks) = spec.layers[heads[0]].input.clone() else {
            panic!("heads read the neck union");
        };
        let (n1, n2, n3) = (necks[0], necks[1], necks[2]);
        oracle.layers[heads[1]].input = LayerInput::Union(vec![n3, n2, n1]);
        oracle.layers[heads[2]].input = LayerInput::Union(vec![n2, n3, n1]);
        oracle
    }

    #[test]
    fn same_source_heads_match_the_unshared_oracle() {
        use crate::zoo::{Model, ModelKind};
        let (scene, cfg, coords) = scene_frame();
        let grid = cfg.grid_shape();
        // Aggressive, naive pruning so that foreground is pruned too and
        // the coverage product is exercised.
        let ctx = ExecutionContext {
            pruning: PruningConfig {
                keep_ratio: 0.2,
                min_keep: 1,
                finetuned: false,
            },
            scene: Some(&scene),
            pillar_config: Some(&cfg),
            seed: 11,
        };
        let mut pruned_foreground = false;
        for kind in ModelKind::ALL {
            let spec = Model::build(kind).spec().clone();
            let oracle = without_same_source(&spec);
            let n = spec.layers.len();
            assert_eq!(
                same_source_layers(&spec)[n - 3..],
                [None, Some(n - 3), Some(n - 3)],
                "{kind}: the three heads share one source"
            );
            assert!(same_source_layers(&oracle).iter().all(Option::is_none));
            let shared = execute_pattern(&spec, &coords, grid, 9, &ctx);
            assert_eq!(
                shared,
                execute_pattern(&oracle, &coords, grid, 9, &ctx),
                "{kind}"
            );
            if spec.layers.iter().any(|l| l.spec.kind == ConvKind::SpConvP) {
                let coverage = shared.0.foreground_coverage.expect("a scene was given");
                pruned_foreground |= coverage < 1.0;
            }
        }
        assert!(pruned_foreground, "some model must prune foreground");
    }

    #[test]
    fn same_source_heads_share_their_sets() {
        use crate::zoo::{Model, ModelKind};
        let (scene, cfg, coords) = scene_frame();
        let ctx = ExecutionContext {
            scene: Some(&scene),
            pillar_config: Some(&cfg),
            ..Default::default()
        };
        let spec = Model::build(ModelKind::Scp3).spec().clone();
        let (_, workloads) = execute_pattern(&spec, &coords, cfg.grid_shape(), 0, &ctx);
        let heads = &workloads[workloads.len() - 3..];
        assert!(heads.iter().all(|w| w.spec.kind == ConvKind::SpConvP));
        for w in &heads[1..] {
            assert!(Arc::ptr_eq(&w.input_coords, &heads[0].input_coords));
            assert!(Arc::ptr_eq(&w.output_coords, &heads[0].output_coords));
        }
        assert!(heads[0].output_coords.len() < heads[0].input_coords.len());
    }

    /// A drifting frame sequence: a few pillars move each frame, the rest
    /// persist — the temporal shape of a drive.
    fn drifting_frames(grid: GridShape, frames: usize) -> Vec<Vec<PillarCoord>> {
        let mut s = 0x1234_5678_u64;
        let mut step = |m: u32| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u32 % m
        };
        let mut current: Vec<PillarCoord> = (0..70)
            .map(|_| PillarCoord::new(step(grid.height), step(grid.width)))
            .collect();
        let mut out = Vec::with_capacity(frames);
        for _ in 0..frames {
            let mut f = current.clone();
            f.sort();
            f.dedup();
            out.push(f);
            for _ in 0..4 {
                let idx = step(current.len() as u32) as usize;
                current[idx] = PillarCoord::new(step(grid.height), step(grid.width));
            }
        }
        out
    }

    #[test]
    fn reused_arena_matches_fresh_execution_across_frames_and_switches() {
        let ctx = ExecutionContext {
            pruning: PruningConfig {
                keep_ratio: 0.5,
                min_keep: 1,
                finetuned: true,
            },
            seed: 7,
            ..Default::default()
        };
        let mut arena = ExecutionArena::new();
        let grid_a = GridShape::new(24, 24);
        let grid_b = GridShape::new(16, 16);
        let frames = drifting_frames(grid_b, 4);
        // Interleave two specs and two grids through one arena: scratch left
        // by one network or grid must never leak into the next result.
        for (spec, grid) in [
            (mixed_spec(), grid_a),
            (simple_spec(ConvKind::SpConv), grid_a),
            (mixed_spec(), grid_b),
            (mixed_spec(), grid_b),
        ] {
            for coords in &frames {
                let reused = execute_pattern_with_arena(&spec, coords, grid, 50, &ctx, &mut arena);
                assert_eq!(reused, execute_pattern(&spec, coords, grid, 50, &ctx));
            }
        }
    }

    #[test]
    fn strided_layer_halves_grid_in_trace() {
        let spec = NetworkSpec {
            name: "s".into(),
            encoder_channels: 2,
            layers: vec![NetworkLayer {
                spec: LayerSpec::new("down", ConvKind::SpStConv, 2, 4),
                input: LayerInput::Previous,
                stage: 1,
                densify_input: false,
            }],
        };
        let (coords, grid) = initial();
        let (trace, _) = execute_pattern(&spec, &coords, grid, 0, &ExecutionContext::default());
        assert_eq!(trace.layers[0].out_grid, GridShape::new(8, 8));
    }
}
