//! The traced layer pass shared by every workload's traced run.
//!
//! [`traced_sweep`] re-runs an exhaustive sweep through the layers' public
//! functions — drive generation (`spade_pointcloud`), pattern execution
//! (`spade_bench::workload::model_run_on_frame` over `spade_nn`), the cost
//! models (`simulate_network` of `spade_core` and `spade_baselines`),
//! `pareto_frontier` and `DseResult::to_csv` — with a span around each
//! call, and rebuilds the `DseResult` in the sweep's canonical cell order.
//! The replica must equal the untraced `run_dse` result exactly, so a drift
//! between it and the sweep it stands for fails the run instead of
//! skewing the breakdown.
//!
//! [`Tally::replay_nn`] then replays rule generation and SpConv-P pruning
//! on the captured per-layer inputs (the same arena and pruning calls the
//! executor makes) and checks that they reproduce the captured rule counts
//! and kept sets.

use crate::trace::{SelfTime, Tracer};
use spade_baselines::{DenseAccelerator, PointAccModel, SpConv2dAccelerator};
use spade_bench::dse::{adaptive::roofline_bound, pareto_frontier, DseCell};
use spade_bench::workload::{model_run_on_frame, ModelRun};
use spade_bench::{DseParams, DseResult};
use spade_core::{
    Accelerator, AcceleratorReport, DataflowOptions, NetworkPerf, SpadeAccelerator, SpadeConfig,
};
use spade_nn::pruning::ImportanceModel;
use spade_nn::{ConvKind, DeltaStats, ExecutionArena, ModelKind, PruningConfig, VectorPruner};
use spade_pointcloud::dataset::{DatasetKind, DatasetPreset, Frame};
use spade_pointcloud::{DriveFrame, DriveScenario, DriveScenarioConfig};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The models whose per-layer metrics are reported by name.
pub const MODELS: [ModelKind; 2] = [ModelKind::Spp2, ModelKind::Scp3];

/// Span name of one `model_run_on_frame` call of `kind`.
#[must_use]
pub fn exec_span(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Spp2 => "nn.exec.spp2",
        ModelKind::Scp3 => "nn.exec.scp3",
        _ => "nn.exec.other",
    }
}

/// Lower-case metric suffix of a reported model.
#[must_use]
pub fn model_tag(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Spp2 => "spp2",
        ModelKind::Scp3 => "scp3",
        _ => "other",
    }
}

/// The dataset preset a model runs on.
#[must_use]
pub fn preset_for(kind: ModelKind) -> DatasetPreset {
    match kind.dataset() {
        DatasetKind::KittiLike => DatasetPreset::kitti_like(),
        DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
    }
}

/// A drive's frames plus one model's runs on them, kept so the nn replay
/// can reach each run's scene.
pub struct DriveRuns {
    /// Model executed.
    pub kind: ModelKind,
    /// Drive configuration (for the per-frame pruning seed).
    pub drive: DriveScenarioConfig,
    /// Index into the caller's frame store.
    pub frames: usize,
    /// One run per frame, in frame order.
    pub runs: Vec<ModelRun>,
}

/// Generates a drive's frames inside `pointcloud.frame` spans (one span
/// per frame for independent drives; one span for a persistent drive,
/// which must be evolved in order) and returns them with the frame count.
pub fn traced_frames(
    tracer: &Tracer,
    tally: &mut Tally,
    preset: &DatasetPreset,
    drive: &DriveScenarioConfig,
) -> Vec<DriveFrame> {
    let scenario = DriveScenario::new(preset.clone(), drive.clone());
    let frames = if drive.persistence.is_persistent() {
        tracer.span("pointcloud.frame", || scenario.frames())
    } else {
        let mut frames: Vec<DriveFrame> = (0..drive.num_frames)
            .map(|i| tracer.span("pointcloud.frame", || scenario.generate_frame(i)))
            .collect();
        DriveScenario::annotate_overlap(&mut frames);
        frames
    };
    tally.frames += frames.len() as u64;
    tally.pillars += frames
        .iter()
        .map(|f| f.frame.pillars.active_coords.len() as u64)
        .sum::<u64>();
    frames
}

/// Runs `kind` on every frame inside `nn.exec.<model>` spans.
pub fn traced_runs(
    tracer: &Tracer,
    kind: ModelKind,
    preset: &DatasetPreset,
    frames: &[DriveFrame],
    drive: &DriveScenarioConfig,
    scale: spade_bench::WorkloadScale,
) -> Vec<ModelRun> {
    frames
        .iter()
        .map(|f| {
            tracer.span(exec_span(kind), || {
                model_run_on_frame(
                    kind,
                    preset,
                    &f.frame,
                    drive.pruning_seed(f.index),
                    scale,
                    PruningConfig::default(),
                )
            })
        })
        .collect()
}

/// What a traced sweep leaves behind: the rebuilt result, its CSV, and the
/// drives and runs for the nn replay.
pub struct Replica {
    /// The rebuilt sweep result (must equal `run_dse`'s).
    pub result: DseResult,
    /// `result.to_csv()`.
    pub csv: String,
    /// Generated drive frames, one entry per dataset.
    pub frames: Vec<Vec<DriveFrame>>,
    /// Per-model runs over those frames.
    pub drives: Vec<DriveRuns>,
}

fn dedup<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

/// A cell's metrics averaged over the drive's frames, in frame order (the
/// summation order fixes the bits).
#[allow(clippy::too_many_arguments)]
fn mean_cell(
    kind: ModelKind,
    accelerator: &str,
    design: String,
    config: &SpadeConfig,
    dataflow_enabled: bool,
    area_mm2: f64,
    perfs: &[NetworkPerf],
    overlap: f64,
) -> DseCell {
    let n = perfs.len().max(1) as f64;
    DseCell {
        workload: kind.name(),
        accelerator: accelerator.to_owned(),
        design,
        pe_rows: config.pe_rows,
        pe_cols: config.pe_cols,
        sram_kib: config.total_sram_kib(),
        freq_ghz: config.freq_ghz,
        dram_bytes_per_cycle: config.dram_bytes_per_cycle,
        dataflow_enabled,
        mean_latency_ms: perfs.iter().map(|p| p.latency_ms).sum::<f64>() / n,
        mean_energy_mj: perfs.iter().map(|p| p.energy.total_mj()).sum::<f64>() / n,
        area_mm2,
        mean_dram_mib: perfs
            .iter()
            .map(|p| p.total_dram_bytes as f64 / (1024.0 * 1024.0))
            .sum::<f64>()
            / n,
        mean_pillar_overlap: overlap,
        frames_delta_executed: 0,
        delta_speedup: DeltaStats::default().modelled_speedup(),
        simulated: true,
        on_frontier: false,
    }
}

/// One exhaustive sweep of `params` on the calling thread, every layer call
/// wrapped in a span, all under one `op.sweep` span.
pub fn traced_sweep(tracer: &Tracer, tally: &mut Tally, params: &DseParams) -> Replica {
    tracer.span("op.sweep", || {
        let configs = params.axes.expand_configs();
        let dataflow = dedup(&params.axes.dataflow);
        let drive = params.drive_config();

        // Drives (one per dataset) and the per-model runs on them.
        let mut datasets: Vec<(DatasetKind, f64)> = Vec::new();
        let mut frames: Vec<Vec<DriveFrame>> = Vec::new();
        let mut drives: Vec<DriveRuns> = Vec::new();
        for &kind in &params.models {
            let preset = preset_for(kind);
            let store = match datasets.iter().position(|(d, _)| *d == kind.dataset()) {
                Some(i) => i,
                None => {
                    let f = traced_frames(tracer, tally, &preset, &drive);
                    datasets.push((kind.dataset(), DriveScenario::mean_overlap_of(&f)));
                    frames.push(f);
                    frames.len() - 1
                }
            };
            let runs = traced_runs(tracer, kind, &preset, &frames[store], &drive, params.scale);
            drives.push(DriveRuns {
                kind,
                drive: drive.clone(),
                frames: store,
                runs,
            });
        }

        // Cells in the sweep's canonical order: per model, per config —
        // SPADE per dataflow setting, then DenseAcc / SpConv2D-Acc /
        // PointAcc once per form factor they can observe.
        let mut cells: Vec<DseCell> = Vec::new();
        let mut duels: Vec<(Vec<usize>, usize)> = Vec::new();
        let mut ranges = Vec::new();
        for d in &drives {
            let overlap = datasets[d.frames].1;
            let runs = &d.runs;
            let sim = |name: &'static str, acc: &dyn Accelerator, tally: &mut Tally| {
                tally.count_sim(name, runs.len());
                tracer.span(name, || {
                    runs.iter()
                        .map(|r| acc.simulate_network(&r.workloads, r.encoder_macs))
                        .collect::<Vec<_>>()
                })
            };
            let first = cells.len();
            let mut dense_seen: HashMap<(usize, usize, u64, u64, u64), usize> = HashMap::new();
            let mut spconv_seen: HashSet<(usize, usize, u64)> = HashSet::new();
            let mut pointacc_seen: HashSet<(usize, usize, u64, u64)> = HashSet::new();
            for config in &configs {
                let spade_area = tracer.span("core.area", || {
                    AcceleratorReport::for_spade("SPADE", config).total_mm2()
                });
                let mut spade_idxs = Vec::new();
                for &opts in &dataflow {
                    let opts: DataflowOptions = opts;
                    let acc = tracer.span("core.build", || {
                        SpadeAccelerator::with_options(*config, opts)
                    });
                    let perfs = sim("core.sim", &acc, tally);
                    let enabled =
                        opts.weight_grouping || opts.ganged_scatter || opts.adaptive_tiling;
                    cells.push(tracer.span("dse.assemble", || {
                        let design =
                            format!("{}/{}", config.label(), if enabled { "+df" } else { "-df" });
                        mean_cell(
                            d.kind, "SPADE", design, config, enabled, spade_area, &perfs, overlap,
                        )
                    }));
                    spade_idxs.push(cells.len() - 1);
                }
                let (rows, cols, kib) = (config.pe_rows, config.pe_cols, config.total_sram_kib());
                let dense_key = (
                    rows,
                    cols,
                    kib,
                    config.freq_ghz.to_bits(),
                    config.dram_bytes_per_cycle.to_bits(),
                );
                let dense_idx = if let Some(&i) = dense_seen.get(&dense_key) {
                    i
                } else {
                    let dense = tracer.span("baselines.build", || DenseAccelerator::new(*config));
                    let perfs = sim("baselines.sim", &dense, tally);
                    let label = format!(
                        "{rows}x{cols}/{kib}KiB/{}GHz/{}Bpc",
                        config.freq_ghz, config.dram_bytes_per_cycle
                    );
                    let area = tracer.span("core.area", || {
                        AcceleratorReport::for_dense("DenseAcc", config).total_mm2()
                    });
                    cells.push(tracer.span("dse.assemble", || {
                        mean_cell(
                            d.kind,
                            dense.name(),
                            label,
                            config,
                            true,
                            area,
                            &perfs,
                            overlap,
                        )
                    }));
                    dense_seen.insert(dense_key, cells.len() - 1);
                    cells.len() - 1
                };
                if !spade_idxs.is_empty() {
                    duels.push((spade_idxs, dense_idx));
                }
                if spconv_seen.insert((rows, cols, kib)) {
                    let spconv = tracer.span("baselines.build", || {
                        SpConv2dAccelerator::new(rows, cols, 16)
                    });
                    let perfs = sim("baselines.sim", &spconv, tally);
                    cells.push(tracer.span("dse.assemble", || {
                        mean_cell(
                            d.kind,
                            Accelerator::name(&spconv),
                            format!("{rows}x{cols}/{kib}KiB"),
                            config,
                            true,
                            spade_area,
                            &perfs,
                            overlap,
                        )
                    }));
                }
                if pointacc_seen.insert((rows, cols, kib, config.freq_ghz.to_bits())) {
                    let pacc = tracer.span("baselines.build", || PointAccModel::new(*config));
                    let perfs = sim("baselines.sim", &pacc, tally);
                    cells.push(tracer.span("dse.assemble", || {
                        mean_cell(
                            d.kind,
                            pacc.name(),
                            format!("{rows}x{cols}/{kib}KiB/{}GHz", config.freq_ghz),
                            config,
                            true,
                            spade_area,
                            &perfs,
                            overlap,
                        )
                    }));
                }
            }
            ranges.push(first..cells.len());
        }

        let wins = duels
            .iter()
            .filter(|(spade, dense)| {
                let dense = &cells[*dense];
                spade.iter().any(|&i| {
                    cells[i].mean_latency_ms < dense.mean_latency_ms
                        && cells[i].mean_energy_mj < dense.mean_energy_mj
                })
            })
            .count();
        for range in ranges {
            let points: Vec<[f64; 3]> = cells[range.clone()]
                .iter()
                .map(|c| [c.mean_latency_ms, c.mean_energy_mj, c.area_mm2])
                .collect();
            let keep = tracer.span("dse.pareto", || pareto_frontier(&points));
            for (cell, keep) in cells[range].iter_mut().zip(keep) {
                cell.on_frontier = keep;
            }
        }
        let simulated = cells.len();
        let result = DseResult {
            cells,
            num_configs: configs.len(),
            num_frames: drive.num_frames,
            num_swept_axes: params.axes.num_swept_axes(),
            spade_dense_wins: wins,
            spade_dense_comparisons: duels.len(),
            delta: false,
            delta_stats: DeltaStats::default(),
            adaptive: false,
            cells_screened: 0,
            cells_simulated: simulated,
            frames_saved: 0,
        };
        let csv = tracer.span("dse.csv", || result.to_csv());
        tally.sweeps += 1;
        tally.cells += result.cells.len() as u64;
        tally.csv_bytes += csv.len() as u64;
        Replica {
            result,
            csv,
            frames,
            drives,
        }
    })
}

/// Exact per-model simulator outputs at the high-end design point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    runs: u64,
    cycles: u64,
    dram_bytes: u64,
    energy_mj: f64,
    latency_ms: f64,
    dense_latency_ms: f64,
}

/// Counters accumulated over a traced run, alongside the spans.
#[derive(Debug, Default)]
pub struct Tally {
    /// Drive frames generated.
    frames: u64,
    /// Active pillars over those frames.
    pillars: u64,
    /// `simulate_network` calls per span name.
    sim_calls: BTreeMap<&'static str, u64>,
    /// Traced sweeps completed.
    sweeps: u64,
    /// Cells over those sweeps.
    cells: u64,
    /// CSV bytes over those sweeps.
    csv_bytes: u64,
    /// Model runs replayed through rulegen + pruning.
    replayed_runs: u64,
    /// Rules over the replayed runs.
    rules: u64,
    /// MACs over the replayed runs.
    macs: u64,
    /// Dilated SpConv-P outputs over the replayed runs.
    dilated: u64,
    /// Kept SpConv-P outputs over the replayed runs.
    kept: u64,
    /// `roofline_bound` calls.
    bound_calls: u64,
    /// Replay mismatches (a replayed rule count or kept set that differs
    /// from the captured one).
    pub mismatches: u64,
    sim: BTreeMap<&'static str, SimTotals>,
}

impl Tally {
    fn count_sim(&mut self, name: &'static str, calls: usize) {
        *self.sim_calls.entry(name).or_default() += calls as u64;
    }

    /// Replays rule generation and SpConv-P scoring/selection for every run
    /// of `drive` (whose frames are `frames`) inside `nn.rulegen`,
    /// `nn.prune_score` and `nn.prune_select` spans, checks the replay
    /// against the captured workloads, and records the exact simulator
    /// outputs of each run at the high-end design point.
    pub fn replay_nn(&mut self, tracer: &Tracer, drive: &DriveRuns, frames: &[DriveFrame]) {
        let preset = preset_for(drive.kind);
        let pillar_cfg = preset.pillar_config();
        let pruning = PruningConfig::default();
        let pruner = VectorPruner::new(pruning);
        let mut arena = ExecutionArena::new();
        let he = SpadeConfig::high_end();
        let (spade, dense) = (SpadeAccelerator::new(he), DenseAccelerator::new(he));
        for (run, f) in drive.runs.iter().zip(frames) {
            let frame: &Frame = &f.frame;
            let seed = drive.drive.pruning_seed(f.index);
            let Some(grid) = run.workloads.first().map(|w| w.input_grid) else {
                continue;
            };
            let mut importance: HashMap<u32, ImportanceModel> = HashMap::new();
            for w in &run.workloads {
                let kind = w.spec.kind;
                let (rules, dilated) = match kind {
                    ConvKind::Dense => continue,
                    ConvKind::SpConvS => (
                        tracer.span("nn.rulegen", || {
                            arena.count_submanifold_rules(
                                &w.input_coords,
                                w.input_grid,
                                w.spec.kernel,
                            )
                        }),
                        None,
                    ),
                    _ => tracer.span("nn.rulegen", || {
                        let (out, rules) = arena.dilate_and_count(
                            &w.input_coords,
                            w.input_grid,
                            kind,
                            w.spec.kernel,
                        );
                        (rules, Some(out.to_vec()))
                    }),
                };
                self.mismatches += u64::from(rules != w.rules);
                self.rules += rules;
                let (Some(dilated), ConvKind::SpConvP) = (dilated, kind) else {
                    continue;
                };
                let downsample = (grid.height / w.output_grid.height).max(1);
                let scores = tracer.span("nn.prune_score", || {
                    importance
                        .entry(downsample)
                        .or_insert_with(|| {
                            ImportanceModel::for_scene(
                                &frame.scene,
                                &pillar_cfg,
                                w.output_grid,
                                downsample,
                                seed,
                                pruning.finetuned,
                            )
                        })
                        .scores(&dilated)
                });
                let kept =
                    tracer.span("nn.prune_select", || pruner.prune_coords(&dilated, &scores));
                self.mismatches += u64::from(kept[..] != w.output_coords[..]);
                self.dilated += dilated.len() as u64;
                self.kept += kept.len() as u64;
            }
            self.replayed_runs += 1;
            self.macs += run.trace.total_macs();
            let p = spade.simulate_network(&run.workloads, run.encoder_macs);
            let d = dense.simulate_network(&run.workloads, run.encoder_macs);
            let s = self.sim.entry(model_tag(drive.kind)).or_default();
            s.runs += 1;
            s.cycles += p.total_cycles;
            s.dram_bytes += p.total_dram_bytes;
            s.energy_mj += p.energy.total_mj();
            s.latency_ms += p.latency_ms;
            s.dense_latency_ms += d.latency_ms;
        }
    }

    /// Times `roofline_bound` for up to `max_configs` configurations of
    /// `params`' grid over one drive's runs, in `adaptive.bound` spans.
    pub fn probe_bound(
        &mut self,
        tracer: &Tracer,
        params: &DseParams,
        runs: &[ModelRun],
        max_configs: usize,
    ) {
        for config in params.axes.expand_configs().iter().take(max_configs) {
            let bounds = tracer.span("adaptive.bound", || roofline_bound(config, runs));
            self.bound_calls += 1;
            self.mismatches += u64::from(bounds.len() != runs.len());
        }
    }

    /// Whether every model in [`MODELS`] has replayed runs.
    #[must_use]
    pub fn missing_models(&self) -> Vec<ModelKind> {
        MODELS
            .into_iter()
            .filter(|&m| !self.sim.contains_key(model_tag(m)))
            .collect()
    }

    /// The per-layer metrics derivable from the spans and counters (every
    /// name except the `serve.*` and `trace.overhead_frac` ones).
    #[must_use]
    pub fn layer_metrics(
        &self,
        times: &BTreeMap<&'static str, SelfTime>,
    ) -> Vec<(String, &'static str, f64)> {
        let ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        let calls = |name: &str| self.sim_calls.get(name).copied().unwrap_or(0);
        let mut out: Vec<(String, &'static str, f64)> = vec![
            (
                "pointcloud.frame_ms".into(),
                "ms",
                per(ms("pointcloud.frame"), self.frames),
            ),
            (
                "pointcloud.pillars".into(),
                "count",
                per(self.pillars as f64, self.frames),
            ),
        ];
        for m in MODELS {
            let t = times.get(exec_span(m)).copied().unwrap_or_default();
            out.push((
                format!("nn.exec_ms.{}", model_tag(m)),
                "ms",
                per(t.total_ns as f64 / 1e6, t.count),
            ));
        }
        out.extend([
            (
                "nn.rulegen_ms".into(),
                "ms",
                per(ms("nn.rulegen"), self.replayed_runs),
            ),
            (
                "nn.prune_score_ms".into(),
                "ms",
                per(ms("nn.prune_score"), self.replayed_runs),
            ),
            (
                "nn.prune_select_ms".into(),
                "ms",
                per(ms("nn.prune_select"), self.replayed_runs),
            ),
            (
                "nn.rules".into(),
                "count",
                per(self.rules as f64, self.replayed_runs),
            ),
            (
                "nn.macs".into(),
                "count",
                per(self.macs as f64, self.replayed_runs),
            ),
            (
                "nn.prune_kept_frac".into(),
                "frac",
                per(self.kept as f64, self.dilated),
            ),
            (
                "core.sim_us".into(),
                "us",
                per(ms("core.sim") * 1e3, calls("core.sim")),
            ),
            (
                "core.sim_calls".into(),
                "count",
                per(calls("core.sim") as f64, self.sweeps),
            ),
            (
                "baselines.sim_us".into(),
                "us",
                per(ms("baselines.sim") * 1e3, calls("baselines.sim")),
            ),
            (
                "baselines.sim_calls".into(),
                "count",
                per(calls("baselines.sim") as f64, self.sweeps),
            ),
            (
                "adaptive.bound_us".into(),
                "us",
                per(ms("adaptive.bound") * 1e3, self.bound_calls),
            ),
            (
                "dse.pareto_ms".into(),
                "ms",
                per(ms("dse.pareto"), self.sweeps),
            ),
            ("dse.csv_ms".into(), "ms", per(ms("dse.csv"), self.sweeps)),
            (
                "dse.csv_bytes".into(),
                "bytes",
                per(self.csv_bytes as f64, self.sweeps),
            ),
            (
                "dse.cells".into(),
                "count",
                per(self.cells as f64, self.sweeps),
            ),
        ]);
        for m in MODELS {
            let s = self.sim.get(model_tag(m)).copied().unwrap_or_default();
            let tag = model_tag(m);
            out.extend([
                (
                    format!("sim.cycles.{tag}"),
                    "cycles",
                    per(s.cycles as f64, s.runs),
                ),
                (
                    format!("sim.dram_bytes.{tag}"),
                    "bytes",
                    per(s.dram_bytes as f64, s.runs),
                ),
                (
                    format!("sim.energy_mj.{tag}"),
                    "mJ",
                    per(s.energy_mj, s.runs),
                ),
                (
                    format!("sim.speedup_vs_dense.{tag}"),
                    "x",
                    if s.latency_ms > 0.0 {
                        s.dense_latency_ms / s.latency_ms
                    } else {
                        0.0
                    },
                ),
            ]);
        }
        out
    }
}

/// Runs `kind` over a fresh drive of `drive`'s configuration at `scale`
/// (frames and executions traced), for models a workload's own operations
/// do not execute, so every model-named metric is measured on every
/// workload.
pub fn probe_model(
    tracer: &Tracer,
    tally: &mut Tally,
    kind: ModelKind,
    drive: &DriveScenarioConfig,
    scale: spade_bench::WorkloadScale,
) {
    let preset = preset_for(kind);
    let frames = traced_frames(tracer, tally, &preset, drive);
    let runs = traced_runs(tracer, kind, &preset, &frames, drive, scale);
    let d = DriveRuns {
        kind,
        drive: drive.clone(),
        frames: 0,
        runs,
    };
    tally.replay_nn(tracer, &d, &frames);
}
