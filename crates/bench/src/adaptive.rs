//! Adaptive design-space exploration: roofline lower-bound screening plus
//! successive halving over growing drive-frame prefixes.
//!
//! The exhaustive sweep simulates every `(configuration, dataflow, frame)`
//! cell. On the enlarged buffer-split × banking grid
//! ([`super::SweepAxes::enlarged`]) that is ~100× the legacy cell count, and
//! almost all of it is provably wasted: most configurations are dominated by
//! a handful of good designs before a single cycle is simulated. This module
//! spends that insight in two stages:
//!
//! 1. **Roofline screen.** For every SPADE cell a per-frame *lower bound* on
//!    latency and energy is computed from the layer workload counts alone
//!    (no simulation): per layer, the MXU streaming cycles `r·ch_tiles`, the
//!    exact gather/scatter bank-conflict stall, the weight-load floor
//!    `k·ch_tiles·num_tiles·pe_rows` (using the exact
//!    [`ActiveTileManager::plan_for_counts`] tile plan — weight reuse can
//!    only re-load tiles, never skip them), and the 16-cycle rule-generation
//!    floor, all maxed against the exact DRAM-interface cycles. Energy is
//!    the exact MAC/SRAM/DRAM activity energy plus leakage at the bound
//!    cycle count (leakage is monotone in cycles, so the bound is sound).
//!    A small *seed* set — the Pareto frontier of the bounds — plus every
//!    baseline cell is fully simulated; any cell whose bound is dominated
//!    by a simulated cell is screened out.
//! 2. **Successive halving.** Survivors are simulated on a 1-frame prefix
//!    of the drive, their bound refined (exact prefix + bound suffix), and
//!    re-screened; the prefix doubles until the full drive is reached.
//!    Cheap frames kill most survivors early; the few that reach the last
//!    rung have simulated every frame and are emitted through the same
//!    `spade_cell` constructor as the exhaustive path.
//!
//! **Exactness.** The screen only ever discards a cell `c` when a *fully
//! simulated* cell `s` dominates `bound(c)`. Since `bound(c) ≤ true(c)`
//! componentwise and domination is transitive, `s` also dominates `true(c)`
//! — so `c` is not on the exhaustive frontier, and anything `true(c)` would
//! have dominated is dominated by `s` too. Surviving cells are built from
//! per-frame simulations in frame order through the shared constructors, so
//! the adaptive frontier is *byte-identical* to the exhaustive one — pinned
//! by `tests/dse_adaptive.rs` across scenarios and `--jobs`.
//! Exact frontier ties are never screened (domination requires a strict
//! inequality), exactly as [`super::pareto_frontier`] keeps them all.
//!
//! **Determinism.** Every pool fan-out is indexed over a canonically ordered
//! work-list and reassembled by index; all screening decisions are made
//! serially on the assembled vectors. No map iteration, no wall clock: the
//! result is bit-identical for any worker count.

use super::{compute_cell, pareto_frontier, spade_cell, CellKind, DseCell, DseParams, SweepPlan};
use crate::pool::WorkerPool;
use crate::workload::{simulate_on, ModelRun};
use spade_core::{
    AcceleratorReport, ActiveTileManager, NetworkPerf, SpadeAccelerator, SpadeConfig,
    ENCODER_MXU_UTILIZATION, GATHER_SCATTER_LANES,
};
use spade_sim::EnergyModel;

/// How the adaptive explorer spent its cell budget. The exhaustive path
/// reports `cells_screened = 0` and every cell simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenCounters {
    /// Cells discarded on a roofline bound (stage 0) or a refined bound
    /// (a halving rung) without simulating their full drive.
    pub cells_screened: usize,
    /// Cells whose full drive was simulated.
    pub cells_simulated: usize,
    /// Drive frames the screened cells never simulated, summed.
    pub frames_saved: usize,
}

/// Per-layer workload counts, extracted once per (model, frame) — everything
/// the roofline bound needs, without touching coordinate arrays again.
struct LayerStat {
    /// Raw active input / output pillar counts (pre-clamp, as
    /// [`ActiveTileManager::plan_for_counts`] expects them).
    a_len: usize,
    q_len: usize,
    in_ch: usize,
    out_ch: usize,
    taps: usize,
    /// Rules, clamped to ≥ 1 exactly as `schedule_layer` clamps them.
    r: u64,
    /// Exact DRAM bytes of the layer (ATM moves every element once).
    dram_bytes: u64,
}

/// One drive frame's aggregate counts for a model.
struct FrameStat {
    layers: Vec<LayerStat>,
    encoder_macs: u64,
    /// Exact totals mirrored from `NetworkPerf::from_layers` — these are
    /// configuration-independent, so the bound's energy activity terms are
    /// *equalities*, not bounds.
    total_macs: u64,
    total_sram_bytes: u64,
    total_dram_bytes: u64,
}

fn frame_stat(run: &ModelRun) -> FrameStat {
    let mut layers = Vec::with_capacity(run.workloads.len());
    let mut total_macs = run.encoder_macs;
    let mut total_sram = 0u64;
    let mut total_dram = 0u64;
    for w in &run.workloads {
        let a_len = w.input_coords.len();
        let q_len = w.output_coords.len();
        let a = a_len.max(1) as u64;
        let q = q_len.max(1) as u64;
        let r = w.rules.max(1);
        let c = w.spec.in_channels as u64;
        let m = w.spec.out_channels as u64;
        let k = w.spec.kernel.num_taps() as u64;
        // The tile plan clamps channels to ≥ 1 for its byte counts.
        let cp = (w.spec.in_channels.max(1)) as u64;
        let mp = (w.spec.out_channels.max(1)) as u64;
        let dram_bytes = a * cp + k * cp * mp + q * mp;
        total_macs += r * c * m;
        total_sram += r * (c + 4 * m) + a * c + q * m;
        total_dram += dram_bytes;
        layers.push(LayerStat {
            a_len,
            q_len,
            in_ch: w.spec.in_channels,
            out_ch: w.spec.out_channels,
            taps: w.spec.kernel.num_taps(),
            r,
            dram_bytes,
        });
    }
    FrameStat {
        layers,
        encoder_macs: run.encoder_macs,
        total_macs,
        total_sram_bytes: total_sram,
        total_dram_bytes: total_dram,
    }
}

/// Appends `x` to `pool` if absent and returns its index — tiny linear-scan
/// interner for the handful of distinct values each swept axis takes.
fn intern<T: PartialEq + Copy>(pool: &mut Vec<T>, x: T) -> usize {
    pool.iter().position(|&y| y == x).unwrap_or_else(|| {
        pool.push(x);
        pool.len() - 1
    })
}

/// Class indices of one configuration under the four independent axes the
/// per-layer bound arithmetic depends on. A swept grid *crosses* the axes,
/// so the class counts stay tiny while configurations multiply: the
/// enlarged grid's 2 184 configurations collapse onto 26 buffer geometries
/// × 3 PE shapes × 7 bankings × 2 DRAM widths.
struct ConfigClasses {
    /// `(buf_in_kib, buf_out_kib)` class — selects the `num_tiles` table.
    atm: usize,
    /// `(pe_rows, pe_cols)` class — selects `ch_tiles` and encoder tables.
    pe: usize,
    /// `min(sram_banks, lanes)` class — selects the bank-stall table.
    banks: usize,
    /// `dram_bytes_per_cycle` class — selects the DRAM-cycles table.
    bpc: usize,
}

/// Per-model lookup tables: one flat `(frame, layer)` entry per drive layer
/// (frame `f` spans `offsets[f]..offsets[f + 1]`), with the
/// configuration-dependent term of each bound axis tabulated per class.
struct ModelTables {
    offsets: Vec<usize>,
    /// Rules per layer, clamped ≥ 1 (the MXU streaming term's multiplier).
    r: Vec<u64>,
    taps: Vec<u64>,
    /// Exact [`ActiveTileManager::plan_for_counts`] tile count, per ATM
    /// class — weight reuse can only re-load tiles, never skip them, so
    /// this is the weight-load floor's tile multiplier.
    num_tiles: Vec<Vec<u64>>,
    /// `ceil(in_ch / pe_rows) · ceil(out_ch / pe_cols)` per PE class.
    ch_tiles: Vec<Vec<u64>>,
    /// Exact gather/scatter bank-conflict stall `r·(lanes − banks)/lanes`
    /// per banking class — banking stalls do not depend on the dataflow
    /// schedule.
    // unit: cycles
    stall: Vec<Vec<u64>>,
    /// Exact DRAM-interface cycles `ceil(dram_bytes / bpc)` per DRAM class.
    dram_cycles: Vec<Vec<u64>>,
    /// Encoder MXU cycles per PE class and frame.
    encoder_cycles: Vec<Vec<u64>>,
    /// Per-frame `(macs, sram_bytes, dram_bytes)` totals for the energy
    /// activity terms — configuration-independent, so they are *equalities*.
    totals: Vec<(u64, u64, u64)>,
}

/// Roofline-bound evaluator over a configuration grid: precomputes each
/// bound axis once per distinct class and assembles any configuration's
/// per-frame bound from table lookups. The lookup path evaluates exactly
/// the arithmetic of `schedule_layer` / `NetworkPerf::from_layers` with the
/// dataflow-dependent terms dropped — term by term identical to evaluating
/// the closed form per configuration, so cached and uncached bounds are
/// bit-equal.
struct BoundCtx {
    classes: Vec<ConfigClasses>,
    models: Vec<ModelTables>,
}

impl BoundCtx {
    fn new(configs: &[SpadeConfig], stats_by_model: &[Vec<FrameStat>]) -> Self {
        let lanes = u64::from(GATHER_SCATTER_LANES);
        let mut atms: Vec<(u64, u64)> = Vec::new();
        let mut pes: Vec<(usize, usize)> = Vec::new();
        let mut banks: Vec<u64> = Vec::new();
        let mut bpcs: Vec<f64> = Vec::new();
        let classes = configs
            .iter()
            .map(|c| ConfigClasses {
                atm: intern(&mut atms, (c.buf_in_kib, c.buf_out_kib)),
                pe: intern(&mut pes, (c.pe_rows, c.pe_cols)),
                banks: intern(&mut banks, u64::from(c.sram_banks).min(lanes)),
                bpc: intern(&mut bpcs, c.dram_bytes_per_cycle),
            })
            .collect();
        let models = stats_by_model
            .iter()
            .map(|frames| {
                let mut offsets = vec![0usize];
                let mut r = Vec::new();
                let mut taps = Vec::new();
                for fs in frames {
                    for l in &fs.layers {
                        r.push(l.r);
                        taps.push(l.taps as u64);
                    }
                    offsets.push(r.len());
                }
                let layers = || frames.iter().flat_map(|fs| fs.layers.iter());
                ModelTables {
                    num_tiles: atms
                        .iter()
                        .map(|&(buf_in, buf_out)| {
                            let atm = ActiveTileManager::new(buf_in, buf_out);
                            layers()
                                .map(|l| {
                                    atm.plan_for_counts(l.a_len, l.q_len, l.in_ch, l.out_ch, l.taps)
                                        .num_tiles as u64
                                })
                                .collect()
                        })
                        .collect(),
                    ch_tiles: pes
                        .iter()
                        .map(|&(rows, cols)| {
                            layers()
                                .map(|l| {
                                    (l.in_ch.div_ceil(rows) as u64)
                                        * (l.out_ch.div_ceil(cols) as u64)
                                })
                                .collect()
                        })
                        .collect(),
                    stall: banks
                        .iter()
                        .map(|&b| layers().map(|l| l.r * (lanes - b) / lanes).collect())
                        .collect(),
                    dram_cycles: bpcs
                        .iter()
                        .map(|&bpc| {
                            layers()
                                .map(|l| (l.dram_bytes as f64 / bpc).ceil() as u64)
                                .collect()
                        })
                        .collect(),
                    encoder_cycles: pes
                        .iter()
                        .map(|&(rows, cols)| {
                            frames
                                .iter()
                                .map(|fs| {
                                    (fs.encoder_macs as f64
                                        / ((rows * cols).max(1) as f64 * ENCODER_MXU_UTILIZATION))
                                        .ceil() as u64
                                })
                                .collect()
                        })
                        .collect(),
                    totals: frames
                        .iter()
                        .map(|fs| (fs.total_macs, fs.total_sram_bytes, fs.total_dram_bytes))
                        .collect(),
                    offsets,
                    r,
                    taps,
                }
            })
            .collect();
        BoundCtx { classes, models }
    }

    /// Lower bound on each frame's `(latency_ms, energy_mj)` under
    /// `configs[config_idx]`, valid for *every* dataflow setting (reuse
    /// inefficiency and conservative tiling only ever add weight-load
    /// cycles; scatter exposure only adds scatter cycles). Per layer the
    /// compute floor `r·ch_tiles + stall + taps·ch_tiles·num_tiles·pe_rows +
    /// 16` (16 = the exposed rule-generation clamp) is maxed against the
    /// exact DRAM-interface cycles. MAC/SRAM/DRAM activity energy is
    /// workload-exact; only the leakage term sees the bound cycle count,
    /// and leakage is monotone in cycles — sound.
    fn per_frame(
        &self,
        config_idx: usize,
        model_idx: usize,
        config: &SpadeConfig,
    ) -> Vec<(f64, f64)> {
        let cls = &self.classes[config_idx];
        let md = &self.models[model_idx];
        let energy = EnergyModel::asic_32nm();
        let pe_rows = config.pe_rows as u64;
        let num_tiles = &md.num_tiles[cls.atm];
        let ch_tiles = &md.ch_tiles[cls.pe];
        let stall = &md.stall[cls.banks];
        let dram = &md.dram_cycles[cls.bpc];
        (0..md.offsets.len() - 1)
            .map(|f| {
                let mut cycles: u64 = 0;
                for i in md.offsets[f]..md.offsets[f + 1] {
                    let compute_floor = md.r[i] * ch_tiles[i]
                        + stall[i]
                        + md.taps[i] * ch_tiles[i] * num_tiles[i] * pe_rows
                        + 16;
                    cycles += compute_floor.max(dram[i]);
                }
                let total_cycles = cycles + md.encoder_cycles[cls.pe][f];
                let (macs, sram_bytes, dram_bytes) = md.totals[f];
                let latency_ms = total_cycles as f64 / (config.freq_ghz * 1e9) * 1e3;
                let energy_mj = energy
                    .breakdown(macs, sram_bytes, dram_bytes, total_cycles, config.freq_ghz)
                    .total_mj();
                (latency_ms, energy_mj)
            })
            .collect()
    }
}

/// Per-frame roofline lower bounds `(latency_ms, energy_mj)` of `config`
/// over a drive's model runs — the quantity the adaptive screen prunes on,
/// exposed so the soundness property (`bound ≤ simulated`, for every frame,
/// configuration, dataflow setting, and scenario) is testable from outside
/// the explorer. Runs through the same `BoundCtx` lookup path the
/// explorer uses, so the tested bound *is* the screening bound.
#[must_use]
pub fn roofline_bound(config: &SpadeConfig, runs: &[ModelRun]) -> Vec<(f64, f64)> {
    let stats: Vec<FrameStat> = runs.iter().map(frame_stat).collect();
    BoundCtx::new(std::slice::from_ref(config), &[stats]).per_frame(0, 0, config)
}

/// Roofline bound of one SPADE cell: per-frame `(latency, energy)` lower
/// bounds plus their drive mean alongside the cell's exact area.
struct CellBound {
    per_frame: Vec<(f64, f64)>,
    mean: [f64; 3],
}

/// A SPADE cell still alive in the halving loop, with the frames simulated
/// so far (in frame order) and their exact running sums.
struct Survivor {
    /// Position into the `spade` item-index list.
    pos: usize,
    perfs: Vec<NetworkPerf>,
    prefix_lat: f64,
    prefix_energy: f64,
}

/// At most this many bound-frontier cells are seeded (fully simulated up
/// front) per workload; seeding is an efficiency lever only — an unseeded
/// frontier cell simply survives the halving rungs to full simulation.
const SEED_CAP: usize = 64;

/// Explores the planned grid adaptively. Returns the assembled cell vector
/// in the plan's canonical item order — fully simulated cells byte-identical
/// to [`super::compute_cell`]'s output, screened cells carrying their bound
/// values with `simulated = false` — plus the budget counters.
pub(super) fn explore(
    params: &DseParams,
    pool: &WorkerPool,
    plan: &SweepPlan,
) -> (Vec<DseCell>, ScreenCounters) {
    let n_frames = plan.num_frames.max(1);
    let n_models = params.models.len();
    let run_cell = |item_idx: usize| {
        compute_cell(
            &plan.items[item_idx],
            &params.models,
            &plan.configs,
            &plan.runs_by_model,
            &plan.overlap_by_model,
        )
    };

    // Workload counts per (model, frame) — the bound's only input.
    let stats_by_model: Vec<Vec<FrameStat>> = plan
        .runs_by_model
        .iter()
        .map(|runs| runs.iter().map(frame_stat).collect())
        .collect();
    // Mean DRAM traffic is configuration-independent; computed with the
    // same operation order as `mean_cell` so screened cells export the
    // exact value.
    let mean_dram_by_model: Vec<f64> = stats_by_model
        .iter()
        .map(|frames| {
            let n = frames.len().max(1) as f64;
            frames
                .iter()
                .map(|f| f.total_dram_bytes as f64 / (1024.0 * 1024.0))
                .sum::<f64>()
                / n
        })
        .collect();

    // Split the canonical work-list: SPADE cells are screened adaptively,
    // every baseline cell is simulated outright (they are a small minority
    // — the insensitive-axis collapses already shrank them — and they seed
    // the reference set).
    let mut spade: Vec<usize> = Vec::new();
    let mut others: Vec<usize> = Vec::new();
    for (i, item) in plan.items.iter().enumerate() {
        match item.kind {
            CellKind::Spade(_) => spade.push(i),
            _ => others.push(i),
        }
    }
    let spade_opts = |pos: usize| match plan.items[spade[pos]].kind {
        CellKind::Spade(opts) => opts,
        _ => unreachable!("`spade` holds only SPADE items"),
    };

    let mut cells: Vec<Option<DseCell>> = (0..plan.items.len()).map(|_| None).collect();
    let mut refs_by_model: Vec<Vec<[f64; 3]>> = vec![Vec::new(); n_models];

    let baseline_cells = pool.run(others.len(), |i| run_cell(others[i]));
    for (&item_idx, cell) in others.iter().zip(baseline_cells) {
        refs_by_model[plan.items[item_idx].model_idx].push([
            cell.mean_latency_ms,
            cell.mean_energy_mj,
            cell.area_mm2,
        ]);
        cells[item_idx] = Some(cell);
    }

    // Stage 0a — per-frame roofline bounds, computed once per
    // (configuration, model) pair: the bound is dataflow-independent, so
    // the dataflow variants of a design point share one `CellBound`.
    // `pair_of` maps each SPADE position to its pair slot (first-appearance
    // order, so the fan-out below is canonically indexed).
    let mut pair_slot: Vec<usize> = vec![usize::MAX; plan.configs.len() * n_models];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let pair_of: Vec<usize> = spade
        .iter()
        .map(|&i| {
            let item = &plan.items[i];
            let key = item.model_idx * plan.configs.len() + item.config_idx;
            if pair_slot[key] == usize::MAX {
                pair_slot[key] = pairs.len();
                pairs.push((item.config_idx, item.model_idx));
            }
            pair_slot[key]
        })
        .collect();
    let ctx = BoundCtx::new(&plan.configs, &stats_by_model);
    let pair_bounds: Vec<CellBound> = pool.run(pairs.len(), |i| {
        let (config_idx, model_idx) = pairs[i];
        let config = &plan.configs[config_idx];
        let per_frame = ctx.per_frame(config_idx, model_idx, config);
        let n = per_frame.len().max(1) as f64;
        let mean = [
            per_frame.iter().map(|b| b.0).sum::<f64>() / n,
            per_frame.iter().map(|b| b.1).sum::<f64>() / n,
            AcceleratorReport::for_spade("SPADE", config).total_mm2(),
        ];
        CellBound { per_frame, mean }
    });
    let bound_of = |p: usize| &pair_bounds[pair_of[p]];

    // Stage 0b — seed the reference set with the Pareto frontier of the
    // bounds (per workload: cells of different models never compete), fully
    // simulated. A cell can only be screened by a *simulated* reference, so
    // without seeds nothing SPADE-shaped could ever prune SPADE cells.
    let mut is_seed = vec![false; spade.len()];
    for model_idx in 0..n_models {
        let members: Vec<usize> = (0..spade.len())
            .filter(|&p| plan.items[spade[p]].model_idx == model_idx)
            .collect();
        let points: Vec<[f64; 3]> = members.iter().map(|&p| bound_of(p).mean).collect();
        let mut seeded = 0usize;
        for (&p, keep) in members.iter().zip(pareto_frontier(&points)) {
            if keep && seeded < SEED_CAP {
                is_seed[p] = true;
                seeded += 1;
            }
        }
    }
    let seeds: Vec<usize> = (0..spade.len()).filter(|&p| is_seed[p]).collect();
    let seed_cells = pool.run(seeds.len(), |i| run_cell(spade[seeds[i]]));
    for (&p, cell) in seeds.iter().zip(seed_cells) {
        refs_by_model[plan.items[spade[p]].model_idx].push([
            cell.mean_latency_ms,
            cell.mean_energy_mj,
            cell.area_mm2,
        ]);
        cells[spade[p]] = Some(cell);
    }

    // Simulated references are always finite, so the plain domination test
    // (no finiteness guard) matches `pareto_frontier`'s exactly.
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let mut cells_screened = 0usize;
    let mut frames_saved = 0usize;
    // Builds the exported cell of a screened design point: the shared
    // constructor for identity fields, the refined bound for the metric
    // columns, `simulated = false` so the frontier and the duel tally skip
    // it.
    let mut screen = |cells: &mut Vec<Option<DseCell>>,
                      pos: usize,
                      frames_done: usize,
                      bound_lat: f64,
                      bound_energy: f64| {
        let item = &plan.items[spade[pos]];
        let mut cell = spade_cell(
            params.models[item.model_idx],
            &plan.configs[item.config_idx],
            spade_opts(pos),
            &[],
            plan.overlap_by_model[item.model_idx],
        );
        cell.mean_latency_ms = bound_lat;
        cell.mean_energy_mj = bound_energy;
        cell.mean_dram_mib = mean_dram_by_model[item.model_idx];
        cell.simulated = false;
        cells[spade[pos]] = Some(cell);
        cells_screened += 1;
        frames_saved += n_frames - frames_done;
    };

    // Stage 0c — the screen itself: discard every non-seed cell whose bound
    // is dominated by a simulated reference.
    let mut active: Vec<Survivor> = Vec::new();
    for p in 0..spade.len() {
        if is_seed[p] {
            continue;
        }
        let model_idx = plan.items[spade[p]].model_idx;
        if refs_by_model[model_idx]
            .iter()
            .any(|r| dominates(r, &bound_of(p).mean))
        {
            screen(&mut cells, p, 0, bound_of(p).mean[0], bound_of(p).mean[1]);
        } else {
            active.push(Survivor {
                pos: p,
                perfs: Vec::new(),
                prefix_lat: 0.0,
                prefix_energy: 0.0,
            });
        }
    }

    // Stage 1 — successive halving: simulate survivors on a growing frame
    // prefix, re-screen with the refined bound (exact prefix + bound
    // suffix), double the prefix. Rungs are synchronous: each fans out over
    // the pool in canonical (survivor, frame) order and decides serially.
    let mut prefix = 1usize;
    while !active.is_empty() {
        let rung = prefix.min(n_frames);
        let units: Vec<(usize, usize)> = active
            .iter()
            .enumerate()
            .flat_map(|(s, surv)| (surv.perfs.len()..rung).map(move |f| (s, f)))
            .collect();
        let perfs = pool.run(units.len(), |u| {
            let (s, f) = units[u];
            let item = &plan.items[spade[active[s].pos]];
            let acc = SpadeAccelerator::with_options(
                plan.configs[item.config_idx],
                spade_opts(active[s].pos),
            );
            simulate_on(&acc, &plan.runs_by_model[item.model_idx][f])
        });
        // Frames arrive in (survivor, frame) order, so pushing in the same
        // iteration order keeps each survivor's perfs frame-sorted.
        for (&(s, _), perf) in units.iter().zip(perfs) {
            active[s].prefix_lat += perf.latency_ms;
            active[s].prefix_energy += perf.energy.total_mj();
            active[s].perfs.push(perf);
        }
        if rung == n_frames {
            // Every surviving cell has simulated the full drive: emit it
            // through the shared constructor — byte-identical to the
            // exhaustive path.
            for surv in active.drain(..) {
                let item = &plan.items[spade[surv.pos]];
                cells[spade[surv.pos]] = Some(spade_cell(
                    params.models[item.model_idx],
                    &plan.configs[item.config_idx],
                    spade_opts(surv.pos),
                    &surv.perfs,
                    plan.overlap_by_model[item.model_idx],
                ));
            }
            break;
        }
        let n = n_frames as f64;
        let mut still = Vec::with_capacity(active.len());
        for surv in active.drain(..) {
            let bound = bound_of(surv.pos);
            let suffix_lat: f64 = bound.per_frame[rung..].iter().map(|b| b.0).sum();
            let suffix_energy: f64 = bound.per_frame[rung..].iter().map(|b| b.1).sum();
            let refined = [
                (surv.prefix_lat + suffix_lat) / n,
                (surv.prefix_energy + suffix_energy) / n,
                bound.mean[2],
            ];
            let model_idx = plan.items[spade[surv.pos]].model_idx;
            if refs_by_model[model_idx]
                .iter()
                .any(|r| dominates(r, &refined))
            {
                screen(
                    &mut cells,
                    surv.pos,
                    surv.perfs.len(),
                    refined[0],
                    refined[1],
                );
            } else {
                still.push(surv);
            }
        }
        active = still;
        prefix *= 2;
    }

    let cells: Vec<DseCell> = cells
        .into_iter()
        .map(|c| c.expect("every work-list item is either simulated or screened"))
        .collect();
    let counters = ScreenCounters {
        cells_screened,
        cells_simulated: cells.len() - cells_screened,
        frames_saved,
    };
    (cells, counters)
}
