//! The sweep workloads: `sweep-full` (the full-scale default sweep users
//! run) and `explore-enlarged` (exhaustive reduced-scale sweeps over the
//! enlarged grid).

use crate::layers::{probe_model, traced_sweep, Replica, Tally};
use crate::probe::{push_end_to_end, HostProbe, Window, PAUSE_EVERY};
use crate::serve_mix::serve_probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{derive_seed, more_setups, timed, Metric, Outcome, SWEEP_JOBS};
use spade_bench::workload::ModelRun;
use spade_bench::WorkloadScale;
use spade_bench::{
    run_dse_on_pool, run_dse_with_jobs, DseParams, DseResult, SweepAxes, WorkerPool,
};
use spade_core::SpadeConfig;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The sweep a workload repeats, derived from the seed.
#[must_use]
pub fn params_for(workload: &str, seed: u64) -> DseParams {
    let mut params = match workload {
        "sweep-full" => DseParams::default_for(WorkloadScale::Full),
        _ => DseParams {
            axes: SweepAxes::enlarged(),
            ..DseParams::default_for(WorkloadScale::Reduced)
        },
    };
    params.base_seed = derive_seed(seed, 0);
    params
}

/// The axes a cell-collapsing key can observe: PE rows and columns, SRAM
/// KiB, clock bits and bandwidth bits (zeroed when unobserved).
type FormFactor = (usize, usize, u64, u64, u64);

/// Cells an exhaustive sweep of `params` must produce, counted from the
/// grid independently of the sweep: per model, one SPADE cell per
/// configuration and dataflow setting, one DenseAcc cell per
/// (PE array, SRAM, clock, bandwidth), one SpConv2D-Acc cell per
/// (PE array, SRAM) and one PointAcc cell per (PE array, SRAM, clock).
#[must_use]
pub fn expected_cells(params: &DseParams) -> usize {
    let configs = params.axes.expand_configs();
    let df = &params.axes.dataflow;
    let dataflow = (0..df.len()).filter(|&i| !df[..i].contains(&df[i])).count();
    let distinct = |key: &dyn Fn(&SpadeConfig) -> FormFactor| {
        configs.iter().map(key).collect::<HashSet<_>>().len()
    };
    let dense = distinct(&|c| {
        (
            c.pe_rows,
            c.pe_cols,
            c.total_sram_kib(),
            c.freq_ghz.to_bits(),
            c.dram_bytes_per_cycle.to_bits(),
        )
    });
    let spconv = distinct(&|c| (c.pe_rows, c.pe_cols, c.total_sram_kib(), 0, 0));
    let pointacc = distinct(&|c| {
        (
            c.pe_rows,
            c.pe_cols,
            c.total_sram_kib(),
            c.freq_ghz.to_bits(),
            0,
        )
    });
    params.models.len() * (configs.len() * dataflow + dense + spconv + pointacc)
}

/// Set-up state: the sweep and its jobs=1 reference.
pub struct SweepCase {
    /// The sweep.
    pub params: DseParams,
    /// `run_dse(params)`.
    pub reference: DseResult,
    /// Its CSV.
    pub reference_csv: String,
    /// Cells the grid implies.
    pub cells: usize,
}

impl SweepCase {
    /// Whether one repetition's output is correct: byte-identical CSV to
    /// the reference, the grid's cell count, a non-empty frontier.
    #[must_use]
    pub fn check(&self, result: &DseResult, csv: &str) -> bool {
        csv == self.reference_csv
            && result.cells.len() == self.cells
            && result.cells.iter().any(|c| c.on_frontier)
    }
}

fn setup(workload: &str, seed: u64, pool: &WorkerPool) -> (SweepCase, bool) {
    let params = params_for(workload, seed);
    let reference = run_dse_with_jobs(&params, 1);
    let reference_csv = reference.to_csv();
    let case = SweepCase {
        cells: expected_cells(&params),
        params,
        reference,
        reference_csv,
    };
    // Warm-up outside the measured loop: fills lazy statics and the calling
    // thread's execution arena before the first timed repetition.
    let warm = run_dse_on_pool(&case.params, pool);
    let ok = case.check(&warm, &warm.to_csv()) && case.check(&case.reference, &case.reference_csv);
    (case, ok)
}

/// Runs a sweep workload for `seconds`, traced or not.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let pool = WorkerPool::new(SWEEP_JOBS);
    let mut out = Outcome::default();
    let probe = if trace {
        None
    } else {
        match HostProbe::start(&mut out) {
            Some(probe) => Some(probe),
            None => return out,
        }
    };
    let mut setup_s = Vec::new();
    let mut case = None;
    while more_setups(&setup_s) {
        let ((c, ok), dt) = timed(|| setup(workload, seed, &pool));
        setup_s.push(dt.as_secs_f64());
        out.record(ok);
        case = Some(c);
    }
    let case = case.expect("at least one set-up");
    out.note(format!(
        "sweep: {} configs, {} cells, {} frames, models {:?}, drive seed {}",
        case.reference.num_configs,
        case.cells,
        case.reference.num_frames,
        case.params
            .models
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>(),
        case.params.base_seed
    ));
    match probe {
        Some(probe) => untraced(&case, &pool, seconds, probe, &setup_s, &mut out),
        None => {
            traced(&case, seconds, &mut out);
            out.push(Metric::from_samples(
                "setup_s",
                "s",
                median(&setup_s),
                setup_s.len(),
            ));
        }
    }
    out
}

/// The measured loop: repeated sweeps for `seconds` in windows of
/// [`PAUSE_EVERY`], each followed by a host-probe pause.
fn untraced(
    case: &SweepCase,
    pool: &WorkerPool,
    seconds: u64,
    mut probe: HostProbe,
    setup_s: &[f64],
    out: &mut Outcome,
) {
    let mut paused = probe.pause();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut windows = Vec::new();
    while paused.is_ok() && Instant::now() < deadline {
        let start = Instant::now();
        let mut window = Window::default();
        while start.elapsed() < PAUSE_EVERY && Instant::now() < deadline {
            let ((result, csv), dt) = timed(|| {
                let r = run_dse_on_pool(&case.params, pool);
                let csv = r.to_csv();
                (r, csv)
            });
            window.sweep_ms.push(dt.as_secs_f64() * 1e3);
            window.ops += 1;
            out.record(case.check(&result, &csv));
        }
        window.busy_s = start.elapsed().as_secs_f64();
        windows.push(window);
        paused = probe.pause();
    }
    if let Err(e) = paused {
        out.record(false);
        out.note(format!("host probe failed: {e}"));
    }
    push_end_to_end(out, &probe.finish(), setup_s, &windows);
}

/// Untraced and traced sweep times of a [`traced_pass`], in ms.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// Untraced jobs=1 `run_dse` + `to_csv` times.
    pub untraced_ms: Vec<f64>,
    /// Traced replica times.
    pub traced_ms: Vec<f64>,
}

/// Runs pairs of an untraced jobs=1 sweep and the traced replica of
/// `case` until `deadline` (at least `min_pairs`), alternating which side
/// of a pair runs first, and replays the nn layers on every replica's
/// runs. Returns the last replica's runs of its first model and the times
/// of both sides.
pub fn traced_pass(
    case: &SweepCase,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Outcome,
    deadline: Instant,
    min_pairs: u64,
) -> (Vec<ModelRun>, PassTimes) {
    let mut times = PassTimes::default();
    let mut first_runs = Vec::new();
    let mut op = 0;
    while op < min_pairs || Instant::now() < deadline {
        op += 1;
        let mut replica = None;
        for traced_side in [op % 2 == 0, op % 2 == 1] {
            if traced_side {
                tracer.set_op(op);
                let (r, dt) = timed(|| traced_sweep(tracer, tally, &case.params));
                times.traced_ms.push(dt.as_secs_f64() * 1e3);
                out.record(r.result == case.reference && case.check(&r.result, &r.csv));
                replica = Some(r);
            } else {
                let ((result, csv), dt) = timed(|| {
                    let r = run_dse_with_jobs(&case.params, 1);
                    let csv = r.to_csv();
                    (r, csv)
                });
                times.untraced_ms.push(dt.as_secs_f64() * 1e3);
                out.record(case.check(&result, &csv));
            }
        }
        let Replica { frames, drives, .. } = replica.expect("a traced sweep ran");
        for d in &drives {
            tally.replay_nn(tracer, d, &frames[d.frames]);
        }
        tracer.fold("op.sweep");
        first_runs.clone_from(&drives[0].runs);
        // `run_dse` frees its frames and runs before it returns; the
        // replica keeps them for the replay, so their release is added to
        // its time here.
        let ((), dt) = timed(|| drop((frames, drives)));
        if let Some(t) = times.traced_ms.last_mut() {
            *t += dt.as_secs_f64() * 1e3;
        }
    }
    (first_runs, times)
}

/// The traced run: [`traced_pass`] for `seconds`, then the adaptive bound
/// probe, any model the sweep does not run, and the sweep sent through an
/// in-process server for the `serve.*` layer.
fn traced(case: &SweepCase, seconds: u64, out: &mut Outcome) {
    let tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (runs, times) = traced_pass(case, &tracer, &mut tally, out, deadline, 1);
    tally.probe_bound(&tracer, &case.params, &runs, 256);
    for kind in tally.missing_models() {
        probe_model(
            &tracer,
            &mut tally,
            kind,
            &case.params.drive_config(),
            case.params.scale,
        );
    }
    let direct_ms = median(&times.untraced_ms).unwrap_or(0.0);
    serve_probe(case, direct_ms, out);
    crate::finish_trace(out, tracer, &tally, &times.traced_ms, &times.untraced_ms);
}
