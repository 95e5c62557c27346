//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-full|explore-enlarged|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (through `perfbench/run.sh`, which builds
//! this binary first). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! lines before it, and `perfbench/out/<workload>-s<seed>-t<trace>.json`,
//! carry the machine and build facts, the sample count behind every
//! metric, and (traced) the layer shares; traced runs also write their
//! spans to `perfbench/out/<workload>-s<seed>-spans.jsonl`. See
//! `perfbench/README.md`.

#![forbid(unsafe_code)]

mod facts;
mod layers;
mod probe;
mod serve_mix;
mod stats;
mod sweep;
mod trace;

use facts::{json_str, Facts};
use layers::Tally;
use stats::{highest_reported_percentile, median, percentile, TAIL_PERCENTILES};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Server handler threads and client connections in `serve-mix`.
pub const WORKERS: usize = 2;

/// Sweep pool width of the sweep workloads. One worker: with two, a sweep
/// waits for the slower of two shared vCPUs, and its time follows the
/// host's second vCPU more than the program (see `perfbench/README.md`).
pub const SWEEP_JOBS: usize = 1;

/// Whether a run should set up once more before measuring: at least 3
/// set-ups, and more (up to 15) until 3 s of set-up time is spent, so
/// `setup_s` is the median of enough set-ups when one is short.
#[must_use]
pub fn more_setups(setup_s: &[f64]) -> bool {
    setup_s.len() < 3 || (setup_s.iter().sum::<f64>() < 3.0 && setup_s.len() < 15)
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep-full", "explore-enlarged", "serve-mix"];

/// End-to-end metrics, printed by every untraced run. (`sweep_p90_ms` is
/// measured and reported too, but is not declared: its run-to-run spread
/// on this class of host is close to the widest bound.)
pub const END_TO_END: [&str; 4] = ["setup_s", "requests_per_s", "sweep_p50_ms", "peak_rss_mb"];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [&str; 39] = [
    "pointcloud.frame_ms",
    "pointcloud.pillars",
    "nn.exec_ms.spp2",
    "nn.exec_ms.scp3",
    "nn.rulegen_ms",
    "nn.prune_score_ms",
    "nn.prune_select_ms",
    "nn.rules",
    "nn.macs",
    "nn.prune_kept_frac",
    "core.sim_us",
    "core.sim_calls",
    "baselines.sim_us",
    "baselines.sim_calls",
    "adaptive.bound_us",
    "dse.pareto_ms",
    "dse.csv_ms",
    "dse.csv_bytes",
    "dse.cells",
    "serve.hit_rate",
    "serve.sweeps_executed",
    "serve.dedup_joined",
    "serve.cache_bytes",
    "serve.streams",
    "serve.cold_overhead_ms",
    "serve.warm_p50_ms",
    "serve.warm_p90_ms",
    "serve.frame_p50_ms",
    "serve.frame_p90_ms",
    "sim.cycles.spp2",
    "sim.dram_bytes.spp2",
    "sim.energy_mj.spp2",
    "sim.speedup_vs_dense.spp2",
    "sim.cycles.scp3",
    "sim.dram_bytes.scp3",
    "sim.energy_mj.scp3",
    "sim.speedup_vs_dense.scp3",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// A seed for input stream `stream` of a run seeded with `seed`.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    spade_bench::loadgen::SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .next_u64()
}

/// Runs `f`, returning its value and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
}

impl Metric {
    /// A measured value.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self::from_samples(name, unit, Some(value), samples)
    }

    /// A value that may be missing (no samples, or a counter the server no
    /// longer reports).
    #[must_use]
    pub fn from_samples(
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            value: value.filter(|v| v.is_finite()),
            samples,
        }
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    series: Vec<(String, Vec<f64>)>,
    spans: String,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Adds a human-readable line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the percentiles of `samples` up to the highest one with at
    /// least ten samples beyond it, and keeps the samples (in measurement
    /// order) for the report file.
    pub fn percentile_note(&mut self, what: &str, samples: &[f64]) {
        self.series.push((what.to_owned(), samples.to_vec()));
        let mut line = format!("{what}: n={}", samples.len());
        let top = highest_reported_percentile(samples.len());
        for q in TAIL_PERCENTILES
            .iter()
            .filter(|&&q| top.is_some_and(|t| q <= t))
        {
            let _ = write!(
                line,
                " p{}={:.3}ms",
                q * 100.0,
                percentile(samples, *q).unwrap_or(0.0)
            );
        }
        if top.is_none() {
            let _ = write!(
                line,
                " (median {:.3}ms; too few samples for a percentile line)",
                median(samples).unwrap_or(0.0)
            );
        }
        self.note(line);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Derives the per-layer metrics of a traced run from its spans and
/// counters, notes the layer shares, and keeps the spans for the report.
/// `traced_ms` / `untraced_ms` are the traced replica's and the untraced
/// sweep's times for `trace.overhead_frac`.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: Tracer,
    tally: &Tally,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    // The nn replay and the bound probe must reproduce what they replay.
    out.record(tally.mismatches == 0);
    if tally.mismatches > 0 {
        out.note(format!("{} replay mismatches", tally.mismatches));
    }
    let folded = tracer.finish("op.sweep");
    let all = &folded.all;
    for (name, unit, value) in tally.layer_metrics(all) {
        out.push(Metric::new(name, unit, value, traced_ms.len()));
    }
    let overhead = median(traced_ms)
        .zip(median(untraced_ms))
        .map(|(t, u)| t / u - 1.0);
    out.push(Metric::from_samples(
        "trace.overhead_frac",
        "frac",
        overhead,
        traced_ms.len(),
    ));

    // Shares of the traced sweep's wall time by layer (self time of every
    // span under an `op.sweep` root; `op.sweep`'s own self time is the
    // unattributed remainder).
    let op = &folded.under_root;
    let wall = op.get("op.sweep").map_or(0, |t| t.total_ns) as f64;
    let share = |prefix: &str| {
        op.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns as f64)
            .sum::<f64>()
            / wall
    };
    let unattributed = op.get("op.sweep").map(|t| t.self_ns as f64 / wall);
    out.push(Metric::from_samples(
        "trace.unattributed_frac",
        "frac",
        unattributed,
        traced_ms.len(),
    ));
    for (metric, prefixes) in [
        ("share.pointcloud", &["pointcloud."][..]),
        ("share.nn", &["nn."]),
        ("share.sim", &["core.", "baselines."]),
        ("share.dse", &["dse."]),
    ] {
        let value = prefixes.iter().map(|p| share(p)).sum();
        out.push(Metric::new(metric, "frac", value, traced_ms.len()));
    }
    let mut line = String::from("layer shares of the traced sweep:");
    for (name, t) in op {
        let _ = write!(line, " {name}={:.1}%", 100.0 * t.self_ns as f64 / wall);
    }
    out.note(line);
    let exec: f64 = all
        .iter()
        .filter(|(n, _)| n.starts_with("nn.exec."))
        .map(|(_, t)| t.total_ns as f64)
        .sum();
    let mut line = String::from("nn replays as a share of pattern execution:");
    for name in ["nn.rulegen", "nn.prune_score", "nn.prune_select"] {
        let t = all.get(name).map_or(0, |t| t.self_ns) as f64;
        let _ = write!(line, " {name}={:.1}%", 100.0 * t / exec);
    }
    out.note(line);
    if folded.dropped > 0 {
        out.note(format!(
            "spans: the first {} written out, {} more folded into the totals only",
            folded.kept.len(),
            folded.dropped
        ));
    }
    out.spans
        .push_str(&trace::to_json_lines(&folded.kept, "main"));
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(probe::CHILD_FLAG) {
        if let Err(e) = probe::child_main() {
            eprintln!("perfbench: probe child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let facts = Facts::gather(&root);
    let mut outcome = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(args.seed, args.seconds, args.trace),
        w => sweep::run(w, args.seed, args.seconds, args.trace),
    };
    outcome.push(Metric::from_samples("peak_rss_mb", "MB", peak_rss_mb(), 1));
    report(&root, &args, &facts, &outcome);
}

/// Writes the report file and spans, prints the human-readable lines and
/// the final JSON line.
fn report(root: &Path, args: &Args, facts: &Facts, outcome: &Outcome) {
    let declared: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut metrics_json = Vec::new();
    for &name in declared {
        match outcome.get(name).and_then(|m| m.value.map(|v| (m, v))) {
            Some((m, v)) => metrics_json.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(m.unit)
            )),
            None => {
                missing.push(name);
                metrics_json.push(format!(
                    "{}:{{\"value\":0,\"unit\":\"missing\"}}",
                    json_str(name)
                ));
            }
        }
    }
    let correct = outcome.failed == 0 && missing.is_empty();

    let facts_json = facts.to_json(args.seed, &args.workload);
    let all_metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(&m.name),
                m.value.map_or_else(|| "null".to_owned(), |v| v.to_string()),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let series: Vec<String> = outcome
        .series
        .iter()
        .map(|(name, v)| {
            let v: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("{}:[{}]", json_str(name), v.join(","))
        })
        .collect();
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let file = format!(
        "{{\"facts\":{facts_json},\"trace\":{},\"seconds\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"fail_frac\":{fail_frac},\"missing\":[{}],\"metrics\":{{{}}},\"notes\":[{}],\"samples_ms\":{{{}}}}}\n",
        args.trace,
        args.seconds,
        outcome.attempted,
        outcome.failed,
        missing.iter().map(|m| json_str(m)).collect::<Vec<_>>().join(","),
        all_metrics.join(","),
        notes.join(","),
        series.join(",")
    );
    let out_dir = root.join("perfbench").join("out");
    let stem = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let write = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), file));
    if let Err(e) = write {
        eprintln!("perfbench: could not write the report: {e}");
    }
    if args.trace {
        let path = out_dir.join(format!("{}-s{}-spans.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(path, &outcome.spans) {
            eprintln!("perfbench: could not write the spans: {e}");
        }
    }

    println!("facts: {facts_json}");
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics {
        match m.value {
            Some(v) => println!(
                "metric {} = {v} {} (samples: {})",
                m.name, m.unit, m.samples
            ),
            None => println!(
                "metric {} = missing {} (samples: {})",
                m.name, m.unit, m.samples
            ),
        }
    }
    println!(
        "fail_frac = {fail_frac} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    if !missing.is_empty() {
        println!("missing metrics: {missing:?}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = manifest
            .split_once("\"per_layer\"")
            .expect("per_layer section");
        let (_, end_to_end) = head
            .split_once("\"end_to_end\"")
            .expect("end_to_end section");
        let declared = |section: &str| -> Vec<String> {
            section
                .split("\"name\": \"")
                .skip(1)
                .filter_map(|s| s.split('"').next().map(str::to_owned))
                .collect()
        };
        assert_eq!(declared(end_to_end), END_TO_END);
        assert_eq!(declared(per_layer), PER_LAYER);
        for w in WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn setups_repeat_at_least_three_times_and_until_three_seconds() {
        assert!(more_setups(&[]));
        assert!(more_setups(&[5.0, 5.0]));
        assert!(!more_setups(&[5.0, 5.0, 5.0]));
        assert!(more_setups(&[0.2; 3]));
        assert!(!more_setups(&[0.2; 15]));
        assert!(!more_setups(&[0.5; 6]));
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
