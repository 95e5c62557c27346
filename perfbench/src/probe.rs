//! The host-speed probe the end-to-end times are scaled by.
//!
//! The benchmark runs on shared hosts whose speed drifts by 10–35% within
//! minutes, as other tenants load the same cores, caches and memory. Raw
//! times then say as much about the host as about the program. So an
//! untraced run pauses before and after set-up and every [`PAUSE_EVERY`] of
//! measurement, and times a fixed kernel that belongs to the benchmark and
//! calls none of the repository's code: integer and float arithmetic, a
//! sort and float formatting, and random writes over a buffer larger than
//! the last-level cache. The kernel runs in a child process (this binary
//! with `--probe-child`), so its buffer adds nothing to the measured
//! process's `peak_rss_mb`; while it runs the program is idle, so the
//! program's own load does not slow it.
//!
//! Each stretch of work between two pauses (a window) is scaled to a host
//! on which the kernel takes [`REFERENCE_PROBE_MS`]: a time by
//! `REFERENCE_PROBE_MS / probe` and a rate by its inverse, with `probe` the
//! median kernel time of the pauses at both ends of the window. The raw
//! values are reported beside the scaled ones as `raw.<metric>`.

use crate::stats::{median, percentile};
use crate::{Metric, Outcome};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The kernel's typical time on the host the benchmark was defined on (2
/// vCPUs of an "Intel(R) Xeon(R) Processor" VM with a 105 MiB L3). The
/// scaled metrics read as if measured on that host at that speed.
pub const REFERENCE_PROBE_MS: f64 = 7.5;

/// Measured work between two pauses.
pub const PAUSE_EVERY: Duration = Duration::from_secs(1);

/// Kernel runs per pause.
const PROBES_PER_PAUSE: usize = 3;

/// The random-write buffer: 256 MiB, beyond the last-level cache.
const DRAM_WORDS: usize = 32 << 20;

/// Argument that starts this binary as the probe child.
pub const CHILD_FLAG: &str = "--probe-child";

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One timed kernel run, in ms; `dram` is the random-write buffer.
fn kernel_ms(dram: &mut [u64]) -> f64 {
    let start = Instant::now();
    // Dependent float and integer multiply-adds.
    let (mut x, mut acc) = (black_box(1.000_001_f64), 0u64);
    for i in 0..300_000u64 {
        x = x * 1.000_000_1 + 1e-9;
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x.to_bits() >> 7));
    }
    black_box((x, acc));
    // Allocation, a sort and float formatting.
    let mut s = black_box(0x0fed_cba9_8765_4321_u64);
    let mut v: Vec<f64> = (0..30_000)
        .map(|_| (xorshift(&mut s) >> 11) as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    let mut text = String::new();
    for x in v.iter().step_by(3) {
        let _ = write!(text, "{x},");
    }
    black_box(text.len());
    // Random read-modify-writes that miss the cache.
    let n = dram.len() as u64;
    for _ in 0..100_000 {
        let i = (xorshift(&mut s) % n) as usize;
        dram[i] = dram[i].wrapping_add(s);
    }
    black_box(&dram);
    start.elapsed().as_secs_f64() * 1e3
}

/// The child's loop: one kernel run per line read from stdin, its time in
/// ms written back as a line; returns at end of input.
pub fn child_main() -> std::io::Result<()> {
    let mut dram = vec![1u64; DRAM_WORDS];
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        line?;
        writeln!(out, "{}", kernel_ms(&mut dram))?;
        out.flush()?;
    }
    Ok(())
}

/// The probe child and the kernel times of every pause so far.
pub struct HostProbe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pauses: Vec<Vec<f64>>,
}

impl HostProbe {
    fn spawn() -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("probe child without pipes"));
        };
        Ok(Self {
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
            pauses: Vec::new(),
        })
    }

    /// Starts the child and makes the first pause, before set-up; on
    /// failure, counts a failed operation and notes why.
    pub fn start(out: &mut Outcome) -> Option<Self> {
        let started = Self::spawn().and_then(|mut probe| probe.pause().map(|()| probe));
        match started {
            Ok(probe) => Some(probe),
            Err(e) => {
                out.record(false);
                out.note(format!("host probe failed: {e}"));
                None
            }
        }
    }

    /// One pause: [`PROBES_PER_PAUSE`] kernel runs in the child.
    pub fn pause(&mut self) -> std::io::Result<()> {
        let mut times = Vec::with_capacity(PROBES_PER_PAUSE);
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("probe child closed"))?;
        for _ in 0..PROBES_PER_PAUSE {
            stdin.write_all(b"\n")?;
            stdin.flush()?;
            let mut line = String::new();
            self.stdout.read_line(&mut line)?;
            let ms = line
                .trim()
                .parse()
                .map_err(|_| std::io::Error::other(format!("bad probe reply '{line}'")))?;
            times.push(ms);
        }
        self.pauses.push(times);
        Ok(())
    }

    /// Stops the child, waits for it, and returns the kernel times of
    /// every pause.
    pub fn finish(mut self) -> Vec<Vec<f64>> {
        self.stop();
        std::mem::take(&mut self.pauses)
    }

    fn stop(&mut self) {
        // Closing stdin ends the child's loop; kill it only if that fails.
        if self.stdin.take().is_some() && self.child.wait().is_ok() {
            return;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The speed factor of the window between pauses `i` and `i + 1`:
/// `REFERENCE_PROBE_MS` over the median kernel time of both pauses. A time
/// is multiplied by it, a rate divided.
#[must_use]
fn window_speed(pauses: &[Vec<f64>], i: usize) -> Option<f64> {
    let around: Vec<f64> = pauses.iter().skip(i).take(2).flatten().copied().collect();
    median(&around).map(|p| REFERENCE_PROBE_MS / p)
}

/// A stretch of measured work between two pauses.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations completed.
    pub ops: usize,
    /// Wall time of the stretch, s.
    pub busy_s: f64,
    /// Latencies of the operations `sweep_p50_ms` is taken over, ms.
    pub sweep_ms: Vec<f64>,
}

/// Pushes the end-to-end time metrics, scaled and raw, of an untraced run
/// whose probe `pauses` came before set-up, after set-up, and after each
/// of `windows` in turn:
/// - `requests_per_s`: the median over windows of each window's rate;
/// - `sweep_p50_ms` / `sweep_p90_ms`: over every window's `sweep_ms`;
/// - `setup_s`: the median set-up, scaled by the set-up window.
pub fn push_end_to_end(
    out: &mut Outcome,
    pauses: &[Vec<f64>],
    setup_s: &[f64],
    windows: &[Window],
) {
    let (mut rates, mut raw_rates, mut ms, mut raw_ms) = (vec![], vec![], vec![], vec![]);
    for (i, w) in windows.iter().enumerate().filter(|(_, w)| w.ops > 0) {
        let speed = window_speed(pauses, i + 1).unwrap_or(f64::NAN);
        let rate = w.ops as f64 / w.busy_s;
        raw_rates.push(rate);
        rates.push(rate / speed);
        raw_ms.extend(&w.sweep_ms);
        ms.extend(w.sweep_ms.iter().map(|t| t * speed));
    }
    let setup_speed = window_speed(pauses, 0).unwrap_or(f64::NAN);
    let probes: Vec<f64> = pauses.iter().flatten().copied().collect();
    out.note(format!(
        "host probe: {} pauses, kernel median {:.3}ms (reference {REFERENCE_PROBE_MS}ms), set-up scaled by {setup_speed:.4}",
        pauses.len(),
        median(&probes).unwrap_or(0.0),
    ));
    out.push(Metric::from_samples(
        "host.probe_ms",
        "ms",
        median(&probes),
        probes.len(),
    ));
    let raw_setup = median(setup_s);
    for (name, unit, scaled, raw, samples) in [
        (
            "requests_per_s",
            "1/s",
            median(&rates),
            median(&raw_rates),
            rates.len(),
        ),
        ("sweep_p50_ms", "ms", median(&ms), median(&raw_ms), ms.len()),
        (
            "sweep_p90_ms",
            "ms",
            percentile(&ms, 0.9),
            percentile(&raw_ms, 0.9),
            ms.len(),
        ),
        (
            "setup_s",
            "s",
            raw_setup.map(|s| s * setup_speed),
            raw_setup,
            setup_s.len(),
        ),
    ] {
        out.push(Metric::from_samples(name, unit, scaled, samples));
        out.push(Metric::from_samples(
            format!("raw.{name}"),
            unit,
            raw,
            samples,
        ));
    }
    out.percentile_note("sweep (scaled)", &ms);
    // What the scaling was computed from, for the report file.
    let per_window = |f: fn(&Window) -> f64| windows.iter().map(f).collect();
    for (name, values) in [
        ("sweep (raw)", raw_ms),
        ("probe", probes),
        ("window ops", per_window(|w| w.ops as f64)),
        ("window s", per_window(|w| w.busy_s)),
        ("window sweeps", per_window(|w| w.sweep_ms.len() as f64)),
    ] {
        out.series.push((name.to_owned(), values));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_scaled_by_the_pauses_at_both_ends() {
        let r = REFERENCE_PROBE_MS;
        let pauses = vec![vec![r; 3], vec![2.0 * r; 3], vec![2.0 * r; 3]];
        // Window 1 lies between two pauses on a host twice as slow.
        assert_eq!(window_speed(&pauses, 1), Some(0.5));
        // Window 0: the median of three fast and three slow probes is the
        // lower middle.
        assert_eq!(window_speed(&pauses, 0), Some(1.0));
        // The last pause alone when no pause follows it; none past the end.
        assert_eq!(window_speed(&pauses, 2), Some(0.5));
        assert_eq!(window_speed(&pauses, 3), None);
    }

    #[test]
    fn times_shrink_and_rates_grow_on_a_slow_host() {
        let r = REFERENCE_PROBE_MS;
        // Before set-up, after set-up, after window 0, after window 1.
        let pauses = vec![vec![r], vec![r], vec![2.0 * r], vec![2.0 * r]];
        let windows = [
            Window {
                ops: 4,
                busy_s: 2.0,
                sweep_ms: vec![500.0; 4],
            },
            Window {
                ops: 2,
                busy_s: 2.0,
                sweep_ms: vec![1000.0; 2],
            },
        ];
        let mut out = Outcome::default();
        push_end_to_end(&mut out, &pauses, &[3.0, 1.0, 2.0], &windows);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
        };
        // The slow window scales to the fast one's figures.
        assert_eq!(value("sweep_p50_ms"), Some(500.0));
        assert_eq!(value("raw.sweep_p50_ms"), Some(500.0));
        assert_eq!(value("sweep_p90_ms"), Some(500.0));
        assert_eq!(value("raw.sweep_p90_ms"), Some(1000.0));
        assert_eq!(value("requests_per_s"), Some(2.0));
        assert_eq!(value("raw.requests_per_s"), Some(1.0));
        assert_eq!(value("setup_s"), Some(2.0));
        assert_eq!(value("host.probe_ms"), Some(r));
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut dram = vec![1u64; 1 << 12];
        let ms = kernel_ms(&mut dram);
        assert!(ms > 0.0 && ms.is_finite());
    }
}
