//! The `serve-mix` workload: an in-process `Server` under a closed loop of
//! two connections sending seeded Zipf(1.0) `SWEEP`s over a catalog of
//! reduced default sweeps, interleaved with `FRAME`s that step full-scale
//! persistent stop-and-go drives in order; plus the small serve probe the
//! sweep workloads' traced runs use for the `serve.*` layer.

use crate::layers::{preset_for, traced_frames, traced_runs, DriveRuns, Tally};
use crate::probe::{push_end_to_end, HostProbe, Window, PAUSE_EVERY};
use crate::stats::{median, percentile};
use crate::sweep::{traced_pass, SweepCase};
use crate::trace::{Span, Tracer};
use crate::{derive_seed, more_setups, timed, Metric, Outcome, WORKERS};
use spade_bench::loadgen;
use spade_bench::protocol::{
    encode_request, read_frame, write_frame, FrameRequest, Request, Response,
};
use spade_bench::serve::parse_stats_body;
use spade_bench::workload::model_run_on_frame;
use spade_bench::{
    canonicalize_params, run_dse, run_dse_with_jobs, DseParams, ServeConfig, Server, WorkloadScale,
};
use spade_nn::{ModelKind, PruningConfig};
use spade_pointcloud::{DriveScenario, NamedScenario};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Distinct sweeps in the catalog (rank 0 is the hottest).
pub const CATALOG: usize = 12;
/// One request in this many is a `FRAME`.
pub const FRAME_EVERY: usize = 8;
/// Frames per stop-and-go drive.
pub const DRIVE_FRAMES: usize = 6;
/// The result cache holds this share of the catalog's result bytes, so
/// hits, misses, inserts and evictions all happen.
pub const CACHE_SHARE: f64 = 0.5;
/// One drive per connection: connection `i` steps a drive of `DRIVE_MODELS[i]`.
pub const DRIVE_MODELS: [ModelKind; WORKERS] = [ModelKind::Spp2, ModelKind::Scp3];

/// One request of a connection's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `SWEEP` of the catalog entry at this rank.
    Sweep(usize),
    /// `FRAME` at this index of the connection's drive.
    Frame(usize),
}

/// The request sequence connection `lane` replays: Zipf(1.0) ranks over
/// `catalog` entries, with every `FRAME_EVERY`-th request a `FRAME` that
/// steps the lane's `frames`-frame drive in order, starting at frame 1
/// (frame 0 is the set-up warm-up) and wrapping around.
#[must_use]
pub fn request_sequence(
    seed: u64,
    lane: usize,
    len: usize,
    catalog: usize,
    frames: usize,
) -> Vec<Req> {
    let ranks = loadgen::request_sequence(catalog, len, 1.0, derive_seed(seed, 100 + lane as u64));
    let mut next_frame = 1;
    ranks
        .into_iter()
        .enumerate()
        .map(|(i, rank)| {
            if i % FRAME_EVERY == FRAME_EVERY - 1 {
                let idx = next_frame % frames;
                next_frame += 1;
                Req::Frame(idx)
            } else {
                Req::Sweep(rank)
            }
        })
        .collect()
}

/// A parsed `STATS` body. Keys the server no longer reports are absent,
/// not errors, so the benchmark survives counters being retired.
#[derive(Debug, Clone, Default)]
pub struct Stats(HashMap<String, String>);

impl Stats {
    /// Parses a `STATS` response body.
    #[must_use]
    pub fn parse(body: &str) -> Self {
        Self(parse_stats_body(body))
    }

    /// A numeric counter, or `None` when absent or not a number.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key)?.parse().ok()
    }

    /// `self[key] − before[key]`, when both report it.
    #[must_use]
    pub fn delta(&self, before: &Stats, key: &str) -> Option<f64> {
        Some(self.get(key)? - before.get(key)?)
    }
}

/// One connection to the server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the request instead of hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self { stream })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// I/O errors, a closed connection, or an undecodable response.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        write_frame(&mut self.stream, encode_request(request).as_bytes())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        let text = String::from_utf8(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Response::decode(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// `STATS`, parsed (empty on failure, so every counter reads absent).
    pub fn stats(&mut self) -> Stats {
        match self.call(&Request::Stats) {
            Ok(Response::Ok { body, .. }) => Stats::parse(&body),
            _ => Stats::default(),
        }
    }
}

/// A persistent stop-and-go drive streamed by `FRAME`s, with the checked
/// lines of a direct `model_run_on_frame` of every frame.
pub struct FrameDrive {
    /// The request template (its `index` is set per call).
    pub request: FrameRequest,
    /// Per frame: the `model=`, `frame=`, `layers=` and `encoder_macs=`
    /// lines a correct response carries.
    pub expected: Vec<[String; 4]>,
}

impl FrameDrive {
    /// Builds the drive and its per-frame references.
    #[must_use]
    pub fn new(
        name: &str,
        model: ModelKind,
        scale: WorkloadScale,
        frames: usize,
        seed: u64,
    ) -> Self {
        let request = FrameRequest {
            drive: name.to_owned(),
            scenario: NamedScenario::StopAndGo,
            model,
            scale,
            seed,
            frames,
            index: 0,
        };
        let config = request.scenario.config(frames, seed);
        let preset = preset_for(model);
        let expected = DriveScenario::new(preset.clone(), config.clone())
            .frames()
            .iter()
            .map(|f| {
                let run = model_run_on_frame(
                    model,
                    &preset,
                    &f.frame,
                    config.pruning_seed(f.index),
                    scale,
                    PruningConfig::default(),
                );
                [
                    format!("model={}", run.kind.name()),
                    format!("frame={}/{frames}", f.index),
                    format!("layers={}", run.workloads.len()),
                    format!("encoder_macs={}", run.encoder_macs),
                ]
            })
            .collect();
        Self { request, expected }
    }

    /// The `FRAME` request for frame `index`.
    #[must_use]
    pub fn at(&self, index: usize) -> Request {
        Request::Frame(FrameRequest {
            index,
            ..self.request.clone()
        })
    }

    /// Whether a `FRAME` response body carries frame `index`'s reference
    /// lines. Delta-only lines are not compared.
    #[must_use]
    pub fn check(&self, index: usize, response: &Response) -> bool {
        let Response::Ok { body, .. } = response else {
            return false;
        };
        let expected = &self.expected[index];
        expected.iter().all(|want| {
            let key = want.split('=').next().unwrap_or_default();
            body.lines()
                .find(|l| l.split('=').next() == Some(key))
                .is_some_and(|l| l == want)
        })
    }
}

/// A request's measured outcome.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    ms: f64,
    ok: bool,
    rank: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Warm,
    Frame,
}

/// Set-up state of `serve-mix`.
struct Mix {
    catalog: Vec<DseParams>,
    reference_csv: Vec<String>,
    direct_ms: Vec<f64>,
    drives: Vec<FrameDrive>,
    server: Server,
    clients: Vec<Client>,
}

fn catalog(seed: u64) -> Vec<DseParams> {
    (0..CATALOG)
        .map(|rank| DseParams {
            base_seed: derive_seed(seed, 1000 + rank as u64),
            ..DseParams::default_for(WorkloadScale::Reduced)
        })
        .collect()
}

fn start_server(cache_bytes: usize) -> std::io::Result<Server> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: WORKERS,
        sweep_jobs: 1,
        budget_tokens: WORKERS - 1,
        cache_bytes,
    })
}

fn setup(seed: u64, out: &mut Outcome) -> std::io::Result<Mix> {
    let catalog = catalog(seed);
    let mut reference_csv = Vec::new();
    let mut direct_ms = Vec::new();
    let mut result_bytes = 0;
    for p in &catalog {
        let canonical = canonicalize_params(p);
        let (csv, dt) = timed(|| run_dse(&canonical).to_csv());
        result_bytes += csv.len() + spade_bench::cache_key(&canonical).len();
        reference_csv.push(csv);
        direct_ms.push(dt.as_secs_f64() * 1e3);
    }
    let drives: Vec<FrameDrive> = DRIVE_MODELS
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            FrameDrive::new(
                &format!("drive-{i}"),
                m,
                WorkloadScale::Full,
                DRIVE_FRAMES,
                derive_seed(seed, 2000 + i as u64),
            )
        })
        .collect();
    let server = start_server((result_bytes as f64 * CACHE_SHARE) as usize)?;
    // Warm-up, outside the measured loop: frame 0 of each drive (the
    // server generates a drive on its first FRAME) and one sweep.
    let warm_up = |out: &mut Outcome| -> std::io::Result<Vec<Client>> {
        let mut clients = (0..WORKERS)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<std::io::Result<Vec<_>>>()?;
        for (client, drive) in clients.iter_mut().zip(&drives) {
            let r = client.call(&drive.at(0))?;
            out.record(drive.check(0, &r));
        }
        let r = clients[0].call(&Request::Sweep(catalog[0].clone()))?;
        out.record(matches!(&r, Response::Ok { body, .. } if *body == reference_csv[0]));
        Ok(clients)
    };
    let clients = match warm_up(out) {
        Ok(clients) => clients,
        Err(e) => {
            stop(server);
            return Err(e);
        }
    };
    Ok(Mix {
        catalog,
        reference_csv,
        direct_ms,
        drives,
        server,
        clients,
    })
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

impl Mix {
    /// Closes the connections, stops the server and waits for its
    /// threads, returning the catalog and drives.
    fn close(self) -> (Vec<DseParams>, Vec<FrameDrive>) {
        drop(self.clients);
        stop(self.server);
        (self.catalog, self.drives)
    }
}

/// Replays `seq` on one connection from request `next` until `deadline`;
/// returns the samples and the index of the next request.
fn lane(
    client: &mut Client,
    (seq, next): (&[Req], usize),
    catalog: &[DseParams],
    reference_csv: &[String],
    drive: &FrameDrive,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, usize) {
    let mut samples = Vec::new();
    let mut next = next;
    for (i, &req) in seq.iter().cycle().enumerate().skip(next) {
        if Instant::now() >= deadline {
            break;
        }
        next = i + 1;
        if let Some(t) = tracer {
            t.set_op(i as u64);
        }
        let (request, name) = match req {
            Req::Sweep(rank) => (Request::Sweep(catalog[rank].clone()), "serve.sweep"),
            Req::Frame(index) => (drive.at(index), "serve.frame"),
        };
        let call = || client.call(&request);
        let (response, dt) = match tracer {
            Some(t) => timed(|| t.span(name, call)),
            None => timed(call),
        };
        let ms = dt.as_secs_f64() * 1e3;
        let io_failed = response.is_err();
        let (class, ok, rank) = match (req, response) {
            (Req::Sweep(rank), Ok(r)) => {
                let warm = r.meta_field("hit") == Some("1") || r.meta_field("join") == Some("1");
                let ok = matches!(&r, Response::Ok { body, .. } if *body == reference_csv[rank]);
                (if warm { Class::Warm } else { Class::Cold }, ok, rank)
            }
            (Req::Sweep(rank), Err(_)) => (Class::Cold, false, rank),
            (Req::Frame(index), Ok(r)) => (Class::Frame, drive.check(index, &r), 0),
            (Req::Frame(_), Err(_)) => (Class::Frame, false, 0),
        };
        let sample = Sample {
            class,
            ms,
            ok,
            rank,
        };
        samples.push(sample);
        if io_failed && client.call(&Request::Ping).is_err() {
            break;
        }
    }
    (samples, next)
}

/// Runs both connections until `deadline`, continuing each sequence at
/// `next`; traced from `epoch` when given. Returns the samples and each
/// connection's spans.
fn run_window(
    mix: &mut Mix,
    seqs: &[Vec<Req>],
    next: &mut [usize],
    deadline: Instant,
    epoch: Option<Instant>,
) -> (Vec<Sample>, Vec<Vec<Span>>) {
    let (catalog, refs) = (&mix.catalog, &mix.reference_csv);
    let lanes: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mix
            .clients
            .iter_mut()
            .zip(seqs)
            .zip(next.iter_mut())
            .zip(&mix.drives)
            .map(|(((client, seq), at), drive)| {
                scope.spawn(move || {
                    let tracer = epoch.map(Tracer::new);
                    let (samples, resume_at) = lane(
                        client,
                        (seq, *at),
                        catalog,
                        refs,
                        drive,
                        deadline,
                        tracer.as_ref(),
                    );
                    *at = resume_at;
                    (samples, tracer.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    });
    let (samples, spans): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
    (samples.concat(), spans)
}

/// Runs `serve-mix` for `seconds`, traced or not.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // An untraced run pauses for the host probe before and after set-up
    // and between windows of load; a traced run is one window.
    let mut probe = if trace {
        None
    } else {
        match HostProbe::start(&mut out) {
            Some(probe) => Some(probe),
            None => return out,
        }
    };
    let mut setup_s = Vec::new();
    let mut mix: Option<Mix> = None;
    while more_setups(&setup_s) {
        if let Some(m) = mix.take() {
            m.close();
        }
        let (m, dt) = timed(|| setup(seed, &mut out));
        setup_s.push(dt.as_secs_f64());
        match m {
            Ok(m) => mix = Some(m),
            Err(e) => {
                out.record(false);
                out.note(format!("set-up failed: {e}"));
            }
        }
    }
    let Some(mut mix) = mix else {
        return out;
    };
    out.note(format!(
        "catalog: {CATALOG} reduced sweeps, {} frame drives of {DRIVE_FRAMES} frames, 1 FRAME in {FRAME_EVERY}",
        mix.drives.len()
    ));
    let before = mix.clients[0].stats();
    let epoch = Instant::now();
    let seqs: Vec<Vec<Req>> = (0..WORKERS)
        .map(|lane| request_sequence(seed, lane, 100_000, CATALOG, DRIVE_FRAMES))
        .collect();
    let mut next = vec![0; WORKERS];
    let mut samples = Vec::new();
    let mut windows = Vec::new();
    let mut spans: Vec<Vec<Span>> = vec![Vec::new(); WORKERS];
    let mut paused = probe.as_mut().map_or(Ok(()), HostProbe::pause);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while paused.is_ok() && Instant::now() < deadline {
        let start = Instant::now();
        let window_end = match probe {
            Some(_) => deadline.min(start + PAUSE_EVERY),
            None => deadline,
        };
        let (s, lane_spans) = run_window(
            &mut mix,
            &seqs,
            &mut next,
            window_end,
            trace.then_some(epoch),
        );
        windows.push(Window {
            ops: s.len(),
            busy_s: start.elapsed().as_secs_f64(),
            sweep_ms: s
                .iter()
                .filter(|s| s.class == Class::Cold)
                .map(|s| s.ms)
                .collect(),
        });
        samples.extend(s);
        for (all, s) in spans.iter_mut().zip(lane_spans) {
            all.extend(s);
        }
        if let Some(p) = probe.as_mut() {
            paused = p.pause();
        }
    }
    if let Err(e) = paused {
        out.record(false);
        out.note(format!("host probe failed: {e}"));
    }
    let after = mix.clients[0].stats();
    for s in &samples {
        out.record(s.ok);
    }
    let of = |c: Class| {
        samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.ms)
            .collect::<Vec<_>>()
    };
    let (cold, warm, frame) = (of(Class::Cold), of(Class::Warm), of(Class::Frame));
    for (name, v) in [
        ("cold sweep", &cold),
        ("warm sweep", &warm),
        ("frame", &frame),
    ] {
        out.percentile_note(name, v);
    }
    match probe {
        Some(probe) => {
            mix.close();
            push_end_to_end(&mut out, &probe.finish(), &setup_s, &windows);
        }
        None => {
            let direct: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == Class::Cold)
                .map(|s| mix.direct_ms[s.rank])
                .collect();
            let overhead = median(&cold).zip(median(&direct)).map(|(c, d)| c - d);
            for m in serve_metrics(&before, &after, overhead, &warm, &frame) {
                out.push(m);
            }
            for (i, lane_spans) in spans.iter().enumerate() {
                out.spans.push_str(&crate::trace::to_json_lines(
                    lane_spans,
                    &format!("client-{i}"),
                ));
            }
            let (catalog, drives) = mix.close();
            layer_pass(&catalog[0], &drives, seconds, &mut out);
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

/// The `serve.*` per-layer metrics from `STATS` deltas and client timings.
fn serve_metrics(
    before: &Stats,
    after: &Stats,
    cold_overhead_ms: Option<f64>,
    warm: &[f64],
    frame: &[f64],
) -> Vec<Metric> {
    let hits = after.delta(before, "cache_hits");
    let requested = after.delta(before, "sweeps_requested");
    let hit_rate = hits
        .zip(requested)
        .map(|(h, r)| if r > 0.0 { h / r } else { 0.0 });
    vec![
        Metric::from_samples(
            "serve.hit_rate",
            "frac",
            hit_rate,
            requested.unwrap_or(0.0) as usize,
        ),
        Metric::from_samples(
            "serve.sweeps_executed",
            "count",
            after.delta(before, "sweeps_executed"),
            1,
        ),
        Metric::from_samples(
            "serve.dedup_joined",
            "count",
            after.delta(before, "dedup_joined"),
            1,
        ),
        Metric::from_samples("serve.cache_bytes", "bytes", after.get("cache_bytes"), 1),
        Metric::from_samples("serve.streams", "count", after.get("streams"), 1),
        Metric::from_samples("serve.cold_overhead_ms", "ms", cold_overhead_ms, 1),
        Metric::from_samples("serve.warm_p50_ms", "ms", median(warm), warm.len()),
        Metric::from_samples("serve.warm_p90_ms", "ms", percentile(warm, 0.9), warm.len()),
        Metric::from_samples("serve.frame_p50_ms", "ms", median(frame), frame.len()),
        Metric::from_samples(
            "serve.frame_p90_ms",
            "ms",
            percentile(frame, 0.9),
            frame.len(),
        ),
    ]
}

/// The traced layer pass of `serve-mix`: the hottest catalog sweep
/// alternately untraced and traced, then a direct traced execution of both
/// drives' frames, with the nn replay and the bound probe.
fn layer_pass(hottest: &DseParams, drives: &[FrameDrive], seconds: u64, out: &mut Outcome) {
    let tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let reference = run_dse_with_jobs(hottest, 1);
    let case = SweepCase {
        cells: crate::sweep::expected_cells(hottest),
        reference_csv: reference.to_csv(),
        reference,
        params: hottest.clone(),
    };
    let deadline = Instant::now() + Duration::from_secs(seconds.div_ceil(4));
    let (runs, times) = traced_pass(&case, &tracer, &mut tally, out, deadline, 3);
    for drive in drives {
        let r = &drive.request;
        let config = r.scenario.config(r.frames, r.seed);
        let preset = preset_for(r.model);
        let frames = traced_frames(&tracer, &mut tally, &preset, &config);
        let runs = traced_runs(&tracer, r.model, &preset, &frames, &config, r.scale);
        for (i, run) in runs.iter().enumerate() {
            out.record(drive.expected[i][2] == format!("layers={}", run.workloads.len()));
        }
        let d = DriveRuns {
            kind: r.model,
            drive: config,
            frames: 0,
            runs,
        };
        tally.replay_nn(&tracer, &d, &frames);
    }
    tally.probe_bound(&tracer, hottest, &runs, 256);
    crate::finish_trace(out, tracer, &tally, &times.traced_ms, &times.untraced_ms);
}

/// The `serve.*` layer for a sweep workload's traced run: the workload's
/// own sweep sent once cold and ten times warm through an in-process
/// server, and a short stop-and-go drive of its first model streamed by
/// `FRAME`s. `direct_ms` is the untraced jobs=1 sweep time the cold
/// request is compared with.
pub fn serve_probe(case: &SweepCase, direct_ms: f64, out: &mut Outcome) {
    let p = &case.params;
    let drive = FrameDrive::new(
        "probe",
        p.models[0],
        p.scale,
        4,
        derive_seed(p.base_seed, 3000),
    );
    let mut run = || -> std::io::Result<Vec<Metric>> {
        let server = start_server(64 << 20)?;
        let mut client = Client::connect(server.local_addr())?;
        let before = client.stats();
        let request = Request::Sweep(p.clone());
        // The server executes the canonical form of the sweep, whose cell
        // order follows the sorted axes.
        let canonical = canonicalize_params(p);
        let expected = if canonical == *p {
            case.reference_csv.clone()
        } else {
            run_dse(&canonical).to_csv()
        };
        let mut sweep = |client: &mut Client| -> std::io::Result<f64> {
            let (r, dt) = timed(|| client.call(&request));
            let r = r?;
            out.record(matches!(&r, Response::Ok { body, .. } if *body == expected));
            Ok(dt.as_secs_f64() * 1e3)
        };
        let cold = sweep(&mut client)?;
        let warm = (0..10)
            .map(|_| sweep(&mut client))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut frame = Vec::new();
        for i in 0..drive.expected.len() {
            let (r, dt) = timed(|| client.call(&drive.at(i)));
            out.record(drive.check(i, &r?));
            frame.push(dt.as_secs_f64() * 1e3);
        }
        let after = client.stats();
        drop(client);
        stop(server);
        Ok(serve_metrics(
            &before,
            &after,
            Some(cold - direct_ms),
            &warm,
            &frame,
        ))
    };
    match run() {
        Ok(metrics) => {
            for m in metrics {
                out.push(m);
            }
        }
        Err(e) => {
            out.record(false);
            out.note(format!("serve probe failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_sequence_is_a_function_of_the_seed() {
        let a = request_sequence(7, 0, 400, CATALOG, DRIVE_FRAMES);
        assert_eq!(a, request_sequence(7, 0, 400, CATALOG, DRIVE_FRAMES));
        assert_ne!(a, request_sequence(8, 0, 400, CATALOG, DRIVE_FRAMES));
        assert_ne!(
            a,
            request_sequence(7, 1, 400, CATALOG, DRIVE_FRAMES),
            "lanes differ"
        );
        let frames: Vec<usize> = a
            .iter()
            .filter_map(|r| match r {
                Req::Frame(i) => Some(*i),
                Req::Sweep(_) => None,
            })
            .collect();
        assert_eq!(frames.len(), 400 / FRAME_EVERY);
        assert_eq!(
            &frames[..7],
            &[1, 2, 3, 4, 5, 0, 1],
            "frames step the drive in order"
        );
        assert!(a
            .iter()
            .all(|r| !matches!(r, Req::Sweep(k) if *k >= CATALOG)));
    }

    #[test]
    fn stats_report_missing_keys_as_absent() {
        let s = Stats::parse("cache_hits=5\nsweeps_requested=8\ncache_hit_rate=0.625\nnot a pair");
        assert_eq!(s.get("cache_hits"), Some(5.0));
        assert_eq!(s.get("delta_frames_total"), None);
        let before = Stats::parse("cache_hits=2\nsweeps_requested=3");
        assert_eq!(s.delta(&before, "cache_hits"), Some(3.0));
        assert_eq!(s.delta(&before, "cache_hit_rate"), None, "absent before");
        assert_eq!(Stats::default().get("streams"), None);
    }

    #[test]
    fn frame_checks_ignore_delta_only_lines() {
        let drive = FrameDrive {
            request: FrameRequest {
                drive: "d".into(),
                scenario: NamedScenario::StopAndGo,
                model: ModelKind::Spp2,
                scale: WorkloadScale::Reduced,
                seed: 1,
                frames: 1,
                index: 0,
            },
            expected: vec![[
                "model=SPP2".into(),
                "frame=0/1".into(),
                "layers=9".into(),
                "encoder_macs=100".into(),
            ]],
        };
        let ok = Response::ok(
            "index=0",
            "model=SPP2\nframe=0/1\nlayers=9\nencoder_macs=100",
        );
        let with_delta = Response::ok(
            "index=0 delta=1",
            "model=SPP2\nframe=0/1\nlayers=9\nencoder_macs=100\nlayers_reused=4\nrows_swept=3",
        );
        let wrong = Response::ok(
            "index=0",
            "model=SPP2\nframe=0/1\nlayers=8\nencoder_macs=100",
        );
        assert!(drive.check(0, &ok));
        assert!(drive.check(0, &with_delta));
        assert!(!drive.check(0, &wrong));
        assert!(!drive.check(0, &Response::Err("boom".into())));
    }
}
