//! Integration tests of the serving layer, end-to-end over a real
//! loopback socket: canonical byte-identity of served sweeps, the result
//! cache, in-flight dedupe of concurrent duplicates, malformed-frame
//! resilience, persistent-world `FRAME` streams, and the closed-loop
//! load generator's measured hit-rate against its analytic expectation.

use spade::core::DataflowOptions;
use spade::nn::{ModelKind, PruningConfig};
use spade::pointcloud::{DatasetPreset, DriveScenario, NamedScenario};
use spade_bench::dse::{run_dse, DseParams, SweepAxes};
use spade_bench::loadgen::{expected_hit_rate, run_loadgen, zipf_weights, LoadgenConfig};
use spade_bench::protocol::{
    canonicalize_params, decode_request, encode_request, read_frame, write_frame, FrameRequest,
    Request, Response,
};
use spade_bench::serve::parse_stats_body;
use spade_bench::workload::model_run_on_frame;
use spade_bench::{ServeConfig, Server, WorkloadScale};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

/// A deliberately small sweep (4 configurations × 3 frames × 1 model)
/// that still takes long enough in a debug build for concurrent
/// duplicates to overlap in flight.
fn small_params() -> DseParams {
    let mut params = DseParams::default_for(WorkloadScale::Reduced);
    params.axes = SweepAxes {
        pe_dims: vec![(16, 16), (64, 64)],
        sram_scales: vec![0.5, 1.0],
        freq_ghz: vec![1.0],
        dram_bytes_per_cycle: vec![25.6],
        buffer_splits: vec![0.0],
        sram_banks: vec![spade::core::GATHER_SCATTER_LANES],
        dataflow: vec![DataflowOptions::all_enabled()],
    };
    params.num_frames = 3;
    params
}

/// The smallest useful sweep (1 configuration × 2 frames), for the
/// 200-request load-generator smoke.
fn tiny_params(seed_offset: u64) -> DseParams {
    let mut params = small_params();
    params.axes.pe_dims = vec![(32, 32)];
    params.axes.sram_scales = vec![1.0];
    params.num_frames = 2;
    params.base_seed += seed_offset;
    params
}

fn test_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        sweep_jobs: 2,
        budget_tokens: 2,
        cache_bytes: 8 * 1024 * 1024,
    })
    .expect("bind test server")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to test server");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn send(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, encode_request(request).as_bytes()).expect("send request");
    let reply = read_frame(stream)
        .expect("read response")
        .expect("server closed connection");
    Response::decode(std::str::from_utf8(&reply).expect("UTF-8 response")).expect("valid response")
}

fn stats(stream: &mut TcpStream) -> std::collections::HashMap<String, String> {
    match send(stream, &Request::Stats) {
        Response::Ok { body, .. } => parse_stats_body(&body),
        Response::Err(message) => panic!("STATS failed: {message}"),
    }
}

#[test]
fn served_sweep_is_byte_identical_to_direct_execution_and_caches() {
    let server = test_server();
    let mut client = connect(&server);

    // Spell the request in a scrambled axis order: the server must execute
    // the canonical form, so the reply matches a direct canonical run byte
    // for byte.
    let mut params = small_params();
    params.axes.pe_dims.reverse();
    params.axes.sram_scales.reverse();
    let direct = run_dse(&canonicalize_params(&params)).to_csv();

    let cold = send(&mut client, &Request::Sweep(params.clone()));
    match &cold {
        Response::Ok { body, .. } => assert_eq!(body, &direct, "served CSV differs from direct"),
        Response::Err(message) => panic!("cold SWEEP failed: {message}"),
    }
    assert_eq!(cold.meta_field("hit"), Some("0"));

    // The warm repeat — spelled in yet another axis order — is a cache hit
    // with the identical body.
    let mut respelled = params.clone();
    respelled.models.push(respelled.models[0]); // duplicate, canonically equal
    let warm = send(&mut client, &Request::Sweep(respelled));
    match &warm {
        Response::Ok { body, .. } => assert_eq!(body, &direct),
        Response::Err(message) => panic!("warm SWEEP failed: {message}"),
    }
    assert_eq!(warm.meta_field("hit"), Some("1"));

    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_requested").map(String::as_str),
        Some("2")
    );
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some("1")
    );
    assert_eq!(counters.get("cache_hits").map(String::as_str), Some("1"));

    server.shutdown();
    server.join();
}

#[test]
fn served_adaptive_sweep_matches_direct_execution_and_exports_counters() {
    let server = test_server();
    let mut client = connect(&server);

    // An adaptive request with the new axes swept: the cold-path execution
    // goes through the screening explorer, and the reply must still be
    // byte-identical to a direct canonical adaptive run.
    let mut params = small_params();
    params.axes.buffer_splits = vec![0.0, 0.25, 0.75];
    params.axes.sram_banks = vec![spade::core::GATHER_SCATTER_LANES, 4];
    params.adaptive = true;
    let direct = run_dse(&canonicalize_params(&params));

    let cold = send(&mut client, &Request::Sweep(params.clone()));
    match &cold {
        Response::Ok { body, .. } => {
            assert_eq!(body, &direct.to_csv(), "served adaptive CSV differs");
        }
        Response::Err(message) => panic!("adaptive SWEEP failed: {message}"),
    }
    assert_eq!(cold.meta_field("hit"), Some("0"));

    // The exhaustive spelling of the same grid keys a *different* cache
    // entry (its export bytes differ), so it executes rather than hits.
    params.adaptive = false;
    let exhaustive = send(&mut client, &Request::Sweep(params));
    assert_eq!(exhaustive.meta_field("hit"), Some("0"));

    // STATS aggregates the explorer's budget counters across executed
    // sweeps: the adaptive run screened some cells, the exhaustive run
    // contributed simulated cells only.
    let counters = stats(&mut client);
    let count = |key: &str| -> usize {
        counters
            .get(key)
            .unwrap_or_else(|| panic!("STATS missing {key}: {counters:?}"))
            .parse()
            .expect("numeric counter")
    };
    assert!(count("cells_screened") > 0);
    assert_eq!(
        count("cells_screened") + count("cells_simulated"),
        direct.cells.len() * 2,
        "both executed sweeps contribute their cells: {counters:?}"
    );
    assert!(count("frames_saved") >= count("cells_screened"));

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_identical_requests_execute_the_sweep_exactly_once() {
    const CLIENTS: usize = 4;
    let server = test_server();
    let params = small_params();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut bodies: Vec<(String, Option<String>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut client = connect(&server);
                let barrier = Arc::clone(&barrier);
                let params = params.clone();
                scope.spawn(move || {
                    barrier.wait();
                    match send(&mut client, &Request::Sweep(params)) {
                        Response::Ok { meta, body } => {
                            let hit = meta
                                .split(' ')
                                .find_map(|t| t.strip_prefix("hit="))
                                .map(str::to_owned);
                            (body, hit)
                        }
                        Response::Err(message) => panic!("SWEEP failed: {message}"),
                    }
                })
            })
            .collect();
        for handle in handles {
            bodies.push(handle.join().expect("client thread"));
        }
    });

    // Everyone got the same bytes...
    let reference = &bodies[0].0;
    assert!(!reference.is_empty());
    assert!(bodies.iter().all(|(body, _)| body == reference));
    // ...but the sweep ran once: the others either joined the in-flight
    // execution or (if they raced in after completion) hit the cache.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some("1"),
        "N identical concurrent requests must execute one sweep: {counters:?}"
    );
    assert_eq!(
        counters.get("sweeps_requested").map(String::as_str),
        Some(format!("{CLIENTS}").as_str())
    );

    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_get_error_replies_without_killing_the_server() {
    let server = test_server();
    let mut client = connect(&server);

    // Unknown verb.
    write_frame(&mut client, b"NUKE the grid").expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // Not even UTF-8.
    write_frame(&mut client, &[0xff, 0xfe, 0x00, 0x9f]).expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // Malformed SWEEP params.
    let sweep = send(
        &mut client,
        &Request::Sweep(small_params()), // control: well-formed works...
    );
    assert!(matches!(sweep, Response::Ok { .. }));
    write_frame(&mut client, b"SWEEP scale=banana").expect("send");
    let reply = read_frame(&mut client).expect("read").expect("open");
    let response = Response::decode(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, Response::Err(_)), "{response:?}");

    // The same connection still serves requests afterwards, and the error
    // count is visible in STATS.
    let pong = send(&mut client, &Request::Ping);
    assert!(matches!(pong, Response::Ok { .. }), "{pong:?}");
    let counters = stats(&mut client);
    assert_eq!(counters.get("errors").map(String::as_str), Some("3"));

    // Fresh connections are unaffected too.
    let mut second = connect(&server);
    assert!(matches!(
        send(&mut second, &Request::Ping),
        Response::Ok { .. }
    ));

    server.shutdown();
    server.join();
}

#[test]
fn frame_stream_matches_direct_execution() {
    const FRAMES: usize = 6;
    let server = test_server();
    let mut client = connect(&server);

    // Direct reference: the FRAME body of each frame of the same drive,
    // executed locally.
    let scenario = NamedScenario::Tunnel;
    let seed = 11u64;
    let config = scenario.config(FRAMES, seed);
    let drive = DriveScenario::new(DatasetPreset::kitti_like(), config.clone());
    let reference: Vec<String> = drive
        .frames()
        .iter()
        .map(|frame| {
            let run = model_run_on_frame(
                ModelKind::Spp2,
                &DatasetPreset::kitti_like(),
                &frame.frame,
                config.pruning_seed(frame.index),
                WorkloadScale::Reduced,
                PruningConfig::default(),
            );
            format!(
                "model={}\nframe={}/{FRAMES}\nlayers={}\nencoder_macs={}",
                run.kind.name(),
                frame.index,
                run.workloads.len(),
                run.encoder_macs
            )
        })
        .collect();
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats_keys.txt"),
    )
    .expect("tests/golden/stats_keys.txt is committed");
    let golden_keys: Vec<&str> = golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let frame = |index| {
        Request::Frame(FrameRequest {
            drive: "veh-1".to_owned(),
            scenario,
            model: ModelKind::Spp2,
            scale: WorkloadScale::Reduced,
            seed,
            frames: FRAMES,
            index,
        })
    };

    // Served over one (drive, model) key: in order, out of order, and
    // repeated. Execution is stateless per frame, so the order of requests
    // never changes a reply.
    let order: Vec<usize> = (0..FRAMES).chain([5, 2, 0, 3, 3, 3, 1]).collect();
    for &index in &order {
        let response = send(&mut client, &frame(index));
        assert_eq!(
            response,
            Response::ok(format!("index={index}"), &reference[index]),
            "frame {index}"
        );
        let Response::Ok { body, .. } = &response else {
            unreachable!("compared to an OK above");
        };
        for key in parse_stats_body(body).keys() {
            assert!(
                golden_keys.contains(&key.as_str()),
                "key {key} not in golden"
            );
        }
    }

    // Out-of-range index is an error, not a crash.
    let bad = send(&mut client, &frame(FRAMES));
    assert!(matches!(bad, Response::Err(_)), "{bad:?}");

    let counters = stats(&mut client);
    assert_eq!(
        counters.get("frames_served").map(String::as_str),
        Some(order.len().to_string().as_str())
    );
    assert_eq!(counters.get("streams").map(String::as_str), Some("1"));

    server.shutdown();
    server.join();
}

/// Regression test for the admission/stats lock ordering: concurrent
/// `FRAME` requests for the *same* drive used to take the global state
/// lock and the per-stream lock in opposite orders, wedging every handler
/// thread. All clients hammer one (drive, model) key at once; the test
/// passing at all (rather than hanging) is the assertion that matters.
#[test]
fn concurrent_frames_for_the_same_drive_do_not_deadlock() {
    const CLIENTS: usize = 4;
    const FRAMES: usize = 4;
    let server = test_server();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let server = &server;
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = connect(server);
                barrier.wait();
                for index in 0..FRAMES {
                    let response = send(
                        &mut client,
                        &Request::Frame(FrameRequest {
                            drive: "shared-drive".to_owned(),
                            scenario: NamedScenario::Tunnel,
                            model: ModelKind::Spp2,
                            scale: WorkloadScale::Reduced,
                            seed: 7,
                            frames: FRAMES,
                            index,
                        }),
                    );
                    assert!(
                        matches!(response, Response::Ok { .. }),
                        "client {client_id} frame {index}: {response:?}"
                    );
                }
            });
        }
    });

    // Every request landed on the one shared stream.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("frames_served").map(String::as_str),
        Some(format!("{}", CLIENTS * FRAMES).as_str())
    );
    assert_eq!(counters.get("streams").map(String::as_str), Some("1"));

    server.shutdown();
    server.join();
}

#[test]
fn loadgen_hit_rate_matches_the_zipfian_analytic_expectation() {
    const REQUESTS: usize = 200;
    const CATALOG: usize = 5;
    const ZIPF: f64 = 1.0;
    let server = test_server();

    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: 1, // sequential: every repeat is a true cache hit
        requests: REQUESTS,
        catalog: (0..CATALOG as u64).map(tiny_params).collect(),
        zipf_exponent: ZIPF,
        seed: 42,
    };
    let report = run_loadgen(&config).expect("loadgen run");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(report.errors, 0);

    let expected = expected_hit_rate(&zipf_weights(CATALOG, ZIPF), REQUESTS);
    assert!(
        (report.hit_rate - expected).abs() < 0.05,
        "measured hit-rate {:.3} vs analytic {expected:.3}",
        report.hit_rate
    );
    // Warm requests are served from memory; cold ones execute a sweep. Even
    // in a debug build the gap is at least an order of magnitude, so a lax
    // ordering assertion is safe.
    assert!(
        report.warm_p99_ms < report.cold_p50_ms,
        "warm p99 {:.3} ms should undercut cold p50 {:.3} ms",
        report.warm_p99_ms,
        report.cold_p50_ms
    );

    // The server agrees: exactly CATALOG sweeps executed, the rest hits.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    assert_eq!(
        counters.get("sweeps_executed").map(String::as_str),
        Some(format!("{CATALOG}").as_str())
    );

    server.shutdown();
    server.join();
}

/// The PR-8 join reconciliation: under concurrency the dedupe path converts
/// would-be cache hits into in-flight joins (`join=1`), which used to drag
/// the measured hit-rate below the analytic expectation by exactly the join
/// count. Counting joins as warm, the identity is exact: warm requests =
/// requests − sweeps the server actually executed, whatever the
/// interleaving, so the warm rate matches the analytic expectation to the
/// same tolerance as the sequential test.
#[test]
fn loadgen_warm_rate_counts_joins_under_concurrency() {
    const REQUESTS: usize = 200;
    const CATALOG: usize = 5;
    const ZIPF: f64 = 1.0;
    let server = test_server();

    let config = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: 4, // concurrent: repeats may hit the cache OR join
        requests: REQUESTS,
        catalog: (0..CATALOG as u64).map(tiny_params).collect(),
        zipf_exponent: ZIPF,
        seed: 42,
    };
    let report = run_loadgen(&config).expect("loadgen run");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(report.errors, 0);

    let expected = expected_hit_rate(&zipf_weights(CATALOG, ZIPF), REQUESTS);
    assert!(
        (report.hit_rate - expected).abs() < 0.05,
        "measured warm rate {:.3} (joins {}) vs analytic {expected:.3}",
        report.hit_rate,
        report.joined
    );

    // Exact ledger: every request either executed a sweep or was warm.
    let mut client = connect(&server);
    let counters = stats(&mut client);
    let executed: usize = counters
        .get("sweeps_executed")
        .expect("stats carry sweeps_executed")
        .parse()
        .expect("numeric counter");
    let warm = (report.hit_rate * REQUESTS as f64).round() as usize;
    assert_eq!(
        warm,
        REQUESTS - executed,
        "warm count must equal requests minus executed sweeps (joins {})",
        report.joined
    );

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_verb_stops_the_server_cleanly() {
    let server = test_server();
    let mut client = connect(&server);
    // A request first, so shutdown happens on a warmed-up server.
    assert!(matches!(
        send(&mut client, &Request::Ping),
        Response::Ok { .. }
    ));
    let bye = send(&mut client, &Request::Shutdown);
    assert!(matches!(bye, Response::Ok { .. }), "{bye:?}");
    // join() returns because every handler thread observes the flag.
    server.join();
}

#[test]
fn request_encoding_round_trips_over_the_public_surface() {
    // Belt-and-braces for the binaries: the exact request the loadgen
    // sends parses back to itself (the property tests fuzz this; here it
    // guards the re-exported API shape).
    let request = Request::Sweep(tiny_params(3));
    let encoded = encode_request(&request);
    assert_eq!(decode_request(&encoded).expect("decode"), request);
}
