//! The SPADE sweep service: accepts `SWEEP` / `FRAME` / `STATS` requests
//! over a tiny length-prefixed TCP protocol, dedupes identical in-flight
//! sweeps, caches completed results, and executes persistent-world drives
//! frame by frame.
//!
//! Usage:
//!
//! ```text
//! spade-serve                          # bind 127.0.0.1:0 (ephemeral port)
//! spade-serve --addr 127.0.0.1:7454    # fixed port
//! spade-serve --threads 8 --jobs 4     # 8 handler threads, 4-wide sweeps
//! spade-serve --budget 3               # ≤3 extra worker threads in total
//! spade-serve --cache-mb 128           # result-cache byte bound
//! ```
//!
//! On startup the server prints `listening on <addr>` — scripts parse
//! that line to discover the ephemeral port. Send the `SHUTDOWN` verb
//! (e.g. via `spade-loadgen --shutdown`) for a clean exit.

use spade_bench::{ServeConfig, Server};

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} expects a value")))
}

fn int_value_of<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let raw = value_of(it, flag);
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects an integer, got '{raw}'")))
}

fn main() {
    let mut config = ServeConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = value_of(&mut it, "--addr"),
            "--threads" => config.threads = int_value_of(&mut it, "--threads"),
            "--jobs" => config.sweep_jobs = int_value_of(&mut it, "--jobs"),
            "--budget" => config.budget_tokens = int_value_of(&mut it, "--budget"),
            "--cache-mb" => {
                let mb: usize = int_value_of(&mut it, "--cache-mb");
                config.cache_bytes = mb * 1024 * 1024;
            }
            flag => usage_error(&format!("unknown flag: {flag}")),
        }
    }
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("failed to start: {e}");
        std::process::exit(1);
    });
    println!("listening on {}", server.local_addr());
    server.join();
    println!("shut down cleanly");
}
