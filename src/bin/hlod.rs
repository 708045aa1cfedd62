//! `hlod` — the persistent optimization daemon.
//!
//! ```text
//! hlod [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!      [--max-payload BYTES] [--deadline-ms N]
//!      [--pgo-threshold MILLIS] [--pgo-cap N] [--pgo-store PATH]
//!      [--log PATH] [--log-stderr]
//!      [--slow-ms N] [--flight-cap N]
//! hlod --version
//! ```
//!
//! Runs in the foreground, serving framed optimize requests (see
//! `crates/serve`) until a client sends a `shutdown` frame; in-flight
//! requests are drained before exit. Pair with `hloc remote <addr>`.

use aggressive_inlining::serve::{ServeConfig, Server};
use std::process::ExitCode;

/// Compile-time capabilities baked into this binary; the workspace has no
/// optional cargo features, so the list is static.
const FEATURES: &str = "serve pgo clone outline sim lint";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hlod: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7457".to_string();
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match a.as_str() {
            "--version" | "-V" => {
                println!("hlod {} (features: {FEATURES})", env!("CARGO_PKG_VERSION"));
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" | "help" => {
                print_help();
                return Ok(ExitCode::SUCCESS);
            }
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_string())?
            }
            "--queue" => {
                cfg.queue_cap = value("--queue")?
                    .parse()
                    .map_err(|_| "bad --queue value".to_string())?
            }
            "--cache" => {
                cfg.cache_cap = value("--cache")?
                    .parse()
                    .map_err(|_| "bad --cache value".to_string())?
            }
            "--max-payload" => {
                cfg.max_payload = value("--max-payload")?
                    .parse()
                    .map_err(|_| "bad --max-payload value".to_string())?
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms value".to_string())?,
                )
            }
            "--pgo-threshold" => {
                cfg.pgo_threshold_millis = value("--pgo-threshold")?
                    .parse()
                    .map_err(|_| "bad --pgo-threshold value".to_string())?
            }
            "--pgo-cap" => {
                cfg.pgo_cap = value("--pgo-cap")?
                    .parse()
                    .map_err(|_| "bad --pgo-cap value".to_string())?
            }
            "--pgo-store" => {
                cfg.pgo_store_path = Some(std::path::PathBuf::from(value("--pgo-store")?))
            }
            "--log" => cfg.event_log_path = Some(std::path::PathBuf::from(value("--log")?)),
            "--log-stderr" => cfg.log_stderr = true,
            "--slow-ms" => {
                cfg.slow_ms = Some(
                    value("--slow-ms")?
                        .parse()
                        .map_err(|_| "bad --slow-ms value".to_string())?,
                )
            }
            "--flight-cap" => {
                cfg.flight_cap = value("--flight-cap")?
                    .parse()
                    .map_err(|_| "bad --flight-cap value".to_string())?
            }
            other => return Err(format!("unknown option `{other}`; try `hlod --help`")),
        }
    }
    let banner_cfg = cfg.clone();
    let server = Server::spawn(addr.as_str(), cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    aggressive_inlining::serve::server::banner(server.local_addr(), &banner_cfg);
    server.wait();
    eprintln!("hlod: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

fn print_help() {
    println!(
        "hlod — persistent HLO optimization daemon

USAGE:
  hlod [OPTIONS]

OPTIONS:
  --addr HOST:PORT     listen address (default: 127.0.0.1:7457)
  --workers N          optimize requests run at once, each on the thread
                       of its connection (default: 0 = all cores)
  --queue N            optimize requests that may wait for a slot; one
                       more is answered busy (default: 64)
  --cache N            cached program results, LRU past this (default: 128)
  --max-payload BYTES  largest accepted request frame (default: 16 MiB)
  --deadline-ms N      default per-request deadline (default: none)
  --pgo-threshold M    profile-drift score (thousandths, 0-1000) past which
                       a cached `profile: server` result is re-optimized
                       (default: 250)
  --pgo-cap N          profile aggregates kept, LRU past this (default: 64)
  --pgo-store PATH     persist the profile store to PATH (crash-safe
                       write+rename; reloaded on startup)
  --log PATH           append structured events (crash-safe, one per line)
  --log-stderr         also mirror structured events to stderr
  --slow-ms N          wall-time bound; slower requests are logged and the
                       flight recorder is auto-dumped (default: off)
  --flight-cap N       request summaries in the flight recorder (default: 256)
  --version            print version and enabled features

Stop it with `hloc remote <addr> shutdown`; admitted requests are answered
first."
    );
}
