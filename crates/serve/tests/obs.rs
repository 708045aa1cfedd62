//! End-to-end daemon observability: request-scoped tracing, the
//! structured event log, the flight recorder, latency quantiles, and the
//! determinism gate proving traced content is identical across worker
//! counts.

use hlo_serve::{
    mint_trace_id, Client, OptimizeRequest, ProfilePushRequest, ProfileSpec, ServeConfig,
    ServeError, ServeStats, Server, TraceFetchReply,
};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const SOURCES: &[(&str, &str)] = &[(
    "m",
    "static fn sq(x) { return x * x; }
     static fn cube(x) { return sq(x) * x; }
     fn main() { var s = 0;
         for (var i = 0; i < 20; i = i + 1) { s = s + cube(i); }
         return s; }",
)];

fn minc_request() -> OptimizeRequest {
    OptimizeRequest::from_minc(
        SOURCES
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
    )
}

/// A scratch file path that cleans up after itself.
struct TempLog(PathBuf);

impl TempLog {
    fn new(tag: &str) -> TempLog {
        TempLog(std::env::temp_dir().join(format!(
            "hlo-obs-{}-{tag}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        )))
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn traced_request_round_trips_spans_flight_and_chrome() {
    let log = TempLog::new("traced");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            // A zero threshold plants slowness: every request must be
            // flagged slow and auto-dump the flight recorder.
            slow_ms: Some(0),
            event_log_path: Some(log.0.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let id = mint_trace_id();
    let mut req = minc_request();
    req.trace_id = Some(id.clone());
    let resp = client.optimize(&req).unwrap();
    assert_eq!(
        resp.trace_id.as_deref(),
        Some(id.as_str()),
        "daemon must echo the client-minted trace id"
    );
    assert!(!resp.outcome.hit);

    // The span tree names the request and the per-phase leaves, and the
    // phases sum exactly to the reported wall time.
    let trace = client.trace_fetch(&id).unwrap();
    assert_eq!(trace.trace_id, id);
    assert!(
        trace.spans.starts_with(&format!("request:{id}\n")),
        "{}",
        trace.spans
    );
    for phase in ["queue_wait", "compile", "cache_probe", "optimize", "reply"] {
        assert!(
            trace.spans.contains(phase),
            "missing {phase}:\n{}",
            trace.spans
        );
        assert!(
            trace.phases.iter().any(|(p, _)| p == phase),
            "no {phase} timing in {:?}",
            trace.phases
        );
    }
    let sum: u64 = trace.phases.iter().map(|(_, us)| us).sum();
    assert_eq!(sum, trace.wall_us, "phases must sum to the wall time");
    assert_eq!(trace.cache, resp.outcome.to_text());

    // The Chrome export passes the same schema gate `tier2 trace-schema`
    // applies, and is pure ASCII (hostile names are escaped).
    let events = hlo::validate_chrome_trace(&trace.chrome).unwrap();
    assert!(events > 4, "expected a real span tree, got {events} events");
    assert!(trace.chrome.is_ascii());

    // The flight recorder holds the request, keyed by the trace id.
    let (dump, admitted) = client.flight_dump().unwrap();
    assert_eq!(admitted, 1);
    let records = hlo::parse_flight_dump(&dump).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].trace_id, id);
    assert_eq!(records[0].kind, "optimize");
    assert_eq!(records[0].outcome, "miss");

    // Stats and quantiles reflect the one served request.
    let st = client.stats().unwrap();
    assert_eq!(st.requests, 1);
    assert_eq!(st.slow_requests, 1, "slow-ms 0 flags every request");
    assert_eq!(st.traces_stored, 1);
    assert_eq!(st.flight_records, 1);
    assert!(st.events_emitted > 0);
    assert_eq!(st.quantiles.len(), 5);
    let optimize_q = st.quantiles.iter().find(|(p, ..)| p == "optimize").unwrap();
    let optimize_lat = st.latencies.iter().find(|(p, ..)| p == "optimize").unwrap();
    // One observation: every quantile is that observation, within the
    // sketch's documented overshoot bound.
    let truth = optimize_lat.2;
    for q in [optimize_q.1, optimize_q.2, optimize_q.3] {
        assert!(
            q >= truth,
            "quantile {q} undershoots the observation {truth}"
        );
        assert!(
            q <= truth + truth * hlo::SKETCH_ERROR_PERCENT / 100 + 1,
            "quantile {q} overshoots {truth} past the documented bound"
        );
    }

    // The quantile gauges surface in the metrics exposition.
    let metrics = client.metrics().unwrap();
    for phase in ["queue_wait", "compile", "cache_probe", "optimize", "reply"] {
        for p in ["p50", "p95", "p99"] {
            assert!(
                metrics.contains(&format!("request_{phase}_{p}_us")),
                "missing request_{phase}_{p}_us in exposition"
            );
        }
    }

    // An id the daemon never saw is a clean error.
    match client.trace_fetch("00000000000000ee") {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("no stored trace"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.wait();

    // The event log saw the whole story: request lifecycle, the planted
    // slowness, the auto-dumped flight record, and the drain.
    let text = std::fs::read_to_string(&log.0).unwrap();
    for needle in [
        "info request.start",
        "request.finish",
        "warn request.slow",
        "warn flight.dump",
        "info daemon.drain",
        &format!("id={id}")[..],
    ] {
        assert!(text.contains(needle), "event log lacks `{needle}`:\n{text}");
    }
    // Every line round-trips through the strict parser.
    for line in text.lines() {
        hlo::Event::parse(line).unwrap_or_else(|e| panic!("bad event line `{line}`: {e}"));
    }
}

#[test]
fn refusals_and_evictions_reach_the_event_log_and_flight_recorder() {
    let log = TempLog::new("refuse");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            cache_cap: 1,
            event_log_path: Some(log.0.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two distinct programs through a one-entry cache: the second insert
    // evicts the first.
    client.optimize(&minc_request()).unwrap();
    let other = OptimizeRequest::from_minc(vec![(
        "m".to_string(),
        "fn main() { return 41; }".to_string(),
    )]);
    client.optimize(&other).unwrap();

    let (dump, admitted) = client.flight_dump().unwrap();
    assert_eq!(admitted, 2);
    assert_eq!(hlo::parse_flight_dump(&dump).unwrap().len(), 2);

    client.shutdown().unwrap();
    server.wait();
    let text = std::fs::read_to_string(&log.0).unwrap();
    assert!(text.contains("cache.evict"), "no eviction event:\n{text}");
}

/// Strips every measured number from a span tree + decision report pair:
/// span names and decisions carry no timings by construction, so the
/// content is compared verbatim. (The Chrome export carries real `ts`
/// values and is deliberately excluded.)
fn traced_content(t: &TraceFetchReply) -> (String, String, String, Vec<String>) {
    (
        t.spans.clone(),
        t.decisions.clone(),
        t.cache.clone(),
        t.phases.iter().map(|(p, _)| p.clone()).collect(),
    )
}

#[test]
fn traced_content_is_identical_across_worker_counts() {
    // The determinism gate, extended to observability: the same requests
    // through a 1-worker and a 4-worker daemon must produce byte-identical
    // span trees, decision reports, cache outcomes, and (after timestamp
    // normalization) event logs. One client sends one request at a time,
    // so the event order does not depend on how many requests may run.
    let run = |workers: usize, log: &TempLog| {
        let server = Server::spawn(
            "127.0.0.1:0",
            ServeConfig {
                workers,
                event_log_path: Some(log.0.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut traces = Vec::new();
        for (i, id) in ["00000000000000a1", "00000000000000a2"].iter().enumerate() {
            let mut req = minc_request();
            req.trace_id = Some(id.to_string());
            // Second request is a warm hit; both phases of the cache are
            // exercised under tracing.
            let resp = client.optimize(&req).unwrap();
            assert_eq!(resp.outcome.hit, i == 1);
            traces.push(client.trace_fetch(id).unwrap());
        }
        client.shutdown().unwrap();
        server.wait();
        let text = std::fs::read_to_string(&log.0).unwrap();
        (traces, hlo::normalize_log(&text))
    };

    let log1 = TempLog::new("workers1");
    let log4 = TempLog::new("workers4");
    let (traces1, events1) = run(1, &log1);
    let (traces4, events4) = run(4, &log4);

    for (a, b) in traces1.iter().zip(&traces4) {
        assert_eq!(
            traced_content(a),
            traced_content(b),
            "traced content differs between 1 and 4 workers"
        );
    }
    assert_eq!(
        events1, events4,
        "normalized event logs differ between 1 and 4 workers"
    );
}

#[test]
fn stats_equals_the_rendered_exposition_after_every_counter_moves() {
    // One slot, one waiting ticket and a zero slow threshold, so a burst
    // is shed as busy and every finished request counts as slow.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            slow_ms: Some(0),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // A stale hit and a push: build in server mode, push a profile (a
    // cold-start drift), build again.
    let mut server_req = minc_request();
    server_req.profile = ProfileSpec::Server;
    client.optimize(&server_req).unwrap();
    client
        .profile_push(&ProfilePushRequest {
            program: hlo_pgo::program_key(&hlo_frontc::compile(SOURCES).unwrap()),
            delta: "func m sq 900\nblocks 900\nend\n".to_string(),
            advance: 0,
        })
        .unwrap();
    assert!(client.optimize(&server_req).unwrap().outcome.stale);
    // An ineligible fallback: outline builds are whole-program.
    let mut outlined = minc_request();
    outlined.options.enable_outline = true;
    assert!(client.optimize(&outlined).unwrap().outcome.incr_fallback);
    // A training run, which records the labeled `vm_exec_us{tier=…}`
    // histogram that `stats` must still parse.
    let mut train = minc_request();
    train.train_arg = Some(7);
    assert!(client.optimize(&train).unwrap().train.is_some());
    // An error, and a deadline that expires the moment it is queued.
    let broken = OptimizeRequest::from_minc(vec![("m".to_string(), "fn main( {".to_string())]);
    assert!(matches!(
        client.optimize(&broken),
        Err(ServeError::Remote(_))
    ));
    let mut late = minc_request();
    late.deadline_ms = Some(0);
    match client.optimize(&late) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("deadline"), "{msg}"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    // Busy: bursts of distinct cold builds, released together, until one
    // request finds the queue full.
    let mut shed = 0;
    for round in 0..50 {
        let barrier = Arc::new(Barrier::new(8));
        let burst: Vec<_> = (0..8)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let source = SOURCES[0]
                        .1
                        .replace("20", &format!("{}", 100 + round * 8 + i));
                    let req = OptimizeRequest::from_minc(vec![("m".to_string(), source)]);
                    barrier.wait();
                    c.optimize(&req)
                })
            })
            .collect();
        for h in burst {
            match h.join().unwrap() {
                Ok(_) => {}
                Err(ServeError::Busy) => shed += 1,
                Err(e) => panic!("unexpected failure in a burst: {e}"),
            }
        }
        if shed > 0 {
            break;
        }
    }
    assert!(shed > 0, "no burst was ever shed");

    let st = client.stats().unwrap();
    let exposition = client.metrics().unwrap();
    let rendered = hlo_serve::server::stats_text(&exposition, st.uptime_ms).unwrap();
    assert_eq!(ServeStats::from_text(&rendered).unwrap(), st);

    assert_eq!(st.busy, shed);
    assert_eq!((st.errors, st.deadline_missed), (1, 1));
    assert_eq!(
        (st.stale_hits, st.reoptimizations, st.pgo_pushes),
        (1, 1, 1)
    );
    assert_eq!(st.incr_fallbacks, 1);
    assert!(st.slow_requests >= 4, "{st:?}");
    assert!(!st.stages.is_empty());
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn daemon_metric_name_set_is_pinned() {
    // Golden test: the set of metric base names a standard request
    // sequence produces. A new daemon metric (or a renamed one) must
    // update this list — dashboards key on these names.
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = minc_request();
    req.trace_id = Some(mint_trace_id());
    client.optimize(&req).unwrap();
    client.optimize(&minc_request()).unwrap(); // warm hit
    let exposition = client.metrics().unwrap();
    client.shutdown().unwrap();
    server.wait();

    let mut names: Vec<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "cache_entries",
            "cache_evictions",
            "cache_func_hits_total",
            "cache_func_misses_total",
            "cache_hits_total",
            "cache_misses_total",
            "cache_module_hits_total",
            "cache_resident_bytes",
            "cache_source_hits_total",
            "events_emitted",
            "flight_records",
            "incr_partition_hits_total",
            "incr_partition_rebuilds_total",
            "partition_entries",
            "pgo_programs",
            "pgo_resident_bytes",
            "request_cache_probe_p50_us",
            "request_cache_probe_p95_us",
            "request_cache_probe_p99_us",
            "request_cache_probe_us",
            "request_compile_p50_us",
            "request_compile_p95_us",
            "request_compile_p99_us",
            "request_compile_us",
            "request_optimize_p50_us",
            "request_optimize_p95_us",
            "request_optimize_p99_us",
            "request_optimize_us",
            "request_queue_wait_p50_us",
            "request_queue_wait_p95_us",
            "request_queue_wait_p99_us",
            "request_queue_wait_us",
            "request_reply_p50_us",
            "request_reply_p95_us",
            "request_reply_p99_us",
            "request_reply_us",
            "requests_total",
            "stage_wall_us_total",
            "traces_stored",
        ],
        "daemon metric-name set changed — update this golden list \
         deliberately, dashboards depend on it"
    );
}
