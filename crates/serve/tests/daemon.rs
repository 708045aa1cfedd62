//! End-to-end daemon tests: real sockets, hostile clients, graceful drain.

use hlo_serve::wire::{Frame, Kind, HEADER_LEN, MAGIC, VERSION};
use hlo_serve::{
    Client, OptimizeRequest, ProfilePushRequest, ProfileSpec, ServeConfig, ServeError, Server,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SOURCES: &[(&str, &str)] = &[(
    "m",
    "static fn sq(x) { return x * x; }
     static fn cube(x) { return sq(x) * x; }
     fn main() { var s = 0;
         for (var i = 0; i < 20; i = i + 1) { s = s + cube(i); }
         return s; }",
)];

fn spawn_default() -> Server {
    Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap()
}

fn minc_request() -> OptimizeRequest {
    OptimizeRequest::from_minc(
        SOURCES
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
    )
}

#[test]
fn optimize_roundtrip_matches_in_process_and_warms_the_cache() {
    let server = spawn_default();
    let addr = server.local_addr();

    // The ground truth: optimize the same program in-process.
    let mut program = hlo_frontc::compile(SOURCES).unwrap();
    let opts = hlo::HloOptions::default();
    let report = hlo::optimize(&mut program, None, &opts);
    let expect_ir = hlo_ir::program_to_text(&program);

    let mut client = Client::connect(addr).unwrap();
    let cold = client.optimize(&minc_request()).unwrap();
    assert!(!cold.outcome.hit, "first request must be a miss");
    assert_eq!(
        cold.ir_text, expect_ir,
        "daemon output differs from in-process"
    );
    assert_eq!(cold.report.inlines, report.inlines);
    assert_eq!(cold.report.final_cost, report.final_cost);

    let warm = client.optimize(&minc_request()).unwrap();
    assert!(warm.outcome.hit, "identical request must be a pure lookup");
    assert_eq!(
        warm.ir_text, cold.ir_text,
        "warm response must be byte-identical"
    );
    assert_eq!(
        warm.outcome.func_misses, 0,
        "no cone key may be new on a warm hit"
    );
    assert!(warm.outcome.func_hits > 0);

    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn callee_edit_invalidates_exactly_the_dependent_cones() {
    // Two independent call chains under main. Warm the cache, then edit
    // only one leaf: the per-function cone accounting must report misses
    // for exactly that leaf's dependence cone (leaf_a, mid_a, main) and
    // hits for the untouched chain (leaf_b, mid_b).
    let v1 = "global acc;
              static fn leaf_a(x) { return x + 1; }
              static fn mid_a(x) { return leaf_a(x) * 2; }
              static fn leaf_b(x) { return x - 1; }
              static fn mid_b(x) { return leaf_b(x) * 3; }
              fn main() { return mid_a(4) + mid_b(5); }";
    let v2 = "global acc;
              static fn leaf_a(x) { acc = acc + x; return x + 1; }
              static fn mid_a(x) { return leaf_a(x) * 2; }
              static fn leaf_b(x) { return x - 1; }
              static fn mid_b(x) { return leaf_b(x) * 3; }
              fn main() { return mid_a(4) + mid_b(5); }";
    let req_of = |src: &str| OptimizeRequest::from_minc(vec![("m".to_string(), src.to_string())]);

    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let cold = client.optimize(&req_of(v1)).unwrap();
    assert!(!cold.outcome.hit);
    let warm = client.optimize(&req_of(v1)).unwrap();
    assert!(warm.outcome.hit);
    assert_eq!(warm.outcome.func_misses, 0);
    assert_eq!(warm.outcome.func_hits, 5);

    let edited = client.optimize(&req_of(v2)).unwrap();
    assert!(!edited.outcome.hit, "edited program must re-optimize");
    assert_eq!(
        edited.outcome.func_misses, 3,
        "exactly leaf_a, mid_a and main are in the edited cone"
    );
    assert_eq!(
        edited.outcome.func_hits, 2,
        "leaf_b and mid_b keys must survive the edit"
    );

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn fuzz_generated_programs_round_trip_byte_identical() {
    // The cache key must be a pure function of (sources, options): for
    // arbitrary generated programs the daemon's cold answer equals a
    // fresh in-process optimize byte for byte, and the warm answer is a
    // pure lookup returning the same bytes.
    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    for seed in 0..8u64 {
        let sources = hlo_fuzz::gen::generate_sources(seed, &hlo_fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let mut program = hlo_frontc::compile(&refs).unwrap();
        hlo::optimize(&mut program, None, &hlo::HloOptions::default());
        let expect_ir = hlo_ir::program_to_text(&program);

        let req = OptimizeRequest::from_minc(sources.clone());
        let cold = client.optimize(&req).unwrap();
        assert!(!cold.outcome.hit, "seed {seed}: first sight must miss");
        assert_eq!(
            cold.ir_text, expect_ir,
            "seed {seed}: daemon differs from in-process optimize"
        );

        let warm = client.optimize(&req).unwrap();
        assert!(warm.outcome.hit, "seed {seed}: repeat must be a cache hit");
        assert_eq!(
            warm.ir_text, cold.ir_text,
            "seed {seed}: warm response not byte-identical"
        );
        assert_eq!(warm.outcome.func_misses, 0, "seed {seed}: warm cone miss");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.hits, 8);
    assert_eq!(stats.misses, 8);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn train_arg_runs_the_optimized_program_on_the_bytecode_tier() {
    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // No training run requested: no `train` line in the response.
    let plain = client.optimize(&minc_request()).unwrap();
    assert_eq!(plain.train, None);

    // Ground truth: optimize in-process and run on the bytecode tier.
    let mut program = hlo_frontc::compile(SOURCES).unwrap();
    hlo::optimize(&mut program, None, &hlo::HloOptions::default());
    let opts = hlo_vm::ExecOptions {
        tier: hlo_vm::Tier::Bytecode,
        ..Default::default()
    };
    let out = hlo_vm::run_program(&program, &[7], &opts).unwrap();

    let mut req = minc_request();
    req.train_arg = Some(7);
    let resp = client.optimize(&req).unwrap();
    assert!(resp.outcome.hit, "train run must not perturb the cache key");
    assert_eq!(
        resp.train.as_deref(),
        Some(
            format!(
                "ret {} retired {} output {} checksum {:#x}",
                out.ret,
                out.retired,
                out.output.len(),
                out.checksum
            )
            .as_str()
        )
    );

    // The run fed the daemon's per-tier VM metrics.
    let metrics = client.metrics().unwrap();
    assert_eq!(
        series(&metrics, "vm_runs_total{tier=\"bytecode\"}"),
        Some(1)
    );
    assert_eq!(
        series(&metrics, "vm_instructions_total{tier=\"bytecode\"}"),
        Some(out.retired as i64)
    );
    // `stats` still parses the exposition with that labeled histogram.
    assert_eq!(client.stats().unwrap().requests, 2);

    client.shutdown().unwrap();
    server.wait();
}

/// Pulls one series value out of a Prometheus exposition.
fn series(text: &str, name: &str) -> Option<i64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
}

#[test]
fn metrics_exposition_parses_and_counters_move_cold_to_warm() {
    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let cold = client.optimize(&minc_request()).unwrap();
    assert!(!cold.outcome.hit);
    let after_cold = client.metrics().unwrap();

    // Structural check: every line is a `# TYPE` comment or `series value`,
    // and each base name is typed before its first sample.
    let mut typed = std::collections::HashSet::new();
    for line in after_cold.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut w = rest.split_whitespace();
            typed.insert(w.next().unwrap().to_string());
            assert!(
                matches!(w.next(), Some("counter" | "gauge" | "histogram")),
                "bad TYPE line: {line}"
            );
            continue;
        }
        let mut w = line.split_whitespace();
        let name = w.next().expect("non-empty line");
        w.next()
            .unwrap_or_else(|| panic!("series without value: {line}"))
            .parse::<i64>()
            .unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
        let base = name.split('{').next().unwrap();
        let base = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .unwrap_or(base);
        assert!(typed.contains(base), "untyped series `{name}`");
    }

    assert_eq!(series(&after_cold, "requests_total"), Some(1));
    assert_eq!(series(&after_cold, "cache_misses_total"), Some(1));
    assert_eq!(series(&after_cold, "cache_entries"), Some(1));
    assert!(series(&after_cold, "cache_resident_bytes").unwrap() > 0);
    assert_eq!(series(&after_cold, "request_optimize_us_count"), Some(1));
    assert_eq!(series(&after_cold, "request_queue_wait_us_count"), Some(1));
    assert_eq!(series(&after_cold, "request_cache_probe_us_count"), Some(1));

    let warm = client.optimize(&minc_request()).unwrap();
    assert!(warm.outcome.hit);
    let after_warm = client.metrics().unwrap();
    assert_eq!(series(&after_warm, "requests_total"), Some(2));
    assert_eq!(series(&after_warm, "cache_hits_total"), Some(1));
    assert_eq!(series(&after_warm, "cache_misses_total"), Some(1));
    // A hit never runs the optimizer, so that histogram must not move.
    assert_eq!(series(&after_warm, "request_optimize_us_count"), Some(1));
    assert_eq!(series(&after_warm, "request_cache_probe_us_count"), Some(2));

    // The same numbers surface through `stats` as occupancy + latencies.
    let stats = client.stats().unwrap();
    assert!(stats.cache_bytes > 0);
    let queue_wait = stats
        .latencies
        .iter()
        .find(|(p, _, _)| p == "queue_wait")
        .expect("queue_wait latency line");
    assert_eq!(queue_wait.1, 2);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn malformed_and_oversized_frames_get_an_error_not_a_crash() {
    let server = spawn_default();
    let addr = server.local_addr();

    // Garbage magic: daemon answers with an error frame and hangs up.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reply = Frame::read_from(&mut raw, 1 << 20).unwrap();
    assert_eq!(reply.kind, Kind::Error);
    // The daemon hangs up after the error (FIN, or RST if our garbage had
    // unread bytes left); either way no further frame arrives.
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty());

    // Announcing an absurd payload length is rejected before allocation.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.push(Kind::Optimize as u8);
    header.push(0);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(header.len(), HEADER_LEN);
    raw.write_all(&header).unwrap();
    let reply = Frame::read_from(&mut raw, 1 << 20).unwrap();
    assert_eq!(reply.kind, Kind::Error);

    // A structurally valid optimize frame with an undecodable payload gets
    // a per-request error and the connection stays usable.
    let mut client = Client::connect(addr).unwrap();
    let mut bogus = Frame::bare(Kind::Optimize);
    bogus.payload = b"not sections at all".to_vec();
    // Reach into the stream via a raw frame write on a fresh connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    bogus.write_to(&mut raw).unwrap();
    let reply = Frame::read_from(&mut raw, 1 << 20).unwrap();
    assert_eq!(reply.kind, Kind::Error);

    // The daemon survived all three abuses.
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn client_disconnect_mid_request_does_not_kill_the_daemon() {
    let server = spawn_default();
    let addr = server.local_addr();

    // Half a header, then hang up.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&MAGIC[..2]).unwrap();
    drop(raw);

    // A full optimize request, then hang up without reading the reply:
    // the connection thread still runs it; the write to the dead socket
    // is swallowed.
    let mut raw = TcpStream::connect(addr).unwrap();
    Frame::new(Kind::Optimize, &minc_request().to_sections())
        .write_to(&mut raw)
        .unwrap();
    drop(raw);

    // Give the abandoned job time to finish, then prove the daemon is
    // healthy and that the abandoned request warmed the cache. The miss
    // is counted when the job starts and the entry appears when it ends,
    // so wait for the entry.
    let mut client = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().unwrap();
        if stats.entries >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned job never ran"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = client.optimize(&minc_request()).unwrap();
    assert!(
        resp.outcome.hit,
        "abandoned request should have filled the cache"
    );

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn concurrent_clients_all_get_correct_byte_identical_answers() {
    let server = spawn_default();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.optimize(&minc_request()).unwrap().ir_text
            })
        })
        .collect();
    let texts: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for t in &texts[1..] {
        assert_eq!(*t, texts[0]);
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.hits + stats.misses, 8);
    assert!(stats.misses >= 1);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    // One slot and a deep line: stack up several requests, shut down once
    // the daemon has admitted all of them, and require every response to
    // arrive.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.optimize(&minc_request())
            })
        })
        .collect();
    // `requests` counts a request once it is admitted.
    let mut watcher = Client::connect(addr).unwrap();
    let give_up = Instant::now() + Duration::from_secs(60);
    while watcher.stats().unwrap().requests < 4 {
        assert!(Instant::now() < give_up, "requests never admitted");
    }
    server.shutdown();
    server.wait();

    for h in handles {
        let resp = h.join().unwrap().expect("an admitted request is answered");
        assert!(!resp.ir_text.is_empty());
    }

    // The listener is gone.
    assert!(
        Client::connect(addr).is_err() || {
            // Accept may race OS-side; a connected socket must at least be
            // dead on arrival.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

fn busy_backpressure(workers: usize, queue_cap: usize) {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            queue_cap,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Flood with more concurrent requests than the running slots and the
    // waiting line can hold; every client must get either a result or a
    // clean Busy.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.optimize(&minc_request())
            })
        })
        .collect();
    let mut texts = Vec::new();
    let mut busy = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(resp) => texts.push(resp.ir_text),
            Err(ServeError::Busy) => busy += 1,
            Err(e) => panic!("unexpected failure under load: {e}"),
        }
    }
    let ok = texts.len() as u64;
    assert!(ok >= 1);
    assert_eq!(ok + busy, 6);
    assert!(texts.iter().all(|t| *t == texts[0]));

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.busy, busy);
    assert_eq!(stats.requests, ok);
    assert_eq!(stats.hits + stats.misses, stats.requests);
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn busy_backpressure_when_the_queue_is_full() {
    busy_backpressure(1, 1);
}

#[test]
fn busy_backpressure_with_two_slots_and_two_waiting() {
    busy_backpressure(2, 2);
}

/// The key the daemon computes for [`SOURCES`] at dequeue time; clients
/// derive the same key from a local compile.
fn sources_key() -> String {
    hlo_pgo::program_key(&hlo_frontc::compile(SOURCES).unwrap())
}

/// A hand-planted profile delta for [`SOURCES`] with a distinctive shape
/// (`sq` hot, `cube` warm) — hand-written so tests can plant *drift*, not
/// just presence.
const DELTA: &str = "func m cube 90\nblocks 90\nend\nfunc m sq 900\nblocks 900\nend\n";

#[test]
fn continuous_pgo_drift_triggers_reoptimization_and_noop_pushes_do_not() {
    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let mut server_req = minc_request();
    server_req.profile = ProfileSpec::Server;

    // Cold, no pushes: an empty aggregate must behave exactly like a
    // profile-free build.
    let mut plain = hlo_frontc::compile(SOURCES).unwrap();
    hlo::optimize(&mut plain, None, &hlo::HloOptions::default());
    let plain_ir = hlo_ir::program_to_text(&plain);

    let cold = client.optimize(&server_req).unwrap();
    assert!(!cold.outcome.hit);
    assert_eq!(cold.pgo, None, "no cached entry, so no drift verdict");
    assert_eq!(
        cold.ir_text, plain_ir,
        "empty aggregate must act as no profile"
    );

    // Warm, still no pushes: a plain hit with zero drift.
    let warm = client.optimize(&server_req).unwrap();
    assert!(warm.outcome.hit && !warm.outcome.stale);
    assert_eq!(warm.outcome.drift_millis, 0);
    assert!(
        warm.pgo
            .as_deref()
            .unwrap()
            .starts_with("pgo-profile-stable"),
        "{:?}",
        warm.pgo
    );

    // Push a profile: empty -> populated is total (cold-start) drift, so
    // the next server-mode build must re-optimize with the aggregate.
    let key = sources_key();
    let ack = client
        .profile_push(&ProfilePushRequest {
            program: key.clone(),
            delta: DELTA.to_string(),
            advance: 0,
        })
        .unwrap();
    assert_eq!((ack.pushes, ack.functions), (1, 2));

    let mut with_profile = hlo_frontc::compile(SOURCES).unwrap();
    let db = hlo_profile::ProfileDb::from_text(DELTA).unwrap();
    hlo::optimize(&mut with_profile, Some(&db), &hlo::HloOptions::default());
    let pgo_ir = hlo_ir::program_to_text(&with_profile);

    let stale = client.optimize(&server_req).unwrap();
    assert!(stale.outcome.stale && !stale.outcome.hit);
    assert_eq!(stale.outcome.drift_millis, 1000);
    assert!(
        stale.pgo.as_deref().unwrap().starts_with("pgo-cold-start"),
        "{:?}",
        stale.pgo
    );
    assert_eq!(
        stale.ir_text, pgo_ir,
        "stale rebuild must use the merged aggregate"
    );

    // Pushing the identical delta again doubles every count but moves no
    // shares — scaling-invariant drift stays 0 and the entry is served.
    client
        .profile_push(&ProfilePushRequest {
            program: key.clone(),
            delta: DELTA.to_string(),
            advance: 0,
        })
        .unwrap();
    let warm2 = client.optimize(&server_req).unwrap();
    assert!(warm2.outcome.hit && !warm2.outcome.stale);
    assert_eq!(warm2.outcome.drift_millis, 0);
    assert_eq!(warm2.ir_text, stale.ir_text);

    // Counters, stats and metrics all tell the same story.
    let st = client.stats().unwrap();
    assert_eq!(st.pgo_pushes, 2);
    assert_eq!(st.reoptimizations, 1);
    assert_eq!(st.stale_hits, 1);
    assert_eq!(st.hits, 2, "warm + warm2 (the stale hit was reclassified)");
    assert_eq!(st.misses, 1, "only the cold request was a true miss");
    assert_eq!(st.pgo_programs, 1);
    assert!(st.pgo_bytes > 0);

    let metrics = client.metrics().unwrap();
    assert_eq!(series(&metrics, "pgo_push_total"), Some(2));
    assert_eq!(series(&metrics, "pgo_reoptimize_total"), Some(1));
    assert_eq!(series(&metrics, "pgo_drift_millis_count"), Some(3));
    assert_eq!(series(&metrics, "pgo_programs"), Some(1));
    assert_eq!(series(&metrics, "cache_misses_total"), Some(1));

    // profile-stats names the program and returns the merged aggregate:
    // two identical pushes, same generation, so every count doubled.
    let reply = client.profile_stats(Some(&key)).unwrap();
    assert!(reply.text.contains("programs 1"), "{}", reply.text);
    assert!(
        reply.text.contains(&format!("program {key} 0 2 2")),
        "{}",
        reply.text
    );
    let merged = reply.profile.unwrap();
    assert!(merged.contains("func m sq 1800"), "{merged}");
    assert!(merged.contains("func m cube 180"), "{merged}");

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn profile_push_refusals_leave_the_store_unchanged() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            max_payload: 4096,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Register SOURCES and plant one good push as the baseline state.
    client.optimize(&minc_request()).unwrap();
    let key = sources_key();
    client
        .profile_push(&ProfilePushRequest {
            program: key.clone(),
            delta: DELTA.to_string(),
            advance: 0,
        })
        .unwrap();
    let baseline = client.profile_stats(None).unwrap();

    let push = |client: &mut Client, program: &str, delta: &str| {
        client.profile_push(&ProfilePushRequest {
            program: program.to_string(),
            delta: delta.to_string(),
            advance: 0,
        })
    };

    // Malformed delta.
    match push(&mut client, &key, "func truncated\n") {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("bad profile delta"), "{msg}"),
        other => panic!("malformed delta must be refused, got {other:?}"),
    }
    // Well-formed key the daemon has never optimized.
    match push(&mut client, "00000000deadbeef", DELTA) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("unknown program key"), "{msg}"),
        other => panic!("unknown key must be refused, got {other:?}"),
    }
    // Structurally invalid key.
    match push(&mut client, "not-a-key", DELTA) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("bad program key"), "{msg}"),
        other => panic!("bad key must be refused, got {other:?}"),
    }
    // A delta bigger than the daemon's frame bound is rejected before
    // allocation; the connection is dead afterwards, so reconnect.
    let huge = "func m sq 1\nblocks 1\nend\n".repeat(400);
    assert!(huge.len() > 4096);
    assert!(push(&mut client, &key, &huge).is_err());
    let mut client = Client::connect(addr).unwrap();

    // Hang up mid-push: a complete header announcing more payload than
    // ever arrives.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut partial = Vec::new();
    partial.extend_from_slice(&MAGIC);
    partial.extend_from_slice(&VERSION.to_le_bytes());
    partial.push(Kind::ProfilePush as u8);
    partial.push(0);
    partial.extend_from_slice(&1024u32.to_le_bytes());
    assert_eq!(partial.len(), HEADER_LEN);
    partial.extend_from_slice(b"program 16\n0123456789abcdef\n");
    raw.write_all(&partial).unwrap();
    drop(raw);

    // After every refusal the store reads back byte-identical.
    let after = client.profile_stats(None).unwrap();
    assert_eq!(after.text, baseline.text);
    assert_eq!(
        client.profile_stats(Some(&key)).unwrap().profile,
        Some(hlo_profile::ProfileDb::from_text(DELTA).unwrap().to_text()),
        "the one good push must be exactly what is resident"
    );
    let st = client.stats().unwrap();
    assert_eq!(st.pgo_pushes, 1);
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn queued_deadline_expiry_is_reported() {
    let server = spawn_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let mut req = minc_request();
    req.deadline_ms = Some(0); // expires the moment it is queued
    std::thread::sleep(Duration::from_millis(5));
    match client.optimize(&req) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("deadline"), "{msg}"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    client.shutdown().unwrap();
    server.wait();
}
