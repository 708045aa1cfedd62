//! `serve_bench` — the daemon-path gate (`cargo servebench`).
//!
//! Replays all 14 suite programs through an in-process `hlo-serve`
//! daemon twice — cold, then warm — each with its trained profile
//! shipped over the wire. The replay runs [`REPEATS`] times, each on a
//! fresh daemon so cold stays cold. Three properties gate every repeat:
//!
//! 1. the daemon's cold output is **byte-identical** to a direct
//!    in-process `hlo::optimize` call with the same inputs;
//! 2. the warm replay is byte-identical to the cold one;
//! 3. the warm replay hits the cache on every program (100% hit rate —
//!    warm requests are pure lookups), and the daemon counts exactly one
//!    hit and one miss per program;
//! 4. every warm request is a source-index hit (the daemon counts one
//!    `source_hits` per program), so no warm request runs the front end.
//!
//! Latencies (median and min–max over the repeats) and the hit rate are
//! printed and written to `BENCH_serve.json`. Warm speedup on this suite
//! is large (lookups skip the optimizer entirely) but the gate is
//! identity, not speed.
//!
//! A fifth property gates the **edit-one-function** scenario, also
//! repeated on fresh daemons: after a single-constant edit to one module
//! of a many-module program, the daemon must splice every untouched
//! partition from its store (`partition_hits > 0`, `partition_rebuilds`
//! below the partition count, the same counts on every repeat) and
//! answer byte-identically to a from-scratch optimize; its median latency
//! must be at most half the median cold full-build latency. A second
//! edit, of another module, gates the parsed-module store: it must answer
//! byte-identically too, and take from the store every module the cold
//! build and the first edit both sent (`module_hits`, the same count on
//! every repeat).

use hlo::HloOptions;
use hlo_bench::{Spread, REPEATS};
use hlo_profile::collect_profile;
use hlo_serve::{
    mint_trace_id, Client, OptimizeRequest, ProfilePushRequest, ProfileSpec, ServeConfig, Server,
    SourceKind,
};
use hlo_vm::ExecOptions;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One suite program: its request and the in-process ground truth.
struct Case {
    name: &'static str,
    req: OptimizeRequest,
    expect_ir: String,
}

struct Row {
    name: &'static str,
    cold_identical: bool,
    warm_identical: bool,
    warm_hit: bool,
    cold_us: Vec<u64>,
    warm_us: Vec<u64>,
}

fn main() -> ExitCode {
    // Ground truth: the exact same inputs, optimized in-process once.
    let cases: Vec<Case> = hlo_suite::all_benchmarks()
        .iter()
        .map(|b| {
            let baseline = b.compile().expect("suite program compiles");
            let (db, _) = collect_profile(&baseline, &[b.train_arg], &ExecOptions::default())
                .expect("training run");
            let opts = HloOptions::default();
            let mut expect_program = baseline;
            let _ = hlo::optimize(&mut expect_program, Some(&db), &opts);
            Case {
                name: b.name,
                req: OptimizeRequest {
                    options: opts,
                    source: SourceKind::Minc(
                        b.sources
                            .iter()
                            .map(|(n, s)| (n.to_string(), s.to_string()))
                            .collect(),
                    ),
                    profile: ProfileSpec::Text(db.to_text()),
                    train_arg: None,
                    deadline_ms: None,
                    trace_id: None,
                },
                expect_ir: hlo_ir::program_to_text(&expect_program),
            }
        })
        .collect();
    let mut rows: Vec<Row> = cases
        .iter()
        .map(|c| Row {
            name: c.name,
            cold_identical: true,
            warm_identical: true,
            warm_hit: true,
            cold_us: Vec::new(),
            warm_us: Vec::new(),
        })
        .collect();

    println!(
        "serve_bench: suite through hlod, {REPEATS} repeats on fresh daemons \
         (gate: byte-identity + warm hits + warm source hits)"
    );
    let mut ok = true;
    let mut hits = 0;
    let mut source_hits = 0;
    for _ in 0..REPEATS {
        let server = match Server::spawn("127.0.0.1:0", ServeConfig::default()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve_bench: cannot spawn daemon: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut client =
            Client::connect(server.local_addr()).expect("connect to in-process daemon");
        for (row, case) in rows.iter_mut().zip(&cases) {
            let t = Instant::now();
            let cold = client.optimize(&case.req).expect("cold request");
            row.cold_us.push(t.elapsed().as_micros() as u64);
            let t = Instant::now();
            let warm = client.optimize(&case.req).expect("warm request");
            row.warm_us.push(t.elapsed().as_micros() as u64);
            row.cold_identical &= cold.ir_text == case.expect_ir && !cold.outcome.hit;
            row.warm_identical &= warm.ir_text == cold.ir_text;
            row.warm_hit &= warm.outcome.hit && warm.outcome.func_misses == 0;
        }
        let stats = client.stats().expect("stats request");
        let programs = cases.len() as u64;
        ok &= stats.hits == programs && stats.misses == programs;
        ok &= stats.source_hits == programs;
        hits += stats.hits;
        source_hits += stats.source_hits;
        client.shutdown().expect("shutdown");
        server.wait();
    }

    println!(
        "{:<14} {:>22} {:>22} {:>8} {:>5} {:>5}",
        "program", "cold us: med (range)", "warm us: med (range)", "speedup", "cold=", "warm="
    );
    hlo_bench::rule(82);
    for row in &rows {
        ok &= row.cold_identical && row.warm_identical && row.warm_hit;
        let (cold, warm) = (Spread::of(&row.cold_us), Spread::of(&row.warm_us));
        println!(
            "{:<14} {:>22} {:>22} {:>7.1}x {:>5} {:>5}",
            row.name,
            cold.to_string(),
            warm.to_string(),
            cold.median as f64 / warm.median.max(1) as f64,
            if row.cold_identical { "yes" } else { "NO" },
            if row.warm_identical && row.warm_hit {
                "yes"
            } else {
                "NO"
            }
        );
    }
    hlo_bench::rule(82);

    let hit_rate = hits as f64 / (REPEATS * cases.len()) as f64;
    let source_hit_rate = source_hits as f64 / (REPEATS * cases.len()) as f64;
    let total = |us: fn(&Row) -> &Vec<u64>| {
        let sums: Vec<u64> = (0..REPEATS)
            .map(|r| rows.iter().map(|row| us(row)[r]).sum())
            .collect();
        Spread::of(&sums)
    };
    let cold_total = total(|row| &row.cold_us);
    let warm_total = total(|row| &row.warm_us);
    println!(
        "total: {cold_total} us cold, {warm_total} us warm ({:.1}x on medians), \
         warm hit rate {:.0}%, warm source hit rate {:.0}%",
        cold_total.median as f64 / warm_total.median.max(1) as f64,
        hit_rate * 100.0,
        source_hit_rate * 100.0
    );

    let restart_warm = restart_warmth_probe();
    println!(
        "restart warmth: {}",
        if restart_warm { "yes" } else { "NO" }
    );
    ok &= restart_warm;

    let observable = observability_probe();
    println!("observability: {}", if observable { "yes" } else { "NO" });
    ok &= observable;

    let (edit_ok, edit) = warm_edit_probe();
    ok &= edit_ok;

    let json = render_json(
        hit_rate,
        source_hit_rate,
        cold_total,
        warm_total,
        restart_warm,
        &rows,
        &edit,
    );
    let path = "BENCH_serve.json";
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("serve_bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "serve_bench: IDENTITY OR HIT-RATE GATE FAILED — see rows marked NO \
             and the hit rates"
        );
        ExitCode::FAILURE
    }
}

/// Restart-warmth: a daemon given `--pgo-store` must come back up with
/// the exact profile state it went down with. Push a trained profile,
/// read back the store, restart on the same path, and require the stats
/// and merged-profile text to be byte-identical — then a server-mode
/// build on the fresh daemon must equal an in-process optimize with that
/// persisted aggregate (cold cache, warm store).
fn restart_warmth_probe() -> bool {
    let b = &hlo_suite::all_benchmarks()[0];
    let dir = std::env::temp_dir().join(format!("hlo-servebench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let path = dir.join("pgo-store.txt");
    let cfg = || ServeConfig {
        pgo_store_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let sources: Vec<(String, String)> = b
        .sources
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let baseline = b.compile().expect("suite program compiles");
    let key = hlo_pgo::program_key(&baseline);
    let (db, _) =
        collect_profile(&baseline, &[b.train_arg], &ExecOptions::default()).expect("training run");

    // First life: register the program (any optimize does) and push.
    let server = Server::spawn("127.0.0.1:0", cfg()).expect("spawn first daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let req = OptimizeRequest::from_minc(sources);
    client.optimize(&req).expect("registering optimize");
    client
        .profile_push(&ProfilePushRequest {
            program: key.clone(),
            delta: db.to_text(),
            advance: 0,
        })
        .expect("push");
    let before = client.profile_stats(Some(&key)).expect("stats before");
    client.shutdown().expect("shutdown");
    server.wait();

    // Second life, same path: state must read back byte-identical, and a
    // server-mode build must use the persisted aggregate.
    let server = Server::spawn("127.0.0.1:0", cfg()).expect("spawn second daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let after = client.profile_stats(Some(&key)).expect("stats after");
    let stats_identical = after.text == before.text && after.profile == before.profile;

    let mut expect = b.compile().expect("suite program compiles");
    let _ = hlo::optimize(&mut expect, Some(&db), &HloOptions::default());
    let expect_ir = hlo_ir::program_to_text(&expect);
    let mut sreq = req.clone();
    sreq.profile = ProfileSpec::Server;
    let resp = client.optimize(&sreq).expect("server-mode build");
    let build_warm = resp.ir_text == expect_ir;

    client.shutdown().expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&dir).ok();
    if !stats_identical {
        eprintln!("serve_bench: restarted store state is not byte-identical");
    }
    if !build_warm {
        eprintln!("serve_bench: post-restart server-mode build ignored the persisted profile");
    }
    stats_identical && build_warm
}

/// Observability probe: a traced request through a daemon whose slow
/// threshold is planted at 0 ms, so every request is "slow" and must
/// auto-dump the flight recorder. Gates: the daemon echoes the trace id,
/// the fetched trace's phases sum exactly to its reported wall time, the
/// flight dump names the request, and the daemon's event log saw the
/// planted slow request. The fetched Chrome JSON is written to
/// `BENCH_serve_trace.json` for CI to validate with `tier2 trace-schema`.
fn observability_probe() -> bool {
    let b = &hlo_suite::all_benchmarks()[0];
    let dir = std::env::temp_dir().join(format!("hlo-servebench-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let log_path = dir.join("events.log");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            slow_ms: Some(0),
            event_log_path: Some(log_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn observed daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let id = mint_trace_id();
    let mut req = OptimizeRequest::from_minc(
        b.sources
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
    );
    req.trace_id = Some(id.clone());
    let resp = client.optimize(&req).expect("traced request");
    let echoed = resp.trace_id.as_deref() == Some(id.as_str());

    let trace = client.trace_fetch(&id).expect("trace fetch");
    let phase_sum: u64 = trace.phases.iter().map(|(_, us)| us).sum();
    let phases_add_up = phase_sum == trace.wall_us && trace.wall_us > 0;
    let spans_named = trace.spans.contains(&format!("request:{id}"));
    if let Err(e) = std::fs::write("BENCH_serve_trace.json", &trace.chrome) {
        eprintln!("serve_bench: cannot write BENCH_serve_trace.json: {e}");
        return false;
    }
    println!("wrote BENCH_serve_trace.json");

    let (dump, admitted) = client.flight_dump().expect("flight dump");
    let flight_named = admitted > 0 && dump.contains(&format!("id={id}"));

    client.shutdown().expect("shutdown");
    server.wait();
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    let slow_logged = log.contains("request.slow") && log.contains("flight.dump");
    std::fs::remove_dir_all(&dir).ok();

    for (what, got) in [
        ("trace id echoed", echoed),
        ("trace phases sum to wall time", phases_add_up),
        ("span tree names the request", spans_named),
        ("flight dump names the request", flight_named),
        ("planted slow request reached the event log", slow_logged),
    ] {
        if !got {
            eprintln!("serve_bench: observability gate failed: {what}");
        }
    }
    echoed && phases_add_up && spans_named && flight_named && slow_logged
}

/// The edit-one-function scenario's measurements.
struct EditRow {
    cold_us: Spread,
    warm_us: Spread,
    partitions: u64,
    hits: u64,
    rebuilds: u64,
    /// Modules the second edit took from the parsed-module store.
    module_hits: u64,
    identical: bool,
}

/// The synthetic many-module program for the edit scenario: `modules`
/// independent modules (distinct cache partitions under module scope),
/// each with a leaf, a loop over it, and an entry. `bumped` selects one
/// module whose leaf constant is edited.
fn edit_sources(modules: usize, bumped: Option<usize>) -> Vec<(String, String)> {
    (0..modules)
        .map(|m| {
            let k = if bumped == Some(m) { 9 } else { 7 };
            let src = format!(
                "static fn m{m}_leaf(x) {{ return x * 2 + {k}; }}
                 static fn m{m}_mid(x) {{ var s = 0;
                     for (var i = 0; i < 8; i = i + 1) {{ s = s + m{m}_leaf(x + i); }}
                     return s; }}
                 fn m{m}_entry(n) {{ return m{m}_mid(n) + m{m}_leaf(n); }}"
            );
            (format!("m{m}"), src)
        })
        .collect()
}

/// Edit-one-function: on a fresh daemon per repeat, cold-build a
/// 12-module program, edit one constant in one module, and require every
/// warm rebuild to splice (hits > 0, rebuilds < partitions, the same
/// counts each repeat) and to match a from-scratch optimize byte for
/// byte; the median warm latency must be at most half the median cold
/// one. Then edit another module of the base program: that request must
/// match a from-scratch optimize too and take 10 of its 12 modules from
/// the parsed-module store. A module is stored on its second sighting, so
/// the store holds the 11 modules the cold build and the first edit share;
/// the second edit sends 10 of them, the first edit's module as the base
/// had it (seen once), and its own edit.
fn warm_edit_probe() -> (bool, EditRow) {
    const MODULES: usize = 12;
    const STORED: u64 = MODULES as u64 - 2;
    let base = edit_sources(MODULES, None);
    let edited = edit_sources(MODULES, Some(MODULES / 2));
    let edited_again = edit_sources(MODULES, Some(MODULES / 3));
    println!(
        "edit-one-function: 1 of {MODULES} modules edited, {REPEATS} repeats \
         (gate: splice + identity + median <=0.5x cold; a second edit takes \
         {STORED} modules from the store)"
    );
    println!(
        "{:>22} {:>22} {:>8} {:>6} {:>9} {:>8} {:>5}",
        "cold us: med (range)",
        "edit us: med (range)",
        "speedup",
        "hits",
        "rebuilds",
        "modules",
        "ok"
    );
    hlo_bench::rule(86);

    let opts = HloOptions {
        scope: hlo::Scope::WithinModule,
        ..HloOptions::default()
    };
    let truth = |srcs: &[(String, String)]| {
        let refs: Vec<(&str, &str)> = srcs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let mut p = hlo_frontc::compile(&refs).expect("edit program compiles");
        let _ = hlo::optimize(&mut p, None, &opts);
        hlo_ir::program_to_text(&p)
    };
    let (base_ir, edited_ir, edited_again_ir) =
        (truth(&base), truth(&edited), truth(&edited_again));
    let request = |srcs: &[(String, String)]| OptimizeRequest {
        options: opts.clone(),
        source: SourceKind::Minc(srcs.to_vec()),
        profile: ProfileSpec::None,
        deadline_ms: None,
        train_arg: None,
        trace_id: None,
    };

    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    let mut counts = Vec::new();
    let mut identical = true;
    for _ in 0..REPEATS {
        let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).expect("spawn daemon");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let t = Instant::now();
        let cold = client.optimize(&request(&base)).expect("cold build");
        cold_us.push(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        let warm = client.optimize(&request(&edited)).expect("warm edit");
        warm_us.push(t.elapsed().as_micros() as u64);
        let before = client.stats().expect("stats request").module_hits;
        let again = client
            .optimize(&request(&edited_again))
            .expect("second edit");
        let module_hits = client.stats().expect("stats request").module_hits - before;
        client.shutdown().expect("shutdown");
        server.wait();
        identical &= cold.ir_text == base_ir
            && warm.ir_text == edited_ir
            && again.ir_text == edited_again_ir;
        counts.push((
            cold.outcome.partition_rebuilds,
            warm.outcome.partition_hits,
            warm.outcome.partition_rebuilds,
            module_hits,
        ));
    }

    let (partitions, hits, rebuilds, module_hits) = counts[0];
    let row = EditRow {
        cold_us: Spread::of(&cold_us),
        warm_us: Spread::of(&warm_us),
        partitions,
        hits,
        rebuilds,
        module_hits,
        identical,
    };
    let ok = row.identical
        && counts.iter().all(|&c| c == counts[0])
        && row.hits > 0
        && row.rebuilds < row.partitions
        && row.module_hits == STORED
        && row.warm_us.median * 2 <= row.cold_us.median;
    println!(
        "{:>22} {:>22} {:>7.1}x {:>6} {:>9} {:>8} {:>5}",
        row.cold_us.to_string(),
        row.warm_us.to_string(),
        row.cold_us.median as f64 / row.warm_us.median.max(1) as f64,
        row.hits,
        row.rebuilds,
        row.module_hits,
        if ok { "yes" } else { "NO" }
    );
    if !ok {
        eprintln!("serve_bench: edit-one-function gate failed — see the row marked NO");
    }
    (ok, row)
}

/// Hand-rolled JSON (the registry is offline; no serde). All strings are
/// benchmark names — `[0-9A-Za-z._]` — so quoting suffices. Every timing
/// is a [`Spread`] object over the repeats.
fn render_json(
    hit_rate: f64,
    source_hit_rate: f64,
    cold_total: Spread,
    warm_total: Spread,
    restart_warm: bool,
    rows: &[Row],
    edit: &EditRow,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"repeats\": {REPEATS},");
    let _ = writeln!(s, "  \"warm_hit_rate\": {hit_rate:.4},");
    let _ = writeln!(s, "  \"warm_source_hit_rate\": {source_hit_rate:.4},");
    let _ = writeln!(s, "  \"restart_warm\": {restart_warm},");
    let _ = writeln!(s, "  \"cold_total_us\": {},", cold_total.json());
    let _ = writeln!(s, "  \"warm_total_us\": {},", warm_total.json());
    let _ = writeln!(
        s,
        "  \"warm_speedup\": {:.4},",
        cold_total.median as f64 / warm_total.median.max(1) as f64
    );
    let _ = writeln!(s, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"cold_us\": {}, \"warm_us\": {}, \
             \"cold_identical\": {}, \"warm_identical\": {}, \"warm_hit\": {}}}{}",
            r.name,
            Spread::of(&r.cold_us).json(),
            Spread::of(&r.warm_us).json(),
            r.cold_identical,
            r.warm_identical,
            r.warm_hit,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"warm_edit\": {{\"cold_us\": {}, \"warm_us\": {}, \"partitions\": {}, \
         \"partition_hits\": {}, \"partition_rebuilds\": {}, \
         \"second_edit_module_hits\": {}, \"identical\": {}}}",
        edit.cold_us.json(),
        edit.warm_us.json(),
        edit.partitions,
        edit.hits,
        edit.rebuilds,
        edit.module_hits,
        edit.identical
    );
    let _ = write!(s, "}}");
    s
}
