//! `pgobench` — the continuous-PGO gate (`cargo pgobench`).
//!
//! Drives the drift-triggered re-optimization loop end to end through an
//! in-process daemon, once per suite program:
//!
//! 1. a cold server-mode build (empty aggregate) must be byte-identical
//!    to a profile-free in-process optimize — an empty store is invisible;
//! 2. pushing the trained profile plants cold-start drift (score 1000):
//!    the next server-mode request MUST be re-optimized (stale hit) and
//!    its IR must equal an in-process optimize with that profile;
//! 3. pushing the identical delta again is a scaling-invariant no-op
//!    (counts double uniformly, shares unchanged): the next request MUST
//!    be a plain cache hit at drift 0 — never re-optimized;
//! 4. pushing the train-arg then ref-arg deltas into one store and the
//!    reverse order into another must merge to byte-identical aggregate
//!    text (within-generation merges are commutative saturating adds).
//!
//! Wire push throughput is measured after the sweep, as [`REPEATS`]
//! bursts of pushes, and written (median and min–max over the bursts)
//! with the gate results to `BENCH_pgo.json`. The gate is behavior, not
//! speed.

use hlo::HloOptions;
use hlo_bench::{Spread, EXEC, REPEATS};
use hlo_pgo::{store::DEFAULT_CAP, ProfileStore};
use hlo_profile::collect_profile;
use hlo_serve::{Client, OptimizeRequest, ProfilePushRequest, ProfileSpec, ServeConfig, Server};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Row {
    name: &'static str,
    cold_plain: bool,
    reopt_on_drift: bool,
    no_reopt_on_noop: bool,
    order_independent: bool,
    drift_millis: u64,
}

fn main() -> ExitCode {
    let server = match Server::spawn("127.0.0.1:0", ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pgobench: cannot spawn daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect to in-process daemon");

    println!(
        "pgobench: continuous PGO through hlod at {addr} (gate: drift behavior + merge order)"
    );
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "program", "cold=", "drift", "reopt", "noop", "order"
    );
    hlo_bench::rule(50);

    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;
    let mut push_payload = String::new();
    let mut push_key = String::new();
    for b in hlo_suite::all_benchmarks() {
        let baseline = b.compile().expect("suite program compiles");
        let key = hlo_pgo::program_key(&baseline);
        let (train_db, _) =
            collect_profile(&baseline, &[b.train_arg], &EXEC).expect("training run");
        let (ref_db, _) = collect_profile(&baseline, &[b.ref_arg], &EXEC).expect("ref run");

        // Ground truth: profile-free and profile-guided in-process builds.
        let opts = HloOptions::default();
        let mut plain = b.compile().expect("suite program compiles");
        let _ = hlo::optimize(&mut plain, None, &opts);
        let plain_ir = hlo_ir::program_to_text(&plain);
        let mut guided = b.compile().expect("suite program compiles");
        let _ = hlo::optimize(&mut guided, Some(&train_db), &opts);
        let guided_ir = hlo_ir::program_to_text(&guided);

        let req = OptimizeRequest {
            profile: ProfileSpec::Server,
            ..OptimizeRequest::from_minc(
                b.sources
                    .iter()
                    .map(|(n, s)| (n.to_string(), s.to_string()))
                    .collect(),
            )
        };

        // 1. Cold: empty aggregate must look exactly like no profile.
        let cold = client.optimize(&req).expect("cold server-mode build");
        let cold_plain = !cold.outcome.hit && cold.ir_text == plain_ir;

        // 2. Planted drift: the trained profile lands, the cached result
        //    was built cold — the daemon must rebuild with the aggregate.
        let push = ProfilePushRequest {
            program: key.clone(),
            delta: train_db.to_text(),
            advance: 0,
        };
        client.profile_push(&push).expect("first push");
        let drifted = client.optimize(&req).expect("post-push build");
        let reopt_on_drift =
            drifted.outcome.stale && !drifted.outcome.hit && drifted.ir_text == guided_ir;
        let drift_millis = drifted.outcome.drift_millis;

        // 3. No-op push: same delta again doubles every count uniformly;
        //    shares are unchanged, so the cache must serve a plain hit.
        client.profile_push(&push).expect("second push");
        let stable = client.optimize(&req).expect("post-noop build");
        let no_reopt_on_noop = stable.outcome.hit
            && !stable.outcome.stale
            && stable.outcome.drift_millis == 0
            && stable.ir_text == drifted.ir_text;

        // 4. Merge-order independence, checked against the store directly:
        //    train-then-ref and ref-then-train must read back identically.
        let mut ab = ProfileStore::new(DEFAULT_CAP);
        ab.register(&key).expect("register");
        ab.push(&key, &train_db).expect("push");
        ab.push(&key, &ref_db).expect("push");
        let mut ba = ProfileStore::new(DEFAULT_CAP);
        ba.register(&key).expect("register");
        ba.push(&key, &ref_db).expect("push");
        ba.push(&key, &train_db).expect("push");
        let order_independent = ab.to_text() == ba.to_text()
            && ab.merged(&key).expect("merged").to_text()
                == ba.merged(&key).expect("merged").to_text();

        let row = Row {
            name: b.name,
            cold_plain,
            reopt_on_drift,
            no_reopt_on_noop,
            order_independent,
            drift_millis,
        };
        ok &= row.cold_plain && row.reopt_on_drift && row.no_reopt_on_noop && row.order_independent;
        println!(
            "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6}",
            row.name,
            yn(row.cold_plain),
            row.drift_millis,
            yn(row.reopt_on_drift),
            yn(row.no_reopt_on_noop),
            yn(row.order_independent)
        );
        if push_payload.is_empty() {
            push_payload = train_db.to_text();
            push_key = key;
        }
        rows.push(row);
    }
    hlo_bench::rule(50);

    // Daemon-side accounting must agree with the sweep: one planted-drift
    // re-optimization per program, two pushes each, plus the throughput
    // bursts below on the first program's key.
    let programs = rows.len() as u64;
    const BURST: u64 = 200;
    let burst_req = ProfilePushRequest {
        program: push_key,
        delta: push_payload,
        advance: 0,
    };
    let bursts: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BURST {
                client.profile_push(&burst_req).expect("burst push");
            }
            t.elapsed().as_micros() as u64
        })
        .collect();
    let burst_us = Spread::of(&bursts);
    let per_sec = |us: u64| BURST as f64 / (us.max(1) as f64 / 1_000_000.0);

    let stats = client.stats().expect("stats request");
    let accounting = stats.reoptimizations == programs
        && stats.stale_hits == programs
        && stats.pgo_pushes == 2 * programs + REPEATS as u64 * BURST
        && stats.pgo_programs == programs;
    if !accounting {
        eprintln!(
            "pgobench: daemon accounting off: reopt {} stale {} pushes {} programs {}",
            stats.reoptimizations, stats.stale_hits, stats.pgo_pushes, stats.pgo_programs
        );
    }
    ok &= accounting;

    println!(
        "push throughput: {REPEATS} bursts of {BURST} pushes in {burst_us} us \
         ({:.0}/s on the median), accounting {}",
        per_sec(burst_us.median),
        yn(accounting)
    );

    client.shutdown().expect("shutdown");
    server.wait();

    let json = render_json(burst_us, per_sec, accounting, &rows);
    let path = "BENCH_pgo.json";
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("pgobench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("pgobench: CONTINUOUS-PGO GATE FAILED — see rows marked NO");
        ExitCode::FAILURE
    }
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// Hand-rolled JSON (the registry is offline; no serde). All strings are
/// benchmark names — `[0-9A-Za-z._]` — so quoting suffices. Push
/// throughput is the median and range over the bursts; the slowest burst
/// gives the lowest rate.
fn render_json(
    burst_us: Spread,
    per_sec: impl Fn(u64) -> f64,
    accounting: bool,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"repeats\": {REPEATS},");
    let _ = writeln!(
        s,
        "  \"pushes_per_sec\": {{\"median\": {:.1}, \"min\": {:.1}, \"max\": {:.1}}},",
        per_sec(burst_us.median),
        per_sec(burst_us.max),
        per_sec(burst_us.min)
    );
    let _ = writeln!(s, "  \"burst_us\": {},", burst_us.json());
    let _ = writeln!(s, "  \"accounting\": {accounting},");
    let _ = writeln!(s, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"cold_plain\": {}, \"drift_millis\": {}, \
             \"reopt_on_drift\": {}, \"no_reopt_on_noop\": {}, \"order_independent\": {}}}{}",
            r.name,
            r.cold_plain,
            r.drift_millis,
            r.reopt_on_drift,
            r.no_reopt_on_noop,
            r.order_independent,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}
