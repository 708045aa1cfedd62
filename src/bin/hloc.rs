//! `hloc` — command-line driver for the MinC → HLO → VM/PA8000 pipeline.
//!
//! ```text
//! hloc build [OPTIONS] <file.mc>...   compile + optimize, report, optionally run
//! hloc opt [OPTIONS] <file.ir>        re-optimize dumped IR (isom-style path)
//! hloc run   <file.mc>... [--arg N]   compile without HLO and execute
//! hloc lint  <file.mc>... [--pedantic]  static-analysis report (no optimization)
//! hloc classify <file.mc>...          Figure-5-style call-site classification
//! hloc fuzz [OPTIONS]                 differential-fuzz the optimizer
//! hloc remote <addr> build|profile|stats|metrics|trace|flight|top|ping|shutdown
//!                                     talk to a running daemon (hlod)
//! hloc --version                      version + enabled features
//! hloc help                           this text
//! ```
//!
//! Build options:
//! `--scope module|program`, `--budget N`, `--passes N`,
//! `--no-inline`, `--no-clone`, `--outline`, `--train N` (PGO training
//! run with scale N), `--emit-ir PATH` (`-` for stdout), `--run`,
//! `--trace N|PATH` (a count prints the first N executed VM instructions
//! under `--run`; a path writes the optimizer's Chrome trace-event JSON),
//! `--explain[=FN[:bN.iM]]` (print inline/clone/outline/pure-call decision
//! provenance, optionally filtered to a function or exact site), `--sim`,
//! `--arg N`, `--verify-each`, `--check off|structural|strict`.
//!
//! Every program `hloc` executes runs on the VM's bytecode tier.

use aggressive_inlining::{analysis, frontc, fuzz, hlo, ir, lint, pgo, profile, serve, sim, vm};
use std::process::ExitCode;

/// Compile-time capabilities baked into this binary; the workspace has no
/// optional cargo features, so the list is static.
const FEATURES: &str = "serve pgo clone outline sim lint";

/// How `hloc` executes a program: the training run of `build --train`,
/// `--run`, `--sim` and `hloc run` all take the bytecode tier. The tree
/// walker is the reference that `tests/tier_parity.rs` and the fuzz
/// oracle hold it to.
const EXEC: vm::ExecOptions = vm::ExecOptions {
    tier: vm::Tier::Bytecode,
    ..vm::ExecOptions::DEFAULT
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("help", &args[..]),
    };
    let result = match cmd {
        "build" => build(rest).map(|_| ExitCode::SUCCESS),
        "opt" => opt_ir(rest).map(|_| ExitCode::SUCCESS),
        "run" => run_plain(rest).map(|_| ExitCode::SUCCESS),
        "lint" => lint_cmd(rest),
        "classify" => classify(rest).map(|_| ExitCode::SUCCESS),
        "fuzz" => fuzz_cmd(rest),
        "remote" => remote_cmd(rest).map(|_| ExitCode::SUCCESS),
        "--version" | "-V" | "version" => {
            println!("hloc {} (features: {FEATURES})", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; try `hloc help`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hloc: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "hloc — MinC compiler with the PLDI'97 aggressive inliner/cloner

USAGE:
  hloc build [OPTIONS] <file.mc>...
  hloc opt [OPTIONS] <file.ir>         re-optimize dumped IR (isom-style)
  hloc run <file.mc>... [--arg N]
           [--push-profile ADDR]       run; also push the run's profile to
                                       a daemon (continuous PGO)
  hloc lint <file.mc>... [--pedantic]  static-analysis report (exit 1 on findings)
  hloc classify <file.mc>...
  hloc fuzz [--seed S] [--iters N] [--budget-secs T] [--corpus DIR]
            [--stop-after N] [--daemon-every N] [--quick] [--quiet]
                                       differential-fuzz the optimizer
                                       (exit 1 when findings are written)
  hloc remote <addr> build [OPTIONS] <file.mc>...
                                       optimize on a running daemon
                                       (--server-profile: use the daemon's
                                       continuously-pushed profile aggregate;
                                       --trace PATH: fetch the request's trace
                                       and write Chrome trace-event JSON;
                                       --explain-remote[=FILTER]: print the
                                       daemon-side span tree and decisions)
  hloc remote <addr> profile push [--key K | <file.mc>...] --delta FILE
                                  [--advance N]
                                       merge a profile delta into the daemon
  hloc remote <addr> profile stats [--key K | <file.mc>...]
                                       profile-store stats (+ merged profile
                                       text when a program is named)
  hloc remote <addr> trace <id>        print a stored request trace (span tree,
                                       decisions, per-phase timings)
  hloc remote <addr> flight            dump the daemon's flight recorder
  hloc remote <addr> top               per-phase latency quantiles (p50/95/99)
  hloc remote <addr> stats|metrics|ping|shutdown
  hloc --version                       version + enabled features

BUILD OPTIONS:
  --scope module|program   visibility scope (default: program)
  --budget N               compile-time budget percent (default: 100)
  --passes N               clone+inline passes (default: 4)
  --no-inline              disable the inlining passes
  --no-clone               disable the cloning passes
  --no-ipa                 disable the interprocedural-summary stage
  --outline                enable aggressive outlining (paper's future work)
  --train N                profile-guided: training run with scale argument N
  --arg N                  argument passed to main for --run/--sim (default 0)
  --emit-ir PATH           write optimized IR text to PATH ('-' = stdout)
  --run                    execute the optimized program on the VM
  --trace N                with --run: print the first N executed instructions
  --trace PATH             write the optimizer's span/decision trace as Chrome
                           trace-event JSON to PATH (load in Perfetto)
  --explain[=FN[:bN.iM]]   print decision provenance: why every call site was
                           inlined/cloned/outlined or not, with reason codes,
                           budgets and profile weights; optionally filtered to
                           a function name or one exact site
  --sim                    execute under the PA8000 model and print stats
  --verify-each            run the full hlo-lint battery after every pipeline
                           stage; fail if any stage introduces a diagnostic
  --check LEVEL            verify-each level: off, structural, or strict"
    );
}

struct Parsed {
    files: Vec<String>,
    opts: hlo::HloOptions,
    train: Option<i64>,
    arg: i64,
    emit_ir: Option<String>,
    do_run: bool,
    do_sim: bool,
    trace: Option<u64>,
    trace_out: Option<String>,
    explain: Option<Option<String>>,
}

/// Applies `flag` to `opts` if it is one of the optimizer flags `hloc
/// build` and `hloc remote build` share, taking its value (if it has one)
/// from `value`. Returns whether `flag` was one of them.
fn optimizer_flag(
    opts: &mut hlo::HloOptions,
    flag: &str,
    value: &mut impl FnMut(&str) -> Result<String, String>,
) -> Result<bool, String> {
    match flag {
        "--scope" => {
            opts.scope = match value("--scope")?.as_str() {
                "module" => hlo::Scope::WithinModule,
                "program" => hlo::Scope::CrossModule,
                other => return Err(format!("bad scope `{other}`")),
            }
        }
        "--budget" => {
            opts.budget_percent = value("--budget")?
                .parse()
                .map_err(|_| "bad --budget value".to_string())?
        }
        "--passes" => {
            opts.passes = value("--passes")?
                .parse()
                .map_err(|_| "bad --passes value".to_string())?
        }
        "--no-inline" => opts.enable_inline = false,
        "--no-clone" => opts.enable_clone = false,
        "--no-ipa" => opts.ipa = false,
        "--outline" => opts.enable_outline = true,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_build_args(rest: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        files: Vec::new(),
        opts: hlo::HloOptions::default(),
        train: None,
        arg: 0,
        emit_ir: None,
        do_run: false,
        do_sim: false,
        trace: None,
        trace_out: None,
        explain: None,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        if optimizer_flag(&mut p.opts, a, &mut value)? {
            continue;
        }
        match a.as_str() {
            "--verify-each" => p.opts.check = hlo::CheckLevel::Strict,
            "--check" => p.opts.check = value("--check")?.parse()?,
            "--train" => {
                p.train = Some(
                    value("--train")?
                        .parse()
                        .map_err(|_| "bad --train value".to_string())?,
                )
            }
            "--arg" => {
                p.arg = value("--arg")?
                    .parse()
                    .map_err(|_| "bad --arg value".to_string())?
            }
            "--emit-ir" => p.emit_ir = Some(value("--emit-ir")?),
            "--trace" => {
                // Disambiguate by value shape: a bare count keeps the
                // historical meaning (print the first N executed VM
                // instructions under --run); anything else is a path the
                // optimizer's Chrome trace-event JSON is written to.
                let v = value("--trace")?;
                match v.parse::<u64>() {
                    Ok(n) => p.trace = Some(n),
                    Err(_) => p.trace_out = Some(v),
                }
            }
            "--explain" => p.explain = Some(None),
            e if e.starts_with("--explain=") => {
                p.explain = Some(Some(e["--explain=".len()..].to_string()))
            }
            "--run" => p.do_run = true,
            "--sim" => p.do_sim = true,
            f if !f.starts_with('-') => p.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if p.files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(p)
}

fn load_sources(files: &[String]) -> Result<Vec<(String, String)>, String> {
    files
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            let stem = std::path::Path::new(f)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(f)
                .to_string();
            Ok((stem, src))
        })
        .collect()
}

fn compile(files: &[String]) -> Result<ir::Program, String> {
    let sources = load_sources(files)?;
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    frontc::compile(&refs).map_err(|e| e.to_string())
}

fn build(rest: &[String]) -> Result<(), String> {
    let parsed = parse_build_args(rest)?;
    let mut program = compile(&parsed.files)?;
    let db = match parsed.train {
        Some(train_arg) => {
            let (db, out) = profile::collect_profile(&program, &[train_arg], &EXEC)
                .map_err(|e| format!("training run failed: {e}"))?;
            eprintln!(
                "training run: {} instructions, {} functions profiled",
                out.retired,
                db.len()
            );
            Some(db)
        }
        None => None,
    };
    let mut tracer = tracer_for(&parsed);
    let report = hlo::optimize_traced(&mut program, db.as_ref(), &parsed.opts, &mut tracer);
    eprintln!("{report}");
    if report.outlines > 0 {
        eprintln!("outlined {} cold regions", report.outlines);
    }
    emit_trace_outputs(&parsed, &tracer)?;
    check_verify_each(&report)?;
    if let Some(path) = &parsed.emit_ir {
        let text = ir::program_to_text(&program);
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    run_and_sim(&program, &parsed)
}

/// `hloc opt`: the isom-style path — load IR text previously written with
/// `--emit-ir`, run HLO over it, and write/execute the result. Accepts
/// the same options as `build` except training (profiles are carried in
/// the IR text itself).
fn opt_ir(rest: &[String]) -> Result<(), String> {
    let parsed = parse_build_args(rest)?;
    if parsed.files.len() != 1 {
        return Err("`hloc opt` takes exactly one .ir file".to_string());
    }
    if parsed.train.is_some() {
        return Err("`hloc opt` carries profiles in the IR; use --train with `build`".to_string());
    }
    let text = std::fs::read_to_string(&parsed.files[0])
        .map_err(|e| format!("{}: {e}", parsed.files[0]))?;
    let mut program = ir::parse_program_text(&text).map_err(|e| e.to_string())?;
    ir::verify_program(&program).map_err(|e| format!("invalid IR: {e}"))?;
    let mut tracer = tracer_for(&parsed);
    let report = hlo::optimize_traced(&mut program, None, &parsed.opts, &mut tracer);
    eprintln!("{report}");
    emit_trace_outputs(&parsed, &tracer)?;
    check_verify_each(&report)?;
    if let Some(path) = &parsed.emit_ir {
        let out = ir::program_to_text(&program);
        if path == "-" {
            print!("{out}");
        } else {
            std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    run_and_sim(&program, &parsed)
}

/// The `--run` / `--sim` tail shared by `build` and `opt`.
fn run_and_sim(program: &ir::Program, parsed: &Parsed) -> Result<(), String> {
    if parsed.do_run {
        let out = run_maybe_traced(program, parsed.arg, parsed.trace)?;
        for v in &out.output {
            println!("{v}");
        }
        eprintln!(
            "exit value {} ({} instructions, checksum {:#x})",
            out.ret, out.retired, out.checksum
        );
    }
    if parsed.do_sim {
        let (stats, out) = sim::simulate(
            program,
            &[parsed.arg],
            &EXEC,
            &sim::MachineConfig::default(),
        )
        .map_err(|e| format!("simulation failed: {e}"))?;
        eprintln!("exit value {}", out.ret);
        eprintln!("{stats}");
    }
    Ok(())
}

/// The tracer a `build`/`opt` invocation asked for: decision-level when
/// either `--explain` or a `--trace` export wants provenance, otherwise a
/// free disabled tracer.
fn tracer_for(parsed: &Parsed) -> hlo::Tracer {
    if parsed.explain.is_some() || parsed.trace_out.is_some() {
        hlo::Tracer::new(hlo::TraceLevel::Decisions)
    } else {
        hlo::Tracer::disabled()
    }
}

/// Writes the Chrome trace-event JSON and/or prints the decision report,
/// as requested by `--trace PATH` / `--explain[=FILTER]`.
fn emit_trace_outputs(parsed: &Parsed, tracer: &hlo::Tracer) -> Result<(), String> {
    if let Some(path) = &parsed.trace_out {
        std::fs::write(path, hlo::chrome_trace_json(tracer)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "trace: wrote {path} ({} spans, {} decisions)",
            tracer.span_count(),
            tracer.decisions().len()
        );
    }
    if let Some(filter) = &parsed.explain {
        let text = tracer.decision_report(filter.as_deref());
        if text.is_empty() {
            match filter {
                Some(f) => println!("explain: no decisions matched `{f}`"),
                None => println!("explain: no decisions recorded"),
            }
        } else {
            print!("{text}");
        }
    }
    Ok(())
}

/// Fails the build when a verify-each run attributed any diagnostic to a
/// pipeline stage (input defects are reported but do not fail — the
/// pipeline is not to blame for them).
fn check_verify_each(report: &hlo::HloReport) -> Result<(), String> {
    let introduced = report.introduced_diagnostics().count();
    if introduced > 0 {
        return Err(format!(
            "verify-each: {introduced} diagnostics introduced by the pipeline"
        ));
    }
    Ok(())
}

/// `hloc lint`: compile and report every structural and lint finding
/// without optimizing. Exit status 1 when anything is found.
fn lint_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut opts = lint::LintOptions::default();
    for a in rest {
        match a.as_str() {
            "--pedantic" => opts.pedantic = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_string());
    }
    let program = compile(&files)?;
    let report = lint::lint_report(&program, &opts);
    if report.diags.is_empty() {
        eprintln!("lint: no diagnostics");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{report}");
    Ok(ExitCode::from(1))
}

fn run_maybe_traced(
    program: &ir::Program,
    arg: i64,
    trace: Option<u64>,
) -> Result<vm::ExecOutcome, String> {
    match trace {
        Some(n) => {
            let stderr = std::io::stderr().lock();
            let mut t = vm::TraceMonitor::new(program, stderr, n);
            vm::run_with_monitor(program, &[arg], &EXEC, &mut t)
        }
        None => vm::run_program(program, &[arg], &EXEC),
    }
    .map_err(|e| format!("run failed: {e}"))
}

fn run_plain(rest: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut arg = 0i64;
    let mut push_addr: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arg" => {
                arg = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "bad --arg".to_string())?
            }
            "--push-profile" => {
                push_addr = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "`--push-profile` needs a daemon address".to_string())?,
                )
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_string());
    }
    let program = compile(&files)?;
    // With --push-profile the run doubles as a training run: collect the
    // execution profile and stream it into the daemon's aggregate for
    // this program (keyed so a later `remote build --server-profile` of
    // the same sources finds it).
    let out = match &push_addr {
        Some(addr) => {
            let (db, out) = profile::collect_profile(&program, &[arg], &EXEC)
                .map_err(|e| format!("run failed: {e}"))?;
            let key = pgo::program_key(&program);
            let mut client = serve::Client::connect(addr.as_str())
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let ack = client
                .profile_push(&serve::ProfilePushRequest {
                    program: key.clone(),
                    delta: db.to_text(),
                    advance: 0,
                })
                .map_err(|e| e.to_string())?;
            eprintln!(
                "pushed profile for {key}: generation {} ({} pushes, {} functions, {} bytes)",
                ack.generation, ack.pushes, ack.functions, ack.resident_bytes
            );
            out
        }
        None => vm::run_program(&program, &[arg], &EXEC).map_err(|e| format!("run failed: {e}"))?,
    };
    for v in &out.output {
        println!("{v}");
    }
    eprintln!(
        "exit value {} ({} instructions, checksum {:#x})",
        out.ret, out.retired, out.checksum
    );
    Ok(())
}

/// `hloc remote <addr> build ...`: ship a build to a running daemon. Takes
/// the optimizer subset of the `build` options plus `--profile PATH`,
/// `--deadline-ms N`, and `--train-arg N` (execute the optimized program
/// once on the daemon's bytecode tier, feeding its tier metrics);
/// run/sim stay local-only.
fn remote_cmd(rest: &[String]) -> Result<(), String> {
    let (addr, rest) = rest.split_first().ok_or(
        "usage: hloc remote <addr> build|profile|stats|metrics|trace|flight|top|ping|shutdown",
    )?;
    let (sub, rest) = rest.split_first().ok_or(
        "usage: hloc remote <addr> build|profile|stats|metrics|trace|flight|top|ping|shutdown",
    )?;
    let mut client =
        serve::Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    match sub.as_str() {
        "build" => remote_build(&mut client, rest),
        "profile" => remote_profile(&mut client, rest),
        "stats" => {
            let st = client.stats().map_err(|e| e.to_string())?;
            println!("uptime          {} ms", st.uptime_ms);
            println!("requests        {}", st.requests);
            println!("cache hits      {}", st.hits);
            println!("cache misses    {}", st.misses);
            println!("stale hits      {}", st.stale_hits);
            println!("source hits     {}", st.source_hits);
            println!("module hits     {}", st.module_hits);
            println!("evictions       {}", st.evictions);
            println!("func cone hits  {}", st.func_hits);
            println!("func cone new   {}", st.func_misses);
            println!("cached programs {}", st.entries);
            println!("cached bytes    {}", st.cache_bytes);
            println!(
                "partitions      {} spliced, {} rebuilt",
                st.partition_hits, st.partition_rebuilds
            );
            println!("incr fallbacks  {}", st.incr_fallbacks);
            println!("partition store {}", st.partition_entries);
            println!("busy rejections {}", st.busy);
            println!("deadline missed {}", st.deadline_missed);
            println!("request errors  {}", st.errors);
            println!("profile pushes  {}", st.pgo_pushes);
            println!("reoptimizations {}", st.reoptimizations);
            println!("pgo programs    {}", st.pgo_programs);
            println!("pgo bytes       {}", st.pgo_bytes);
            println!("slow requests   {}", st.slow_requests);
            println!("flight records  {}", st.flight_records);
            println!("traces stored   {}", st.traces_stored);
            println!("events emitted  {}", st.events_emitted);
            for (stage, wall) in &st.stages {
                println!("stage {stage:<12} {wall:>10} us wall");
            }
            for (phase, count, sum) in &st.latencies {
                let mean = if *count > 0 { sum / count } else { 0 };
                println!("latency {phase:<12} {count:>6} obs {mean:>10} us mean");
            }
            for (phase, p50, p95, p99) in &st.quantiles {
                println!("quantile {phase:<11} p50 {p50:>8} us  p95 {p95:>8} us  p99 {p99:>8} us");
            }
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(())
        }
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            Ok(())
        }
        "trace" => {
            let id = rest.first().ok_or("usage: hloc remote <addr> trace <id>")?;
            let t = client.trace_fetch(id).map_err(|e| e.to_string())?;
            println!("trace {} ({} us wall, cache {})", t.trace_id, t.wall_us, {
                // The cache section is CacheOutcome text; its first line
                // (`hit true|false`) is the headline.
                t.cache.lines().next().unwrap_or("?").to_string()
            });
            for (phase, us) in &t.phases {
                println!("phase {phase:<12} {us:>10} us");
            }
            print!("{}", t.spans);
            print!("{}", t.decisions);
            Ok(())
        }
        "flight" => {
            let (dump, admitted) = client.flight_dump().map_err(|e| e.to_string())?;
            let kept = dump.lines().count();
            println!("flight recorder: {kept} of {admitted} admitted requests retained");
            print!("{dump}");
            Ok(())
        }
        "top" => {
            let st = client.stats().map_err(|e| e.to_string())?;
            println!(
                "{} requests over {} ms uptime ({} slow, {} errors)",
                st.requests, st.uptime_ms, st.slow_requests, st.errors
            );
            println!(
                "{:<12} {:>8} {:>12} {:>10} {:>10} {:>10}",
                "phase", "count", "mean(us)", "p50(us)", "p95(us)", "p99(us)"
            );
            for (phase, p50, p95, p99) in &st.quantiles {
                let (count, mean) = st
                    .latencies
                    .iter()
                    .find(|(p, _, _)| p == phase)
                    .map(|(_, c, s)| (*c, if *c > 0 { s / c } else { 0 }))
                    .unwrap_or((0, 0));
                println!("{phase:<12} {count:>8} {mean:>12} {p50:>10} {p95:>10} {p99:>10}");
            }
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon draining");
            Ok(())
        }
        other => Err(format!("unknown remote subcommand `{other}`")),
    }
}

fn remote_build(client: &mut serve::Client, rest: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut opts = hlo::HloOptions::default();
    let mut profile_path: Option<String> = None;
    let mut server_profile = false;
    let mut deadline_ms: Option<u64> = None;
    let mut train_arg: Option<i64> = None;
    let mut emit_ir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut explain_remote: Option<Option<String>> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        if optimizer_flag(&mut opts, a, &mut value)? {
            continue;
        }
        match a.as_str() {
            "--profile" => profile_path = Some(value("--profile")?),
            "--server-profile" => server_profile = true,
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms value".to_string())?,
                )
            }
            "--train-arg" => {
                train_arg = Some(
                    value("--train-arg")?
                        .parse()
                        .map_err(|_| "bad --train-arg value".to_string())?,
                )
            }
            "--emit-ir" => emit_ir = Some(value("--emit-ir")?),
            "--trace" => trace_out = Some(value("--trace")?),
            "--explain-remote" => explain_remote = Some(None),
            e if e.starts_with("--explain-remote=") => {
                explain_remote = Some(Some(e["--explain-remote=".len()..].to_string()))
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown remote build option `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_string());
    }
    let profile = match (&profile_path, server_profile) {
        (Some(_), true) => {
            return Err("--profile and --server-profile are mutually exclusive".to_string())
        }
        (Some(p), false) => {
            serve::ProfileSpec::Text(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
        }
        (None, true) => serve::ProfileSpec::Server,
        (None, false) => serve::ProfileSpec::None,
    };
    // A trace id is minted only when something will consume the trace —
    // untraced requests skip the daemon's tracer entirely.
    let trace_id = (trace_out.is_some() || explain_remote.is_some()).then(serve::mint_trace_id);
    let req = serve::OptimizeRequest {
        options: opts,
        source: serve::SourceKind::Minc(load_sources(&files)?),
        profile,
        deadline_ms,
        train_arg,
        trace_id: trace_id.clone(),
    };
    let resp = client.optimize(&req).map_err(|e| e.to_string())?;
    eprintln!("{}", resp.report);
    if let Some(train) = &resp.train {
        eprintln!("train: {train}");
    }
    eprintln!(
        "cache: {} (cone keys: {} known, {} new{})",
        if resp.outcome.stale {
            "stale, re-optimized"
        } else if resp.outcome.hit {
            "hit"
        } else {
            "miss"
        },
        resp.outcome.func_hits,
        resp.outcome.func_misses,
        if resp.outcome.partition_hits > 0 || resp.outcome.partition_rebuilds > 0 {
            format!(
                "; partitions: {} spliced, {} rebuilt",
                resp.outcome.partition_hits, resp.outcome.partition_rebuilds
            )
        } else if resp.outcome.incr_fallback {
            "; incremental fallback".to_string()
        } else {
            String::new()
        }
    );
    if let Some(p) = &resp.pgo {
        eprintln!("pgo: {p}");
    }
    if let Some(id) = &trace_id {
        let trace = client.trace_fetch(id).map_err(|e| e.to_string())?;
        eprintln!("trace: {id} ({} us wall)", trace.wall_us);
        if let Some(filter) = &explain_remote {
            eprint!("{}", trace.spans);
            match filter {
                Some(f) => {
                    for line in trace.decisions.lines().filter(|l| l.contains(f.as_str())) {
                        eprintln!("{line}");
                    }
                }
                None => eprint!("{}", trace.decisions),
            }
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, &trace.chrome).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    match emit_ir.as_deref() {
        Some("-") => print!("{}", resp.ir_text),
        Some(path) => std::fs::write(path, &resp.ir_text).map_err(|e| format!("{path}: {e}"))?,
        None => {}
    }
    Ok(())
}

/// `hloc remote <addr> profile push|stats`: continuous-PGO maintenance.
/// The target program is named either by `--key` (16-hex program key) or
/// by its MinC sources, which are compiled locally just to derive the
/// same key the daemon computed at optimize time.
fn remote_profile(client: &mut serve::Client, rest: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: hloc remote <addr> profile push [--key K | <file.mc>...] --delta FILE \
         [--advance N] | profile stats [--key K | <file.mc>...]";
    let (sub, rest) = rest.split_first().ok_or(USAGE)?;
    let mut key: Option<String> = None;
    let mut delta_path: Option<String> = None;
    let mut advance = 0u64;
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match a.as_str() {
            "--key" => key = Some(value("--key")?),
            "--delta" => delta_path = Some(value("--delta")?),
            "--advance" => {
                advance = value("--advance")?
                    .parse()
                    .map_err(|_| "bad --advance value".to_string())?
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown profile option `{other}`")),
        }
    }
    let key = match (key, files.is_empty()) {
        (Some(k), _) => Some(k),
        (None, false) => Some(pgo::program_key(&compile(&files)?)),
        (None, true) => None,
    };
    match sub.as_str() {
        "push" => {
            let program = key.ok_or("`profile push` needs --key or source files")?;
            let path = delta_path.ok_or("`profile push` needs --delta FILE")?;
            let delta = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let ack = client
                .profile_push(&serve::ProfilePushRequest {
                    program: program.clone(),
                    delta,
                    advance,
                })
                .map_err(|e| e.to_string())?;
            println!(
                "pushed profile for {program}: generation {} ({} pushes, {} functions, {} bytes)",
                ack.generation, ack.pushes, ack.functions, ack.resident_bytes
            );
            Ok(())
        }
        "stats" => {
            let reply = client
                .profile_stats(key.as_deref())
                .map_err(|e| e.to_string())?;
            print!("{}", reply.text);
            if let Some(profile) = &reply.profile {
                println!("profile:");
                print!("{profile}");
            }
            Ok(())
        }
        other => Err(format!("unknown profile subcommand `{other}`; {USAGE}")),
    }
}

/// `hloc fuzz`: run a differential fuzzing campaign against the optimizer
/// and write shrunk reproducers for anything it finds. Exit status 1 when
/// there are findings.
fn fuzz_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let mut cfg = fuzz::CampaignConfig {
        corpus_dir: Some(std::path::PathBuf::from("crates/fuzz/corpus")),
        quiet: false,
        ..Default::default()
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                let digits = v.strip_prefix("0x").unwrap_or(&v);
                let radix = if digits.len() < v.len() { 16 } else { 10 };
                cfg.seed = u64::from_str_radix(digits, radix)
                    .map_err(|_| "bad --seed value".to_string())?;
            }
            "--iters" => {
                cfg.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "bad --iters value".to_string())?
            }
            "--budget-secs" => {
                let secs: u64 = value("--budget-secs")?
                    .parse()
                    .map_err(|_| "bad --budget-secs value".to_string())?;
                cfg.budget = Some(std::time::Duration::from_secs(secs));
            }
            "--corpus" => cfg.corpus_dir = Some(value("--corpus")?.into()),
            "--stop-after" => {
                cfg.stop_after = value("--stop-after")?
                    .parse()
                    .map_err(|_| "bad --stop-after value".to_string())?
            }
            "--daemon-every" => {
                cfg.daemon_every = value("--daemon-every")?
                    .parse()
                    .map_err(|_| "bad --daemon-every value".to_string())?
            }
            "--quick" => cfg.oracle = fuzz::OracleConfig::quick(),
            "--quiet" => cfg.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let report = fuzz::run_campaign(&cfg);
    eprintln!(
        "fuzz: {} executed ({} passed, {} skipped, {} mutants discarded), \
         {} daemon checks, {} findings in {:.1?}",
        report.executed,
        report.passed,
        report.skipped,
        report.mutants_discarded,
        report.daemon_checks,
        report.findings.len(),
        report.elapsed
    );
    for f in &report.findings {
        eprintln!(
            "  {} ({}) iter {} -> {} lines{}",
            f.finding.kind,
            f.finding.config,
            f.iter,
            f.lines,
            f.path
                .as_deref()
                .map(|p| format!(", {}", p.display()))
                .unwrap_or_default()
        );
    }
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn classify(rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        return Err("no input files".to_string());
    }
    let program = compile(rest)?;
    let c = analysis::classify_sites(&program);
    println!("external      {:>6}", c.external);
    println!("indirect      {:>6}", c.indirect);
    println!("cross-module  {:>6}", c.cross_module);
    println!("within-module {:>6}", c.within_module);
    println!("recursive     {:>6}", c.recursive);
    println!("total         {:>6}", c.total());
    Ok(())
}
