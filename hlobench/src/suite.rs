//! The closed-loop compiler workloads: `suite-cp` and `suite-linked`.

use crate::host::{sliced, HostClock};
use crate::layers::{
    combine, flatten, summarize_references, timed, trace_overhead_pct, Layers, Reference,
};
use crate::report::{ms_since, repeat_setup, report_timings, Outcome};
use crate::stats::{pct_or_zero, Rng, BLOCKS};
use crate::{Run, RunCfg, TRACE_EVERY};
use hlo::{HloOptions, TraceLevel, Tracer};
use hlo_frontc::ModuleAst;
use hlo_ir::Program;
use hlo_profile::{collect_profile, ProfileDb};
use hlo_suite::Benchmark;
use hlo_vm::{
    run_counted, run_program, BytecodeProgram, ExecOptions, ExecOutcome, NullMonitor, Tier,
};
use std::time::{Duration, Instant};

/// Records a bench-side span into a kept tracer (untraced operations
/// record nothing, so both kinds run the same code path otherwise).
fn note(tracer: &mut Tracer, keep: bool, name: &str, us: f64) {
    if keep {
        let d = Duration::from_secs_f64(us / 1e6);
        tracer.leaf(name, d, d);
    }
}

fn same_run(got: &ExecOutcome, want: &ExecOutcome) -> bool {
    (got.ret, &got.output, got.checksum) == (want.ret, &want.output, want.checksum)
}

/// One suite program with what `suite-cp` set-up derives from it.
struct CpProgram {
    bench: Benchmark,
    profile: ProfileDb,
    /// The tree-walking interpreter's run of the unoptimized program on
    /// `ref_arg`: the oracle every optimized run must match.
    reference: ExecOutcome,
}

fn cp_setup(collect_ms: &mut f64) -> Result<Vec<CpProgram>, String> {
    *collect_ms = 0.0;
    hlo_suite::all_benchmarks()
        .into_iter()
        .map(|bench| {
            let p = bench
                .compile()
                .map_err(|e| format!("{}: {e}", bench.name))?;
            let t = Instant::now();
            let (profile, _) = collect_profile(&p, &[bench.train_arg], &ExecOptions::default())
                .map_err(|e| format!("{}: training run trapped: {e:?}", bench.name))?;
            *collect_ms += ms_since(t);
            let reference = run_program(&p, &[bench.ref_arg], &ExecOptions::default())
                .map_err(|e| format!("{}: reference run trapped: {e:?}", bench.name))?;
            Ok(CpProgram {
                bench,
                profile,
                reference,
            })
        })
        .collect()
}

/// Tail quantiles. `suite-cp`'s operations differ (fourteen programs), so
/// its p90 is its larger programs. `suite-linked` repeats one build, so
/// its upper quantiles follow the host's jitter rather than the program;
/// its p75 spread 3–4% across ten seeds (interquartile range over
/// median).
const CP_TAIL: f64 = 0.9;
const LINKED_TAIL: f64 = 0.75;

/// `suite-cp`: each operation compiles one suite program from source,
/// optimizes it (CrossModule, trained profile, `jobs 1`), compiles it to
/// bytecode and runs it on `ref_arg`. Rounds visit all fourteen programs
/// in a seeded order; only whole rounds run, so every slice weighs every
/// program equally.
pub fn suite_cp(cfg: &RunCfg, clock: &mut HostClock) -> Result<Run, String> {
    let mut collect_ms = 0.0;
    let (setup_s, progs) = repeat_setup(clock, || cp_setup(&mut collect_ms))?;
    let opts = HloOptions::default();
    let mut rng = Rng::new(cfg.seed).fork(1);
    let mut order: Vec<usize> = (0..progs.len()).collect();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); BLOCKS];
    let (mut build, mut run) = (Vec::new(), Vec::new());
    let mut by_program: Vec<(usize, f64, bool)> = Vec::new();
    let mut first_ir: Vec<Option<String>> = vec![None; progs.len()];
    let mut kept = Vec::new();
    let mut op = 0usize;
    let measured = sliced(cfg.seconds, clock, |slice, clock| {
        rng.shuffle(&mut order);
        for &i in &order {
            clock.tick();
            let cp = &progs[i];
            let b = &cp.bench;
            let keep = cfg.traced && op.is_multiple_of(TRACE_EVERY);
            op += 1;
            out.attempted += 1;
            let mut tracer = Tracer::new(if keep {
                TraceLevel::Decisions
            } else {
                TraceLevel::Off
            });
            let root = keep.then(|| tracer.push(&format!("op:{}", b.name)));
            let t0 = Instant::now();
            let (mods, parse_us) = timed(|| {
                b.sources
                    .iter()
                    .map(|(n, s)| hlo_frontc::parse_module(n, s))
                    .collect::<Result<Vec<_>, _>>()
            });
            note(&mut tracer, keep, "frontc.parse", parse_us);
            let (linked, link_us) = timed(|| mods.and_then(|m| hlo_frontc::link(&m)));
            note(&mut tracer, keep, "frontc.link", link_us);
            let mut p = match linked {
                Ok(p) => p,
                Err(e) => {
                    out.failed += 1;
                    out.wrong(format!("{}: front end failed: {e}", b.name));
                    continue;
                }
            };
            let (report, opt_us) =
                timed(|| hlo::optimize_traced(&mut p, Some(&cp.profile), &opts, &mut tracer));
            let build_ms = ms_since(t0);
            let (bc, bcc_us) = timed(|| BytecodeProgram::compile(&p));
            note(&mut tracer, keep, "vm.bc_compile", bcc_us);
            let ((res, dispatch), exec_us) = timed(|| {
                run_counted(
                    &bc,
                    &p,
                    &[b.ref_arg],
                    &ExecOptions::default(),
                    &mut NullMonitor,
                )
            });
            note(&mut tracer, keep, "vm.exec", exec_us);
            let op_ms = ms_since(t0);
            if let Some(root) = root {
                tracer.pop(root, t0.elapsed());
                kept.push(tracer);
            }

            lat[slice].push(op_ms);
            build.push(build_ms);
            run.push((bcc_us + exec_us) / 1e3);
            by_program.push((i, op_ms, keep));
            match res {
                Ok(o) if same_run(&o, &cp.reference) => {
                    layers.add("vm.minst_per_s", o.retired as f64 / exec_us);
                    layers.add("vm.dispatch_per_inst", dispatch as f64 / o.retired as f64);
                }
                Ok(_) => {
                    out.failed += 1;
                    out.wrong(format!(
                        "{}: optimized run differs from the reference",
                        b.name
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong(format!("{}: optimized run trapped: {e:?}", b.name));
                }
            }
            let (text, text_us) = timed(|| hlo_ir::program_to_text(&p));
            match &first_ir[i] {
                None => first_ir[i] = Some(text),
                Some(first) if *first != text => {
                    out.wrong(format!(
                        "{}: optimized IR changed between iterations",
                        b.name
                    ));
                }
                Some(_) => {}
            }
            layers.add("frontc.parse_us", parse_us);
            layers.add("frontc.link_us", link_us);
            layers.add("ir.to_text_us", text_us);
            layers.add("core.optimize_ms", opt_us / 1e3);
            layers.add("vm.bc_compile_us", bcc_us);
            layers.add("vm.exec_ms", exec_us / 1e3);
            layers.add_report(&report);
        }
    });

    report_timings(&mut out, setup_s, &lat, clock, CP_TAIL);
    let refs: Vec<Reference> = progs
        .iter()
        .zip(first_ir)
        .map(|(cp, ir)| {
            Ok(Reference {
                name: cp.bench.name.to_string(),
                input: cp.bench.compile().map_err(|e| e.to_string())?,
                profile: Some(cp.profile.clone()),
                opts: opts.clone(),
                sim_args: Some(vec![cp.bench.ref_arg]),
                vm: ExecOptions::default(),
                expect_ir: ir.unwrap_or_default(),
            })
        })
        .collect::<Result<_, String>>()?;
    summarize_references(&refs, cfg.traced, &mut out);
    set_slo_met(&mut out);
    if !cfg.traced {
        return Ok(Run { out, trace: None });
    }
    layers.emit(&mut out);
    let n = build.len() as u64;
    out.set("build_ms_p50", pct_or_zero(&build, 0.5), n);
    out.set("build_ms_p90", pct_or_zero(&build, 0.9), n);
    out.set("run_ms_p50", pct_or_zero(&run, 0.5), n);
    out.set("profile.collect_ms", collect_ms, progs.len() as u64);
    finish_closed_loop(&mut out, &by_program);
    let parts: Vec<_> = kept
        .iter()
        .map(|t| (flatten(t), t.decisions().to_vec()))
        .collect();
    let trace = combine("hlobench:suite-cp", &parts, measured);
    Ok(Run {
        out,
        trace: Some(trace),
    })
}

/// `slo_met_frac` of a closed loop: the share of operations that
/// succeeded. A closed loop queues nothing, so it has no latency
/// objective; its latencies are gated directly.
fn set_slo_met(out: &mut Outcome) {
    let met = out.attempted.saturating_sub(out.failed) as f64;
    out.set(
        "slo_met_frac",
        met / out.attempted.max(1) as f64,
        out.attempted,
    );
}

/// Per-layer metrics shared by both closed-loop workloads.
fn finish_closed_loop(out: &mut Outcome, by_class: &[(usize, f64, bool)]) {
    let traced = by_class.iter().filter(|s| s.2).count() as u64;
    out.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(by_class),
        traced,
    );
}

/// VM settings of every interpreter run `suite-linked` makes around its
/// measured builds (training, reference, oracle, simulation). With the
/// default 4 MiB stack, whether the allocator zero-filled a reused heap
/// block or mapped fresh pages for it moved peak RSS by ~4 MB between
/// identical runs; the linked program needs far less stack.
const LINKED_VM: ExecOptions = ExecOptions {
    fuel: 1 << 32,
    stack_bytes: 256 << 10,
    tier: Tier::Tree,
};

/// What `suite-linked` set-up derives: the renamed and parsed modules,
/// the trained profile, and the interpreter's reference run.
struct Linked {
    modules: Vec<ModuleAst>,
    input: Program,
    profile: ProfileDb,
    reference: ExecOutcome,
}

fn linked_setup(collect_ms: &mut f64) -> Result<Linked, String> {
    let modules =
        crate::rename::linked_modules(&hlo_suite::all_benchmarks()).map_err(|e| e.to_string())?;
    let input = hlo_frontc::link(&modules).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (profile, _) = collect_profile(&input, &[], &LINKED_VM)
        .map_err(|e| format!("linked training run trapped: {e:?}"))?;
    *collect_ms = ms_since(t);
    let reference = run_program(&input, &[], &LINKED_VM)
        .map_err(|e| format!("linked reference run trapped: {e:?}"))?;
    Ok(Linked {
        modules,
        input,
        profile,
        reference,
    })
}

/// `suite-linked`: each operation links the 42-module program (all suite
/// programs renamed apart plus an entry) and optimizes it at `jobs 1`.
/// At `jobs 2` an operation waits for both of the guest's vCPUs, and its
/// time swung between 0.75× and 1.6× of its median with the second
/// one's availability, which the single-threaded host probes cannot see;
/// at `jobs 1` it stayed within ±20%, and normalized within ±5%.
pub fn suite_linked(cfg: &RunCfg, clock: &mut HostClock) -> Result<Run, String> {
    let mut collect_ms = 0.0;
    let (setup_s, linked) = repeat_setup(clock, || linked_setup(&mut collect_ms))?;
    let opts = HloOptions::default();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); BLOCKS];
    let mut by_build: Vec<(usize, f64, bool)> = Vec::new();
    let mut first_ir: Option<String> = None;
    let mut last: Option<Program> = None;
    let mut kept = Vec::new();
    let mut op = 0usize;
    let measured = sliced(cfg.seconds, clock, |slice, clock| {
        clock.tick();
        let keep = cfg.traced && op.is_multiple_of(TRACE_EVERY);
        op += 1;
        out.attempted += 1;
        let mut tracer = Tracer::new(if keep {
            TraceLevel::Decisions
        } else {
            TraceLevel::Off
        });
        let root = keep.then(|| tracer.push("op:linked"));
        let t0 = Instant::now();
        let (linked_p, link_us) = timed(|| hlo_frontc::link(&linked.modules));
        note(&mut tracer, keep, "frontc.link", link_us);
        let mut p = match linked_p {
            Ok(p) => p,
            Err(e) => {
                out.failed += 1;
                out.wrong(format!("linked program fails to link: {e}"));
                return;
            }
        };
        let (report, opt_us) =
            timed(|| hlo::optimize_traced(&mut p, Some(&linked.profile), &opts, &mut tracer));
        let op_ms = ms_since(t0);
        if let Some(root) = root {
            tracer.pop(root, t0.elapsed());
            kept.push(tracer);
        }
        lat[slice].push(op_ms);
        by_build.push((0, op_ms, keep));
        let (text, text_us) = timed(|| hlo_ir::program_to_text(&p));
        match &first_ir {
            None => first_ir = Some(text),
            Some(first) if *first != text => {
                out.failed += 1;
                out.wrong("linked: optimized IR changed between iterations".to_string());
            }
            Some(_) => {}
        }
        layers.add("frontc.link_us", link_us);
        layers.add("ir.to_text_us", text_us);
        layers.add("core.optimize_ms", opt_us / 1e3);
        layers.add_report(&report);
        last = Some(p);
    });

    // The output oracle, once after timing: the optimized program on the
    // bytecode tier against the interpreter's run of the unoptimized one.
    if let Some(p) = &last {
        let bc = BytecodeProgram::compile(p);
        match run_counted(&bc, p, &[], &LINKED_VM, &mut NullMonitor).0 {
            Ok(o) if same_run(&o, &linked.reference) => {}
            Ok(_) => out.wrong("linked: optimized run differs from the reference".to_string()),
            Err(e) => out.wrong(format!("linked: optimized run trapped: {e:?}")),
        }
    }
    report_timings(&mut out, setup_s, &lat, clock, LINKED_TAIL);
    let refs = [Reference {
        name: "linked".to_string(),
        input: linked.input.clone(),
        profile: Some(linked.profile.clone()),
        opts: opts.clone(),
        sim_args: Some(Vec::new()),
        vm: LINKED_VM,
        expect_ir: first_ir.unwrap_or_default(),
    }];
    summarize_references(&refs, cfg.traced, &mut out);
    set_slo_met(&mut out);
    if !cfg.traced {
        return Ok(Run { out, trace: None });
    }
    layers.emit(&mut out);
    let builds = lat.concat();
    let n = builds.len() as u64;
    out.set("build_ms_p50", pct_or_zero(&builds, 0.5), n);
    out.set("build_ms_p90", pct_or_zero(&builds, 0.9), n);
    out.set("profile.collect_ms", collect_ms, 1);
    finish_closed_loop(&mut out, &by_build);
    let parts: Vec<_> = kept
        .iter()
        .map(|t| (flatten(t), t.decisions().to_vec()))
        .collect();
    let trace = combine("hlobench:suite-linked", &parts, measured);
    Ok(Run {
        out,
        trace: Some(trace),
    })
}
