//! The optimizer's determinism contract: running the same options on the
//! same input twice must give byte-identical output. The optimizer keeps
//! `HashMap`s with randomly seeded hashers, so for every suite program the
//! optimized IR, the operation counts, the budget accounting and the
//! trace content must not depend on iteration order.

use aggressive_inlining::{analysis, fuzz, hlo, ipa, ir, suite};

fn optimized_text(b: &suite::Benchmark, opts: &hlo::HloOptions) -> (String, hlo::HloReport) {
    let mut p = b.compile().expect("suite program compiles");
    let report = hlo::optimize(&mut p, None, opts);
    (ir::program_to_text(&p), report)
}

#[test]
fn suite_ir_is_identical_across_runs() {
    for b in suite::all_benchmarks() {
        for budget in [100, 400] {
            let opts = hlo::HloOptions {
                budget_percent: budget,
                scope: hlo::Scope::CrossModule,
                ..Default::default()
            };
            let (base_text, base) = optimized_text(&b, &opts);
            let (text, report) = optimized_text(&b, &opts);
            assert_eq!(
                base_text, text,
                "{} diverged on a re-run at budget={budget}",
                b.name
            );
            assert_eq!(base.inlines, report.inlines, "{} inlines", b.name);
            assert_eq!(base.clones, report.clones, "{} clones", b.name);
            assert_eq!(
                base.clone_replacements, report.clone_replacements,
                "{} clone repls",
                b.name
            );
            assert_eq!(base.deletions, report.deletions, "{} deletions", b.name);
            assert_eq!(
                base.compile_time_units(),
                report.compile_time_units(),
                "{} budget accounting",
                b.name
            );
        }
    }
}

#[test]
fn fuzz_generated_programs_are_identical_across_runs() {
    // The suite programs above are hand-written and fixed; fuzz-generated
    // programs sweep shapes the suite never takes (deep recursion,
    // dispatchers through function pointers, pragma mixes). Same contract:
    // byte-identical IR on every run.
    for seed in 0..8u64 {
        let sources = fuzz::generate_sources(seed, &fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let compile = || aggressive_inlining::frontc::compile(&refs).expect("generated compiles");
        let opts = hlo::HloOptions {
            scope: hlo::Scope::CrossModule,
            ..Default::default()
        };
        let mut base = compile();
        hlo::optimize(&mut base, None, &opts);
        let mut p = compile();
        hlo::optimize(&mut p, None, &opts);
        assert_eq!(
            ir::program_to_text(&base),
            ir::program_to_text(&p),
            "fuzz seed {seed} diverged on a re-run"
        );
    }
}

#[test]
fn trace_content_is_identical_across_runs() {
    // Observability obeys the same contract as the IR: after timestamp
    // normalization (span *names and nesting*, not wall times), the span
    // tree, the decision report and the metrics exposition must be
    // byte-identical on every run. Partitions plan in partition order, so
    // a re-run may not reorder, drop or duplicate a single line.
    for name in ["022.li", "124.m88ksim", "072.sc"] {
        let b = suite::benchmark(name).expect("suite has the benchmark");
        let run = || {
            let mut p = b.compile().expect("suite program compiles");
            let opts = hlo::HloOptions {
                budget_percent: 30, // tight budget: forces rejections into the log
                scope: hlo::Scope::CrossModule,
                ..Default::default()
            };
            let mut tracer = hlo::Tracer::new(hlo::TraceLevel::Decisions);
            hlo::optimize_traced(&mut p, None, &opts, &mut tracer);
            (
                ir::program_to_text(&p),
                tracer.span_tree_text(),
                tracer.decision_report(None),
                tracer.metrics().expose(),
            )
        };
        let (ir1, spans1, decisions1, metrics1) = run();
        let (ir2, spans2, decisions2, metrics2) = run();
        assert_eq!(ir1, ir2, "{name}: IR diverged under tracing");
        assert_eq!(spans1, spans2, "{name}: span tree differs between runs");
        assert_eq!(
            decisions1, decisions2,
            "{name}: decision provenance differs between runs"
        );
        assert_eq!(
            metrics1, metrics2,
            "{name}: metrics exposition differs between runs"
        );
        assert!(
            !decisions1.is_empty(),
            "{name}: a decision-level trace must record decisions"
        );
    }
}

#[test]
fn ipa_summaries_and_decisions_are_identical_across_runs() {
    // The interprocedural-summary stage inherits the contract: with `ipa`
    // on, the optimized IR, the decision report (including the ipa-*
    // reasons) and the summaries recomputed over the optimized program
    // must be byte-identical on every run. The subset is the benchmarks
    // where ipabench shows summary-stage activity.
    for name in ["124.m88ksim", "072.sc", "130.li", "147.vortex"] {
        let b = suite::benchmark(name).expect("suite has the benchmark");
        let run = || {
            let mut p = b.compile().expect("suite program compiles");
            let opts = hlo::HloOptions {
                scope: hlo::Scope::CrossModule,
                ..Default::default()
            };
            assert!(opts.ipa, "ipa is on by default");
            let mut tracer = hlo::Tracer::new(hlo::TraceLevel::Decisions);
            hlo::optimize_traced(&mut p, None, &opts, &mut tracer);
            let cg = analysis::CallGraph::build(&p);
            let summaries = ipa::Summaries::compute(&p, &cg);
            (
                ir::program_to_text(&p),
                summaries.to_text(),
                tracer.decision_report(None),
            )
        };
        let (ir1, sum1, dec1) = run();
        let (ir2, sum2, dec2) = run();
        assert_eq!(ir1, ir2, "{name}: IR diverged on a re-run with ipa on");
        assert_eq!(sum1, sum2, "{name}: summaries differ between runs");
        assert_eq!(dec1, dec2, "{name}: ipa decisions differ between runs");
        if name == "124.m88ksim" {
            assert!(
                dec1.contains("ipa-ret-const"),
                "{name}: expected a return-constancy fold in the decision report"
            );
        }
    }
}

#[test]
fn strict_checking_stays_identical_and_clean_across_runs() {
    // The verify-each battery checks every function's sub-pass boundaries
    // in function order; diagnostics must come out the same on every run,
    // and no run may introduce (or hide) a finding. A subset keeps the
    // debug-mode runtime bounded; it covers the star cloning target
    // (022.li), the dispatch-table showcase (124.m88ksim) and the
    // pure-call-deletion program (072.sc).
    for name in ["022.li", "124.m88ksim", "072.sc"] {
        let b = suite::benchmark(name).expect("suite has the benchmark");
        let opts = hlo::HloOptions {
            check: hlo::CheckLevel::Strict,
            scope: hlo::Scope::CrossModule,
            ..Default::default()
        };
        let (base_text, base) = optimized_text(&b, &opts);
        let (text, report) = optimized_text(&b, &opts);
        assert_eq!(base_text, text, "{name} diverged under strict checking");
        assert_eq!(
            base.diagnostics, report.diagnostics,
            "{name} diagnostics differ between runs"
        );
        assert_eq!(base.checks_run, report.checks_run, "{name} checks_run");
        assert_eq!(
            report.introduced_diagnostics().count(),
            0,
            "{name} introduced a diagnostic"
        );
    }
}
