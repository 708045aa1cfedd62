//! Shrinker soundness: minimization must preserve the finding, and every
//! intermediate program the shrinker *accepted* must itself be a valid,
//! still-failing reproducer. A shrinker that walks through broken states
//! can "minimize" its way to a different bug than the one it started
//! with; this test audits the whole trail, using the planted inliner
//! fault (`hlo::fault`) as a known-bad optimizer.

use hlo_frontc::{Expr, Item, ModuleAst};
use hlo_fuzz::{gen, oracle, shrink, walk, CaseOutcome, GenConfig, OracleConfig, ShrinkConfig};

/// The measure each accepted shrink step must strictly decrease
/// (lexicographically): total AST nodes, then non-literal expressions
/// (constant replacement keeps the node count), then attributed
/// functions (attr stripping keeps both). Strict decrease is what makes
/// the greedy loop terminate without leaning on the eval budget.
fn complexity(sources: &[(String, String)]) -> (usize, usize, usize) {
    let mut modules: Vec<ModuleAst> = sources
        .iter()
        .map(|(n, s)| hlo_frontc::parse_module(n, s).expect("step parses"))
        .collect();
    let items: usize = modules.iter().map(|m| m.items.len()).sum();
    let stmts = walk::stmt_count(&modules);
    let exprs = walk::expr_count(&mut modules);
    let mut non_literal = 0usize;
    walk::for_each_expr_mut(&mut modules, &mut |e| {
        if !matches!(e, Expr::Int(_)) {
            non_literal += 1;
        }
    });
    let attred = modules
        .iter()
        .flat_map(|m| &m.items)
        .filter(|i| matches!(i, Item::Fn(f) if f.attrs != Default::default() || f.is_static))
        .count();
    (modules.len() + items + stmts + exprs, non_literal, attred)
}

/// Find a generated program that trips the planted fault and shrink it:
/// the reproducer still fails and is tiny, and every accepted step
/// compiles, passes the IR verifier, and still exhibits the same finding
/// kind.
#[test]
fn every_accepted_shrink_step_is_verifier_clean_and_still_failing() {
    let _guard = hlo::fault::FaultGuard::arm();
    let oc = OracleConfig::quick();

    let (modules, want) = (0..200u64)
        .find_map(|seed| {
            let m = gen::generate_modules(seed, &GenConfig::default());
            match oracle::check_sources(&hlo_fuzz::print::print_sources(&m), &oc) {
                CaseOutcome::Fail(f) => Some((m, f.kind)),
                _ => None,
            }
        })
        .expect("some seed must trip the planted inliner fault");

    let mut pred = |sources: &[(String, String)]| {
        matches!(oracle::check_sources(sources, &oc),
                 CaseOutcome::Fail(f) if f.kind == want)
    };
    let out = shrink(modules, &ShrinkConfig::default(), &mut pred);

    assert!(pred(&out.sources), "shrunk program must still fail");
    let lines = hlo_fuzz::print::source_lines(&out.sources);
    assert!(
        lines <= 15,
        "expected a tiny reproducer, got {lines} lines:\n{}",
        out.sources
            .iter()
            .map(|(_, s)| s.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(!out.steps.is_empty(), "shrinker accepted no reductions");
    for (i, step) in out.steps.iter().enumerate() {
        // Accepted step compiles and verifies...
        let p = oracle::compile_sources(&step.sources)
            .unwrap_or_else(|e| panic!("step {i} ({}) does not compile: {e}", step.action));
        hlo_ir::verify_program(&p)
            .unwrap_or_else(|e| panic!("step {i} ({}) fails the verifier: {e}", step.action));
        // ...and still fails the oracle the same way.
        match oracle::check_sources(&step.sources, &oc) {
            CaseOutcome::Fail(f) if f.kind == want => {}
            other => panic!(
                "step {i} ({}) no longer exhibits {want:?}: {other:?}",
                step.action
            ),
        }
    }

    // Each accepted step strictly decreases the structural measure, so
    // the greedy loop cannot cycle even without its eval budget.
    let mut last = (usize::MAX, usize::MAX, usize::MAX);
    for (i, step) in out.steps.iter().enumerate() {
        let c = complexity(&step.sources);
        assert!(
            c < last,
            "step {i} ({}) did not strictly shrink: {last:?} -> {c:?}",
            step.action
        );
        last = c;
    }
}

/// Without a fault armed, shrinking a passing program is a no-op worth
/// guarding: the predicate never holds, so nothing is accepted.
#[test]
fn shrinker_never_accepts_when_the_predicate_never_holds() {
    let modules = gen::generate_modules(2, &GenConfig::default());
    let mut evals = 0u32;
    let mut pred = |_: &[(String, String)]| {
        evals += 1;
        false
    };
    let out = shrink(modules.clone(), &ShrinkConfig::default(), &mut pred);
    assert!(out.steps.is_empty());
    assert_eq!(out.modules, modules, "program must be unchanged");
    assert!(evals > 0, "predicate was never consulted");
}
