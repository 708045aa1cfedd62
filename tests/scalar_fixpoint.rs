//! The premise the driver's cleanup skip rests on, tested apart from the
//! driver: once `optimize_function` reports `converged`, running it again
//! changes nothing — not the body, not the profile, not the stats — even
//! after the function's profile counts were rescaled, as the inliner and
//! cloner rescale a callee's counts without touching its body.
//!
//! Every function of the 14 suite programs is covered, both as compiled
//! and after a default `hlo::optimize`, plus a fixed-seed batch of
//! fuzz-generated programs from both of `hlo-fuzz`'s generators. The same
//! corpus checks `optimize_function` against a reference loop over the
//! standalone sub-pass entry points.

use aggressive_inlining::{frontc, fuzz, hlo, ir, opt, suite};
use ir::{Function, Program};

/// Counts of functions checked and of the ones that converged.
#[derive(Default)]
struct Tally {
    funcs: usize,
    converged: usize,
}

/// Optimizes a copy of every function of `p`; where the run converged,
/// checks that a second run is a no-op, and a third after scaling the
/// profile counts too.
fn check_program(label: &str, p: &Program, tally: &mut Tally) {
    for f in &p.funcs {
        tally.funcs += 1;
        let mut g = f.clone();
        if !opt::optimize_function(&mut g).converged {
            continue;
        }
        tally.converged += 1;
        for rescale in [1.0, 0.37] {
            if let Some(pr) = &mut g.profile {
                pr.entry *= rescale;
                for b in &mut pr.blocks {
                    *b *= rescale;
                }
            }
            let before = ir::hash_function(&g);
            let again = opt::optimize_function(&mut g);
            let where_ = format!("{label}: `{}` (counts scaled by {rescale})", f.name);
            assert!(!again.changed, "{where_}: a converged function changed");
            assert!(again.converged, "{where_}: a second run did not converge");
            assert_eq!(ir::hash_function(&g), before, "{where_}: the hash moved");
        }
    }
}

/// Checks `p` as compiled and after a default `hlo::optimize`.
fn check_compiled_and_optimized(label: &str, mut p: Program, tally: &mut Tally) {
    check_program(&format!("{label} (compiled)"), &p, tally);
    hlo::optimize(&mut p, None, &hlo::HloOptions::default());
    check_program(&format!("{label} (optimized)"), &p, tally);
}

#[test]
fn converged_functions_stay_put_over_suite_and_fuzz_programs() {
    let mut tally = Tally::default();
    for b in suite::all_benchmarks() {
        let p = b.compile().expect("suite program compiles");
        check_compiled_and_optimized(b.name, p, &mut tally);
    }
    for seed in 0..16u64 {
        let sources = fuzz::generate_sources(seed, &fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let p = frontc::compile(&refs).expect("generated program compiles");
        check_compiled_and_optimized(&format!("fuzz-{seed}"), p, &mut tally);
        let p = fuzz::generate_program(seed, &fuzz::IrGenConfig::default());
        check_compiled_and_optimized(&format!("irgen-{seed}"), p, &mut tally);
    }
    // The premise is vacuous unless the optimizer actually converges on
    // (nearly) everything it is given.
    assert!(
        tally.converged * 100 >= tally.funcs * 99,
        "only {} of {} functions converged",
        tally.converged,
        tally.funcs
    );
}

/// Calls `visit` on every program of the corpus above: each suite program
/// and each fuzz-generated one, as compiled and after a default
/// `hlo::optimize`.
fn visit_corpus(mut visit: impl FnMut(&str, &Program)) {
    let mut both = |label: &str, mut p: Program| {
        visit(&format!("{label} (compiled)"), &p);
        hlo::optimize(&mut p, None, &hlo::HloOptions::default());
        visit(&format!("{label} (optimized)"), &p);
    };
    for b in suite::all_benchmarks() {
        both(b.name, b.compile().expect("suite program compiles"));
    }
    for seed in 0..16u64 {
        let sources = fuzz::generate_sources(seed, &fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let p = frontc::compile(&refs).expect("generated program compiles");
        both(&format!("fuzz-{seed}"), p);
        both(
            &format!("irgen-{seed}"),
            fuzz::generate_program(seed, &fuzz::IrGenConfig::default()),
        );
    }
}

/// One scalar-optimizer run spelled out through the standalone sub-pass
/// entry points, in pipeline order, until a round changes nothing (at
/// most 8 rounds). Returns the rounds run, whether anything changed and
/// whether the last round changed nothing.
fn reference_run(f: &mut Function) -> (u64, bool, bool) {
    let mut changed = false;
    for round in 1..=8 {
        let cp = opt::constprop::propagate(f);
        let alg = opt::algebraic::simplify_algebra(f);
        let cfg = opt::simplify_cfg::simplify(f);
        let fwd = opt::memfwd::forward_stores(f);
        let copies = opt::copyprop::propagate_copies(f);
        let cse = opt::cse::eliminate_common(f);
        let dce = opt::dce::eliminate_dead(f);
        let slots = opt::dead_slots::eliminate_dead_slots(f);
        let round_changed =
            cp.changed() || cfg.changed() || alg + fwd + copies + cse + dce + slots > 0;
        changed |= round_changed;
        if !round_changed {
            return (round, changed, true);
        }
    }
    (8, changed, false)
}

#[test]
fn optimize_function_equals_the_standalone_sub_passes_in_order() {
    let mut funcs = 0;
    visit_corpus(|label, p| {
        for f in &p.funcs {
            funcs += 1;
            let mut got = f.clone();
            let stats = opt::optimize_function(&mut got);
            let mut want = f.clone();
            let (rounds, changed, converged) = reference_run(&mut want);
            let where_ = format!("{label}: `{}`", f.name);
            assert_eq!(got, want, "{where_}: the bodies differ");
            assert_eq!(
                (stats.rounds, stats.changed, stats.converged),
                (rounds, changed, converged),
                "{where_}: (rounds, changed, converged) differ"
            );
        }
    });
    assert!(funcs > 500, "only {funcs} functions compared");
}
