//! Seed determinism: the whole fuzzing stack — generators, oracle,
//! campaign — must be a pure function of its seed. Reproducers are only
//! trustworthy if re-running the seed reproduces the run.

use hlo_fuzz::{
    gen, irgen, oracle, run_campaign, CampaignConfig, CaseOutcome, GenConfig, IrGenConfig,
    OracleConfig,
};

#[test]
fn same_seed_gives_byte_identical_sources() {
    for seed in [0u64, 1, 17, 0xdead_beef] {
        let a = gen::generate_sources(seed, &GenConfig::default());
        let b = gen::generate_sources(seed, &GenConfig::default());
        assert_eq!(a, b, "seed {seed} not reproducible");
    }
}

#[test]
fn same_seed_gives_byte_identical_ir() {
    for seed in [0u64, 3, 99] {
        let a = irgen::generate_program(seed, &IrGenConfig::default());
        let b = irgen::generate_program(seed, &IrGenConfig::default());
        assert_eq!(
            hlo_ir::program_to_text(&a),
            hlo_ir::program_to_text(&b),
            "IR seed {seed} not reproducible"
        );
    }
}

#[test]
fn verdicts_are_reproducible() {
    // The oracle's verdict for a case must not depend on when it runs.
    for seed in 0..6u64 {
        let sources = gen::generate_sources(seed, &GenConfig::default());
        let quick = OracleConfig::quick();
        let v1 = oracle::check_sources(&sources, &quick);
        let v2 = oracle::check_sources(&sources, &quick);
        assert_eq!(
            verdict_tag(&v1),
            verdict_tag(&v2),
            "seed {seed} verdict flapped"
        );
    }
}

#[test]
fn campaign_reports_are_reproducible() {
    let cfg = CampaignConfig {
        iters: 20,
        oracle: OracleConfig::quick(),
        ..Default::default()
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.passed, b.passed);
    assert_eq!(a.skipped, b.skipped);
    assert_eq!(a.mutants_discarded, b.mutants_discarded);
    assert_eq!(a.findings.len(), b.findings.len());
    for (fa, fb) in a.findings.iter().zip(&b.findings) {
        assert_eq!(fa.repro.format(), fb.repro.format());
    }
}

fn verdict_tag(v: &CaseOutcome) -> String {
    match v {
        CaseOutcome::Pass => "pass".to_string(),
        CaseOutcome::Skip(s) => format!("skip:{s}"),
        CaseOutcome::Fail(f) => format!("fail:{}:{}", f.kind, f.config),
    }
}
