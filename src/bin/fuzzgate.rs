//! `cargo fuzzgate` — the CI fuzzing gate.
//!
//! Four phases, all with fixed seeds so the gate is deterministic:
//!
//! 1. **Clean sweep** — ≥500 generated cases through the full oracle
//!    matrix. Any finding fails the gate: the optimizer must not
//!    miscompile, panic, emit unverifiable IR, or produce different output
//!    on a re-run for anything the generators produce.
//! 2. **Sensitivity check** — the same pipeline with the planted inliner
//!    fault armed (`hlo::fault`). The gate *must* find at least one
//!    divergence and shrink it to a small reproducer; if it cannot, the
//!    oracle has gone blind and a green phase 1 means nothing.
//! 3. **Summary sensitivity** — the same check with the planted
//!    interprocedural-summary fault armed (`ipa::fault`): every summary
//!    deliberately claims purity, so the pure-call deletions delete
//!    observable calls — with ipa on and, since the syntactic test is a
//!    projection of the summaries, with `--no-ipa` too. The oracle must
//!    catch that — proof it can see a wrong purity summary, not just a
//!    wrong splice.
//! 4. **Incremental sensitivity** — the planted stale-partition-key fault
//!    armed (`serve::fault`): the daemon's partition keys drop their
//!    cone-hash component, so an edited function collides with its stale
//!    cached body and the spliced rebuild serves old code. The campaign's
//!    incremental edit oracle must catch the divergence and shrink it —
//!    proof the byte-identity oracle can see stale partition reuse.
//!
//! Phases 2 and 3 each run twice: once with profile synthesis on the
//! tree tier and once on the bytecode tier, so a planted fault must be
//! catchable end to end no matter which tier feeds the profile.
//!
//! Usage: `cargo fuzzgate [iters]` (default 1000 phase-1 iterations —
//! the bytecode tier runs every candidate ~3× faster than the tree
//! walker alone used to, so the default sweep is deeper at the same
//! wall-clock budget).

use aggressive_inlining::{fuzz, hlo, ipa, serve, vm};
use std::process::ExitCode;

/// Phase-2 reproducers must shrink to at most this many source lines.
const MAX_SHRUNK_LINES: usize = 15;

/// One line of campaign telemetry: case mix by source and mean phase
/// latency per iteration, read back out of the registry the campaign
/// filled.
fn metrics_summary(m: &hlo::MetricsRegistry) -> String {
    let mix = ["gen", "mutate", "irgen"]
        .iter()
        .map(|s| {
            format!(
                "{s}={}",
                m.counter(&format!("fuzz_cases_total{{source=\"{s}\"}}"))
            )
        })
        .collect::<Vec<_>>()
        .join("/");
    let mean = |name: &str| {
        let (count, sum) = m.histogram(name);
        match sum.checked_div(count) {
            Some(mean) => format!("{mean}us"),
            None => "-".to_string(),
        }
    };
    let tier = |t: vm::Tier| {
        let (insts, us) = vm::tier_totals(m, t);
        match insts.checked_div(us.max(1)) {
            Some(mips) if insts > 0 => format!("{mips}Minst/s"),
            _ => "-".to_string(),
        }
    };
    format!(
        "cases {mix}, mean generate {} oracle {} daemon {}, tier tree {} bytecode {}",
        mean("fuzz_generate_us"),
        mean("fuzz_oracle_us"),
        mean("fuzz_daemon_us"),
        tier(vm::Tier::Tree),
        tier(vm::Tier::Bytecode),
    )
}

fn main() -> ExitCode {
    let iters: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("usage: fuzzgate [iters]"))
        .unwrap_or(1000);

    // Phase 1: the optimizer must survive a clean sweep.
    let metrics = hlo::MetricsRegistry::new();
    let clean = fuzz::run_campaign_with(
        &fuzz::CampaignConfig {
            seed: 0x5eed_0001,
            iters,
            daemon_every: 25,
            quiet: true,
            ..Default::default()
        },
        &metrics,
    );
    eprintln!(
        "fuzzgate phase 1: {} executed ({} passed, {} skipped), {} daemon checks, \
         {} findings in {:.1?}",
        clean.executed,
        clean.passed,
        clean.skipped,
        clean.daemon_checks,
        clean.findings.len(),
        clean.elapsed
    );
    eprintln!("fuzzgate metrics: {}", metrics_summary(&metrics));
    if !clean.findings.is_empty() {
        for f in &clean.findings {
            eprintln!(
                "fuzzgate: FINDING {} ({}) at iter {}, {} lines",
                f.finding.kind, f.finding.config, f.iter, f.lines
            );
            eprintln!("{}", f.repro.format());
        }
        return ExitCode::from(1);
    }

    // Phases 2 and 3: with a planted fault armed the gate must light up,
    // and the shrinker must get the reproducer small. Each phase runs on
    // both profile-synthesis tiers.
    for (tier, label) in [
        (vm::Tier::Tree, "tree profile"),
        (vm::Tier::Bytecode, "bytecode profile"),
    ] {
        let faulty = {
            let _guard = hlo::fault::FaultGuard::arm();
            fuzz::run_campaign(&fuzz::CampaignConfig {
                seed: 0x5eed_0002,
                iters: 200,
                stop_after: 1,
                oracle: fuzz::OracleConfig {
                    tier,
                    ..fuzz::OracleConfig::quick()
                },
                quiet: true,
                ..Default::default()
            })
        };
        if !sensitivity_ok(
            &format!("phase 2 (inliner fault, {label})"),
            &faulty,
            fuzz::FindingKind::BehaviorDivergence,
        ) {
            return ExitCode::from(1);
        }

        let faulty = {
            let _guard = ipa::fault::FaultGuard::arm();
            fuzz::run_campaign(&fuzz::CampaignConfig {
                seed: 0x5eed_0003,
                iters: 200,
                stop_after: 1,
                oracle: fuzz::OracleConfig {
                    tier,
                    ..fuzz::OracleConfig::quick()
                },
                quiet: true,
                ..Default::default()
            })
        };
        if !sensitivity_ok(
            &format!("phase 3 (summary fault, {label})"),
            &faulty,
            fuzz::FindingKind::BehaviorDivergence,
        ) {
            return ExitCode::from(1);
        }
    }

    // Phase 4: with the stale-partition-key fault armed, the incremental
    // edit oracle must see the daemon splice a stale body. The plain
    // daemon check stays off (daemon_every: 0) — its PGO legs would trip
    // on the same fault first and report a less precise kind.
    let faulty = {
        let _guard = serve::fault::FaultGuard::arm();
        fuzz::run_campaign(&fuzz::CampaignConfig {
            seed: 0x5eed_0004,
            iters: 200,
            stop_after: 1,
            incremental_every: 2,
            oracle: fuzz::OracleConfig::quick(),
            quiet: true,
            ..Default::default()
        })
    };
    if !sensitivity_ok(
        "phase 4 (stale partition-key fault)",
        &faulty,
        fuzz::FindingKind::IncrementalDivergence,
    ) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Checks one sensitivity phase: the campaign must have caught at least
/// one finding of the expected kind and shrunk it to a small reproducer.
fn sensitivity_ok(phase: &str, faulty: &fuzz::CampaignReport, want: fuzz::FindingKind) -> bool {
    let caught = faulty.findings.iter().find(|f| f.finding.kind == want);
    match caught {
        None => {
            eprintln!(
                "fuzzgate {phase}: planted fault NOT caught in {} cases — oracle is blind",
                faulty.executed
            );
            false
        }
        Some(f) if f.lines > MAX_SHRUNK_LINES => {
            eprintln!(
                "fuzzgate {phase}: caught the planted fault but shrank it to {} lines \
                 (limit {MAX_SHRUNK_LINES})",
                f.lines
            );
            false
        }
        Some(f) => {
            eprintln!(
                "fuzzgate {phase}: planted fault caught at iter {} and shrunk to {} lines; gate green",
                f.iter, f.lines
            );
            true
        }
    }
}
