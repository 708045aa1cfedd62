//! The differential oracle: translation validation by execution.
//!
//! A candidate program is executed once on the VM to establish its
//! *baseline* observable behaviour — return value, `print_i64` output in
//! order, `sink` checksum, and the exact sequence of extern calls. Then
//! the optimizer runs under every configuration in a matrix (budgets,
//! scopes, profile/no-profile, check levels), and each optimized program
//! must reproduce the baseline exactly. Any deviation is a **finding**:
//!
//! * the optimizer panicking ([`FindingKind::OptimizerPanic`]);
//! * the optimized program failing the IR verifier
//!   ([`FindingKind::VerifierRejected`]);
//! * verify-each attributing a new warning-or-worse diagnostic to a
//!   pipeline stage ([`FindingKind::CheckRegression`]);
//! * different observable behaviour, including a trap the baseline did
//!   not have ([`FindingKind::BehaviorDivergence`]);
//! * output that is not byte-identical when the same optimization runs
//!   again ([`FindingKind::Nondeterminism`]);
//! * the two VM execution tiers disagreeing about what a program does
//!   ([`FindingKind::TierDivergence`]) — every execution the oracle
//!   performs (baseline and optimized) runs on both the tree-walker and
//!   the bytecode tier and must agree on return value, output, checksum,
//!   extern-call order, retired-instruction count, and trap.
//!
//! Baselines that trap are **skipped**, not reported: the generator
//! produces clean programs by construction, but mutants may divide by
//! zero or run off an array — and for trapping executions the optimizer's
//! obligations are weaker (dead trapping loads may legally disappear), so
//! differential comparison would report noise.

use crate::print::source_lines;
use hlo::MetricsRegistry;
use hlo::{optimize, CheckLevel, HloOptions, Scope};
use hlo_ir::{program_to_text, verify_program, Program};
use hlo_profile::ProfileDb;
use hlo_vm::{run_with_monitor, ExecMonitor, ExecOptions, ExecOutcome, SiteId, Tier};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fuel for baseline runs. Optimized runs get [`FUEL_HEADROOM`]× this, so
/// a legitimate optimized program can never exhaust fuel the baseline had
/// left, while a transform that manufactures an infinite loop still gets
/// caught (as a divergence) instead of hanging the fuzzer.
pub const ORACLE_FUEL: u64 = 1 << 22;

/// Fuel multiplier for post-optimization runs.
pub const FUEL_HEADROOM: u64 = 4;

/// What one execution observably did. Two runs of semantically equivalent
/// programs must compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// `main`'s return value.
    pub ret: i64,
    /// `print_i64` values, in order.
    pub output: Vec<i64>,
    /// Final `sink` checksum.
    pub checksum: u64,
    /// Extern-call names, in call order (`print_i64`, `sink`, ...).
    pub externs: Vec<String>,
}

/// Categories of oracle findings, ordered roughly by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The front end rejected a program the generator claims is valid.
    CompileError,
    /// `optimize` panicked.
    OptimizerPanic,
    /// The optimized program failed `verify_program`.
    VerifierRejected,
    /// Verify-each attributed a warning-or-worse diagnostic to a stage.
    CheckRegression,
    /// The optimized program behaved differently from the baseline.
    BehaviorDivergence,
    /// A second run of the same optimization produced different output.
    Nondeterminism,
    /// The `hlo-serve` daemon returned different IR than an in-process
    /// optimize of the same request (cold), or its warm cached response
    /// was not byte-identical to the cold one.
    DaemonMismatch,
    /// The tree-walking and bytecode execution tiers disagreed about the
    /// same program's observable behaviour (a VM bug, not an optimizer
    /// bug).
    TierDivergence,
    /// The daemon's incremental (partition-splicing) rebuild of an edited
    /// program was not byte-identical to a from-scratch optimize of the
    /// same edit.
    IncrementalDivergence,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FindingKind::CompileError => "compile-error",
            FindingKind::OptimizerPanic => "optimizer-panic",
            FindingKind::VerifierRejected => "verifier-rejected",
            FindingKind::CheckRegression => "check-regression",
            FindingKind::BehaviorDivergence => "behavior-divergence",
            FindingKind::Nondeterminism => "nondeterminism",
            FindingKind::DaemonMismatch => "daemon-mismatch",
            FindingKind::TierDivergence => "tier-divergence",
            FindingKind::IncrementalDivergence => "incremental-divergence",
        })
    }
}

/// One confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Label of the matrix entry that exposed it.
    pub config: String,
    /// [`HloOptions::fingerprint`] of that entry — reproducers record it
    /// so a regression test can re-run the exact configuration.
    pub options_fingerprint: u64,
    /// Human-readable specifics (the two behaviours, the panic payload,
    /// the verifier error, ...).
    pub detail: String,
}

/// The verdict on one candidate program.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Every matrix entry reproduced the baseline.
    Pass,
    /// The case was not usable for differential comparison (e.g. the
    /// baseline trapped); not a finding.
    Skip(String),
    /// A divergence, panic, or verifier rejection.
    Fail(Finding),
}

/// One optimizer configuration the oracle runs.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Short stable label (appears in reproducer headers).
    pub label: String,
    /// The options under test.
    pub opts: HloOptions,
    /// Synthesize a profile from a baseline VM trace and optimize with it.
    pub with_profile: bool,
    /// Route the synthesized profile through an in-process
    /// `hlo_pgo::ProfileStore` (push, decay one generation, push again)
    /// and optimize with the *merged aggregate* — the exact profile a
    /// daemon `profile: server` rebuild would use. Implies
    /// `with_profile`.
    pub continuous_pgo: bool,
    /// Re-run the same optimization and require the result to be
    /// byte-identical.
    pub probe_rerun: bool,
}

/// Oracle configuration: program arguments, fuel, and the config matrix.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Arguments passed to `main`.
    pub args: Vec<i64>,
    /// Baseline fuel (optimized runs get [`FUEL_HEADROOM`]× more).
    pub fuel: u64,
    /// Tier used for profile synthesis (`ProfileDb::from_vm_trace`).
    /// Executions always run on *both* tiers regardless — this only
    /// selects which engine feeds PGO, so planted-fault sensitivity can
    /// be exercised end to end on either tier.
    pub tier: Tier,
    /// The configurations to test.
    pub entries: Vec<MatrixEntry>,
}

fn entry(label: &str, opts: HloOptions, with_profile: bool, probe_rerun: bool) -> MatrixEntry {
    MatrixEntry {
        label: label.to_string(),
        opts,
        with_profile,
        continuous_pgo: false,
        probe_rerun,
    }
}

impl OracleConfig {
    /// The full matrix the fuzz gate runs: budgets {0, 100, 400} crossed
    /// with both scopes, plus profile-guided, strict-checked, outlining,
    /// summary-analysis-disabled (`noipa`), and continuous-PGO
    /// (store-aggregated profile) configurations, with re-run determinism
    /// probes on the aggressive entries.
    pub fn full() -> Self {
        let base = HloOptions::default(); // CrossModule, budget 100
        let with = |scope, budget: u64| HloOptions {
            scope,
            budget_percent: budget,
            ..base.clone()
        };
        OracleConfig {
            args: vec![5],
            fuel: ORACLE_FUEL,
            tier: Tier::Tree,
            entries: vec![
                entry("b0-module", with(Scope::WithinModule, 0), false, false),
                entry("b0-program", with(Scope::CrossModule, 0), false, false),
                entry("b100-module", with(Scope::WithinModule, 100), false, false),
                entry("b100-program", with(Scope::CrossModule, 100), false, true),
                entry(
                    "b100-program-pgo",
                    with(Scope::CrossModule, 100),
                    true,
                    false,
                ),
                entry("b400-program", with(Scope::CrossModule, 400), false, true),
                entry(
                    "b400-module-pgo",
                    with(Scope::WithinModule, 400),
                    true,
                    false,
                ),
                entry(
                    "b100-program-strict",
                    HloOptions {
                        check: CheckLevel::Strict,
                        ..with(Scope::CrossModule, 100)
                    },
                    false,
                    false,
                ),
                entry(
                    "b100-program-outline-pgo",
                    HloOptions {
                        enable_outline: true,
                        ..with(Scope::CrossModule, 100)
                    },
                    true,
                    false,
                ),
                // The ipa on/off axis: the summary-driven stages must be
                // sound (covered by every entry above, where ipa defaults
                // on) AND the pipeline must stay correct with them off.
                entry(
                    "b100-program-noipa",
                    HloOptions {
                        ipa: false,
                        ..with(Scope::CrossModule, 100)
                    },
                    false,
                    false,
                ),
                entry(
                    "b400-program-noipa",
                    HloOptions {
                        ipa: false,
                        ..with(Scope::CrossModule, 400)
                    },
                    false,
                    true,
                ),
                // Continuous PGO: the profile is not used raw but pushed
                // through a ProfileStore across a decay generation, so the
                // optimizer sees exactly what a daemon-side
                // `profile: server` rebuild would hand it.
                MatrixEntry {
                    label: "b100-program-pgo-server".to_string(),
                    opts: with(Scope::CrossModule, 100),
                    with_profile: true,
                    continuous_pgo: true,
                    probe_rerun: false,
                },
            ],
        }
    }

    /// A three-entry matrix for unit tests and quick smoke runs.
    pub fn quick() -> Self {
        let full = Self::full();
        OracleConfig {
            entries: full
                .entries
                .iter()
                .filter(|e| {
                    matches!(
                        e.label.as_str(),
                        "b0-program" | "b100-program" | "b100-program-pgo"
                    )
                })
                .cloned()
                .collect(),
            ..full
        }
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Records the extern-call name sequence of one run.
struct ExternTrace {
    names: Vec<String>,
    calls: Vec<String>,
}

impl ExecMonitor for ExternTrace {
    fn extern_call(&mut self, _site: SiteId, ext: hlo_ir::ExternId) {
        self.calls.push(self.names[ext.0 as usize].clone());
    }
}

/// Runs `p` on one tier and collects its observable behaviour plus the
/// retired-instruction count.
fn observe_on(
    p: &Program,
    args: &[i64],
    fuel: u64,
    tier: Tier,
    metrics: Option<&MetricsRegistry>,
) -> Result<(Observed, u64), hlo_vm::Trap> {
    let mut tracer = ExternTrace {
        names: p.externs.iter().map(|e| e.name.clone()).collect(),
        calls: Vec::new(),
    };
    let opts = ExecOptions {
        fuel,
        tier,
        ..Default::default()
    };
    let out: ExecOutcome = match metrics {
        Some(reg) => hlo_vm::run_with_monitor_metrics(p, args, &opts, &mut tracer, reg)?,
        None => run_with_monitor(p, args, &opts, &mut tracer)?,
    };
    let retired = out.retired;
    Ok((
        Observed {
            ret: out.ret,
            output: out.output,
            checksum: out.checksum,
            externs: tracer.calls,
        },
        retired,
    ))
}

/// Runs `p` and collects its observable behaviour (tree tier).
///
/// # Errors
/// Propagates the VM trap when the run faults.
pub fn observe(p: &Program, args: &[i64], fuel: u64) -> Result<Observed, hlo_vm::Trap> {
    observe_on(p, args, fuel, Tier::Tree, None).map(|(o, _)| o)
}

fn tier_side(r: &Result<(Observed, u64), hlo_vm::Trap>) -> String {
    match r {
        Ok((o, retired)) => format!(
            "ret {} output {:?} checksum {:#x} externs {:?} retired {retired}",
            o.ret, o.output, o.checksum, o.externs
        ),
        Err(t) => format!("trap: {t}"),
    }
}

/// Runs `p` on *both* execution tiers and requires them to agree on the
/// full result — same [`Observed`] and retired count, or the same trap
/// with the same function attribution.
///
/// # Errors
/// The outer `Err` describes a tier divergence (a VM bug); the inner
/// `Result` is the agreed-upon run result.
pub fn observe_both(
    p: &Program,
    args: &[i64],
    fuel: u64,
) -> Result<Result<Observed, hlo_vm::Trap>, String> {
    observe_both_with(p, args, fuel, None)
}

fn observe_both_with(
    p: &Program,
    args: &[i64],
    fuel: u64,
    metrics: Option<&MetricsRegistry>,
) -> Result<Result<Observed, hlo_vm::Trap>, String> {
    let tree = observe_on(p, args, fuel, Tier::Tree, metrics);
    let bytecode = observe_on(p, args, fuel, Tier::Bytecode, metrics);
    if tree == bytecode {
        Ok(tree.map(|(o, _)| o))
    } else {
        Err(format!(
            "tree [{}] vs bytecode [{}]",
            tier_side(&tree),
            tier_side(&bytecode)
        ))
    }
}

/// Compiles `(module, source)` pairs through the real front end.
///
/// # Errors
/// Returns the front-end error message.
pub fn compile_sources(sources: &[(String, String)]) -> Result<Program, String> {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    hlo_frontc::compile(&refs).map_err(|e| e.to_string())
}

/// Oracle entry point for source-level cases: compile, then run the
/// matrix. A front-end rejection is itself a finding — the generator and
/// shrinker only emit programs they believe are valid.
pub fn check_sources(sources: &[(String, String)], oc: &OracleConfig) -> CaseOutcome {
    check_sources_with(sources, oc, None)
}

/// [`check_sources`] with per-tier VM execution counters recorded into
/// `metrics` (see `hlo_vm::run_with_monitor_metrics`).
pub fn check_sources_with(
    sources: &[(String, String)],
    oc: &OracleConfig,
    metrics: Option<&MetricsRegistry>,
) -> CaseOutcome {
    match compile_sources(sources) {
        Ok(p) => check_program_with(&p, oc, metrics),
        Err(e) => CaseOutcome::Fail(Finding {
            kind: FindingKind::CompileError,
            config: "frontc".to_string(),
            options_fingerprint: 0,
            detail: format!("{e} ({} source lines)", source_lines(sources)),
        }),
    }
}

/// Oracle entry point for already-compiled programs (the IR generator and
/// the daemon cross-check use this).
pub fn check_program(p0: &Program, oc: &OracleConfig) -> CaseOutcome {
    check_program_with(p0, oc, None)
}

/// [`check_program`] with per-tier VM execution counters recorded into
/// `metrics`.
pub fn check_program_with(
    p0: &Program,
    oc: &OracleConfig,
    metrics: Option<&MetricsRegistry>,
) -> CaseOutcome {
    let baseline = match observe_both_with(p0, &oc.args, oc.fuel, metrics) {
        Ok(Ok(b)) => b,
        Ok(Err(t)) => return CaseOutcome::Skip(format!("baseline trapped: {t}")),
        Err(d) => {
            return CaseOutcome::Fail(Finding {
                kind: FindingKind::TierDivergence,
                config: "tier-baseline".to_string(),
                options_fingerprint: 0,
                detail: d,
            });
        }
    };
    let opt_fuel = oc.fuel.saturating_mul(FUEL_HEADROOM);

    for entry in &oc.entries {
        let fp = entry.opts.fingerprint();
        let fail = |kind, detail: String| {
            CaseOutcome::Fail(Finding {
                kind,
                config: entry.label.clone(),
                options_fingerprint: fp,
                detail,
            })
        };

        let profile = entry.with_profile.then(|| {
            let exec = ExecOptions {
                fuel: oc.fuel,
                tier: oc.tier,
                ..Default::default()
            };
            let db = ProfileDb::from_vm_trace(p0, &oc.args, &exec);
            if entry.continuous_pgo {
                // Age the profile through the daemon's store machinery:
                // push, decay one generation, push again. The merged
                // (decayed + fresh) aggregate is what a `profile: server`
                // rebuild optimizes with; it must be just as sound as the
                // raw profile.
                let mut store = hlo_pgo::ProfileStore::new(hlo_pgo::store::DEFAULT_CAP);
                let key = hlo_pgo::program_key(p0);
                store.register(&key).expect("derived keys are well-formed");
                store.push(&key, &db).expect("key was just registered");
                store.advance(&key, 1).expect("key was just registered");
                store.push(&key, &db).expect("key was just registered");
                store.merged(&key).unwrap_or(db)
            } else {
                db
            }
        });

        let mut optimized = p0.clone();
        let report = match catch_unwind(AssertUnwindSafe(|| {
            optimize(&mut optimized, profile.as_ref(), &entry.opts)
        })) {
            Ok(r) => r,
            Err(payload) => {
                return fail(FindingKind::OptimizerPanic, panic_message(payload));
            }
        };

        if let Err(e) = verify_program(&optimized) {
            return fail(FindingKind::VerifierRejected, format!("{e:?}"));
        }

        if entry.opts.check != CheckLevel::Off {
            let introduced: Vec<String> = report
                .introduced_diagnostics()
                .filter(|d| d.severity >= hlo::Severity::Warning)
                .map(|d| d.to_string())
                .collect();
            if !introduced.is_empty() {
                return fail(
                    FindingKind::CheckRegression,
                    format!("{} introduced: {}", introduced.len(), introduced.join("; ")),
                );
            }
        }

        match observe_both_with(&optimized, &oc.args, opt_fuel, metrics) {
            Ok(Ok(obs)) => {
                if obs != baseline {
                    return fail(
                        FindingKind::BehaviorDivergence,
                        diff_detail(&baseline, &obs),
                    );
                }
            }
            Ok(Err(t)) => {
                return fail(
                    FindingKind::BehaviorDivergence,
                    format!("baseline ran clean, optimized trapped: {t}"),
                );
            }
            Err(d) => {
                return fail(FindingKind::TierDivergence, d);
            }
        }

        if entry.probe_rerun {
            let mut again = p0.clone();
            let r = catch_unwind(AssertUnwindSafe(|| {
                optimize(&mut again, profile.as_ref(), &entry.opts)
            }));
            if r.is_err() {
                return fail(
                    FindingKind::OptimizerPanic,
                    "panicked only on the re-run".to_string(),
                );
            }
            if program_to_text(&again) != program_to_text(&optimized) {
                return fail(
                    FindingKind::Nondeterminism,
                    "two runs of the same options produced different programs".to_string(),
                );
            }
        }
    }
    CaseOutcome::Pass
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn diff_detail(base: &Observed, got: &Observed) -> String {
    let mut parts = Vec::new();
    if base.ret != got.ret {
        parts.push(format!("ret {} vs {}", base.ret, got.ret));
    }
    if base.output != got.output {
        parts.push(format!("output {:?} vs {:?}", base.output, got.output));
    }
    if base.checksum != got.checksum {
        parts.push(format!(
            "checksum {:#x} vs {:#x}",
            base.checksum, got.checksum
        ));
    }
    if base.externs != got.externs {
        parts.push(format!(
            "extern trace {:?} vs {:?}",
            base.externs, got.externs
        ));
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources_of(src: &str) -> Vec<(String, String)> {
        vec![("m".to_string(), src.to_string())]
    }

    #[test]
    fn clean_program_passes_the_full_matrix() {
        let out = check_sources(
            &sources_of(
                r#"
                fn helper(x) { return x * 3 + 1; }
                fn main(a) {
                    var s = 0;
                    for (var i = 0; i < (a & 7) + 2; i = i + 1) { s = s + helper(i); }
                    print_i64(s);
                    sink(s);
                    return s;
                }
                "#,
            ),
            &OracleConfig::full(),
        );
        assert!(matches!(out, CaseOutcome::Pass), "{out:?}");
    }

    #[test]
    fn trapping_baseline_is_skipped() {
        let out = check_sources(
            &sources_of("fn main(a) { return a / (a - a); }"),
            &OracleConfig::quick(),
        );
        assert!(matches!(out, CaseOutcome::Skip(_)), "{out:?}");
    }

    #[test]
    fn unparseable_source_is_a_compile_finding() {
        let out = check_sources(
            &sources_of("fn main( { return 0; }"),
            &OracleConfig::quick(),
        );
        match out {
            CaseOutcome::Fail(f) => assert_eq!(f.kind, FindingKind::CompileError),
            other => panic!("expected compile finding, got {other:?}"),
        }
    }

    #[test]
    fn planted_ipa_fault_is_detected_as_divergence() {
        // Arm the summary fault: every function's effect facts are erased,
        // so the summary stage deletes the dead-result call to `noisy` —
        // whose print is observable — and the extern trace diverges.
        let _guard = hlo_ipa::fault::FaultGuard::arm();
        let out = check_sources(
            &sources_of(
                r#"
                fn noisy(x) { print_i64(x); return x; }
                fn main(a) { noisy(a + 1); return a; }
                "#,
            ),
            &OracleConfig::quick(),
        );
        match out {
            CaseOutcome::Fail(f) => {
                assert_eq!(f.kind, FindingKind::BehaviorDivergence);
                assert!(
                    f.detail.contains("extern trace") || f.detail.contains("output"),
                    "{}",
                    f.detail
                );
            }
            other => panic!("expected divergence under summary fault, got {other:?}"),
        }
    }

    #[test]
    fn planted_fault_is_detected_as_divergence() {
        // Arm the inliner fault: the first spliced Add becomes a Sub, so
        // any inlined callee computing `x + y` diverges observably. The
        // arguments are deliberately non-constant — with a constant
        // argument the cloner specializes the callee instead of inlining
        // it, and the fault (which lives in `inline_call`) stays silent.
        let _guard = hlo::fault::FaultGuard::arm();
        let out = check_sources(
            &sources_of(
                r#"
                fn add(x, y) { return x + y; }
                fn main(a) { print_i64(add(a, a + 1)); return add(a, a * 2); }
                "#,
            ),
            &OracleConfig::quick(),
        );
        match out {
            CaseOutcome::Fail(f) => assert_eq!(f.kind, FindingKind::BehaviorDivergence),
            other => panic!("expected divergence under fault, got {other:?}"),
        }
    }
}
