//! The fuzzing campaign driver.
//!
//! A campaign derives one independent PRNG stream per iteration from a
//! single master seed (`Rng::new(seed).derive(i)`), so any iteration can
//! be replayed in isolation and the whole run is reproducible regardless
//! of how it is scheduled. Each iteration draws a candidate from one of
//! three sources — the MinC generator (~70%), the mutator applied to a
//! recently passing program (~15%), or the direct IR generator (~15%) —
//! and feeds it to the differential oracle. Failures are shrunk (MinC
//! cases) and written to the corpus directory as self-contained
//! reproducers.
//!
//! Optionally, every N-th passing MinC case is also round-tripped through
//! a live `hlo-serve` daemon: the daemon's cold response must equal an
//! in-process optimize byte-for-byte, and its warm (cached) response must
//! equal the cold one. A mismatch is a [`FindingKind::DaemonMismatch`].

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hlo::{MetricsRegistry, LATENCY_BUCKETS_US};
use hlo_frontc::ModuleAst;

use crate::corpus::{write_reproducer, ReproBody, Reproducer};
use crate::gen::{generate_modules, GenConfig};
use crate::irgen::{generate_program, IrGenConfig};
use crate::mutate::mutate;
use crate::oracle::{
    check_program_with, check_sources, check_sources_with, CaseOutcome, Finding, FindingKind,
    OracleConfig,
};
use crate::print::{print_sources, source_lines};
use crate::rng::Rng;
use crate::shrink::{shrink, ShrinkConfig};

/// Everything a campaign needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Iteration count.
    pub iters: u64,
    /// Optional wall-clock budget; the campaign stops early when spent.
    pub budget: Option<Duration>,
    /// Where to write reproducers (`None` keeps findings in memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Stop after this many findings (0 = never stop early).
    pub stop_after: usize,
    /// Round-trip every N-th passing MinC case through a live daemon
    /// (0 disables the check).
    pub daemon_every: u64,
    /// Every N-th passing MinC case, push the compiled program and a
    /// one-constant edit of it through a live daemon and require the
    /// incremental (partition-splicing) rebuild of the edit to be
    /// byte-identical to a from-scratch optimize (0 disables the check).
    /// Kept separate from `daemon_every` so the planted serve fault
    /// (`hlo_serve::fault`) can be exercised without the PGO legs of the
    /// plain daemon check firing first.
    pub incremental_every: u64,
    /// Shrinker limits.
    pub shrink: ShrinkConfig,
    /// MinC generator shape.
    pub gen: GenConfig,
    /// IR generator shape.
    pub irgen: IrGenConfig,
    /// Oracle matrix.
    pub oracle: OracleConfig,
    /// Suppress progress output on stderr.
    pub quiet: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x5eed,
            iters: 200,
            budget: None,
            corpus_dir: None,
            stop_after: 0,
            daemon_every: 0,
            incremental_every: 0,
            shrink: ShrinkConfig::default(),
            gen: GenConfig::default(),
            irgen: IrGenConfig::default(),
            oracle: OracleConfig::default(),
            quiet: true,
        }
    }
}

/// A finding after shrinking, with its reproducer.
#[derive(Debug, Clone)]
pub struct ShrunkFinding {
    /// Iteration that produced the failing case.
    pub iter: u64,
    /// The original oracle finding.
    pub finding: Finding,
    /// The (shrunk, for MinC) reproducer.
    pub repro: Reproducer,
    /// Source lines of the reproducer payload.
    pub lines: usize,
    /// Where the reproducer was written, when a corpus dir is set.
    pub path: Option<PathBuf>,
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases that reached the oracle.
    pub executed: u64,
    /// Cases where every matrix entry reproduced the baseline.
    pub passed: u64,
    /// Cases skipped (trapping baseline).
    pub skipped: u64,
    /// Mutants discarded because they no longer compiled.
    pub mutants_discarded: u64,
    /// Daemon round-trips performed.
    pub daemon_checks: u64,
    /// Incremental edit-oracle checks performed.
    pub incremental_checks: u64,
    /// All findings, shrunk where possible.
    pub findings: Vec<ShrunkFinding>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

enum Case {
    Minc(u64, Vec<ModuleAst>),
    Ir(u64, hlo_ir::Program),
}

/// Runs a campaign to completion (iterations, budget, or `stop_after`,
/// whichever comes first).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_with(cfg, &MetricsRegistry::new())
}

/// [`run_campaign`] with an externally owned metrics registry. Per
/// iteration the generate/oracle/shrink/daemon phases land in
/// `fuzz_<phase>_us` histograms, and cases are counted by source and
/// outcome (`fuzz_cases_total{source=…}`, `fuzz_outcome_total{…}`,
/// findings by oracle config in `fuzz_findings_total{config=…}`). The
/// counters are deterministic for a fixed config; only the timings vary.
pub fn run_campaign_with(cfg: &CampaignConfig, metrics: &MetricsRegistry) -> CampaignReport {
    let start = Instant::now();
    let mut report = CampaignReport::default();
    // Recently passing programs, the mutator's seed pool.
    let mut pool: Vec<Vec<ModuleAst>> = Vec::new();
    let mut daemon = DaemonCheck::new();

    for i in 0..cfg.iters {
        if let Some(b) = cfg.budget {
            if start.elapsed() >= b {
                if !cfg.quiet {
                    eprintln!("hlo-fuzz: time budget spent after {i} iterations");
                }
                break;
            }
        }
        let mut rng = Rng::new(cfg.seed).derive(i);
        let roll = rng.below(100);
        let gen_t = Instant::now();
        let (case, source) = if roll < 15 && !pool.is_empty() {
            let base = rng.pick(&pool).clone();
            let mutant = mutate(&base, &mut rng);
            if crate::oracle::compile_sources(&print_sources(&mutant)).is_err() {
                report.mutants_discarded += 1;
                metrics.inc("fuzz_mutants_discarded_total");
                continue;
            }
            (Case::Minc(cfg.seed ^ i, mutant), "mutate")
        } else if roll < 30 {
            let s = rng.next_u64();
            (Case::Ir(s, generate_program(s, &cfg.irgen)), "irgen")
        } else {
            let s = rng.next_u64();
            (Case::Minc(s, generate_modules(s, &cfg.gen)), "gen")
        };
        metrics.observe(
            "fuzz_generate_us",
            LATENCY_BUCKETS_US,
            gen_t.elapsed().as_micros() as u64,
        );
        metrics.inc(&format!("fuzz_cases_total{{source=\"{source}\"}}"));

        report.executed += 1;
        let oracle_t = Instant::now();
        let outcome = match &case {
            Case::Minc(_, modules) => {
                check_sources_with(&print_sources(modules), &cfg.oracle, Some(metrics))
            }
            Case::Ir(_, p) => check_program_with(p, &cfg.oracle, Some(metrics)),
        };
        metrics.observe(
            "fuzz_oracle_us",
            LATENCY_BUCKETS_US,
            oracle_t.elapsed().as_micros() as u64,
        );
        let label = match &outcome {
            CaseOutcome::Pass => "pass",
            CaseOutcome::Skip(_) => "skip",
            CaseOutcome::Fail(_) => "fail",
        };
        metrics.inc(&format!("fuzz_outcome_total{{outcome=\"{label}\"}}"));
        match outcome {
            CaseOutcome::Pass => {
                report.passed += 1;
                if let Case::Minc(_, modules) = &case {
                    pool.push(modules.clone());
                    if pool.len() > 16 {
                        pool.remove(0);
                    }
                    if cfg.daemon_every > 0 && report.passed % cfg.daemon_every == 0 {
                        report.daemon_checks += 1;
                        let daemon_t = Instant::now();
                        let checked = daemon.check(&print_sources(modules));
                        metrics.observe(
                            "fuzz_daemon_us",
                            LATENCY_BUCKETS_US,
                            daemon_t.elapsed().as_micros() as u64,
                        );
                        if let Err(detail) = checked {
                            let finding = Finding {
                                kind: FindingKind::DaemonMismatch,
                                config: "daemon-default".to_string(),
                                options_fingerprint: hlo::HloOptions::default().fingerprint(),
                                detail,
                            };
                            record(
                                cfg,
                                metrics,
                                &mut report,
                                i,
                                case_seed(&case),
                                finding,
                                &case,
                            );
                        }
                    }
                    if cfg.incremental_every > 0 && report.passed % cfg.incremental_every == 0 {
                        report.incremental_checks += 1;
                        let daemon_t = Instant::now();
                        let checked = daemon.check_incremental(&print_sources(modules));
                        metrics.observe(
                            "fuzz_daemon_us",
                            LATENCY_BUCKETS_US,
                            daemon_t.elapsed().as_micros() as u64,
                        );
                        if let Err(detail) = checked {
                            let finding = Finding {
                                kind: FindingKind::IncrementalDivergence,
                                config: "daemon-incremental".to_string(),
                                options_fingerprint: hlo::HloOptions::default().fingerprint(),
                                detail,
                            };
                            record(
                                cfg,
                                metrics,
                                &mut report,
                                i,
                                case_seed(&case),
                                finding,
                                &case,
                            );
                        }
                    }
                }
            }
            CaseOutcome::Skip(_) => report.skipped += 1,
            CaseOutcome::Fail(finding) => {
                record(
                    cfg,
                    metrics,
                    &mut report,
                    i,
                    case_seed(&case),
                    finding,
                    &case,
                );
            }
        }
        if !cfg.quiet && (i + 1) % 50 == 0 {
            eprintln!(
                "hlo-fuzz: {} iters, {} passed, {} skipped, {} findings",
                i + 1,
                report.passed,
                report.skipped,
                report.findings.len()
            );
        }
        if cfg.stop_after > 0 && report.findings.len() >= cfg.stop_after {
            if !cfg.quiet {
                eprintln!(
                    "hlo-fuzz: stopping after {} findings",
                    report.findings.len()
                );
            }
            break;
        }
    }
    report.elapsed = start.elapsed();
    report
}

fn case_seed(case: &Case) -> u64 {
    match case {
        Case::Minc(s, _) | Case::Ir(s, _) => *s,
    }
}

/// Shrinks (MinC only), builds the reproducer, writes it, records it.
fn record(
    cfg: &CampaignConfig,
    metrics: &MetricsRegistry,
    report: &mut CampaignReport,
    iter: u64,
    seed: u64,
    finding: Finding,
    case: &Case,
) {
    metrics.inc(&format!(
        "fuzz_findings_total{{config=\"{}\"}}",
        finding.config
    ));
    let shrink_t = Instant::now();
    let body = match case {
        Case::Minc(_, modules) => {
            let want = finding.kind;
            let oracle = cfg.oracle.clone();
            let mut pred = |sources: &[(String, String)]| {
                matches!(check_sources(sources, &oracle),
                         CaseOutcome::Fail(f) if f.kind == want)
            };
            // Daemon mismatches are not reproduced by `check_sources`, so
            // they are recorded unshrunk. Incremental divergences are
            // shrunk against an in-process replica of the daemon's
            // partition-splicing path instead.
            if want == FindingKind::DaemonMismatch {
                ReproBody::Minc(print_sources(modules))
            } else if want == FindingKind::IncrementalDivergence {
                let mut pred = incremental_divergence_reproduces;
                let out = shrink(modules.clone(), &cfg.shrink, &mut pred);
                ReproBody::Minc(out.sources)
            } else {
                let out = shrink(modules.clone(), &cfg.shrink, &mut pred);
                ReproBody::Minc(out.sources)
            }
        }
        Case::Ir(_, p) => ReproBody::Ir(hlo_ir::program_to_text(p)),
    };
    metrics.observe(
        "fuzz_shrink_us",
        LATENCY_BUCKETS_US,
        shrink_t.elapsed().as_micros() as u64,
    );
    let lines = match &body {
        ReproBody::Minc(s) => source_lines(s),
        ReproBody::Ir(t) => t.lines().count(),
    };
    let repro = Reproducer {
        kind: finding.kind.to_string(),
        config: finding.config.clone(),
        seed,
        iter,
        fingerprint: finding.options_fingerprint,
        body,
    };
    let path = cfg
        .corpus_dir
        .as_ref()
        .and_then(|dir| write_reproducer(dir, &repro).ok());
    if !cfg.quiet {
        eprintln!(
            "hlo-fuzz: FINDING {} ({}) at iter {iter}, shrunk to {lines} lines{}",
            finding.kind,
            finding.config,
            path.as_deref()
                .map(|p| format!(", wrote {}", p.display()))
                .unwrap_or_default()
        );
    }
    report.findings.push(ShrunkFinding {
        iter,
        finding,
        repro,
        lines,
        path,
    });
}

/// Lazily-spawned daemon used for serve-cache cross-checks.
struct DaemonCheck {
    server: Option<hlo_serve::Server>,
    /// Checks run so far; every [`TRACE_EVERY`]th check propagates a
    /// request trace id and cross-checks the daemon's stored trace.
    checks: u64,
}

/// Every Nth daemon check runs with distributed tracing on.
const TRACE_EVERY: u64 = 2;

impl DaemonCheck {
    fn new() -> Self {
        DaemonCheck {
            server: None,
            checks: 0,
        }
    }

    /// Cold + warm round-trip of `sources`, then a continuous-PGO sweep
    /// (cold / drifted / stable server-mode requests); every daemon answer
    /// must match an in-process optimize byte-for-byte.
    fn check(&mut self, sources: &[(String, String)]) -> Result<(), String> {
        if self.server.is_none() {
            self.server = Some(
                hlo_serve::Server::spawn("127.0.0.1:0", hlo_serve::ServeConfig::default())
                    .map_err(|e| format!("daemon spawn failed: {e}"))?,
            );
        }
        let server = self.server.as_ref().expect("just spawned");

        let pristine = crate::oracle::compile_sources(sources)?;
        let pkey = hlo_pgo::program_key(&pristine);
        let opts = hlo::HloOptions::default();
        let mut program = pristine.clone();
        hlo::optimize(&mut program, None, &opts);
        let expect = hlo_ir::program_to_text(&program);

        let mut client = hlo_serve::Client::connect(server.local_addr())
            .map_err(|e| format!("daemon connect failed: {e}"))?;
        self.checks += 1;
        let traced = self.checks.is_multiple_of(TRACE_EVERY);
        let mut req = hlo_serve::OptimizeRequest::from_minc(sources.to_vec());
        if traced {
            // Deterministic per-check id: the campaign stays replayable.
            req.trace_id = Some(format!("{:016x}", self.checks));
        }
        let cold = client
            .optimize(&req)
            .map_err(|e| format!("daemon request failed: {e}"))?;
        if cold.ir_text != expect {
            return Err("cold daemon response differs from in-process optimize".to_string());
        }
        if traced {
            self.check_trace(&mut client, &req, &cold)?;
        }
        // The warm leg must not collide with the traced cold leg's id.
        req.trace_id = None;
        let warm = client
            .optimize(&req)
            .map_err(|e| format!("warm daemon request failed: {e}"))?;
        if !warm.outcome.hit {
            return Err("repeat request did not hit the daemon cache".to_string());
        }
        if warm.ir_text != cold.ir_text {
            return Err("warm daemon response is not byte-identical to cold".to_string());
        }

        // Continuous-PGO sweep. Cold: with nothing pushed, a server-mode
        // build must equal the profile-free one exactly.
        let mut sreq = req.clone();
        sreq.profile = hlo_serve::ProfileSpec::Server;
        let cold_s = client
            .optimize(&sreq)
            .map_err(|e| format!("server-mode request failed: {e}"))?;
        if cold_s.ir_text != expect {
            return Err(
                "server-mode build with an empty aggregate differs from a profile-free one"
                    .to_string(),
            );
        }

        // Drifted: push a trace-synthesized profile (empty -> populated is
        // total drift) — the rebuild must match in-process PGO with the
        // same aggregate. Mutants that trap instantly can yield an empty
        // profile; the push would be invisible, so skip the drift legs.
        let exec = hlo_vm::ExecOptions {
            fuel: crate::oracle::ORACLE_FUEL,
            ..Default::default()
        };
        let delta = hlo_profile::ProfileDb::from_vm_trace(&pristine, &[5], &exec);
        if delta.is_empty() {
            return Ok(());
        }
        client
            .profile_push(&hlo_serve::ProfilePushRequest {
                program: pkey,
                delta: delta.to_text(),
                advance: 0,
            })
            .map_err(|e| format!("profile push refused: {e}"))?;
        let mut with_profile = pristine.clone();
        hlo::optimize(&mut with_profile, Some(&delta), &opts);
        let expect_pgo = hlo_ir::program_to_text(&with_profile);
        let drifted = client
            .optimize(&sreq)
            .map_err(|e| format!("drifted server-mode request failed: {e}"))?;
        if !drifted.outcome.stale {
            return Err("push past threshold did not flip the cached entry stale".to_string());
        }
        if drifted.ir_text != expect_pgo {
            return Err("drift-triggered rebuild differs from in-process PGO optimize".to_string());
        }

        // Stable: a same-shape push scales every counter uniformly, which
        // the drift metric must not see — the entry is served as a hit.
        client
            .profile_push(&hlo_serve::ProfilePushRequest {
                program: hlo_pgo::program_key(&pristine),
                delta: delta.to_text(),
                advance: 0,
            })
            .map_err(|e| format!("second profile push refused: {e}"))?;
        let stable = client
            .optimize(&sreq)
            .map_err(|e| format!("stable server-mode request failed: {e}"))?;
        if !stable.outcome.hit || stable.outcome.stale {
            return Err("stable aggregate was not served as a cache hit".to_string());
        }
        if stable.ir_text != drifted.ir_text {
            return Err("stable server-mode response is not byte-identical".to_string());
        }
        Ok(())
    }

    /// Cross-checks the daemon's stored trace for a traced request: the
    /// daemon must echo the id, the fetched span tree must parse (name
    /// the request and every phase, phases summing to the reported wall
    /// time), and the trace's recorded cache outcome must be the same
    /// text the optimize reply carried.
    fn check_trace(
        &self,
        client: &mut hlo_serve::Client,
        req: &hlo_serve::OptimizeRequest,
        resp: &hlo_serve::OptimizeResponse,
    ) -> Result<(), String> {
        let id = req.trace_id.as_deref().expect("caller set a trace id");
        if resp.trace_id.as_deref() != Some(id) {
            return Err(format!(
                "daemon echoed trace id {:?}, request carried {id:?}",
                resp.trace_id
            ));
        }
        let trace = client
            .trace_fetch(id)
            .map_err(|e| format!("trace fetch for {id} failed: {e}"))?;
        if !trace.spans.contains(&format!("request:{id}")) {
            return Err(format!("span tree does not name request:{id}"));
        }
        let sum: u64 = trace.phases.iter().map(|(_, us)| us).sum();
        if sum != trace.wall_us {
            return Err(format!(
                "trace phases sum to {sum} us but wall is {} us",
                trace.wall_us
            ));
        }
        if trace.cache != resp.outcome.to_text() {
            return Err(format!(
                "trace names cache outcome {:?}, reply says {:?}",
                trace.cache,
                resp.outcome.to_text()
            ));
        }
        Ok(())
    }

    /// The incremental edit oracle: optimize the compiled program through
    /// the daemon (seeding its partition store), bump one integer
    /// constant, optimize the edit — the daemon's partition-splicing
    /// rebuild must be byte-identical to a from-scratch in-process
    /// optimize of the edited program. Programs with no integer constant
    /// to bump are vacuously fine.
    fn check_incremental(&mut self, sources: &[(String, String)]) -> Result<(), String> {
        if self.server.is_none() {
            self.server = Some(
                hlo_serve::Server::spawn("127.0.0.1:0", hlo_serve::ServeConfig::default())
                    .map_err(|e| format!("daemon spawn failed: {e}"))?,
            );
        }
        let server = self.server.as_ref().expect("just spawned");

        let pristine = crate::oracle::compile_sources(sources)?;
        let Some(edited) = bump_first_const(&pristine) else {
            return Ok(());
        };
        let opts = hlo::HloOptions::default();
        let request = |p: &hlo_ir::Program| hlo_serve::OptimizeRequest {
            options: opts.clone(),
            source: hlo_serve::SourceKind::Ir(hlo_ir::program_to_text(p)),
            profile: hlo_serve::ProfileSpec::None,
            deadline_ms: None,
            train_arg: None,
            trace_id: None,
        };
        let mut client = hlo_serve::Client::connect(server.local_addr())
            .map_err(|e| format!("daemon connect failed: {e}"))?;
        client
            .optimize(&request(&pristine))
            .map_err(|e| format!("pristine daemon request failed: {e}"))?;
        let warm = client
            .optimize(&request(&edited))
            .map_err(|e| format!("edited daemon request failed: {e}"))?;
        let mut truth = edited.clone();
        hlo::optimize(&mut truth, None, &opts);
        if warm.ir_text != hlo_ir::program_to_text(&truth) {
            return Err(format!(
                "incremental rebuild after a one-constant edit differs from a \
                 from-scratch optimize (partition hits {}, rebuilds {})",
                warm.outcome.partition_hits, warm.outcome.partition_rebuilds
            ));
        }
        Ok(())
    }
}

/// Bumps the first integer constant (a `Const` instruction or an
/// immediate operand) in the program — the generic single-function edit
/// the incremental oracle applies to programs it did not write.
fn bump_first_const(p: &hlo_ir::Program) -> Option<hlo_ir::Program> {
    let mut q = p.clone();
    for f in &mut q.funcs {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                if let hlo_ir::Inst::Const {
                    value: hlo_ir::ConstVal::I64(v),
                    ..
                } = inst
                {
                    *v = v.wrapping_add(1);
                    return Some(q);
                }
                let mut bumped = false;
                inst.for_each_use_mut(|op| {
                    if bumped {
                        return;
                    }
                    if let hlo_ir::Operand::Const(hlo_ir::ConstVal::I64(v)) = op {
                        *v = v.wrapping_add(1);
                        bumped = true;
                    }
                });
                if bumped {
                    return Some(q);
                }
            }
        }
    }
    None
}

/// Shrinking predicate for [`FindingKind::IncrementalDivergence`]: an
/// in-process replica of the daemon's partition-splicing path. Build the
/// pristine program cold under an all-`Rebuild` plan, store each
/// partition [`hlo::optimize_partial`] hands back under its key, bump one
/// constant, splice the store hits through another partial build, and
/// compare against a from-scratch optimize. The planted stale-key
/// fault ([`hlo_serve::fault`]) is process-global, so a divergence the
/// live daemon exposed reproduces here without a socket.
fn incremental_divergence_reproduces(sources: &[(String, String)]) -> bool {
    let Ok(pristine) = crate::oracle::compile_sources(sources) else {
        return false;
    };
    let Some(edited) = bump_first_const(&pristine) else {
        return false;
    };
    let opts = hlo::HloOptions::default();
    let salt = hlo_ir::fnv1a_64(b"");
    let keys_of = |p: &hlo_ir::Program| {
        let mut cg = hlo::CallGraphCache::new();
        let rk = hlo_serve::cache::request_key(p, &opts, "", &mut cg);
        let parts = hlo_serve::incremental::eligible_partitions(p, &opts, &mut cg).ok()?;
        Some(hlo_serve::incremental::partition_keys(
            p, &parts, &rk.funcs, salt,
        ))
    };
    let Some(keys) = keys_of(&pristine) else {
        return false;
    };
    let mut cold = pristine.clone();
    let plan = vec![hlo::PartitionAction::Rebuild; keys.len()];
    let out = hlo::optimize_partial(
        &mut cold,
        None,
        &opts,
        Some(plan),
        &mut hlo::Tracer::disabled(),
    );
    if out.globals_mutated {
        return false;
    }
    let mut store: std::collections::HashMap<u64, hlo::ReusedPartition> = keys
        .iter()
        .zip(out.rebuilt)
        .filter_map(|(&k, stored)| Some((k, stored?)))
        .collect();
    let Some(edited_keys) = keys_of(&edited) else {
        return false;
    };
    let plan: Vec<hlo::PartitionAction> = edited_keys
        .iter()
        .map(|k| match store.remove(k) {
            Some(stored) => hlo::PartitionAction::Reuse(stored),
            None => hlo::PartitionAction::Rebuild,
        })
        .collect();
    let mut spliced = edited.clone();
    hlo::optimize_partial(
        &mut spliced,
        None,
        &opts,
        Some(plan),
        &mut hlo::Tracer::disabled(),
    );
    let mut truth = edited;
    hlo::optimize(&mut truth, None, &opts);
    hlo_ir::program_to_text(&spliced) != hlo_ir::program_to_text(&truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(iters: u64) -> CampaignConfig {
        CampaignConfig {
            iters,
            oracle: OracleConfig::quick(),
            ..Default::default()
        }
    }

    #[test]
    fn clean_campaign_has_no_findings() {
        let report = run_campaign(&quick_cfg(25));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.passed > 0);
        assert_eq!(
            report.executed,
            report.passed + report.skipped,
            "every executed case must pass or be skipped"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&quick_cfg(15));
        let b = run_campaign(&quick_cfg(15));
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn planted_fault_yields_shrunk_findings_and_reproducers() {
        let _guard = hlo::fault::FaultGuard::arm();
        let dir = std::env::temp_dir().join(format!("hlo-fuzz-camp-{}", std::process::id()));
        let cfg = CampaignConfig {
            iters: 120,
            stop_after: 1,
            corpus_dir: Some(dir.clone()),
            ..quick_cfg(120)
        };
        let report = run_campaign(&cfg);
        assert!(
            !report.findings.is_empty(),
            "planted fault produced no findings in {} executed cases",
            report.executed
        );
        let f = &report.findings[0];
        let path = f.path.as_ref().expect("reproducer must be written");
        let loaded = crate::corpus::load_reproducer(path).unwrap();
        assert_eq!(loaded, f.repro);
        loaded.compile().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_round_trip_matches_in_process() {
        let _window = hlo_serve::fault::exclusion();
        let cfg = CampaignConfig {
            iters: 12,
            daemon_every: 2,
            ..quick_cfg(12)
        };
        let report = run_campaign(&cfg);
        assert!(report.daemon_checks > 0, "daemon check never ran");
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn incremental_edits_through_the_daemon_are_byte_identical() {
        let _window = hlo_serve::fault::exclusion();
        let cfg = CampaignConfig {
            iters: 12,
            incremental_every: 2,
            ..quick_cfg(12)
        };
        let report = run_campaign(&cfg);
        assert!(report.incremental_checks > 0, "incremental check never ran");
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn stale_partition_key_fault_is_caught_and_shrunk() {
        let _guard = hlo_serve::fault::FaultGuard::arm();
        let cfg = CampaignConfig {
            iters: 60,
            stop_after: 1,
            incremental_every: 1,
            ..quick_cfg(60)
        };
        let report = run_campaign(&cfg);
        let f = report
            .findings
            .iter()
            .find(|f| f.finding.kind == FindingKind::IncrementalDivergence)
            .unwrap_or_else(|| {
                panic!(
                    "stale partition keys survived {} incremental checks",
                    report.incremental_checks
                )
            });
        assert_eq!(f.finding.config, "daemon-incremental");
        assert!(
            matches!(&f.repro.body, ReproBody::Minc(_)),
            "incremental findings shrink to MinC reproducers"
        );
    }
}
