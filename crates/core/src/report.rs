//! Optimization reports — the raw material of the paper's Table 1.

/// Wall-clock vs cumulative-work time of one pipeline stage. Every stage
/// runs on one thread, so the optimizer reports `work_us == wall_us`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageTiming {
    /// Stage name (`annotate`, `cleanup`, `inline.plan`, …). Per-pass
    /// stages are aggregated across passes under one name.
    pub stage: String,
    /// Elapsed wall-clock time, microseconds.
    pub wall_us: u64,
    /// Cumulative busy time, microseconds (equal to `wall_us` for the
    /// optimizer's own stages).
    pub work_us: u64,
}

/// What one Clone+Inline pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassReport {
    /// Pass number (0-based).
    pub pass: usize,
    /// Inlines performed.
    pub inlines: u64,
    /// Clone bodies created.
    pub clones_created: u64,
    /// Clones reused from the database.
    pub clones_reused: u64,
    /// Call sites redirected to clones ("Clone Repls" in Table 1).
    pub clone_replacements: u64,
    /// Routines deleted after the pass.
    pub deletions: u64,
    /// Compile-cost estimate after the pass.
    pub cost_after: u64,
}

/// Aggregate report for one `optimize` run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HloReport {
    /// Total inlines (Table 1 "Inlines").
    pub inlines: u64,
    /// Total clone bodies created (Table 1 "Clones").
    pub clones: u64,
    /// Total call sites redirected to clones (Table 1 "Clone Repls").
    pub clone_replacements: u64,
    /// Total routines deleted (Table 1 "Deletions").
    pub deletions: u64,
    /// Calls to side-effect-free routines removed by interprocedural
    /// analysis (the 072.sc curses-stub effect).
    pub pure_calls_removed: u64,
    /// Additional unused-result calls removed because their callee's
    /// `hlo-ipa` summary proved it removable — sites the syntactic purity
    /// test above could not unlock (0 with `ipa off`).
    pub ipa_pure_calls: u64,
    /// Call results replaced by a constant because every return path of
    /// the callee yields it (`hlo-ipa` return-constancy; 0 with `ipa off`).
    pub ipa_const_folds: u64,
    /// Cross-call store-to-load forwards plus cross-call dead global
    /// stores deleted under summary alias screening (0 with `ipa off`).
    pub ipa_store_forwards: u64,
    /// Cold regions extracted by aggressive outlining (0 unless
    /// `enable_outline` is set).
    pub outlines: u64,
    /// Functions whose blocks were reordered by the final straightening
    /// step.
    pub straightened: u64,
    /// Compile-cost estimate before HLO ran (`Σ size²`).
    pub initial_cost: u64,
    /// Compile-cost estimate after HLO finished.
    pub final_cost: u64,
    /// The budget ceiling that was in force.
    pub budget_limit: u64,
    /// Per-pass breakdown.
    pub passes: Vec<PassReport>,
    /// Verify-each findings (empty when `HloOptions::check` is off, and on
    /// a healthy pipeline also when it is on). Findings with origin
    /// `"input"` were present before any pass ran.
    pub diagnostics: Vec<hlo_lint::Diagnostic>,
    /// How many pass boundaries the verify-each checker inspected: one per
    /// pipeline stage, plus one per scalar sub-pass of each function a
    /// cleanup round optimizes (functions settled at the optimizer's
    /// fixpoint are skipped, so they add none).
    pub checks_run: u32,
    /// Time spent in verify-each batteries, in microseconds.
    pub lint_time_us: u64,
    /// Functions annotated from the training-run profile database (0 for
    /// static-heuristic builds).
    pub profile_annotations: u64,
    /// Function bodies the summary analysis scanned, over every partition
    /// it ran on: each body once per edit.
    pub summary_scans: u64,
    /// Functions the summary analysis solved, over every partition: the
    /// members of each SCC an edit reached, once per read that saw it.
    pub summary_solves: u64,
    /// Scalar-optimizer runs over every partition: each cleanup round's
    /// runs, each re-optimized inline caller and each new clone. Debug
    /// builds' re-runs of settled functions do not count.
    pub opt_runs: u64,
    /// The rounds those runs took, each run's confirming last round
    /// included.
    pub opt_rounds: u64,
    /// The register-liveness solves those runs made: constant
    /// propagation's and DCE's, DCE's re-solves after a sweep that removed
    /// something included.
    pub liveness_solves: u64,
    /// Trial inserts the inline planner costed against its schedule, over
    /// every partition and pass.
    pub inline_evals: u64,
    /// Function bodies the call-graph caches scanned, over every
    /// partition: each body once when its partition first reads the graph
    /// and once more per edit.
    pub graph_scans: u64,
    /// Call graphs those caches assembled from their scans, over every
    /// partition: one per read that followed an edit.
    pub graph_assemblies: u64,
    /// Per-stage wall-clock vs cumulative-work timings.
    pub stage_timings: Vec<StageTiming>,
    /// Wire-form keys [`HloReport::from_text`] did not recognize and
    /// skipped. Never serialized: a fresh report always has 0, and a
    /// round-trip through `to_text` resets it. Non-zero means the sender
    /// speaks a newer dialect — the skipped lines are counted, not lost
    /// silently.
    pub unknown_keys: u64,
}

impl HloReport {
    /// Modeled compile time in cost units: the final `Σ size²` (the
    /// quantity the budget limits). Callers measuring a P-scope compile
    /// add the instrumented compile and training-run cost on top.
    pub fn compile_time_units(&self) -> u64 {
        self.final_cost
    }

    /// Total inline + clone-replacement operations (the x-axis of the
    /// paper's Figure 8).
    pub fn operations(&self) -> u64 {
        self.inlines + self.clone_replacements
    }

    /// Verify-each findings attributed to a pipeline stage (excluding
    /// defects already present in the input program).
    pub fn introduced_diagnostics(&self) -> impl Iterator<Item = &hlo_lint::Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.pass_origin.as_deref() != Some(hlo_lint::INPUT_ORIGIN))
    }
}

impl HloReport {
    /// Serializes the report to the line-oriented wire form the
    /// optimization service ships back with cached results. Diagnostics
    /// are **elided** (only their count travels): the daemon runs with
    /// checking off by default, and a `Diagnostic` is a display artifact,
    /// not something a remote client replays.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("hlo-report v1\n");
        let mut n = |k: &str, v: u64| {
            let _ = writeln!(s, "{k} {v}");
        };
        n("inlines", self.inlines);
        n("clones", self.clones);
        n("clone_replacements", self.clone_replacements);
        n("deletions", self.deletions);
        n("pure_calls_removed", self.pure_calls_removed);
        n("ipa_pure_calls", self.ipa_pure_calls);
        n("ipa_const_folds", self.ipa_const_folds);
        n("ipa_store_forwards", self.ipa_store_forwards);
        n("outlines", self.outlines);
        n("straightened", self.straightened);
        n("initial_cost", self.initial_cost);
        n("final_cost", self.final_cost);
        n("budget_limit", self.budget_limit);
        n("checks_run", self.checks_run as u64);
        n("lint_time_us", self.lint_time_us);
        n("profile_annotations", self.profile_annotations);
        n("summary_scans", self.summary_scans);
        n("summary_solves", self.summary_solves);
        n("opt_runs", self.opt_runs);
        n("opt_rounds", self.opt_rounds);
        n("liveness_solves", self.liveness_solves);
        n("inline_evals", self.inline_evals);
        n("graph_scans", self.graph_scans);
        n("graph_assemblies", self.graph_assemblies);
        n("diagnostics_elided", self.diagnostics.len() as u64);
        for p in &self.passes {
            let _ = writeln!(
                s,
                "pass {} {} {} {} {} {} {}",
                p.pass,
                p.inlines,
                p.clones_created,
                p.clones_reused,
                p.clone_replacements,
                p.deletions,
                p.cost_after
            );
        }
        for t in &self.stage_timings {
            let _ = writeln!(s, "stage {} {} {}", t.stage, t.wall_us, t.work_us);
        }
        s.push_str("end\n");
        s
    }

    /// Parses [`HloReport::to_text`] output. The elided diagnostics come
    /// back as an empty list regardless of `diagnostics_elided`. Unknown
    /// keys are skipped and tallied in [`HloReport::unknown_keys`], so a
    /// newer daemon's report (with fields this build does not know) still
    /// parses; malformed values under *known* keys remain hard errors.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("hlo-report v1") {
            return Err("missing `hlo-report v1` header".to_string());
        }
        let mut r = HloReport::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            let num = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("bad count `{v}` in `{line}`"))
            };
            match key {
                "inlines" => r.inlines = num(val)?,
                "clones" => r.clones = num(val)?,
                "clone_replacements" => r.clone_replacements = num(val)?,
                "deletions" => r.deletions = num(val)?,
                "pure_calls_removed" => r.pure_calls_removed = num(val)?,
                "ipa_pure_calls" => r.ipa_pure_calls = num(val)?,
                "ipa_const_folds" => r.ipa_const_folds = num(val)?,
                "ipa_store_forwards" => r.ipa_store_forwards = num(val)?,
                "outlines" => r.outlines = num(val)?,
                "straightened" => r.straightened = num(val)?,
                "initial_cost" => r.initial_cost = num(val)?,
                "final_cost" => r.final_cost = num(val)?,
                "budget_limit" => r.budget_limit = num(val)?,
                "checks_run" => r.checks_run = num(val)? as u32,
                "lint_time_us" => r.lint_time_us = num(val)?,
                "profile_annotations" => r.profile_annotations = num(val)?,
                "summary_scans" => r.summary_scans = num(val)?,
                "summary_solves" => r.summary_solves = num(val)?,
                "opt_runs" => r.opt_runs = num(val)?,
                "opt_rounds" => r.opt_rounds = num(val)?,
                "liveness_solves" => r.liveness_solves = num(val)?,
                "inline_evals" => r.inline_evals = num(val)?,
                "graph_scans" => r.graph_scans = num(val)?,
                "graph_assemblies" => r.graph_assemblies = num(val)?,
                "diagnostics_elided" => {}
                "pass" => {
                    let f: Vec<u64> = val.split_whitespace().map(num).collect::<Result<_, _>>()?;
                    if f.len() != 7 {
                        return Err(format!("pass record needs 7 fields: `{line}`"));
                    }
                    r.passes.push(PassReport {
                        pass: f[0] as usize,
                        inlines: f[1],
                        clones_created: f[2],
                        clones_reused: f[3],
                        clone_replacements: f[4],
                        deletions: f[5],
                        cost_after: f[6],
                    });
                }
                "stage" => {
                    let mut parts = val.split_whitespace();
                    let stage = parts.next().unwrap_or_default().to_string();
                    let wall_us = num(parts.next().ok_or("stage needs wall_us")?)?;
                    let work_us = num(parts.next().ok_or("stage needs work_us")?)?;
                    r.stage_timings.push(StageTiming {
                        stage,
                        wall_us,
                        work_us,
                    });
                }
                "end" => break,
                _ => r.unknown_keys += 1,
            }
        }
        Ok(r)
    }
}

impl std::fmt::Display for HloReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "HLO: {} inlines, {} clones ({} repls), {} deletions, {} pure calls removed",
            self.inlines,
            self.clones,
            self.clone_replacements,
            self.deletions,
            self.pure_calls_removed
        )?;
        if self.ipa_pure_calls + self.ipa_const_folds + self.ipa_store_forwards > 0 {
            writeln!(
                f,
                "ipa: {} summary-unlocked pure calls, {} const returns folded, {} cross-call forwards",
                self.ipa_pure_calls, self.ipa_const_folds, self.ipa_store_forwards
            )?;
        }
        write!(
            f,
            "cost {} -> {} (budget {})",
            self.initial_cost, self.final_cost, self.budget_limit
        )?;
        if self.checks_run > 0 {
            write!(
                f,
                "\nverify-each: {} boundaries checked in {} us, {} diagnostics",
                self.checks_run,
                self.lint_time_us,
                self.diagnostics.len()
            )?;
            for d in &self.diagnostics {
                write!(f, "\n  {d}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_counts_inlines_and_replacements() {
        let r = HloReport {
            inlines: 3,
            clone_replacements: 2,
            ..Default::default()
        };
        assert_eq!(r.operations(), 5);
    }

    #[test]
    fn wire_text_roundtrip() {
        let r = HloReport {
            inlines: 12,
            clones: 3,
            clone_replacements: 5,
            deletions: 2,
            pure_calls_removed: 1,
            initial_cost: 1000,
            final_cost: 1900,
            budget_limit: 2000,
            checks_run: 4,
            lint_time_us: 77,
            profile_annotations: 6,
            summary_scans: 40,
            summary_solves: 31,
            opt_runs: 17,
            opt_rounds: 36,
            liveness_solves: 88,
            inline_evals: 23,
            graph_scans: 52,
            graph_assemblies: 11,
            passes: vec![PassReport {
                pass: 0,
                inlines: 12,
                clones_created: 3,
                clones_reused: 1,
                clone_replacements: 5,
                deletions: 2,
                cost_after: 1900,
            }],
            stage_timings: vec![StageTiming {
                stage: "inline.plan".to_string(),
                wall_us: 10,
                work_us: 30,
            }],
            ..Default::default()
        };
        let back = HloReport::from_text(&r.to_text()).unwrap();
        assert_eq!(r, back);
        assert!(HloReport::from_text("not a report").is_err());
    }

    #[test]
    fn unknown_keys_are_counted_not_fatal() {
        let r =
            HloReport::from_text("hlo-report v1\nbogus 3\ninlines 2\nfuture_field a b c\nend\n")
                .unwrap();
        assert_eq!(r.inlines, 2);
        assert_eq!(r.unknown_keys, 2);
        // Malformed values under known keys are still hard errors.
        assert!(HloReport::from_text("hlo-report v1\ninlines zebra\nend").is_err());
        // A fresh serialization never carries the tally.
        let tallied = HloReport {
            unknown_keys: 9,
            ..Default::default()
        };
        assert_eq!(
            HloReport::from_text(&tallied.to_text())
                .unwrap()
                .unknown_keys,
            0
        );
    }

    #[test]
    fn display_is_informative() {
        let r = HloReport {
            inlines: 1,
            initial_cost: 10,
            final_cost: 15,
            budget_limit: 20,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("1 inlines"));
        assert!(s.contains("10 -> 15"));
    }
}
