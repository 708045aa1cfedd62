//! The multi-pass driver (paper §2.2, Figure 2).
//!
//! The pipeline runs one call-graph partition at a time, each on a
//! sub-program that holds only its members (see [`optimize_partial`]).
//! Within a partition one [`CallGraphCache`] is shared across every
//! stage, so passes re-scan only the functions they actually edited, and
//! one [`SummaryCache`] beside it hands every summary reader the same
//! summaries, re-solved only where an edit reached. Every stage runs on
//! the calling thread, in function and partition order.

use crate::budget::Budget;
use crate::cloner::{clone_pass, CloneDb};
use crate::delete::{delete_unreachable, has_empty_body};
use crate::inliner::inline_pass;
use crate::report::{HloReport, PassReport, StageTiming};
use hlo_analysis::{estimate_static_profile, CallGraph, CallGraphCache};
use hlo_ipa::SummaryCache;
use hlo_ir::{FuncId, FuncNames, FuncProfile, Function, Linkage, Module, Program};
use hlo_lint::{CheckLevel, Checker};
use hlo_profile::{apply_profile, ProfileDb};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};
use std::time::Instant;

/// Compilation visibility: the paper's per-module path vs the link-time
/// ("isom") whole-program path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Each transformation stays within one module; unused public
    /// routines must be kept (other modules might call them).
    WithinModule,
    /// Whole-program: cross-module inlining/cloning, interprocedural
    /// side-effect deletion, and deletion of unused public routines.
    CrossModule,
}

/// Options controlling an [`optimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct HloOptions {
    /// Visibility scope.
    pub scope: Scope,
    /// Budget percentage: allowed compile-time increase. The paper's
    /// default is 100 (Figure 8 sweeps 25–1000).
    pub budget_percent: u64,
    /// Maximum Clone+Inline passes (the paper's pass limit).
    pub passes: usize,
    /// Cumulative budget fractions available by the end of each pass.
    pub stage_fractions: Vec<f64>,
    /// Enable the inlining passes (Figure 6 toggles this).
    pub enable_inline: bool,
    /// Enable the cloning passes (Figure 6 toggles this).
    pub enable_clone: bool,
    /// Stop after this many inline/clone-replacement operations — the
    /// artificial stop used for the paper's Figure 8 heuristic validation.
    pub max_ops: Option<u64>,
    /// Apply the penalty for sites colder than their caller's entry
    /// (ablation knob; the paper always applies it).
    pub cold_site_penalty: bool,
    /// Reuse clones from the clone database across passes (ablation
    /// knob; the paper always reuses).
    pub clone_db_reuse: bool,
    /// Run aggressive outlining of cold regions before inlining — the
    /// paper's §5 future work, off by default for fidelity.
    pub enable_outline: bool,
    /// Profile-guided block straightening after the passes finish (the
    /// intra-procedural half of Pettis–Hansen code positioning, part of
    /// HP's PBO; on by default like the paper's "peak options").
    pub enable_straighten: bool,
    /// Bottom-up interprocedural summary analysis (`hlo-ipa`): MOD/REF
    /// sets, summary-based purity, frame-escape and return-constancy
    /// feed the inliner's screening/ranking and a summary-driven scalar
    /// stage (constant-return folding, generalized pure-call removal,
    /// cross-call store forwarding). On by default; turning it off keeps
    /// only the paper's syntactic pure-call deletion (a projection of the
    /// same summaries) and reproduces that pipeline exactly.
    pub ipa: bool,
    /// Outlining thresholds (used when `enable_outline` is set).
    pub outline: crate::OutlineOptions,
    /// Verify-each: how much pass-boundary checking to run. At
    /// [`CheckLevel::Structural`] the structural verifier runs after every
    /// transform stage; at [`CheckLevel::Strict`] the full `hlo-lint`
    /// battery runs too, and every new finding is attributed to the stage
    /// that introduced it. Off (and free) by default.
    pub check: CheckLevel,
}

impl HloOptions {
    /// Serializes to a stable, line-oriented `key value` text form — the
    /// wire format of the optimization service and the canonical input of
    /// [`HloOptions::fingerprint`]. Every field is written, one per line,
    /// in declaration order.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let onoff = |b: bool| if b { "on" } else { "off" };
        let _ = writeln!(
            s,
            "scope {}",
            match self.scope {
                Scope::WithinModule => "module",
                Scope::CrossModule => "program",
            }
        );
        let _ = writeln!(s, "budget {}", self.budget_percent);
        let _ = writeln!(s, "passes {}", self.passes);
        let mut stages = String::from("stages");
        for f in &self.stage_fractions {
            let _ = write!(stages, " {f}");
        }
        let _ = writeln!(s, "{stages}");
        let _ = writeln!(s, "inline {}", onoff(self.enable_inline));
        let _ = writeln!(s, "clone {}", onoff(self.enable_clone));
        let _ = writeln!(
            s,
            "max_ops {}",
            self.max_ops.map_or("none".to_string(), |n| n.to_string())
        );
        let _ = writeln!(s, "cold_site_penalty {}", onoff(self.cold_site_penalty));
        let _ = writeln!(s, "clone_db_reuse {}", onoff(self.clone_db_reuse));
        let _ = writeln!(s, "outline {}", onoff(self.enable_outline));
        let _ = writeln!(s, "straighten {}", onoff(self.enable_straighten));
        let _ = writeln!(s, "ipa {}", onoff(self.ipa));
        let _ = writeln!(s, "outline.cold_fraction {}", self.outline.cold_fraction);
        let _ = writeln!(s, "outline.max_params {}", self.outline.max_params);
        let _ = writeln!(
            s,
            "outline.min_region_size {}",
            self.outline.min_region_size
        );
        let _ = writeln!(
            s,
            "check {}",
            match self.check {
                CheckLevel::Off => "off",
                CheckLevel::Structural => "structural",
                CheckLevel::Strict => "strict",
            }
        );
        s
    }

    /// Parses the form produced by [`HloOptions::to_text`]. Unknown keys
    /// and malformed values are errors; omitted keys keep their defaults
    /// (so older clients can talk to newer daemons).
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut o = HloOptions::default();
        let bool_of = |v: &str| match v {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("expected on/off, got `{other}`")),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            let val = val.trim();
            let num = |what: &str| -> Result<u64, String> {
                val.parse().map_err(|_| format!("bad {what} `{val}`"))
            };
            match key {
                "scope" => {
                    o.scope = match val {
                        "module" => Scope::WithinModule,
                        "program" => Scope::CrossModule,
                        other => return Err(format!("bad scope `{other}`")),
                    }
                }
                "budget" => o.budget_percent = num("budget")?,
                "passes" => o.passes = num("passes")? as usize,
                "stages" => {
                    o.stage_fractions = val
                        .split_whitespace()
                        .map(|f| f.parse().map_err(|_| format!("bad stage fraction `{f}`")))
                        .collect::<Result<_, _>>()?
                }
                "inline" => o.enable_inline = bool_of(val)?,
                "clone" => o.enable_clone = bool_of(val)?,
                "max_ops" => {
                    o.max_ops = if val == "none" {
                        None
                    } else {
                        Some(num("max_ops")?)
                    }
                }
                "cold_site_penalty" => o.cold_site_penalty = bool_of(val)?,
                "clone_db_reuse" => o.clone_db_reuse = bool_of(val)?,
                "outline" => o.enable_outline = bool_of(val)?,
                "straighten" => o.enable_straighten = bool_of(val)?,
                "ipa" => o.ipa = bool_of(val)?,
                "outline.cold_fraction" => {
                    o.outline.cold_fraction = val
                        .parse()
                        .map_err(|_| format!("bad cold_fraction `{val}`"))?
                }
                "outline.max_params" => o.outline.max_params = num("max_params")? as u32,
                "outline.min_region_size" => o.outline.min_region_size = num("min_region_size")?,
                "check" => o.check = val.parse()?,
                other => return Err(format!("unknown option key `{other}`")),
            }
        }
        Ok(o)
    }

    /// A stable 64-bit fingerprint of every option that can change the
    /// *produced program*. `check` is normalized out: verify-each only
    /// observes, so a cached plain result is a valid hit for a
    /// `--verify-each` request.
    pub fn fingerprint(&self) -> u64 {
        let canonical = HloOptions {
            check: CheckLevel::Off,
            ..self.clone()
        };
        hlo_ir::fnv1a_64(canonical.to_text().as_bytes())
    }
}

impl Default for HloOptions {
    fn default() -> Self {
        HloOptions {
            scope: Scope::CrossModule,
            budget_percent: 100,
            passes: 4,
            stage_fractions: vec![0.25, 0.5, 0.75, 1.0],
            enable_inline: true,
            enable_clone: true,
            max_ops: None,
            cold_site_penalty: true,
            clone_db_reuse: true,
            enable_outline: false,
            enable_straighten: true,
            ipa: true,
            outline: crate::OutlineOptions::default(),
            check: CheckLevel::Off,
        }
    }
}

/// Runs HLO: annotate frequencies, pre-optimize, then alternate cloning
/// and inlining passes under the staged budget until the budget closes,
/// the pass limit is reached, nothing changes, or the operation limit is
/// hit (Figure 2's `WHILE (C < B AND P < limit)`).
pub fn optimize(p: &mut Program, profile: Option<&ProfileDb>, opts: &HloOptions) -> HloReport {
    optimize_traced(p, profile, opts, &mut Tracer::disabled())
}

/// [`optimize`], recording into `tracer`: a hierarchical span tree
/// (program → pass → stage) always, and per-site decision provenance when
/// the tracer was built at [`hlo_trace::TraceLevel::Decisions`]. Tracing
/// is pure observation: the produced program is byte-identical with
/// tracing on or off, and trace *content* (span tree, decisions, metrics)
/// is identical across runs once timestamps are normalized away.
pub fn optimize_traced(
    p: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    tracer: &mut Tracer,
) -> HloReport {
    optimize_partial(p, profile, opts, None, tracer).report
}

/// Sentinel base for function references into a finished partition's own
/// clones. A partition's stored form writes every reference to a clone
/// the partition itself created as `CLONE_REF_BASE + position` (position
/// in creation order); at splice time [`optimize_partial`] rebases those
/// onto the ids the clones actually receive in the program. References
/// below the base are input-function ids, which are stable across edits
/// of *other* cones.
pub const CLONE_REF_BASE: u32 = 0x8000_0000;

/// A finished partition's final state: what a rebuild produces, what
/// [`optimize_partial`] hands back for the daemon to store, and what a
/// later [`PartitionAction::Reuse`] replays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReusedPartition {
    /// `(input id, final optimized body, alive)` for every member, where
    /// `alive` records whether the function was still in its module's
    /// function list at the end of the build (deleted routines keep their
    /// id but leave the list).
    pub members: Vec<(FuncId, Function, bool)>,
    /// The clone bodies the partition created, in creation order, with
    /// their final alive bits. Function references into this list are
    /// stored as [`CLONE_REF_BASE`]`+ position` sentinels.
    pub clones: Vec<(Function, bool)>,
}

/// What [`optimize_partial`] should do with one cache partition.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionAction {
    /// Run the full multi-pass pipeline on the partition's members.
    Rebuild,
    /// Splice the stored final bodies in without optimizing anything.
    Reuse(ReusedPartition),
}

/// Result of [`optimize_partial`]: the usual report plus the partitions
/// the build produced.
#[derive(Debug, Clone, Default)]
pub struct PartialOutcome {
    /// The optimization report (same shape as [`optimize`]'s).
    pub report: HloReport,
    /// With a plan, one entry per partition in partition order: the
    /// stored form of each rebuilt partition, `None` for each spliced
    /// one. Without a plan, empty.
    pub rebuilt: Vec<Option<ReusedPartition>>,
    /// True when the build renamed or relinked a global (static-global
    /// promotion during inlining/cloning). Such a build mutates state
    /// outside its partitions' bodies, so the daemon must not populate
    /// its partition cache from it.
    pub globals_mutated: bool,
}

/// The partition-at-a-time driver underneath [`optimize_traced`].
///
/// The program is split into *cache partitions* — weakly connected
/// components of the direct call graph, with everything touching
/// indirection (indirect call sites, address-taken functions and their
/// takers) merged into one island — computed on the **input** program so
/// the optimization daemon, which keys its result cache on input cone
/// hashes, agrees with the driver about membership. After frequency
/// annotation, partitions are built one at a time, in partition order,
/// each inside a structural `partition:<index>` span. A rebuild carves the
/// partition out as a sub-program that holds only its members, renumbered
/// densely ([`extract_sub_program`]), and runs the whole pipeline on it:
/// input-stage cleanup and deletion, the clone and inline passes under the
/// partition's **own** [`crate::budget::Budget`] (its proportional share
/// of the global budget), and straightening. The finished partition then
/// comes back through the same splice step a cached one takes. No stage
/// can see past its sub-program, and clone ids allocate contiguously per
/// partition, so each partition's final bodies are a pure function of its
/// own members, profile slice and budget share (and of the names already
/// taken, which the build keeps for the whole program in one
/// [`FuncNames`]) — which is what makes function-grain result reuse
/// sound:
///
/// * `plan = None` (a full build, what [`optimize`] does): every
///   partition is rebuilt.
/// * `plan = Some(actions)`, one action per partition: `Rebuild` runs the
///   pipeline, `Reuse` splices the stored final bodies byte-for-byte. The
///   result is byte-identical to a full build as long as every reused
///   entry really came from a byte-identical cone under the same options
///   and budget share.
///
/// With a plan, each rebuilt partition's stored form is copied once,
/// before its splice, into [`PartialOutcome::rebuilt`]; a reused entry's
/// bodies move from the plan into the program. Without a plan nothing is
/// copied.
///
/// Outline builds (`enable_outline`) are one partition holding every
/// input function — outlining creates functions before partitioning is
/// useful — so their sub-program is the whole program; they reject a
/// plan.
pub fn optimize_partial(
    p: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    plan: Option<Vec<PartitionAction>>,
    tracer: &mut Tracer,
) -> PartialOutcome {
    let span_base = tracer.span_count();
    let run_t = Instant::now();
    let root = tracer.push("optimize");

    // Static-global promotion renames globals program-wide; snapshot the
    // table so the outcome can report any mutation.
    let globals_before: Vec<(String, Linkage)> = p
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.linkage))
        .collect();

    // Cache partitions come from the *input* program.
    let partitions: Vec<Vec<FuncId>> = if opts.enable_outline {
        assert!(plan.is_none(), "outline builds are not partition-cacheable");
        vec![(0..p.funcs.len() as u32).map(FuncId).collect()]
    } else {
        CallGraph::build(p)
            .cache_partitions()
            .into_iter()
            .map(|part| part.funcs)
            .collect()
    };
    let keep = plan.is_some();
    let plan = plan.unwrap_or_else(|| vec![PartitionAction::Rebuild; partitions.len()]);
    assert_eq!(
        plan.len(),
        partitions.len(),
        "plan must cover every cache partition"
    );

    let mut build = Build {
        opts,
        ck: Checker::new(opts.check),
        report: HloReport::default(),
        ops_left: opts.max_ops,
        passes: (0..opts.passes)
            .map(|pass| PassReport {
                pass,
                ..Default::default()
            })
            .collect(),
        pass_entered: vec![false; opts.passes],
        names: FuncNames::of(p),
    };
    // Verify-each: record the input program's pre-existing defects first,
    // so every later boundary only reports what a stage *introduced*.
    build.ck.baseline(p);

    // Frequency annotation: PBO counts when available, the static
    // loop-depth heuristic otherwise. With a profile database, functions
    // never executed in training are cold, not unknown. The database is
    // applied program-wide, so the report counts the same annotations
    // whatever the plan; the fill runs only where a partition rebuilds, as
    // a reused partition's bodies are replaced at its splice.
    let t = Instant::now();
    build.report.profile_annotations = match profile {
        Some(db) => apply_profile(p, db) as u64,
        None => 0,
    };
    let mut fill = vec![true; p.funcs.len()];
    for (members, action) in partitions.iter().zip(&plan) {
        if matches!(action, PartitionAction::Reuse(_)) {
            for &f in members {
                fill[f.index()] = false;
            }
        }
    }
    for (f, fill) in p.funcs.iter_mut().zip(fill) {
        if fill && f.profile.is_none() {
            f.profile = Some(if profile.is_some() {
                FuncProfile {
                    entry: 0.0,
                    blocks: vec![0.0; f.blocks.len()],
                }
            } else {
                estimate_static_profile(f)
            });
        }
    }
    tracer.leaf_seq("annotate", t.elapsed());
    build.ck.check(p, "annotate");

    let mut rebuilt = Vec::new();
    for (pi, (members, action)) in partitions.iter().zip(plan).enumerate() {
        let t = Instant::now();
        let span = tracer.push(&format!("partition:{pi}"));
        let finished = match action {
            PartitionAction::Reuse(stored) => {
                record_spliced_names(&mut build.names, p, &stored);
                // A spliced partition's budget is sized from its input
                // members, which never ran the pipeline here.
                let cost = p.cost_of(members);
                build.report.initial_cost += cost;
                build.report.budget_limit +=
                    Budget::new(cost, opts.budget_percent, &opts.stage_fractions).limit();
                if keep {
                    rebuilt.push(None);
                }
                stored
            }
            PartitionAction::Rebuild => {
                let mut sub = extract_sub_program(p, members);
                build.partition(&mut sub, tracer);
                let finished = finish_sub_program(p, sub, members);
                if keep {
                    rebuilt.push(Some(finished.clone()));
                }
                finished
            }
        };
        splice_partition(p, finished);
        tracer.pop(span, t.elapsed());
    }

    let Build {
        ck,
        mut report,
        passes,
        pass_entered,
        ..
    } = build;
    for (pr, entered) in passes.into_iter().zip(pass_entered) {
        if entered {
            report.inlines += pr.inlines;
            report.clones += pr.clones_created;
            report.clone_replacements += pr.clone_replacements;
            report.deletions += pr.deletions;
            report.passes.push(pr);
        }
    }

    tracer.pop(root, run_t.elapsed());
    report.final_cost = p.compile_cost();
    report.stage_timings = tracer
        .stage_totals_since(span_base)
        .into_iter()
        .map(|(stage, wall_us, work_us)| StageTiming {
            stage,
            wall_us,
            work_us,
        })
        .collect();
    report.checks_run = ck.checks_run();
    report.lint_time_us = ck.elapsed().as_micros() as u64;
    report.diagnostics = ck.into_report().diags;

    let globals_mutated = p.globals.len() != globals_before.len()
        || p.globals
            .iter()
            .zip(&globals_before)
            .any(|(g, (name, linkage))| g.name != *name || g.linkage != *linkage);

    PartialOutcome {
        report,
        rebuilt,
        globals_mutated,
    }
}

/// The state one build threads through its partitions, in partition
/// order: the verify-each checker, the report's counters (the budget
/// limit among them: the sum of the partitions' own limits), the Figure 8
/// operation counter (one global sequential count), the per-pass rows
/// every partition adds to, and every function name the program holds,
/// which new functions are named against.
struct Build<'a> {
    opts: &'a HloOptions,
    ck: Checker,
    report: HloReport,
    ops_left: Option<u64>,
    passes: Vec<PassReport>,
    pass_entered: Vec<bool>,
    names: FuncNames,
}

impl Build<'_> {
    /// Runs the whole pipeline on one partition's sub-program `q`, which
    /// holds the partition's members and nothing else.
    fn partition(&mut self, q: &mut Program, tracer: &mut Tracer) {
        let opts = self.opts;
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();

        // Input-stage cleanup: classic optimizations "mainly to reduce
        // size", plus interprocedural side-effect deletion on the
        // link-time path.
        self.optimize_all(q, &mut cache, &mut sums, tracer, 0);
        let t = Instant::now();
        self.report.deletions += delete_unreachable(q, opts.scope, &mut cache);
        tracer.leaf_seq("delete", t.elapsed());
        self.ck.check(q, "delete");

        // Optional aggressive outlining (paper §5): shrink hot routines by
        // extracting cold return paths before any budget is computed, so
        // the freed budget goes to inlining the hot code. Outlining
        // rewrites call coordinates program-wide, so the whole cache is
        // invalidated.
        if opts.enable_outline {
            // A structural span only — no stage leaf, so `stage_timings`
            // output is unchanged from the pre-tracer format.
            let t = Instant::now();
            let outline_span = tracer.push("outline");
            self.report.outlines =
                crate::outline_cold_regions_traced(q, &mut self.names, &opts.outline, tracer);
            cache.invalidate_all();
            self.ck.check(q, "outline");
            if self.report.outlines > 0 {
                self.optimize_all(q, &mut cache, &mut sums, tracer, 0);
            }
            tracer.pop(outline_span, t.elapsed());
        }

        // The partition's budget, a pure function of its own post-prepass
        // cost — the hierarchical split mirrors how the clone and inline
        // planners split stage headroom proportionally. The limits sum to
        // the global budget (within integer truncation).
        let initial = q.compile_cost();
        self.report.initial_cost += initial;
        let mut budget = Budget::new(initial, opts.budget_percent, &opts.stage_fractions);
        self.report.budget_limit += budget.limit();
        let mut clone_db = CloneDb::default();
        for pass in 0..opts.passes {
            if !budget.open() || self.ops_left == Some(0) {
                break;
            }
            self.pass_entered[pass] = true;
            let pass_t = Instant::now();
            let pass_span = tracer.push(&format!("pass{pass}"));
            if opts.enable_clone {
                let r = clone_pass(
                    q,
                    &mut budget,
                    pass,
                    opts,
                    &mut clone_db,
                    &mut self.names,
                    &mut self.ops_left,
                    &mut cache,
                    &mut sums,
                    tracer,
                );
                let pr = &mut self.passes[pass];
                pr.clones_created += r.clones_created;
                pr.clones_reused += r.clones_reused;
                pr.clone_replacements += r.sites_replaced;
                self.report.opt_runs += r.opt_runs;
                self.report.opt_rounds += r.opt_rounds;
                self.report.liveness_solves += r.liveness_solves;
                tracer.leaf_seq("clone.plan", r.plan_wall);
                tracer.leaf_seq("clone.apply", r.apply_wall);
                self.ck.check(q, &format!("clone@{pass}"));
            }
            if opts.enable_inline {
                let r = inline_pass(
                    q,
                    &mut budget,
                    pass,
                    opts,
                    &mut self.ops_left,
                    &mut cache,
                    &mut sums,
                    tracer,
                );
                self.passes[pass].inlines += r.inlines;
                self.report.inline_evals += r.evals;
                self.report.opt_runs += r.opt_runs;
                self.report.opt_rounds += r.opt_rounds;
                self.report.liveness_solves += r.liveness_solves;
                tracer.leaf_seq("inline.plan", r.plan_wall);
                tracer.leaf_seq("inline.apply", r.apply_wall);
                self.ck.check(q, &format!("inline@{pass}"));
            }
            let t = Instant::now();
            self.passes[pass].deletions += delete_unreachable(q, opts.scope, &mut cache);
            tracer.leaf_seq("delete", t.elapsed());
            self.ck.check(q, &format!("delete@{pass}"));
            self.optimize_all(q, &mut cache, &mut sums, tracer, pass as u32);
            let t = Instant::now();
            self.passes[pass].deletions += delete_unreachable(q, opts.scope, &mut cache);
            tracer.leaf_seq("delete", t.elapsed());
            self.ck.check(q, &format!("cleanup@{pass}"));
            budget.recalibrate(q.compile_cost());
            self.passes[pass].cost_after += budget.current();
            tracer.pop(pass_span, pass_t.elapsed());
            // Note: a pass that changed nothing is not a reason to stop —
            // sites deferred for budget reasons become affordable as later
            // stages release more budget.
        }
        self.report.summary_scans += sums.scans();
        self.report.summary_solves += sums.solves();
        self.report.graph_scans += cache.rescans();
        self.report.graph_assemblies += cache.rebuilds();

        // Final PBO code positioning: straighten hot paths so
        // fall-throughs replace jumps (does not change VM semantics, only
        // layout quality).
        if opts.enable_straighten {
            let t = Instant::now();
            self.report.straightened += hlo_opt::straighten::straighten_program(q);
            tracer.leaf_seq("straighten", t.elapsed());
            self.ck.check(q, "straighten");
        }
    }

    /// Optimizes every function of `q`; on the whole-program path it then
    /// runs the summary stage. A read of the partition's summaries feeds
    /// the paper's syntactic pure-call deletion (the `pure_calls` leaf)
    /// and, with [`HloOptions::ipa`] set, the summary-driven cross-call
    /// transformations (the `ipa` leaf). Accumulates its counters into the
    /// report. In verify-each mode the checker runs after every scalar
    /// sub-pass, so findings carry sub-pass origins like `cse` or
    /// `simplify_cfg`.
    fn optimize_all(
        &mut self,
        q: &mut Program,
        cache: &mut CallGraphCache,
        sums: &mut SummaryCache,
        tracer: &mut Tracer,
        pass: u32,
    ) {
        let opts = self.opts;
        cleanup_round(q, &mut self.ck, &mut self.report, cache, tracer);
        if opts.scope != Scope::CrossModule {
            return;
        }
        // The summaries are the only purity source: the paper's syntactic
        // side-effect test is their `syntactic_removable` projection.
        let t = Instant::now();
        let mut summaries = sums.read(q, cache);
        let removal = hlo_opt::eliminate_calls_where(q, &summaries.syntactic_removable());
        for &f in &removal.changed {
            cache.invalidate(f);
        }
        tracer.leaf_seq("pure_calls", t.elapsed());
        self.ck.check(q, "pure_calls");
        if tracer.decisions_enabled() {
            for s in &removal.sites {
                tracer.decision(pure_call_event(
                    q,
                    pass,
                    s.caller,
                    s.block,
                    s.inst,
                    s.callee,
                    "pure-call-removed",
                ));
            }
        }
        self.report.pure_calls_removed += removal.removed;
        if removal.removed > 0 {
            cleanup_round(q, &mut self.ck, &mut self.report, cache, tracer);
        }

        // Summary-driven stage: fold constant returns, delete calls the
        // summaries prove removable (a strict superset of the syntactic set
        // above — only newly unlocked sites remain by now), then forward
        // stores across summary-screened calls. `ipa off` skips all of it
        // and reproduces the historical pipeline byte for byte.
        if opts.ipa {
            let t = Instant::now();
            // The summaries still describe `q` unless the deletion above
            // (and the cleanup after it) edited it.
            if removal.removed > 0 {
                summaries = sums.read(q, cache);
            }
            let folds = hlo_opt::fold_const_returns(q, summaries);
            for fo in &folds {
                cache.invalidate(fo.caller);
            }
            let ipa_removal = hlo_opt::eliminate_calls_where(q, &summaries.removable());
            for &f in &ipa_removal.changed {
                cache.invalidate(f);
            }
            let xstats = hlo_opt::forward_across_calls(q, summaries);
            for &f in &xstats.changed {
                cache.invalidate(f);
            }
            tracer.leaf_seq("ipa", t.elapsed());
            self.ck.check(q, "ipa");
            if tracer.decisions_enabled() {
                for fo in &folds {
                    tracer.decision(pure_call_event(
                        q,
                        pass,
                        fo.caller,
                        fo.block,
                        fo.inst,
                        fo.callee,
                        "ipa-ret-const",
                    ));
                }
                for s in &ipa_removal.sites {
                    let reason = if summaries.funcs[s.callee.index()].syntactic_removable() {
                        "pure-call-removed"
                    } else {
                        "ipa-pure-callee"
                    };
                    tracer.decision(pure_call_event(
                        q, pass, s.caller, s.block, s.inst, s.callee, reason,
                    ));
                }
            }
            self.report.ipa_const_folds += folds.len() as u64;
            self.report.ipa_pure_calls += ipa_removal.removed;
            self.report.ipa_store_forwards += xstats.forwards + xstats.dead_stores;
            if !folds.is_empty()
                || ipa_removal.removed > 0
                || xstats.forwards + xstats.dead_stores > 0
            {
                cleanup_round(q, &mut self.ck, &mut self.report, cache, tracer);
            }
        }
    }
}

/// Carves one cache partition out of `p` for its own pipeline run: a
/// dense sub-program holding the members and nothing else. Their bodies
/// move in, in ascending id order, and become ids `0..k`; every function
/// reference in them, the module lists and the entry go through one
/// monotone map from input ids to dense ids (the entry becomes `None` when
/// it is not a member). Cache partitions are closed under direct calls and
/// address-taking, so members reference only members; a reference to a
/// non-member panics rather than being remapped into the wrong function.
/// Because the map is monotone, every id comparison and tie-break
/// in the pipeline comes out as it would over the whole program, and the
/// clones the pipeline appends at `k..` still follow every member. The
/// globals and externs move in too, so a static-global promotion reaches
/// the program when the partition comes back. `p` holds empty stand-ins
/// in the members' slots until [`splice_partition`] puts the finished
/// bodies back.
fn extract_sub_program(p: &mut Program, members: &[FuncId]) -> Program {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let mut dense: Vec<Option<FuncId>> = vec![None; p.funcs.len()];
    for (d, &id) in members.iter().enumerate() {
        dense[id.index()] = Some(FuncId(d as u32));
    }
    let funcs = members
        .iter()
        .map(|&id| {
            let slot = &mut p.funcs[id.index()];
            let stand_in = Function::new(String::new(), slot.module, 0);
            let mut f = std::mem::replace(slot, stand_in);
            let name = std::mem::take(&mut f.name);
            f.for_each_func_ref_mut(|fid| {
                let d = dense.get(fid.index()).copied().flatten();
                *fid = d.unwrap_or_else(|| {
                    panic!("`{name}` references {fid}, outside its cache partition")
                });
            });
            f.name = name;
            f
        })
        .collect();
    let modules = p
        .modules
        .iter()
        .map(|m| Module {
            name: m.name.clone(),
            funcs: m.funcs.iter().filter_map(|f| dense[f.index()]).collect(),
        })
        .collect();
    Program {
        modules,
        funcs,
        globals: std::mem::take(&mut p.globals),
        externs: std::mem::take(&mut p.externs),
        entry: p.entry.and_then(|e| dense[e.index()]),
    }
}

/// Takes a rebuilt partition apart again into its stored form: the
/// globals and externs go back to `p`, and the members' final bodies and
/// the clones the pipeline appended (in creation order) come out with
/// their alive bits. Function references map back: a dense id below the
/// member count to that member's input id, a clone's to a
/// [`CLONE_REF_BASE`] sentinel. This is the form [`splice_partition`]
/// consumes and a later [`PartitionAction::Reuse`] replays.
fn finish_sub_program(p: &mut Program, sub: Program, members: &[FuncId]) -> ReusedPartition {
    p.globals = sub.globals;
    p.externs = sub.externs;
    let mut alive = vec![false; sub.funcs.len()];
    for m in &sub.modules {
        for f in &m.funcs {
            alive[f.index()] = true;
        }
    }
    let k = members.len() as u32;
    let mut funcs = sub.funcs.into_iter().zip(alive).map(|(mut f, alive)| {
        f.for_each_func_ref_mut(|fid| {
            *fid = match members.get(fid.index()) {
                Some(&id) => id,
                None => FuncId(CLONE_REF_BASE + (fid.0 - k)),
            };
        });
        (f, alive)
    });
    ReusedPartition {
        members: members
            .iter()
            .zip(funcs.by_ref())
            .map(|(&id, (f, alive))| (id, f, alive))
            .collect(),
        clones: funcs.collect(),
    }
}

/// Records in `names` what splicing `stored` into `p` does to the
/// program's function names: members a promotion renamed give up their
/// input names, and the members' final names and the clones' names are
/// taken. (A rebuilt partition recorded all of this as it minted.)
fn record_spliced_names(names: &mut FuncNames, p: &Program, stored: &ReusedPartition) {
    for (id, f, _) in &stored.members {
        let input = &p.func(*id).name;
        if *input != f.name {
            names.remove(input);
            names.insert(&f.name);
        }
    }
    for (f, _) in &stored.clones {
        names.insert(&f.name);
    }
}

/// Splices one finished partition into `p`: members' final bodies
/// overwrite their input slots (dead ones leave their module list), clone
/// bodies are appended in creation order, and [`CLONE_REF_BASE`]
/// references are rebased onto the ids the clones land on. Cached and
/// freshly rebuilt partitions both come back this way. Clone ids line up
/// with what a rebuild would have allocated because partitions are
/// processed in order and earlier partitions contribute identical clone
/// counts either way.
fn splice_partition(p: &mut Program, finished: ReusedPartition) {
    let base = p.funcs.len() as u32;
    let rebase = |func: &mut Function| {
        func.for_each_func_ref_mut(|fid| {
            if fid.0 >= CLONE_REF_BASE {
                fid.0 = base + (fid.0 - CLONE_REF_BASE);
            }
        });
    };
    for (id, mut func, alive) in finished.members {
        rebase(&mut func);
        let module = func.module;
        *p.func_mut(id) = func;
        if !alive {
            p.modules[module.index()].funcs.retain(|&x| x != id);
        }
    }
    for (mut func, alive) in finished.clones {
        rebase(&mut func);
        let module = func.module;
        let id = p.push_function(func);
        if !alive {
            p.modules[module.index()].funcs.retain(|&x| x != id);
        }
    }
}

/// One scalar-cleanup round: every function with a body that is not
/// settled in the call-graph cache is optimized, in function order, with
/// its sub-pass boundaries checked through `ck`. Functions whose bodies
/// changed are invalidated in the cache, and those the optimizer
/// converged on are settled. A settled function is at the optimizer's
/// fixpoint (nothing edited it since it converged), and deleted routines
/// are too (no stage changes a lone `ret`), so the round skips all of
/// them: re-running them would change nothing, and debug builds check
/// exactly that on a copy of each settled one. The runs and their rounds
/// are counted into `report` (the debug re-runs are not).
fn cleanup_round(
    p: &mut Program,
    ck: &mut Checker,
    report: &mut HloReport,
    cache: &mut CallGraphCache,
    tracer: &mut Tracer,
) {
    #[cfg(debug_assertions)]
    for (id, f) in p.iter_funcs() {
        if cache.is_settled(id) && !has_empty_body(f) {
            let mut copy = f.clone();
            hlo_opt::optimize_function(&mut copy);
            assert!(
                copy == *f,
                "cleanup skips `{}` as settled, but the scalar optimizer still changes it",
                f.name
            );
        }
    }
    let t = Instant::now();
    let ids: Vec<FuncId> = p
        .iter_funcs()
        .filter(|&(id, f)| !has_empty_body(f) && !cache.is_settled(id))
        .map(|(id, _)| id)
        .collect();
    for id in ids {
        let stats = hlo_opt::optimize_function_checked(p.func_mut(id), ck);
        report.opt_runs += 1;
        report.opt_rounds += stats.rounds;
        report.liveness_solves += stats.liveness_solves;
        if stats.changed {
            cache.invalidate(id);
        }
        if stats.converged {
            cache.settle(id);
        }
    }
    tracer.leaf_seq("cleanup", t.elapsed());
}

/// A pure-call deletion / ipa-stage decision event in the canonical
/// site spelling (the instruction no longer exists, so the coordinates
/// are pre-deletion).
fn pure_call_event(
    p: &Program,
    pass: u32,
    caller: FuncId,
    block: usize,
    inst: usize,
    callee: FuncId,
    reason: &'static str,
) -> DecisionEvent {
    let caller = p.func(caller);
    DecisionEvent {
        pass,
        kind: DecisionKind::PureCall,
        site: format!("{}@b{}.i{}", caller.name, block, inst),
        callee: p.func(callee).name.clone(),
        verdict: Verdict::Performed,
        reason,
        benefit: 0.0,
        cost: 0,
        budget_before: 0,
        budget_after: 0,
        profile_weight: caller
            .profile
            .as_ref()
            .and_then(|pr| pr.blocks.get(block).copied())
            .unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;
    use hlo_profile::collect_profile;
    use hlo_trace::TraceLevel;
    use hlo_vm::{run_program, ExecOptions};

    const INTERP_SRC: &str = r#"
        global prog[16] = {1, 5, 2, 3, 1, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0};
        static fn op_add(acc, v) { return acc + v; }
        static fn op_mul(acc, v) { return acc * v; }
        fn step(acc, code, v) {
            if (code == 1) { return op_add(acc, v); }
            if (code == 2) { return op_mul(acc, v); }
            return acc;
        }
        fn main() {
            var acc = 0;
            for (var r = 0; r < 200; r = r + 1) {
                var i = 0;
                while (prog[i] != 0) {
                    acc = step(acc, prog[i], prog[i + 1]);
                    i = i + 2;
                }
            }
            return acc;
        }
    "#;

    #[test]
    fn end_to_end_preserves_semantics_and_speeds_up() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let report = optimize(&mut p, None, &HloOptions::default());
        verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(before.checksum, after.checksum);
        assert!(report.inlines > 0, "{report}");
        assert!(
            after.retired < before.retired,
            "expected speedup: {} -> {}",
            before.retired,
            after.retired
        );
    }

    #[test]
    fn budget_is_respected() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            budget_percent: 100,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        // Allow slack for post-pass scalar optimization shrinking then
        // regrowing, but the order of magnitude must hold.
        assert!(
            report.final_cost <= report.budget_limit + report.initial_cost / 4,
            "{report}"
        );
    }

    #[test]
    fn profile_guided_beats_static_on_skewed_input() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let (db, _) = collect_profile(&p0, &[], &ExecOptions::default()).unwrap();

        let mut static_p = p0.clone();
        let tight = HloOptions {
            budget_percent: 30,
            ..Default::default()
        };
        let rs = optimize(&mut static_p, None, &tight);
        assert_eq!(rs.profile_annotations, 0);
        let mut pgo_p = p0.clone();
        let rg = optimize(&mut pgo_p, Some(&db), &tight);
        assert!(rg.profile_annotations >= 1, "{rg}");
        let s = run_program(&static_p, &[], &ExecOptions::default()).unwrap();
        let g = run_program(&pgo_p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(s.ret, g.ret);
        // PGO should never be (much) worse dynamically.
        assert!(
            g.retired <= s.retired + s.retired / 10,
            "pgo {} vs static {}",
            g.retired,
            s.retired
        );
    }

    #[test]
    fn staged_indirect_promotion_across_passes() {
        // handler address flows through a dispatcher's parameter; pass 1
        // clones, constprop promotes, pass 2 inlines.
        let src = r#"
            static fn handler(x) { return x * 3 + 1; }
            fn dispatch(f, x) { return f(x); }
            fn main() {
                var s = 0;
                for (var i = 0; i < 100; i = i + 1) { s = s + dispatch(&handler, i); }
                return s;
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let report = optimize(&mut p, None, &HloOptions::default());
        verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert!(report.clones >= 1, "{report}");
        assert!(after.retired < before.retired);
        // No indirect calls should remain on the hot path.
        let counts = hlo_analysis::classify_sites(&p);
        assert_eq!(counts.indirect, 0, "{counts:?}");
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            enable_inline: false,
            enable_clone: false,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert_eq!(report.inlines, 0);
        assert_eq!(report.clones, 0);
    }

    #[test]
    fn max_ops_limits_total_operations() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            max_ops: Some(2),
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert!(report.operations() <= 2, "{report}");
        verify_program(&p).unwrap();
    }

    #[test]
    fn within_module_scope_blocks_cross_module_inlining() {
        let a = "fn main() { var s = 0; for (var i = 0; i < 50; i = i + 1) { s = s + util(i); } return s; }";
        let b = "fn util(x) { return x * 2 + 1; }";
        let p0 = hlo_frontc::compile(&[("a", a), ("b", b)]).unwrap();
        let mut within = p0.clone();
        let rw = optimize(
            &mut within,
            None,
            &HloOptions {
                scope: Scope::WithinModule,
                ..Default::default()
            },
        );
        assert_eq!(rw.inlines, 0, "{rw}");
        let mut cross = p0.clone();
        let rc = optimize(&mut cross, None, &HloOptions::default());
        assert!(rc.inlines >= 1, "{rc}");
        // and the cross-module build is dynamically cheaper
        let w = run_program(&within, &[], &ExecOptions::default()).unwrap();
        let c = run_program(&cross, &[], &ExecOptions::default()).unwrap();
        assert_eq!(w.ret, c.ret);
        assert!(c.retired < w.retired);
    }

    #[test]
    fn fully_inlined_static_routines_are_deleted() {
        let src = r#"
            static fn once(x) { return x + 2; }
            fn main() { return once(40); }
        "#;
        // ipa off: the site is spliced by the inliner and the fully
        // inlined static callee is deleted (the original mechanism).
        let mut p = hlo_frontc::compile(&[("m", src)]).unwrap();
        let opts = HloOptions {
            ipa: false,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert!(report.inlines >= 1);
        assert!(report.deletions >= 1, "{report}");
        // module list no longer contains `once`
        let m = &p.modules[0];
        assert!(m.funcs.iter().all(|&f| p.func(f).name != "once"));

        // ipa on (the default): the specialized call folds to its constant
        // return before the inliner needs to splice it — the static callee
        // is deleted all the same and main is a bare constant return.
        let mut p = hlo_frontc::compile(&[("m", src)]).unwrap();
        let report = optimize(&mut p, None, &HloOptions::default());
        assert!(report.deletions >= 1, "{report}");
        assert!(
            report.inlines + report.ipa_const_folds >= 1,
            "either path must claim the site: {report}"
        );
        let m = &p.modules[0];
        assert!(m.funcs.iter().all(|&f| p.func(f).name != "once"));
        let main = p.entry.unwrap();
        assert_eq!(p.func(main).size(), 1, "{}", p.func(main));
    }

    #[test]
    fn recursive_pass_through_cloning_specializes_recursion() {
        // Paper §2.2: "cloning a recursive procedure with a pass-through
        // parameter ... might be difficult to do correctly in a single
        // pass". Multi-pass + clone database: pass 1 clones power(base=3),
        // constant propagation re-materializes base=3 at the clone's own
        // recursive call, pass 2 finds that site, hits the database, and
        // redirects it — the clone ends up calling itself.
        let src = r#"
            fn power(base, n) {
                if (n <= 0) { return 1; }
                return base * power(base, n - 1);
            }
            fn main() {
                var s = 0;
                for (var i = 0; i < 8; i = i + 1) { s = s + power(3, i); }
                return s;
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let expect = run_program(&p0, &[], &ExecOptions::default()).unwrap().ret;
        let mut p = p0.clone();
        let opts = HloOptions {
            enable_inline: false, // isolate the cloning story
            budget_percent: 400,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
        assert!(report.clones >= 1, "{report}");
        assert!(report.clone_replacements >= 2, "{report}");
        // The specialized clone must be self-recursive.
        let clone = p
            .iter_funcs()
            .find(|(_, f)| f.name.contains("clone"))
            .map(|(i, _)| i)
            .expect("clone exists");
        let cg = hlo_analysis::CallGraph::build(&p);
        assert!(
            cg.in_recursion(clone),
            "clone should call itself after pass-through specialization"
        );
    }

    #[test]
    fn outlining_is_reported_and_preserves_semantics() {
        let src = r#"
            global errs;
            fn work(n, mode) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) {
                    if (mode == 77) {
                        errs = errs + 1;
                        var penalty = mode * 1000 + n + errs * 3;
                        return 0 - penalty;
                    }
                    s = s + i * 2 + 1;
                }
                return s;
            }
            fn main() {
                var a = 0;
                for (var r = 0; r < 300; r = r + 1) { a = a + work(20, 1); }
                return a * 1000 + work(5, 77);
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let expect = run_program(&p0, &[], &ExecOptions::default()).unwrap().ret;
        let (db, _) = collect_profile(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let opts = HloOptions {
            enable_outline: true,
            ..Default::default()
        };
        let mut tracer = Tracer::new(TraceLevel::Spans);
        let report = optimize_traced(&mut p, Some(&db), &opts, &mut tracer);
        verify_program(&p).unwrap();
        assert!(report.outlines >= 1, "{report}");
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
        // An outline build is one partition holding every function: one
        // `partition:0` span, which owns every pass.
        let tree = tracer.span_tree_text();
        assert_eq!(tree.matches("partition:").count(), 1, "{tree}");
        assert_eq!(tree.matches("partition:0\n").count(), 1, "{tree}");
        let owners = pass_owners(&tracer);
        assert!(!owners.is_empty(), "{tree}");
        assert!(owners.iter().all(|o| o == "partition:0"), "{tree}");
    }

    #[test]
    fn report_tracks_passes() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let report = optimize(&mut p, None, &HloOptions::default());
        assert!(!report.passes.is_empty());
        assert_eq!(
            report.inlines,
            report.passes.iter().map(|q| q.inlines).sum::<u64>()
        );
    }

    #[test]
    fn repeated_runs_produce_identical_output() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let mut base = p0.clone();
        let r1 = optimize(&mut base, None, &HloOptions::default());
        let mut q = p0.clone();
        let r = optimize(&mut q, None, &HloOptions::default());
        assert_eq!(hlo_ir::program_to_text(&base), hlo_ir::program_to_text(&q));
        assert_eq!(r.inlines, r1.inlines);
        assert_eq!(r.compile_time_units(), r1.compile_time_units());
        assert_eq!(r.operations(), r1.operations());
        assert!(!r1.stage_timings.is_empty());
        assert!(r1.stage_timings.iter().any(|s| s.stage == "cleanup"));
    }

    #[test]
    fn options_text_roundtrip() {
        let mut o = HloOptions {
            scope: Scope::WithinModule,
            budget_percent: 250,
            passes: 7,
            stage_fractions: vec![0.1, 0.5, 1.0],
            enable_inline: false,
            max_ops: Some(42),
            enable_outline: true,
            check: CheckLevel::Strict,
            ..Default::default()
        };
        o.outline.cold_fraction = 0.125;
        let back = HloOptions::from_text(&o.to_text()).unwrap();
        assert_eq!(o, back);
        // Omitted keys keep defaults; unknown keys are rejected.
        assert_eq!(
            HloOptions::from_text("budget 30").unwrap().budget_percent,
            30
        );
        assert!(HloOptions::from_text("zzz 1").is_err());
        assert!(HloOptions::from_text("scope galaxy").is_err());
        // `jobs` is no longer an option.
        assert!(HloOptions::from_text("jobs 4").is_err());
    }

    #[test]
    fn fingerprint_ignores_check_only() {
        let base = HloOptions::default();
        let mut same = base.clone();
        same.check = CheckLevel::Strict;
        assert_eq!(base.fingerprint(), same.fingerprint());
        let mut diff = base.clone();
        diff.budget_percent = 99;
        assert_ne!(base.fingerprint(), diff.fingerprint());
        let mut diff2 = base.clone();
        diff2.stage_fractions = vec![1.0];
        assert_ne!(base.fingerprint(), diff2.fingerprint());
    }

    #[test]
    fn traced_run_records_provenance_without_changing_output() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            budget_percent: 30, // tight enough that some sites must defer
            ..Default::default()
        };
        let mut traced = p0.clone();
        let mut tracer = Tracer::new(TraceLevel::Decisions);
        let report = optimize_traced(&mut traced, None, &opts, &mut tracer);
        let mut plain = p0.clone();
        optimize(&mut plain, None, &opts);
        assert_eq!(
            hlo_ir::program_to_text(&traced),
            hlo_ir::program_to_text(&plain),
            "tracing must be pure observation"
        );
        let tree = tracer.span_tree_text();
        assert!(tree.starts_with("optimize\n"), "{tree}");
        assert!(tree.contains("pass0"), "{tree}");
        assert!(tree.contains("inline.plan"), "{tree}");
        let decisions = tracer.decision_report(None);
        assert!(
            decisions.contains("verdict=performed reason=accepted"),
            "{decisions}"
        );
        assert!(decisions.contains("reason=budget-deferred"), "{decisions}");
        // Stage timings now come from the tracer's leaves, same shape as
        // the old accumulator produced.
        assert!(report.stage_timings.iter().any(|s| s.stage == "cleanup"));
        assert!(report
            .stage_timings
            .iter()
            .any(|s| s.stage == "inline.plan"));
        // Metrics mirror the recorded decisions.
        assert!(tracer.metrics().expose().contains("decisions_total"));
    }

    /// Three modules with disjoint call graphs. Per-module scope keeps
    /// every public root alive, so the program has (at least) three live
    /// cache partitions.
    fn three_partition_modules() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "a",
                r#"
                static fn a_leaf(x) { return x * 2 + 1; }
                fn a_main() {
                    var s = 0;
                    for (var i = 0; i < 40; i = i + 1) { s = s + a_leaf(i); }
                    return s;
                }
                fn main() { return a_main(); }
                "#,
            ),
            (
                "b",
                r#"
                static fn b_leaf(k, x) { if (k == 1) { return x + 7; } return x; }
                fn b_main() {
                    var s = 0;
                    for (var i = 0; i < 30; i = i + 1) { s = s + b_leaf(1, i); }
                    return s;
                }
                "#,
            ),
            (
                "c",
                r#"
                static fn c_leaf(x) { return x * x; }
                fn c_main() {
                    var s = 0;
                    for (var i = 0; i < 20; i = i + 1) { s = s + c_leaf(i); }
                    return s;
                }
                "#,
            ),
        ]
    }

    fn module_opts() -> HloOptions {
        HloOptions {
            scope: Scope::WithinModule,
            ..Default::default()
        }
    }

    /// For every `pass*` span, the name of the span directly enclosing it.
    fn pass_owners(tracer: &Tracer) -> Vec<String> {
        let mut open: Vec<&str> = Vec::new();
        let mut owners = Vec::new();
        for s in tracer.spans() {
            open.truncate(s.depth as usize);
            if s.name.starts_with("pass") {
                owners.push(open.last().copied().unwrap_or_default().to_string());
            }
            open.push(&s.name);
        }
        owners
    }

    /// Modules `a` and `b` each hold a static `leaf` that their public
    /// root calls twice with the constant `k == 1`, so each of their
    /// partitions mints a clone of its own `leaf`; module `c` is `c_src`.
    fn twin_leaf_modules(c_src: &'static str) -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "a",
                r#"
                static fn leaf(k, x) { if (k == 1) { return x * 3 + 1; } return x - k; }
                fn a_main(n) { return leaf(1, n) + leaf(1, n * 2); }
                "#,
            ),
            (
                "b",
                r#"
                static fn leaf(k, x) { if (k == 1) { return x * 3 + 1; } return x - k; }
                fn b_main(n) { return leaf(1, n) + leaf(1, n * 2); }
                "#,
            ),
            ("c", c_src),
        ]
    }

    /// The members of each cache partition of `p`, as raw ids.
    fn partition_ids(p: &Program) -> Vec<Vec<u32>> {
        CallGraph::build(p)
            .cache_partitions()
            .iter()
            .map(|part| part.funcs.iter().map(|f| f.0).collect())
            .collect()
    }

    /// Builds `p0` (three partitions, modules a and b first) under
    /// per-module scope without inlining, in full and again with every
    /// partition but module b's spliced from a stored build. Both must be
    /// byte-identical, and modules `a` and `b` must end up holding the
    /// live clones `names[0]` and `names[1]`.
    fn assert_clone_names(p0: &Program, names: [&str; 2]) {
        let opts = HloOptions {
            scope: Scope::WithinModule,
            enable_inline: false,
            ..Default::default()
        };
        let mut full = p0.clone();
        let report = optimize(&mut full, None, &opts);
        assert_eq!(report.clones, 2, "{report}");
        for (module, name) in ["a", "b"].into_iter().zip(names) {
            let id = full
                .find_func(module, name)
                .unwrap_or_else(|| panic!("no `{name}` in module {module}"));
            assert!(full.module(full.func(id).module).funcs.contains(&id));
        }

        let mut cold = p0.clone();
        let plan = vec![PartitionAction::Rebuild; 3];
        let out = optimize_partial(&mut cold, None, &opts, Some(plan), &mut Tracer::disabled());
        let full_text = hlo_ir::program_to_text(&full);
        assert_eq!(full_text, hlo_ir::program_to_text(&cold));
        let plan = out
            .rebuilt
            .into_iter()
            .enumerate()
            .map(|(pi, stored)| match pi {
                1 => PartitionAction::Rebuild,
                _ => PartitionAction::Reuse(stored.expect("every partition was rebuilt")),
            })
            .collect();
        let mut inc = p0.clone();
        optimize_partial(&mut inc, None, &opts, Some(plan), &mut Tracer::disabled());
        assert_eq!(full_text, hlo_ir::program_to_text(&inc));
    }

    #[test]
    fn clone_names_are_minted_across_partitions() {
        // Module b's clone is minted after module a's `leaf.clone` came
        // back from partition 0, whether that partition was rebuilt or
        // spliced from the store.
        let p0 = hlo_frontc::compile(&twin_leaf_modules("fn main() { return 0; }")).unwrap();
        assert_eq!(partition_ids(&p0), [vec![0, 1], vec![2, 3], vec![4]]);
        assert_clone_names(&p0, ["leaf.clone", "leaf.clone.1"]);

        // A third partition already holding a `leaf.clone` (a name only IR
        // text can spell) pushes both mints one suffix further.
        let modules = twin_leaf_modules(
            "global g; static fn tail(x) { g = x; return 0; } fn main() { return tail(2); }",
        );
        let text = hlo_ir::program_to_text(&hlo_frontc::compile(&modules).unwrap());
        let renamed = text.replace("func tail ", "func leaf.clone ");
        assert_ne!(renamed, text);
        let p1 = hlo_ir::parse_program_text(&renamed).unwrap();
        assert_eq!(partition_ids(&p1), [vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert!(p1.find_func("c", "leaf.clone").is_some());
        assert_clone_names(&p1, ["leaf.clone.1", "leaf.clone.2"]);
    }

    #[test]
    fn verify_each_blames_an_input_defect_on_the_input_in_any_partition() {
        // `b_main` passes `pair` one argument too few: an input defect,
        // found at the baseline on the whole program and again at every
        // boundary of the partition `[pair, b_main]`. It must be recorded
        // once, as the input's, at both check levels.
        let p0 = hlo_frontc::compile(&[
            ("a", "fn a_main(n) { return n + 1; }"),
            (
                "b",
                "static fn pair(x, y) { return x * 2 + y; } fn b_main(n) { return pair(n); }",
            ),
            ("c", "fn main() { return 0; }"),
        ])
        .unwrap();
        assert_eq!(partition_ids(&p0), [vec![0], vec![1, 2], vec![3]]);
        for check in [CheckLevel::Structural, CheckLevel::Strict] {
            let mut p = p0.clone();
            let opts = HloOptions {
                check,
                ..module_opts()
            };
            let report = optimize(&mut p, None, &opts);
            let arity: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.message.contains("passes 1 arg"))
                .collect();
            assert_eq!(arity.len(), 1, "{check:?}: {report}");
            assert!(arity[0].message.contains("`pair`"), "{}", arity[0]);
            assert_eq!(
                arity[0].pass_origin.as_deref(),
                Some(hlo_lint::INPUT_ORIGIN)
            );
            assert_eq!(report.introduced_diagnostics().count(), 0, "{report}");
        }
    }

    #[test]
    fn partial_reuse_splices_byte_identical_output() {
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let opts = module_opts();
        let parts = CallGraph::build(&p0).cache_partitions();
        let nparts = parts.len();
        assert!(nparts >= 3, "expected >= 3 partitions, got {nparts}");
        let mut full = p0.clone();
        let mut tracer = Tracer::new(TraceLevel::Spans);
        let out = optimize_partial(&mut full, None, &opts, None, &mut tracer);
        // Without a plan no partition is copied out.
        assert!(out.rebuilt.is_empty());
        assert!(!out.globals_mutated);
        assert!(out.report.inlines >= 1, "{}", out.report);
        // Each partition's passes run inside its own structural span,
        // which the stage rows never name.
        let owners = pass_owners(&tracer);
        let tree = tracer.span_tree_text();
        assert!(owners.iter().all(|o| o.starts_with("partition:")), "{tree}");
        for pi in 0..3 {
            assert!(owners.contains(&format!("partition:{pi}")), "{tree}");
        }
        assert!(out
            .report
            .stage_timings
            .iter()
            .all(|s| !s.stage.starts_with("partition")));

        // A cold build under an all-`Rebuild` plan hands back every
        // partition's stored form.
        let mut cold = p0.clone();
        let plan = vec![PartitionAction::Rebuild; nparts];
        let out = optimize_partial(&mut cold, None, &opts, Some(plan), &mut Tracer::disabled());
        assert_eq!(
            hlo_ir::program_to_text(&full),
            hlo_ir::program_to_text(&cold)
        );
        let stored: Vec<ReusedPartition> = out
            .rebuilt
            .into_iter()
            .map(|s| s.expect("an all-rebuild plan returns every partition"))
            .collect();

        // Rebuild only the partition containing module b's functions and
        // splice the others from the cold build. The result must be
        // byte-identical.
        let target = p0.find_func("b", "b_main").unwrap();
        let rebuilt = parts
            .iter()
            .position(|part| part.funcs.contains(&target))
            .unwrap();
        let plan: Vec<PartitionAction> = stored
            .iter()
            .enumerate()
            .map(|(pi, s)| {
                if pi == rebuilt {
                    PartitionAction::Rebuild
                } else {
                    PartitionAction::Reuse(s.clone())
                }
            })
            .collect();
        let mut inc = p0.clone();
        let mut tracer = Tracer::new(TraceLevel::Spans);
        let out2 = optimize_partial(&mut inc, None, &opts, Some(plan), &mut tracer);
        assert_eq!(
            hlo_ir::program_to_text(&full),
            hlo_ir::program_to_text(&inc),
            "incremental output diverged"
        );
        assert_eq!(
            out2.rebuilt.iter().map(Option::is_some).collect::<Vec<_>>(),
            (0..nparts).map(|pi| pi == rebuilt).collect::<Vec<_>>(),
            "only the planned partition rebuilds"
        );
        assert_eq!(out2.rebuilt[rebuilt].as_ref(), Some(&stored[rebuilt]));
        // A splice gets its span too, but runs no pass.
        let tree = tracer.span_tree_text();
        assert!(
            pass_owners(&tracer)
                .iter()
                .all(|o| *o == format!("partition:{rebuilt}")),
            "{tree}"
        );
        assert_eq!(tree.matches("partition:").count(), nparts, "{tree}");
        hlo_ir::verify_program(&inc).unwrap();

        // Reusing every partition reproduces the build and rebuilds none.
        let plan = stored.into_iter().map(PartitionAction::Reuse).collect();
        let mut spliced = p0.clone();
        let out3 = optimize_partial(
            &mut spliced,
            None,
            &opts,
            Some(plan),
            &mut Tracer::disabled(),
        );
        assert_eq!(
            hlo_ir::program_to_text(&full),
            hlo_ir::program_to_text(&spliced)
        );
        assert_eq!(out3.rebuilt.len(), nparts);
        assert!(out3.rebuilt.iter().all(Option::is_none));
    }

    #[test]
    fn partial_reuse_tracks_edited_function() {
        // Edit one function's body; splicing the *unedited* partitions
        // from the original build must reproduce the edited program's
        // from-scratch build byte for byte.
        let mut modules = three_partition_modules();
        let p0 = hlo_frontc::compile(&modules).unwrap();
        let opts = module_opts();
        let parts = CallGraph::build(&p0).cache_partitions();
        let mut full0 = p0.clone();
        let plan = vec![PartitionAction::Rebuild; parts.len()];
        let out0 = optimize_partial(&mut full0, None, &opts, Some(plan), &mut Tracer::disabled());

        // The edit: module b's leaf gains a different constant.
        modules[1].1 = r#"
            static fn b_leaf(k, x) { if (k == 1) { return x + 9; } return x; }
            fn b_main() {
                var s = 0;
                for (var i = 0; i < 30; i = i + 1) { s = s + b_leaf(1, i); }
                return s;
            }
        "#;
        let p1 = hlo_frontc::compile(&modules).unwrap();
        let mut full1 = p1.clone();
        optimize_partial(&mut full1, None, &opts, None, &mut Tracer::disabled());

        let target = p1.find_func("b", "b_main").unwrap();
        let plan: Vec<PartitionAction> = parts
            .iter()
            .zip(out0.rebuilt)
            .map(|(part, stored)| {
                if part.funcs.contains(&target) {
                    PartitionAction::Rebuild
                } else {
                    // Stale-by-id is fine: these cones are byte-identical
                    // between p0 and p1 (only module b changed).
                    PartitionAction::Reuse(stored.expect("every partition was rebuilt"))
                }
            })
            .collect();
        let mut inc = p1.clone();
        optimize_partial(&mut inc, None, &opts, Some(plan), &mut Tracer::disabled());
        assert_eq!(
            hlo_ir::program_to_text(&full1),
            hlo_ir::program_to_text(&inc)
        );
    }

    #[test]
    fn zero_budget_partition_passes_bodies_through() {
        // Budget 0 closes every partition's budget: no pass runs anywhere,
        // so no inlining or cloning happens in any partition.
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let mut p = p0.clone();
        let opts = HloOptions {
            budget_percent: 0,
            ..module_opts()
        };
        let report = optimize(&mut p, None, &opts);
        assert_eq!(report.inlines, 0, "{report}");
        assert_eq!(report.clones, 0);
        assert!(report.passes.is_empty());
        hlo_ir::verify_program(&p).unwrap();
    }

    #[test]
    fn partition_decisions_are_identical_across_runs() {
        // Three partitions plan one after another; the decision stream
        // (the `--explain` output) must come out the same on every run.
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let mut reports = Vec::new();
        for _ in 0..2 {
            let mut p = p0.clone();
            let mut tracer = Tracer::new(TraceLevel::Decisions);
            optimize_traced(&mut p, None, &module_opts(), &mut tracer);
            reports.push((hlo_ir::program_to_text(&p), tracer.decision_report(None)));
        }
        assert_eq!(reports[0].0, reports[1].0, "program must not vary by run");
        assert!(
            reports[0].1.contains("verdict=performed"),
            "expected decisions:\n{}",
            reports[0].1
        );
        assert_eq!(
            reports[0].1, reports[1].1,
            "decision order must not vary by run"
        );
    }

    #[test]
    fn strict_checking_is_deterministic_across_runs() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            check: CheckLevel::Strict,
            ..Default::default()
        };
        let mut a = p0.clone();
        let ra = optimize(&mut a, None, &opts);
        let mut b = p0.clone();
        let rb = optimize(&mut b, None, &opts);
        assert_eq!(hlo_ir::program_to_text(&a), hlo_ir::program_to_text(&b));
        assert_eq!(ra.diagnostics, rb.diagnostics);
        assert_eq!(ra.checks_run, rb.checks_run);
        assert_eq!(ra.introduced_diagnostics().count(), 0, "{ra}");
    }

    #[test]
    fn cleanup_skips_settled_functions_until_they_are_edited() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let mut ck = Checker::new(CheckLevel::Strict);
        let mut cache = CallGraphCache::new();
        let mut tracer = Tracer::disabled();
        let mut report = HloReport::default();
        let mut round = |p: &mut Program, cache: &mut CallGraphCache| {
            let before = ck.checks_run();
            cleanup_round(p, &mut ck, &mut report, cache, &mut tracer);
            ck.checks_run() - before
        };
        let bodies: Vec<FuncId> = p
            .iter_funcs()
            .filter(|(_, f)| !has_empty_body(f))
            .map(|(id, _)| id)
            .collect();
        // Every function runs at least one round of eight sub-passes, and
        // all of them converge.
        assert!(round(&mut p, &mut cache) >= 8 * bodies.len() as u32);
        assert!(bodies.iter().all(|&id| cache.is_settled(id)));
        let settled = p.clone();
        // Nothing edited: the round optimizes nothing, so it checks no
        // sub-pass boundary and leaves every body as it was.
        assert_eq!(round(&mut p, &mut cache), 0);
        assert_eq!(p, settled);
        // An invalidated function is optimized again: one round of eight
        // sub-pass boundaries, since it is still at its fixpoint.
        cache.invalidate(FuncId(0));
        assert_eq!(round(&mut p, &mut cache), 8);
        assert!(cache.is_settled(FuncId(0)));
        // Every round still records its `cleanup` leaf.
        let leaves = tracer.spans().iter().filter(|s| s.name == "cleanup");
        assert_eq!(leaves.count(), 3);
        // The work counters saw one run per body, then the one re-run
        // (a single confirming round); debug re-runs of settled bodies
        // are not counted.
        assert_eq!(report.opt_runs, bodies.len() as u64 + 1);
        assert!(report.opt_rounds > report.opt_runs);
    }

    #[test]
    #[should_panic(expected = "outside its cache partition")]
    fn a_partition_that_is_not_closed_is_rejected() {
        // `main` calls `f`, so `[main]` alone is not a cache partition:
        // its call cannot be renumbered into the sub-program.
        let mut p = hlo_frontc::compile(&[("m", "fn f() { return 1; } fn main() { return f(); }")])
            .unwrap();
        let main = p.entry.unwrap();
        extract_sub_program(&mut p, &[main]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the scalar optimizer still changes it")]
    fn debug_oracle_rejects_a_settled_function_off_its_fixpoint() {
        // `main` folds to `ret 6`, so settling it unoptimized is the bug
        // the oracle exists to catch.
        let mut p = hlo_frontc::compile(&[("m", "fn main() { return 2 * 3; }")]).unwrap();
        let mut cache = CallGraphCache::new();
        cache.settle(FuncId(0));
        cleanup_round(
            &mut p,
            &mut Checker::disabled(),
            &mut HloReport::default(),
            &mut cache,
            &mut Tracer::disabled(),
        );
    }
}
