//! The cloning pass (paper §2.3, Figure 3), partitioned.
//!
//! Clone groups are built per call-graph partition (a group's sites all
//! call one callee, and a callee and its callers share a partition by
//! construction), so a partition's groups need nothing from any other
//! partition. Selection and materialization then run in partition order:
//! they mutate the program, the clone database and the budget, and that
//! order fixes `FuncId` allocation, and therefore the printed program.

use crate::budget::Budget;
use crate::driver::{HloOptions, Scope};
use crate::inliner::site_str;
use crate::legality::clone_restriction;
use crate::transform::{make_clone, redirect_site_to_clone, scale_profile};
use hlo_analysis::{CallGraph, CallGraphCache, CallGraphPartition, CallSiteRef};
use hlo_ipa::SummaryCache;
use hlo_ir::{Callee, ConstVal, FuncId, FuncNames, Function, Inst, Linkage, Operand, Program};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A clone specification: the callee plus the `(parameter, constant)`
/// bindings the clone hard-wires. Bindings are sorted by parameter index,
/// making the spec a canonical clone-database key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CloneSpec {
    /// The routine to clone.
    pub callee: FuncId,
    /// Sorted `(param index, constant)` bindings.
    pub bindings: Vec<(u32, ConstVal)>,
}

impl CloneSpec {
    /// The constant bound to parameter `i`, if any.
    pub fn binding(&self, i: u32) -> Option<ConstVal> {
        self.bindings.iter().find(|(p, _)| *p == i).map(|(_, c)| *c)
    }
}

/// The clone database: specs already materialized in earlier passes are
/// reused instead of duplicated (paper §2.3 — "if a given clone exists in
/// the database then it is simply reused").
pub type CloneDb = HashMap<CloneSpec, FuncId>;

/// Result of one cloning pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClonePassResult {
    /// New clone bodies created.
    pub clones_created: u64,
    /// Clones found ready-made in the database.
    pub clones_reused: u64,
    /// Call sites redirected to clones.
    pub sites_replaced: u64,
    /// Wall-clock time of usage analysis + group building.
    pub plan_wall: Duration,
    /// Wall-clock time of selection + materialization.
    pub apply_wall: Duration,
    /// Scalar-optimizer runs on new clones.
    pub opt_runs: u64,
    /// The rounds those runs took.
    pub opt_rounds: u64,
    /// The liveness solves those runs made.
    pub liveness_solves: u64,
}

/// Parameter-usage weights: how much a routine would benefit from knowing
/// each formal is a constant. Uses are weighed by the importance of the
/// use and the block's frequency relative to the entry, with "special
/// emphasis ... on parameter values that reach the function position at an
/// indirect call site" (paper §2.3).
pub(crate) fn param_usage(f: &Function) -> Vec<f64> {
    let mut w = vec![0.0; f.params as usize];
    for (bid, block) in f.iter_blocks() {
        let rf = f.rel_freq(bid);
        for inst in &block.insts {
            let weight_of_use = |op: &Operand, base: f64, acc: &mut Vec<f64>| {
                if let Operand::Reg(r) = op {
                    if r.0 < f.params {
                        acc[r.index()] += base * rf;
                    }
                }
            };
            match inst {
                Inst::Br { cond, .. } => weight_of_use(cond, 8.0, &mut w),
                Inst::Bin { op, a, b, .. } => {
                    let cmp = matches!(
                        op,
                        hlo_ir::BinOp::Eq
                            | hlo_ir::BinOp::Ne
                            | hlo_ir::BinOp::Lt
                            | hlo_ir::BinOp::Le
                            | hlo_ir::BinOp::Gt
                            | hlo_ir::BinOp::Ge
                    );
                    let with_const =
                        matches!(a, Operand::Const(_)) || matches!(b, Operand::Const(_));
                    let base = match (cmp, with_const) {
                        (true, true) => 6.0, // foldable test: kills a branch
                        (true, false) => 1.0,
                        (false, true) => 2.0, // foldable arithmetic
                        (false, false) => 0.5,
                    };
                    weight_of_use(a, base, &mut w);
                    weight_of_use(b, base, &mut w);
                }
                Inst::Call { callee, args, .. } => {
                    if let Callee::Indirect(op) = callee {
                        // The emphasized case: a constant here makes the
                        // call direct and later inlinable.
                        weight_of_use(op, 20.0, &mut w);
                    }
                    for a in args {
                        // Pass-through constants are not modeled
                        // interprocedurally (paper: "we do not model
                        // interprocedural effects").
                        weight_of_use(a, 0.2, &mut w);
                    }
                }
                Inst::Load { base, offset, .. } => {
                    weight_of_use(base, 1.0, &mut w);
                    weight_of_use(offset, 1.0, &mut w);
                }
                Inst::Store {
                    base,
                    offset,
                    value,
                } => {
                    weight_of_use(base, 1.0, &mut w);
                    weight_of_use(offset, 1.0, &mut w);
                    weight_of_use(value, 0.2, &mut w);
                }
                other => {
                    other.for_each_use(|op| weight_of_use(op, 0.5, &mut w));
                }
            }
        }
    }
    w
}

/// Minimum per-parameter usefulness for a binding to enter a clone spec.
const MIN_USE_WEIGHT: f64 = 0.5;

/// One clone group: a spec plus every compatible call site (Figure 3).
#[derive(Debug, Clone)]
struct CloneGroup {
    spec: CloneSpec,
    sites: Vec<CallSiteRef>,
    benefit: f64,
    /// Whether redirecting every site provably retires the clonee, making
    /// the group's compile-time cost zero.
    retires_clonee: bool,
}

/// Per-edge calling context: constant actuals.
fn context_of(p: &Program, site: &CallSiteRef) -> Vec<Option<ConstVal>> {
    match &p.func(site.caller).blocks[site.block.index()].insts[site.inst] {
        Inst::Call { args, .. } => args
            .iter()
            .map(|a| match a {
                Operand::Const(c) => Some(*c),
                Operand::Reg(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Builds one partition's clone groups greedily (Figure 3 "build clone
/// groups"), scanning only the partition's own edges; the parameter usage
/// of each callee (Figure 3 "setup") is computed when the scan first
/// meets it. Read-only; at the decisions trace level, legality rejections
/// are recorded as decision events (seed-loop only, so each restricted
/// edge reports exactly once).
fn build_groups(
    p: &Program,
    cg: &CallGraph,
    part: &CallGraphPartition,
    summaries: Option<&hlo_ipa::Summaries>,
    opts: &HloOptions,
    pass: u32,
    tracer: &mut Tracer,
) -> Vec<CloneGroup> {
    let explain = tracer.decisions_enabled();
    let mut usage: HashMap<FuncId, Vec<f64>> = HashMap::new();
    let mut claimed: HashSet<usize> = HashSet::new();
    let mut groups: Vec<CloneGroup> = Vec::new();
    for &ei in &part.edge_indices {
        if claimed.contains(&ei) {
            continue;
        }
        let edge = &cg.edges[ei];
        if let Some(r) = clone_restriction(p, &edge.site, opts.scope) {
            if explain {
                tracer.decision(DecisionEvent {
                    pass,
                    kind: DecisionKind::Clone,
                    site: site_str(p, &edge.site),
                    callee: p.func(edge.callee).name.clone(),
                    verdict: Verdict::Rejected,
                    reason: r.code(),
                    benefit: 0.0,
                    cost: 0,
                    budget_before: 0,
                    budget_after: 0,
                    profile_weight: site_weight(p, &edge.site),
                });
            }
            continue;
        }
        let callee = edge.callee;
        let ctx = context_of(p, &edge.site);
        let use_w = usage
            .entry(callee)
            .or_insert_with(|| param_usage(p.func(callee)));
        let mut bindings: Vec<(u32, ConstVal)> = Vec::new();
        for (i, c) in ctx.iter().enumerate() {
            if let Some(c) = c {
                if use_w.get(i).copied().unwrap_or(0.0) >= MIN_USE_WEIGHT {
                    bindings.push((i as u32, *c));
                }
            }
        }
        if bindings.is_empty() {
            continue;
        }
        let spec = CloneSpec { callee, bindings };

        // Gather all compatible edges into the group. Every edge calling
        // this callee lives in this partition, so the partition-local scan
        // sees exactly what a whole-program scan would.
        let mut sites = Vec::new();
        let mut member_edges = Vec::new();
        for &ej in &part.edge_indices {
            if claimed.contains(&ej) {
                continue;
            }
            let other = &cg.edges[ej];
            if other.callee != callee {
                continue;
            }
            if clone_restriction(p, &other.site, opts.scope).is_some() {
                continue;
            }
            let octx = context_of(p, &other.site);
            let matches = spec
                .bindings
                .iter()
                .all(|(i, c)| octx.get(*i as usize).copied().flatten() == Some(*c));
            if matches {
                sites.push(other.site);
                member_edges.push(ej);
            }
        }
        debug_assert!(!sites.is_empty());
        for ej in member_edges {
            claimed.insert(ej);
        }

        // Benefit: calls redirected × value of the bound context.
        let value: f64 = spec.bindings.iter().map(|(i, _)| use_w[*i as usize]).sum();
        let calls: f64 = sites
            .iter()
            .map(|s| {
                p.func(s.caller)
                    .profile
                    .as_ref()
                    .map(|pr| pr.blocks[s.block.index()])
                    .unwrap_or(1.0)
            })
            .sum();
        let mut benefit = calls * value;
        // A removable clonee's specialized body folds without any effect
        // ordering to respect — same bonus the inliner applies.
        if summaries.is_some_and(|s| s.funcs[callee.index()].removable()) {
            benefit *= crate::inliner::IPA_PURE_BONUS;
        }

        // Does the group retire the clonee? (All direct edges redirected,
        // no address taken, deletable linkage under this scope.)
        let callee_fn = p.func(callee);
        let all_edges_of_callee = cg.callers_of[callee.index()].len();
        let deletable_linkage =
            callee_fn.linkage == Linkage::Static || opts.scope == Scope::CrossModule;
        let retires_clonee = sites.len() == all_edges_of_callee
            && !cg.address_taken[callee.index()]
            && Some(callee) != p.entry
            && deletable_linkage;

        groups.push(CloneGroup {
            spec,
            sites,
            benefit,
            retires_clonee,
        });
    }
    groups
}

/// The profile count of a call site's block (1.0 when unannotated).
fn site_weight(p: &Program, site: &CallSiteRef) -> f64 {
    p.func(site.caller)
        .profile
        .as_ref()
        .map(|pr| pr.blocks[site.block.index()])
        .unwrap_or(1.0)
}

/// One partition's ranked groups plus its slice of the stage budget.
struct PartitionGroups {
    groups: Vec<CloneGroup>,
    cost: u64,
    share: u64,
}

/// Runs one cloning pass under the stage budget. `ops_left` is the
/// Figure 8 knob: each site replacement consumes one operation.
#[allow(clippy::too_many_arguments)] // mirrors `inline_pass` plus the clone database and name set
pub fn clone_pass(
    p: &mut Program,
    budget: &mut Budget,
    pass: usize,
    opts: &HloOptions,
    db: &mut CloneDb,
    names: &mut FuncNames,
    ops_left: &mut Option<u64>,
    cache: &mut CallGraphCache,
    sums: &mut SummaryCache,
    tracer: &mut Tracer,
) -> ClonePassResult {
    let mut result = ClonePassResult::default();
    let explain = tracer.decisions_enabled();
    let plan_start = Instant::now();

    // Build clone groups partition by partition; a partition without call
    // edges has no site to clone for and is skipped.
    let mut parts: Vec<PartitionGroups> = {
        let summaries = opts.ipa.then(|| sums.read(p, cache));
        let cg = cache.graph(p);
        let p_ref: &Program = p;
        let mut parts = Vec::new();
        for part in cg.partitions() {
            if part.edge_indices.is_empty() {
                continue;
            }
            let mut groups = build_groups(p_ref, cg, &part, summaries, opts, pass as u32, tracer);
            if groups.is_empty() {
                continue;
            }
            // Rank by benefit (Figure 3 "select clones"); the stable
            // sort breaks ties by discovery (edge) order.
            groups.sort_by(|a, b| {
                b.benefit
                    .partial_cmp(&a.benefit)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let cost = part
                .funcs
                .iter()
                .map(|&f| {
                    let s = p_ref.func(f).size();
                    s * s
                })
                .sum();
            parts.push(PartitionGroups {
                groups,
                cost,
                share: 0,
            });
        }
        parts
    };

    // Split the stage headroom proportionally to partition compile cost
    // (floor division: shares never sum past the headroom; one active
    // partition gets it all, reproducing the unpartitioned behaviour).
    let headroom = budget.stage_limit(pass).saturating_sub(budget.current());
    let total_cost: u64 = parts.iter().map(|t| t.cost).sum();
    for t in &mut parts {
        t.share = ((headroom as u128 * t.cost as u128) / total_cost.max(1) as u128) as u64;
    }
    result.plan_wall = plan_start.elapsed();

    // Select under the stage budget, in partition order.
    let apply_start = Instant::now();
    'parts: for part in parts {
        let mut spent = 0u64;
        for g in part.groups {
            if let Some(0) = ops_left {
                break 'parts;
            }
            // A database entry is only reusable while the clone is still
            // live: a clone whose callers were all inlined or deleted gets
            // reaped by routine deletion, and its emptied husk must never
            // be resurrected (it no longer has the clonee's behaviour).
            let db_hit = opts.clone_db_reuse
                && db
                    .get(&g.spec)
                    .is_some_and(|&id| p.module(p.func(id).module).funcs.contains(&id));
            let callee_size = p.func(g.spec.callee).size();
            let cost = if g.retires_clonee || db_hit {
                0
            } else {
                callee_size * callee_size
            };
            if spent.saturating_add(cost) > part.share || !budget.fits(pass, cost) {
                if explain {
                    tracer.decision(DecisionEvent {
                        pass: pass as u32,
                        kind: DecisionKind::Clone,
                        site: site_str(p, &g.sites[0]),
                        callee: p.func(g.spec.callee).name.clone(),
                        verdict: Verdict::Deferred,
                        reason: "budget-discarded",
                        benefit: g.benefit,
                        cost,
                        budget_before: budget.current(),
                        budget_after: budget.current(),
                        profile_weight: site_weight(p, &g.sites[0]),
                    });
                }
                continue; // discarded; may be recreated next pass
            }
            let budget_before = budget.current();
            let first_site = g.sites[0];

            // Materialize through the database.
            let mut created = false;
            let clone_id = match db.get(&g.spec) {
                Some(&id) if db_hit => {
                    result.clones_reused += 1;
                    id
                }
                _ => {
                    let id = make_clone(p, names, &g.spec);
                    db.insert(g.spec.clone(), id);
                    result.clones_created += 1;
                    // Split the clonee's profile between clone and original
                    // by the group's share of entries.
                    let group_calls: f64 = g
                        .sites
                        .iter()
                        .map(|s| {
                            p.func(s.caller)
                                .profile
                                .as_ref()
                                .map(|pr| pr.blocks[s.block.index()])
                                .unwrap_or(1.0)
                        })
                        .sum();
                    let entry = p
                        .func(g.spec.callee)
                        .entry_count()
                        .filter(|&e| e > 0.0)
                        .unwrap_or_else(|| group_calls.max(1.0));
                    let share = (group_calls / entry).clamp(0.0, 1.0);
                    scale_profile(&mut p.func_mut(id).profile, share);
                    scale_profile(&mut p.func_mut(g.spec.callee).profile, 1.0 - share);
                    created = true;
                    id
                }
            };

            // Redirect the group's call sites; each rewritten caller's
            // cached scan goes stale. (New clone bodies need no
            // invalidation — the cache picks up appended functions.)
            for site in &g.sites {
                if let Some(left) = ops_left {
                    if *left == 0 {
                        break;
                    }
                    *left -= 1;
                }
                redirect_site_to_clone(p, site, &g.spec, clone_id);
                cache.invalidate(site.caller);
                result.sites_replaced += 1;
            }

            // Optimize the new clone so the bound constants take effect
            // before costing (Figure 3 "optimize clones and recalibrate"),
            // settling it if the optimizer converged. Reused clones were
            // already paid for when they were created.
            let mut charged = 0u64;
            if created {
                let stats = hlo_opt::optimize_function(p.func_mut(clone_id));
                result.opt_runs += 1;
                result.opt_rounds += stats.rounds;
                result.liveness_solves += stats.liveness_solves;
                if stats.converged {
                    cache.settle(clone_id);
                }
                let s = p.func(clone_id).size();
                budget.charge(s * s);
                spent = spent.saturating_add(s * s);
                charged = s * s;
            }
            if explain {
                // One event per group: the first site stands for the
                // group, the cost is what was actually charged.
                tracer.decision(DecisionEvent {
                    pass: pass as u32,
                    kind: DecisionKind::Clone,
                    site: site_str(p, &first_site),
                    callee: p.func(clone_id).name.clone(),
                    verdict: Verdict::Performed,
                    reason: if db_hit {
                        "db-reuse"
                    } else if g.retires_clonee {
                        "retires-clonee"
                    } else {
                        "accepted"
                    },
                    benefit: g.benefit,
                    cost: charged,
                    budget_before,
                    budget_after: budget.current(),
                    profile_weight: site_weight(p, &first_site),
                });
            }
        }
    }
    result.apply_wall = apply_start.elapsed();

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn annotate_static(p: &mut Program) {
        for f in &mut p.funcs {
            if f.profile.is_none() {
                f.profile = Some(hlo_analysis::estimate_static_profile(f));
            }
        }
    }

    #[test]
    fn param_usage_emphasizes_indirect_call_position() {
        let p = hlo_frontc::compile(&[(
            "m",
            "fn apply(f, x) { return f(x); } fn main() { return apply(&main, 0); }",
        )])
        .unwrap();
        let apply = p.find_func("m", "apply").unwrap();
        let w = param_usage(p.func(apply));
        assert!(w[0] > w[1], "function-position param must dominate: {w:?}");
        assert!(w[0] >= 20.0);
    }

    #[test]
    fn param_usage_values_branch_tests() {
        let p = hlo_frontc::compile(&[(
            "m",
            "fn f(k, x) { if (k == 0) { return x; } return x + k; } fn main() { return f(0, 1); }",
        )])
        .unwrap();
        let f = p.find_func("m", "f").unwrap();
        let w = param_usage(p.func(f));
        assert!(w[0] > w[1]);
    }

    fn run_clone_pass(p: &mut Program) -> ClonePassResult {
        annotate_static(p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 100, &[1.0]);
        let mut db = CloneDb::default();
        let mut names = FuncNames::of(p);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        clone_pass(
            p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut names,
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        )
    }

    #[test]
    fn cloning_specializes_constant_dispatch() {
        let src = &[(
            "m",
            r#"
            fn op(kind, x) {
                if (kind == 0) { return x + 1; }
                if (kind == 1) { return x * 2; }
                return x - 1;
            }
            fn main() {
                var s = 0;
                for (var i = 0; i < 10; i = i + 1) { s = s + op(1, i); }
                return s;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_clone_pass(&mut p);
        assert!(r.clones_created >= 1, "{r:?}");
        assert!(r.sites_replaced >= 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
        // The optimized clone must have folded the dispatch: it is smaller
        // than the original.
        let orig = p.find_func("m", "op").unwrap();
        let clone = p
            .iter_funcs()
            .find(|(_, f)| f.name.contains("clone"))
            .map(|(i, _)| i)
            .unwrap();
        assert!(p.func(clone).size() < p.func(orig).size());
    }

    #[test]
    fn group_collects_multiple_compatible_sites() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 7) { return x * 2; } return x; }
            fn a() { return f(7, 1); }
            fn b() { return f(7, 2); }
            fn main() { return a() + b() + f(9, 3); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_clone_pass(&mut p);
        // k=7 group has two sites; k=9 gets its own group (budget allows).
        assert!(r.sites_replaced >= 2, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn clone_database_reuses_across_passes() {
        // Two sites share the spec {k=1} (x is a run-time value at both).
        // Pass 1 is allowed a single operation, so it redirects one site;
        // pass 2 finds the remaining site and must REUSE the clone from
        // the database instead of materializing a second body.
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn main() {
                var s = 0;
                for (var i = 0; i < 4; i = i + 1) { s = s + f(1, i); }
                for (var i = 0; i < 4; i = i + 1) { s = s + f(1, s); }
                return s;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 1000, &[1.0]);
        let mut db = CloneDb::default();
        let mut names = FuncNames::of(&p);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let opts = HloOptions::default();
        let mut ops = Some(1u64);
        let r1 = clone_pass(
            &mut p,
            &mut budget,
            0,
            &opts,
            &mut db,
            &mut names,
            &mut ops,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert_eq!(r1.clones_created, 1, "{r1:?}");
        assert_eq!(r1.sites_replaced, 1);
        let r2 = clone_pass(
            &mut p,
            &mut budget,
            1,
            &opts,
            &mut db,
            &mut names,
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert_eq!(r2.clones_created, 0, "{r2:?}");
        assert_eq!(r2.clones_reused, 1);
        assert_eq!(r2.sites_replaced, 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn zero_budget_blocks_cloning_unless_retiring() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn keep() { return f(2, 1); }
            fn main() { return f(1, 2) + keep(); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 0, &[1.0]);
        let mut db = CloneDb::default();
        let mut names = FuncNames::of(&p);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let r = clone_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut names,
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        // f has another caller with a different constant, so neither group
        // retires the clonee; zero budget ⇒ nothing happens.
        assert_eq!(r.clones_created, 0);
        assert_eq!(r.sites_replaced, 0);
    }

    #[test]
    fn deleted_clone_is_not_resurrected_from_database() {
        // Regression test: clone A's only caller is itself cloned in the
        // same pass (copying the pre-redirect call), so A is deleted as
        // unreachable. The next pass must NOT reuse A's emptied husk for
        // the copied call site — it must build a fresh clone.
        let src = &[(
            "m",
            r#"
            global t;
            fn init(n) { t = n; return 0; }
            fn run(len) {
                init(4096);
                var s = 0;
                for (var i = 0; i < len; i = i + 1) { s = s + t; }
                return s;
            }
            fn main() { return run(10) / 41; }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let opts = HloOptions {
            budget_percent: 1000,
            enable_inline: false,
            ..Default::default()
        };
        let report = crate::optimize(&mut p, None, &opts);
        verify_program(&p).unwrap();
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, expect, "{report}");
    }

    #[test]
    fn ops_limit_stops_replacements() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn main() { return f(1, 2) + f(1, 3) + f(1, 4); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 1000, &[1.0]);
        let mut db = CloneDb::default();
        let mut names = FuncNames::of(&p);
        let mut ops = Some(2u64);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let r = clone_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut names,
            &mut ops,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert_eq!(r.sites_replaced, 2);
        assert_eq!(ops, Some(0));
        verify_program(&p).unwrap();
        // program still runs correctly with a partial redirection
        run_program(&p, &[], &ExecOptions::default()).unwrap();
    }
}
