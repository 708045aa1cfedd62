//! The inlining pass (paper §2.4, Figure 4), partitioned.
//!
//! Inlining never crosses a weakly connected component of the direct-call
//! graph, so the pass splits the program into call-graph *partitions*
//! (independent condensation subtrees), hands each a proportional share of
//! the stage-budget headroom, and plans them one after another in
//! partition order. Planning is read-only; the budget is charged once with
//! every plan's cost, and the accepted schedules are then performed in
//! partition order. A program whose live code is one component (the
//! common case: everything reachable from `main`) forms a single partition
//! that receives the full headroom, which reproduces the unpartitioned
//! algorithm exactly.

use crate::budget::Budget;
use crate::driver::HloOptions;
use crate::legality::inline_restriction;
use crate::transform::{inline_call, scale_profile};
use hlo_analysis::{CallGraphCache, CallSiteRef};
use hlo_ipa::SummaryCache;
use hlo_ir::{routine_cost, FuncId, Program};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};
use std::time::{Duration, Instant};

/// The canonical site spelling used by decision provenance and the
/// `--explain` filter: `caller@bBLOCK.iINST`.
pub(crate) fn site_str(p: &Program, site: &CallSiteRef) -> String {
    format!(
        "{}@b{}.i{}",
        p.func(site.caller).name,
        site.block.index(),
        site.inst
    )
}

/// Result of one inlining pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InlinePassResult {
    /// Call sites inlined.
    pub inlines: u64,
    /// Viable sites discarded for budget reasons (they may be
    /// reconsidered next pass).
    pub deferred: u64,
    /// Wall-clock time of screening + per-partition planning.
    pub plan_wall: Duration,
    /// Wall-clock time of splicing + caller re-optimization.
    pub apply_wall: Duration,
    /// Trial inserts the planners costed.
    pub evals: u64,
    /// Scalar-optimizer runs on the callers that grew.
    pub opt_runs: u64,
    /// The rounds those runs took.
    pub opt_rounds: u64,
    /// The liveness solves those runs made.
    pub liveness_solves: u64,
}

/// Penalty multiplier for sites colder than their caller's entry (the
/// paper's guard against pushing register pressure into critical paths).
const COLD_SITE_PENALTY: f64 = 0.25;

/// Priority bonus for `#[inline]`-hinted callees (a user direction).
const HINT_BONUS: f64 = 4.0;

/// Merit multiplier for callees whose `hlo-ipa` summary proves them
/// removable: splicing a pure body exposes its computation to CSE,
/// constant propagation and dead-code elimination with no effect ordering
/// to respect, so such inlines fold further than the raw frequency
/// predicts. Shared with the cloning pass's benefit ranking.
pub(crate) const IPA_PURE_BONUS: f64 = 1.5;

#[derive(Debug, Clone)]
struct Candidate {
    site: CallSiteRef,
    target: FuncId,
    merit: f64,
    /// The site block's raw profile count (the pre-penalty weight,
    /// reported in decision provenance).
    weight: f64,
}

/// One partition's screened candidates plus its slice of the stage budget.
struct PartitionTask {
    candidates: Vec<Candidate>,
    cost: u64,
    share: u64,
}

/// What one partition's planner decided.
struct PartitionPlan {
    /// Accepted inlines in bottom-up order: by caller SCC rank, ties in
    /// acceptance order.
    schedule: Vec<Candidate>,
    delta: u64,
    deferred: u64,
    ops: u64,
    evals: u64,
}

/// Runs one inlining pass under the stage budget.
///
/// Viable sites are screened per call-graph partition, ranked by a
/// run-time figure of merit (site frequency, with a cold-site penalty),
/// then accepted greedily against the partition's budget share: each
/// acceptance is costed against a *schedule* kept in bottom-up call-graph
/// order so that cascaded inlines (B into A after C into B) are charged at
/// B's grown size, exactly as Figure 4 prescribes. Partitions plan in
/// partition order, drawing down the one Figure 8 operation cap in turn.
/// Accepted inlines are then performed in partition order, schedule order
/// within each.
#[allow(clippy::too_many_arguments)] // the call-graph and summary caches travel side by side
pub fn inline_pass(
    p: &mut Program,
    budget: &mut Budget,
    pass: usize,
    opts: &HloOptions,
    ops_left: &mut Option<u64>,
    cache: &mut CallGraphCache,
    sums: &mut SummaryCache,
    tracer: &mut Tracer,
) -> InlinePassResult {
    let mut result = InlinePassResult::default();
    let explain = tracer.decisions_enabled();
    let plan_start = Instant::now();

    // Screen candidates partition by partition (Figure 4 "screen inline
    // candidates"). All screening data is copied out so the call-graph
    // borrow ends before any mutation.
    let (scc_rank, mut tasks) = {
        // Interprocedural facts sharpen screening (frame-escape blocks a
        // splice) and ranking (pure callees fold further once inlined).
        let summaries = opts.ipa.then(|| sums.read(p, cache));
        let cg = cache.graph(p);
        let sccs = cg.sccs();
        let mut scc_rank = vec![0usize; p.funcs.len()];
        for (i, comp) in sccs.iter().enumerate() {
            for &f in comp {
                scc_rank[f.index()] = i;
            }
        }
        let mut tasks: Vec<PartitionTask> = Vec::new();
        for part in cg.partitions() {
            let mut candidates: Vec<Candidate> = Vec::new();
            for &ei in &part.edge_indices {
                let edge = &cg.edges[ei];
                let caller = p.func(edge.site.caller);
                let site_cnt = match &caller.profile {
                    Some(pr) => pr.blocks[edge.site.block.index()],
                    None => 1.0,
                };
                if let Some(r) = inline_restriction(p, &edge.site, opts.scope) {
                    if explain {
                        tracer.decision(DecisionEvent {
                            pass: pass as u32,
                            kind: DecisionKind::Inline,
                            site: site_str(p, &edge.site),
                            callee: p.func(edge.callee).name.clone(),
                            verdict: Verdict::Rejected,
                            reason: r.code(),
                            benefit: 0.0,
                            cost: 0,
                            budget_before: 0,
                            budget_after: 0,
                            profile_weight: site_cnt,
                        });
                    }
                    continue;
                }
                // Interprocedural screening: a callee that leaks its own
                // frame address must not have its frame merged into the
                // caller's — the escaped address would outlive (and alias)
                // differently after the splice.
                if let Some(s) = summaries {
                    if s.funcs[edge.callee.index()].leaks_frame {
                        if explain {
                            tracer.decision(DecisionEvent {
                                pass: pass as u32,
                                kind: DecisionKind::Inline,
                                site: site_str(p, &edge.site),
                                callee: p.func(edge.callee).name.clone(),
                                verdict: Verdict::Rejected,
                                reason: "ipa-escape-blocked",
                                benefit: 0.0,
                                cost: 0,
                                budget_before: 0,
                                budget_after: 0,
                                profile_weight: site_cnt,
                            });
                        }
                        continue;
                    }
                }
                let callee = p.func(edge.callee);
                let entry_cnt = caller.profile.as_ref().map_or(1.0, |pr| pr.entry);
                let mut merit = site_cnt;
                if opts.cold_site_penalty && site_cnt < entry_cnt {
                    merit *= COLD_SITE_PENALTY;
                }
                if callee.flags.inline_hint {
                    merit *= HINT_BONUS;
                }
                if summaries.is_some_and(|s| s.funcs[edge.callee.index()].removable()) {
                    merit *= IPA_PURE_BONUS;
                }
                candidates.push(Candidate {
                    site: edge.site,
                    target: edge.callee,
                    merit,
                    weight: site_cnt,
                });
            }
            if candidates.is_empty() {
                continue;
            }
            let cost = p.cost_of(&part.funcs);
            tasks.push(PartitionTask {
                candidates,
                cost,
                share: 0,
            });
        }
        (scc_rank, tasks)
    };

    // Split the stage headroom proportionally to partition compile cost.
    // Shares floor-divide, so their sum never exceeds the headroom; one
    // active partition gets it all (the unpartitioned behaviour).
    let headroom = budget.stage_limit(pass).saturating_sub(budget.current());
    let total_cost: u64 = tasks.iter().map(|t| t.cost).sum();
    for t in &mut tasks {
        t.share = ((headroom as u128 * t.cost as u128) / total_cost.max(1) as u128) as u64;
    }

    // Plan: greedy selection with cascaded cost over a bottom-up schedule
    // (Figure 4 "select inline sites"), one partition at a time. Each
    // partition plans against its own share; the Figure 8 operation cap
    // is one counter the partitions draw down in turn.
    let mut plans: Vec<PartitionPlan> = Vec::with_capacity(tasks.len());
    let mut total_delta = 0u64;
    for t in &tasks {
        let plan = plan_partition(
            p,
            &scc_rank,
            &t.candidates,
            t.share,
            *ops_left,
            pass as u32,
            tracer,
        );
        if let Some(left) = ops_left {
            *left -= plan.ops.min(*left);
        }
        total_delta += plan.delta;
        result.deferred += plan.deferred;
        result.evals += plan.evals;
        plans.push(plan);
    }
    budget.charge(total_delta);
    result.plan_wall = plan_start.elapsed();

    // Perform in partition order, bottom-up within each (Figure 4
    // "perform inlines"), fixing the coordinates of later sites that
    // shared the split block.
    let apply_start = Instant::now();
    let mut touched: Vec<FuncId> = Vec::new();
    for plan in plans {
        let mut schedule = plan.schedule;
        let mut i = 0;
        while i < schedule.len() {
            let cand = schedule[i].clone();
            let splice = inline_call(p, &cand.site);
            result.inlines += 1;
            // Deduct the moved executions from the callee's surviving
            // profile.
            let callee_entry = p.func(cand.target).entry_count().unwrap_or(0.0);
            if callee_entry > 0.0 {
                let keep = ((callee_entry - splice.site_count) / callee_entry).max(0.0);
                scale_profile(&mut p.func_mut(cand.target).profile, keep);
            }
            for later in schedule.iter_mut().skip(i + 1) {
                if later.site.caller == cand.site.caller
                    && later.site.block == splice.split_block
                    && later.site.inst > splice.call_index
                {
                    later.site.block = splice.continuation;
                    later.site.inst -= splice.call_index + 1;
                }
            }
            i += 1;
        }
        for c in &schedule {
            touched.push(c.site.caller);
        }
    }
    touched.sort_unstable();
    touched.dedup();

    // Re-optimize the callers that grew (Figure 4 "optimize inlines").
    // Each touched caller's cached call-graph scan is stale now, and the
    // ones the optimizer converged on are settled, so the pass's cleanup
    // round skips them. The budget keeps the charged estimate; the driver
    // recalibrates it from measured sizes once the pass's cleanup is done.
    for f in touched {
        let stats = hlo_opt::optimize_function(p.func_mut(f));
        result.opt_runs += 1;
        result.opt_rounds += stats.rounds;
        result.liveness_solves += stats.liveness_solves;
        cache.invalidate(f);
        if stats.converged {
            cache.settle(f);
        }
    }
    result.apply_wall = apply_start.elapsed();

    result
}

/// Greedy planner for one partition: rank by merit, accept while the
/// cascaded schedule delta stays within the partition's budget share and
/// `ops_cap` (the Figure 8 operations left) allows.
///
/// The schedule is kept in bottom-up order, deepest callers first, so a
/// callee's own accepted inlines count before it is spliced elsewhere:
/// inlining t into s costs `(eff(s) + eff(t))² − eff(s)²` at the
/// *effective* sizes the inlines scheduled before it leave. The planner
/// takes every function's size once, keeps each function's effective
/// size once the whole schedule is performed, and costs a trial insert in
/// place: only the inlines after the insertion point can change, and
/// only through a grown target.
fn plan_partition(
    p: &Program,
    scc_rank: &[usize],
    candidates: &[Candidate],
    share: u64,
    ops_cap: Option<u64>,
    pass: u32,
    tracer: &mut Tracer,
) -> PartitionPlan {
    let explain = tracer.decisions_enabled();
    let mut ranked: Vec<Candidate> = candidates.to_vec();
    ranked.sort_by(|a, b| {
        b.merit
            .partial_cmp(&a.merit)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut plan = PartitionPlan {
        schedule: Vec::new(),
        delta: 0,
        deferred: 0,
        ops: 0,
        evals: 0,
    };
    let mut eff: Vec<u64> = p.funcs.iter().map(|f| f.size()).collect();
    // What a trial insert adds to each function's effective size, and the
    // functions it grows.
    let mut grow = vec![0u64; eff.len()];
    let mut grown: Vec<usize> = Vec::new();
    for cand in ranked {
        if let Some(cap) = ops_cap {
            if plan.ops >= cap {
                break;
            }
        }
        plan.evals += 1;
        let (caller, target) = (cand.site.caller.index(), cand.target.index());
        let rank = scc_rank[caller];
        // After every scheduled inline of equal or lower caller rank, as a
        // stable sort by rank would place it.
        let at = plan
            .schedule
            .partition_point(|c| scc_rank[c.site.caller.index()] <= rank);
        // SCCs come callees first, so no inline into the target (or into
        // the caller) is scheduled after `at`: the target's effective size
        // there is its final one.
        debug_assert!(scc_rank[target] <= rank);
        grow[caller] = eff[target];
        grown.push(caller);
        for c in &plan.schedule[at..] {
            let g = grow[c.target.index()];
            if g > 0 {
                let s = c.site.caller.index();
                if grow[s] == 0 {
                    grown.push(s);
                }
                grow[s] += g;
            }
        }
        let delta = plan.delta
            + grown
                .iter()
                .map(|&f| routine_cost(eff[f] + grow[f]) - routine_cost(eff[f]))
                .sum::<u64>();
        let accepted = delta <= share;
        if explain {
            // Budget state is the partition's remaining headroom share;
            // the cost is the cascaded delta this one decision adds.
            tracer.decision(DecisionEvent {
                pass,
                kind: DecisionKind::Inline,
                site: site_str(p, &cand.site),
                callee: p.func(cand.target).name.clone(),
                verdict: if accepted {
                    Verdict::Performed
                } else {
                    Verdict::Deferred
                },
                reason: if accepted {
                    "accepted"
                } else {
                    "budget-deferred"
                },
                benefit: cand.merit,
                cost: delta - plan.delta,
                budget_before: share.saturating_sub(plan.delta),
                budget_after: share.saturating_sub(if accepted { delta } else { plan.delta }),
                profile_weight: cand.weight,
            });
        }
        if accepted {
            for &f in &grown {
                eff[f] += grow[f];
            }
            plan.schedule.insert(at, cand);
            plan.delta = delta;
            plan.ops += 1;
        } else {
            plan.deferred += 1;
        }
        for f in grown.drain(..) {
            grow[f] = 0;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_analysis::CallGraph;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn annotate(p: &mut Program) {
        for f in &mut p.funcs {
            if f.profile.is_none() {
                f.profile = Some(hlo_analysis::estimate_static_profile(f));
            }
        }
    }

    fn run_pass(p: &mut Program, budget_pct: u64) -> InlinePassResult {
        annotate(p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, budget_pct, &[1.0]);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        inline_pass(
            p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        )
    }

    #[test]
    fn inlines_simple_call_and_preserves_semantics() {
        let src = &[(
            "m",
            "fn sq(x) { return x * x; } fn main() { return sq(9) + sq(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 500);
        assert!(r.inlines >= 2, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn hot_sites_win_under_tight_budget() {
        // Two big callees; only one fits. The one called in a loop must be
        // chosen.
        let src = &[(
            "m",
            r#"
            fn hot(x) { var s = 0; if (x > 1) { s = x * 3; } else { s = x + 1; }
                        if (s > 10) { s = s - 10; } return s; }
            fn cold(x) { var s = 0; if (x > 1) { s = x * 5; } else { s = x + 2; }
                         if (s > 10) { s = s - 9; } return s; }
            fn main() {
                var acc = 0;
                for (var i = 0; i < 50; i = i + 1) { acc = acc + hot(i); }
                if (acc < 0) { acc = acc + cold(3); }
                return acc;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        // Budget that fits roughly one medium inline but not both.
        let mut budget = Budget::new(c0, 100, &[1.0]);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let r = inline_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert!(r.inlines >= 1);
        assert!(r.deferred >= 1, "{r:?}");
        // `hot` must no longer be called from main's loop.
        verify_program(&p).unwrap();
        let main = p.entry.unwrap();
        let hot = p.find_func("m", "hot").unwrap();
        let cg = CallGraph::build(&p);
        let hot_calls_from_main = cg
            .edges
            .iter()
            .filter(|e| e.site.caller == main && e.callee == hot)
            .count();
        assert_eq!(hot_calls_from_main, 0);
    }

    #[test]
    fn cascaded_inlines_abc() {
        // c into b, then b into a — the schedule must handle the cascade.
        let src = &[(
            "m",
            r#"
            fn c(x) { return x + 1; }
            fn b(x) { return c(x) * 2; }
            fn a(x) { return b(x) + 3; }
            fn main() { return a(5); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 2000);
        assert!(r.inlines >= 3, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn two_sites_same_block_both_inline() {
        let src = &[(
            "m",
            "fn f(x) { return x + 7; } fn main() { return f(1) * f(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 2000);
        assert_eq!(r.inlines, 2);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn mutual_recursion_inlines_once_without_hanging() {
        let src = &[(
            "m",
            r#"
            fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
            fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
            fn main() { return even(10) * 10 + odd(7); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 400);
        assert!(r.inlines >= 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn ops_limit_caps_acceptances() {
        let src = &[(
            "m",
            "fn f(x) { return x + 1; } fn main() { return f(1) + f(2) + f(3) + f(4); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 5000, &[1.0]);
        let mut ops = Some(2u64);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let r = inline_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut ops,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert_eq!(r.inlines, 2);
        assert_eq!(ops, Some(0));
        verify_program(&p).unwrap();
    }

    #[test]
    fn zero_budget_inlines_nothing() {
        let src = &[("m", "fn f(x) { return x + 1; } fn main() { return f(1); }")];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 0, &[1.0]);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        let r = inline_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        assert_eq!(r.inlines, 0);
        assert_eq!(r.deferred, 1);
    }

    #[test]
    fn inlined_body_folds_with_constant_arguments() {
        // After inlining f(3), the scalar optimizer must fold everything.
        let src = &[(
            "m",
            "fn f(x) { return x * x + 1; } fn main() { return f(3); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        run_pass(&mut p, 2000);
        let main = p.entry.unwrap();
        assert_eq!(p.func(main).size(), 1, "{}", p.func(main));
    }

    #[test]
    fn disjoint_islands_plan_independently_and_identically() {
        // Two call islands (main's and an address-escaped helper chain
        // that stays reachable). The pass must inline in both, and two
        // runs must produce the same result.
        let src = &[(
            "m",
            r#"
            fn tiny(x) { return x + 1; }
            fn island() { return tiny(1) + tiny(2); }
            fn main() { var f = &island; return f(); }
            "#,
        )];
        let p0 = {
            let mut p = hlo_frontc::compile(src).unwrap();
            annotate(&mut p);
            p
        };
        let mut outs: Vec<String> = Vec::new();
        for _ in 0..2 {
            let mut p = p0.clone();
            let c0 = p.compile_cost();
            let mut budget = Budget::new(c0, 1000, &[1.0]);
            let mut cache = CallGraphCache::new();
            let mut sums = SummaryCache::new();
            let r = inline_pass(
                &mut p,
                &mut budget,
                0,
                &HloOptions::default(),
                &mut None,
                &mut cache,
                &mut sums,
                &mut Tracer::disabled(),
            );
            assert!(r.inlines >= 2, "{r:?}");
            verify_program(&p).unwrap();
            outs.push(hlo_ir::program_to_text(&p));
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn passes_reuse_the_cached_call_graph() {
        let src = &[(
            "m",
            "fn f(x) { return x + 1; } fn main() { return f(1) + f(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 2000, &[1.0, 1.0]);
        let mut cache = CallGraphCache::new();
        let mut sums = SummaryCache::new();
        inline_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        let scans_after_first = cache.rescans();
        inline_pass(
            &mut p,
            &mut budget,
            1,
            &HloOptions::default(),
            &mut None,
            &mut cache,
            &mut sums,
            &mut Tracer::disabled(),
        );
        // The second pass re-scanned only the invalidated caller (main),
        // not the whole program.
        assert!(
            cache.rescans() - scans_after_first <= 1,
            "rescans {} -> {}",
            scans_after_first,
            cache.rescans()
        );
    }
}
