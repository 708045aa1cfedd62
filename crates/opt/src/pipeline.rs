//! Fixed-point optimization drivers.

use crate::{
    algebraic, constprop, copyprop, cse, dce, dead_slots, memfwd, pure_calls, simplify_cfg,
};
use hlo_analysis::{Cfg, Liveness};
use hlo_ir::{Function, Program};
use hlo_lint::Checker;

/// The block graph and register liveness of a function body. Both are
/// pure functions of the body, so a run carries them from one sub-pass
/// to the next until a sub-pass that can change them reports a change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Solved {
    pub(crate) cfg: Cfg,
    pub(crate) live: Liveness,
}

impl Solved {
    /// The graph and liveness of `f`.
    pub(crate) fn of(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let live = cfg.liveness(f);
        Solved { cfg, live }
    }
}

/// What one run carries between its sub-passes: the graph and liveness
/// of the function as it stands, if no sub-pass has changed it since they
/// were solved, and the liveness solves made so far.
#[derive(Default)]
struct Carry {
    solved: Option<Solved>,
    solves: u64,
}

impl Carry {
    /// The graph and liveness of `f` as it stands: the carried ones, or a
    /// new solve.
    fn take(&mut self, f: &Function) -> Solved {
        self.solved.take().unwrap_or_else(|| {
            self.solves += 1;
            Solved::of(f)
        })
    }

    /// Records that `pass` ran on `f`: one that may have changed the graph
    /// or liveness drops what is carried. Debug builds check what is
    /// carried on against a new solve, so a sub-pass that changes them
    /// without reporting it panics here, named.
    fn ran(&mut self, pass: &str, f: &Function, changed: bool) {
        if changed {
            self.solved = None;
        }
        if cfg!(debug_assertions) {
            if let Some(s) = &self.solved {
                assert!(
                    *s == Solved::of(f),
                    "carried liveness is stale for `{}` after `{pass}`: it no longer matches \
                     the body, so a change went unreported",
                    f.name
                );
            }
        }
    }
}

/// Aggregate statistics from an optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Instructions folded to constants.
    pub folded: u64,
    /// Conditional branches removed.
    pub branches_folded: u64,
    /// Indirect calls promoted to direct (enables later inlining).
    pub indirect_promoted: u64,
    /// Dead instructions removed.
    pub dead_removed: u64,
    /// CFG blocks removed or merged.
    pub blocks_simplified: u64,
    /// Common subexpressions replaced.
    pub cse_replaced: u64,
    /// Calls to side-effect-free routines deleted (program-level only).
    pub pure_calls_removed: u64,
    /// Whether anything at all changed. This is the cache-invalidation
    /// signal: a function whose run reports `changed` may have shifted
    /// instruction indices, so any cached [`hlo_analysis::CallGraph`]
    /// sites into it are stale even when no call was touched.
    pub changed: bool,
    /// Whether the last round changed nothing, so the result is at the
    /// optimizer's fixpoint: running it again changes nothing. False when
    /// the round limit cut the iteration short.
    pub converged: bool,
    /// Rounds run, the last one included (for a converged run, the round
    /// that confirmed nothing changes).
    pub rounds: u64,
    /// Register-liveness solves the rounds made, DCE's re-solves after a
    /// sweep that removed something included.
    pub liveness_solves: u64,
}

impl OptStats {
    fn absorb_function_round(
        &mut self,
        cp: constprop::ConstPropStats,
        cfg: simplify_cfg::CfgStats,
        cse_n: u64,
        copy_n: u64,
        dce_n: u64,
    ) -> bool {
        self.folded += cp.insts_folded;
        self.branches_folded += cp.branches_folded + cfg.branches_folded;
        self.indirect_promoted += cp.indirect_promoted;
        self.dead_removed += dce_n;
        self.blocks_simplified += cfg.blocks_removed + cfg.blocks_merged;
        self.cse_replaced += cse_n;
        cp.changed() || cfg.changed() || cse_n > 0 || copy_n > 0 || dce_n > 0
    }
}

/// Optimizes one function to a (bounded) fixpoint: constprop →
/// algebraic simplification → CFG simplify → store-to-load forwarding →
/// copyprop → CSE → DCE → dead-slot elimination, repeated while anything
/// changes, at most `MAX_ROUNDS` times.
///
/// The result depends on `f` alone, and profile counts only enter it
/// after a branch folds (constprop's profile repair). So once a run
/// reports [`OptStats::converged`], running it again changes nothing,
/// even after the counts were rescaled: the HLO driver relies on this to
/// skip functions that have not changed since they converged.
pub fn optimize_function(f: &mut Function) -> OptStats {
    optimize_function_checked(f, &mut Checker::disabled())
}

/// [`optimize_function`] in verify-each mode: after every sub-pass the
/// checker's battery runs on the function, so a defect is attributed to
/// the exact scalar pass that introduced it (e.g. `cse`), not just "the
/// optimizer". With a disabled checker this is exactly
/// [`optimize_function`] — the boundary calls return immediately.
///
/// The run solves liveness at most once per state of the function: it
/// carries the block graph and liveness from constprop to DCE while no
/// sub-pass in between reports a change (copyprop and CSE cannot change
/// them, so they never drop them), and DCE hands back those of its
/// result, which the next round's constprop reads if dead-slot removal
/// changed nothing. A confirming round therefore solves nothing.
/// Constprop and DCE reuse one set of scratch buffers for the whole run.
/// Debug builds check the carried graph and liveness against a new solve
/// after every sub-pass that leaves them carried.
pub fn optimize_function_checked(f: &mut Function, ck: &mut Checker) -> OptStats {
    const MAX_ROUNDS: usize = 8;
    let mut stats = OptStats::default();
    let mut carry = Carry::default();
    let mut cp_scratch = constprop::Scratch::default();
    let mut dce_scratch = dce::Scratch::default();
    for _ in 0..MAX_ROUNDS {
        stats.rounds += 1;
        let cp = if f.blocks.is_empty() {
            constprop::ConstPropStats::default()
        } else {
            let solved = carry.take(f);
            let cp = constprop::propagate_solved(f, &solved, &mut cp_scratch);
            carry.solved = Some(solved);
            cp
        };
        carry.ran("constprop", f, cp.changed());
        ck.check_function(f, "constprop");
        let alg_n = algebraic::simplify_algebra(f);
        carry.ran("algebraic", f, alg_n > 0);
        ck.check_function(f, "algebraic");
        let cfg = simplify_cfg::simplify(f);
        carry.ran("simplify_cfg", f, cfg.changed());
        ck.check_function(f, "simplify_cfg");
        let fwd_n = memfwd::forward_stores(f);
        carry.ran("memfwd", f, fwd_n > 0);
        ck.check_function(f, "memfwd");
        // Copyprop and CSE change neither the block graph nor liveness:
        // each rewrites only uses of a value defined earlier in the same
        // block, and keeps every read that reaches above the block's top.
        // So what is carried stays carried even when they report a change.
        let copy_n = copyprop::propagate_copies(f);
        carry.ran("copyprop", f, false);
        ck.check_function(f, "copyprop");
        let cse_n = cse::eliminate_common(f);
        carry.ran("cse", f, false);
        ck.check_function(f, "cse");
        // DCE's last sweep removed nothing, so what it hands back describes
        // its result.
        let solved = carry.take(f);
        let (dce_n, solved) =
            dce::eliminate_dead_solved(f, solved, &mut dce_scratch, &mut carry.solves);
        carry.solved = Some(solved);
        carry.ran("dce", f, false);
        ck.check_function(f, "dce");
        let slot_n = dead_slots::eliminate_dead_slots(f);
        carry.ran("dead_slots", f, slot_n > 0);
        ck.check_function(f, "dead_slots");
        stats.folded += alg_n + fwd_n;
        stats.dead_removed += slot_n;
        let round_changed = stats.absorb_function_round(cp, cfg, cse_n, copy_n, dce_n)
            || alg_n + fwd_n + slot_n > 0;
        stats.changed |= round_changed;
        if !round_changed {
            stats.converged = true;
            break;
        }
    }
    stats.liveness_solves = carry.solves;
    stats
}

/// Optimizes every function of `p` and removes calls to side-effect-free
/// routines (interprocedural), iterating once more when that deletion
/// exposes new intraprocedural opportunities.
pub fn optimize_program(p: &mut Program) -> OptStats {
    let mut stats = OptStats::default();
    for _ in 0..3 {
        let mut changed = false;
        for f in &mut p.funcs {
            let s = optimize_function(f);
            changed |= s.changed;
            stats.changed |= s.changed;
            stats.folded += s.folded;
            stats.branches_folded += s.branches_folded;
            stats.indirect_promoted += s.indirect_promoted;
            stats.dead_removed += s.dead_removed;
            stats.blocks_simplified += s.blocks_simplified;
            stats.cse_replaced += s.cse_replaced;
            stats.rounds += s.rounds;
            stats.liveness_solves += s.liveness_solves;
        }
        let pure_n = pure_calls::eliminate_pure_calls(p);
        stats.pure_calls_removed += pure_n;
        stats.changed |= pure_n > 0;
        if pure_n == 0 && !changed {
            stats.converged = true;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{
        verify_program, BinOp, ConstVal, FuncId, FunctionBuilder, Inst, Linkage, Operand,
        ProgramBuilder, Type,
    };

    #[test]
    fn pipeline_collapses_constant_computation() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        let t = f.new_block();
        let z = f.new_block();
        let a = f.iconst(e, 4);
        let b = f.bin(e, BinOp::Mul, a.into(), Operand::imm(10));
        let c = f.bin(e, BinOp::Gt, b.into(), Operand::imm(10));
        f.br(e, c.into(), t, z);
        f.ret(t, Some(b.into()));
        f.ret(z, Some(Operand::imm(0)));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(FuncId(0)));
        optimize_program(&mut p);
        verify_program(&p).unwrap();
        // Everything folds to `ret 40` in a single block.
        assert_eq!(p.funcs[0].blocks.len(), 1);
        assert_eq!(p.funcs[0].size(), 1);
        match p.funcs[0].blocks[0].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::imm(40))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn staged_promotion_direct_call_appears() {
        // fp = &target; call *fp  ==> call target
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        let fp = f.const_(e, ConstVal::FuncAddr(FuncId(1)));
        let r = f.call_indirect(e, fp.into(), vec![]);
        f.ret(e, Some(r.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let mut t = FunctionBuilder::new("target", m, 0);
        let e = t.entry_block();
        t.ret(e, Some(Operand::imm(5)));
        pb.add_function(t.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(FuncId(0)));
        let stats = optimize_program(&mut p);
        assert_eq!(stats.indirect_promoted, 1);
        verify_program(&p).unwrap();
    }

    #[test]
    fn optimization_preserves_execution_semantics() {
        // Compare VM output before/after on a small looping program.
        use hlo_vm::{run_program, ExecOptions};
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let sink = pb.declare_extern("sink", Some(1), false);
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let acc = f.new_reg();
        f.copy_to(e, i, Operand::imm(0));
        f.copy_to(e, acc, Operand::imm(0));
        f.jump(e, h);
        let c = f.bin(h, BinOp::Lt, i.into(), Operand::imm(50));
        f.br(h, c.into(), body, x);
        let t1 = f.bin(body, BinOp::Mul, i.into(), Operand::imm(3));
        let t2 = f.bin(body, BinOp::Add, acc.into(), t1.into());
        f.copy_to(body, acc, t2.into());
        let i1 = f.bin(body, BinOp::Add, i.into(), Operand::imm(1));
        f.copy_to(body, i, i1.into());
        f.jump(body, h);
        f.call_extern(x, sink, vec![acc.into()], false);
        f.ret(x, Some(acc.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p0 = pb.finish(Some(FuncId(0)));
        let mut p1 = p0.clone();
        optimize_program(&mut p1);
        verify_program(&p1).unwrap();
        let o0 = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let o1 = run_program(&p1, &[], &ExecOptions::default()).unwrap();
        assert_eq!(o0.ret, o1.ret);
        assert_eq!(o0.checksum, o1.checksum);
        assert!(o1.retired <= o0.retired);
    }
}
