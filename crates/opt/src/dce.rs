//! Liveness-based dead-code elimination.

use crate::pipeline::Solved;
use crate::remove_insts;
use hlo_analysis::{BitSet, BitsView};
use hlo_ir::{Function, Operand};

/// Removes instructions whose results are dead and which have no side
/// effects. Returns the number of instructions removed. Runs to a local
/// fixpoint (removing one instruction can kill another's last use).
pub fn eliminate_dead(f: &mut Function) -> u64 {
    let solved = Solved::of(f);
    eliminate_dead_solved(f, solved, &mut Scratch::default(), &mut 0).0
}

/// The buffers a sweep clears and reuses for every block: the running
/// live set and the dead instructions' indexes.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    live: BitSet,
    dead: Vec<usize>,
}

/// [`eliminate_dead`] starting from `solved`, the graph and liveness of
/// `f` as it stands. Liveness is solved again after each sweep that
/// removed something, counted in `solves`; terminators are never removed,
/// so the graph stays valid. Returns the number removed and the graph and
/// liveness of the result, which the last sweep, removing nothing, read.
pub(crate) fn eliminate_dead_solved(
    f: &mut Function,
    mut solved: Solved,
    scratch: &mut Scratch,
    solves: &mut u64,
) -> (u64, Solved) {
    let mut total = 0;
    loop {
        let removed = sweep(f, |b| solved.live.live_out(b), scratch);
        total += removed;
        if removed == 0 {
            return (total, solved);
        }
        solved.live = solved.cfg.liveness(f);
        *solves += 1;
    }
}

/// One removal sweep: walks each block backwards from its live-out set
/// and drops every side-effect-free instruction whose result is dead
/// there. Returns the number removed.
pub(crate) fn sweep<'a>(
    f: &mut Function,
    live_out: impl Fn(usize) -> BitsView<'a>,
    scratch: &mut Scratch,
) -> u64 {
    let Scratch { live, dead } = scratch;
    let mut removed = 0;
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        live.copy_from(live_out(bi));
        dead.clear();
        for (ii, inst) in block.insts.iter().enumerate().rev() {
            let dead_dst = inst.dst().is_some_and(|d| !live.get(d.index()));
            if dead_dst && !inst.has_side_effect() {
                dead.push(ii);
                continue; // its uses do not become live
            }
            if let Some(d) = inst.dst() {
                live.remove(d.index());
            }
            inst.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    live.set(r.index());
                }
            });
        }
        removed += dead.len() as u64;
        remove_insts(&mut block.insts, dead.iter().rev().copied());
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{BinOp, FunctionBuilder, Inst, Linkage, ModuleId, Type};

    #[test]
    fn removes_unused_arithmetic_chains() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let a = fb.iconst(e, 1);
        let b = fb.bin(e, BinOp::Add, a.into(), Operand::imm(2)); // dead chain
        let _ = b;
        fb.ret(e, Some(Operand::Reg(fb.param(0))));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let n = eliminate_dead(&mut f);
        assert_eq!(n, 2);
        assert_eq!(f.size(), 1);
    }

    #[test]
    fn keeps_side_effects() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        // store is a side effect; the div may trap
        fb.store(
            e,
            Operand::Reg(fb.param(0)),
            Operand::imm(0),
            Operand::imm(1),
        );
        let q = fb.bin(e, BinOp::Div, Operand::imm(1), Operand::Reg(fb.param(0)));
        let _ = q; // unused but trapping
        fb.ret(e, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        let n = eliminate_dead(&mut f);
        assert_eq!(n, 0);
        assert_eq!(f.size(), 3);
    }

    #[test]
    fn keeps_values_live_across_blocks() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let exit = fb.new_block();
        let v = fb.iconst(e, 9);
        fb.jump(e, exit);
        fb.ret(exit, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let n = eliminate_dead(&mut f);
        assert_eq!(n, 0);
    }

    #[test]
    fn dead_loads_are_removed() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let v = fb.load(e, Operand::Reg(fb.param(0)), Operand::imm(0));
        let _ = v;
        fb.ret(e, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        assert_eq!(eliminate_dead(&mut f), 1);
    }

    #[test]
    fn call_results_unused_still_kept() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let r = fb.call(e, hlo_ir::FuncId(0), vec![]);
        let _ = r;
        fb.ret(e, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        assert_eq!(eliminate_dead(&mut f), 0);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Call { .. })));
    }

    #[test]
    fn loop_carried_values_stay_live() {
        // i updated in loop, used by branch: nothing removable.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let x = fb.new_block();
        let i = fb.new_reg();
        fb.copy_to(e, i, Operand::imm(0));
        fb.jump(e, h);
        let i1 = fb.bin(h, BinOp::Add, i.into(), Operand::imm(1));
        fb.copy_to(h, i, i1.into());
        let c = fb.bin(h, BinOp::Lt, i.into(), Operand::Reg(fb.param(0)));
        fb.br(h, c.into(), h, x);
        fb.ret(x, Some(i.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_dead(&mut f), 0);
    }
}
