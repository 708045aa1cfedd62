//! Local (per-block) copy propagation.

use hlo_ir::{Function, Inst, Operand, Reg};

/// Rewrites uses of registers that are block-local copies of other
/// operands. Returns the number of uses rewritten.
pub fn propagate_copies(f: &mut Function) -> u64 {
    let mut rewritten = 0;
    // Per register, the operand it currently equals; `copied` lists the
    // registers that have one, so a block clears only those.
    let mut equiv: Vec<Option<Operand>> = vec![None; f.num_regs as usize];
    let mut copied: Vec<Reg> = Vec::new();
    for block in &mut f.blocks {
        for r in copied.drain(..) {
            equiv[r.index()] = None;
        }
        for inst in &mut block.insts {
            // Rewrite uses through the equivalence map (chase one level;
            // chains resolve over repeated pipeline iterations).
            inst.for_each_use_mut(|op| {
                if let Operand::Reg(r) = op {
                    if let Some(src) = equiv[r.index()] {
                        *op = src;
                        rewritten += 1;
                    }
                }
            });
            // Kill equivalences invalidated by this def: its own, and
            // every one whose source it is.
            if let Some(d) = inst.dst() {
                copied.retain(|&r| {
                    let e = &mut equiv[r.index()];
                    let killed = r == d || e.and_then(|v| v.as_reg()) == Some(d);
                    if killed {
                        *e = None;
                    }
                    !killed
                });
                if let Inst::Copy { dst, src } = inst {
                    if src.as_reg() != Some(*dst) {
                        equiv[dst.index()] = Some(*src);
                        copied.push(*dst);
                    }
                }
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{BinOp, FunctionBuilder, Linkage, ModuleId, Type};

    #[test]
    fn forwards_simple_copies() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let t = fb.new_reg();
        fb.copy_to(e, t, Operand::Reg(fb.param(0)));
        let s = fb.bin(e, BinOp::Add, t.into(), t.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let n = propagate_copies(&mut f);
        assert_eq!(n, 2);
        match &f.blocks[0].insts[1] {
            Inst::Bin { a, b, .. } => {
                assert_eq!(*a, Operand::Reg(Reg(0)));
                assert_eq!(*b, Operand::Reg(Reg(0)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn redefinition_kills_equivalence() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 2);
        let e = fb.entry_block();
        let t = fb.new_reg();
        fb.copy_to(e, t, Operand::Reg(fb.param(0)));
        // redefine the *source*; t must no longer forward to it
        fb.copy_to(e, fb.param(0), Operand::Reg(fb.param(1)));
        let s = fb.bin(e, BinOp::Add, t.into(), Operand::imm(0));
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate_copies(&mut f);
        match &f.blocks[0].insts[2] {
            Inst::Bin { a, .. } => assert_eq!(*a, Operand::Reg(t)),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn copy_of_constant_forwards_immediate() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let t = fb.new_reg();
        fb.copy_to(e, t, Operand::imm(9));
        fb.ret(e, Some(t.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate_copies(&mut f);
        match f.blocks[0].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::imm(9))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn self_copy_is_not_recorded() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let p = fb.param(0);
        fb.copy_to(e, p, Operand::Reg(p));
        fb.ret(e, Some(p.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate_copies(&mut f); // must not loop or rewrite to itself oddly
        match f.blocks[0].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::Reg(p))),
            other => panic!("unexpected {other}"),
        }
    }
}
