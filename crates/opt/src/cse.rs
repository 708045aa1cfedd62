//! Local common-subexpression elimination.

use hlo_ir::{BinOp, Function, Inst, Operand, Reg, UnOp};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprKey {
    Bin(BinOp, Operand, Operand),
    Un(UnOp, Operand),
    Load(Operand, Operand),
    FrameAddr(u32),
}

/// Replaces recomputed expressions within a block by copies of the first
/// computation. Loads participate but are invalidated by any store or
/// call. Returns the number of instructions replaced.
///
/// The expressions available in a block sit in one short table, searched
/// in order and cleared for each block. A lookup costs no more than the
/// scan every definition already makes to drop what it invalidates, and
/// the table holds each expression at most once: a definition first
/// drops the entries its register held.
pub fn eliminate_common(f: &mut Function) -> u64 {
    let mut replaced = 0;
    let mut avail: Vec<(ExprKey, Reg)> = Vec::new();
    for block in &mut f.blocks {
        avail.clear();
        for inst in &mut block.insts {
            let key = match inst {
                Inst::Bin { op, a, b, .. } if !op.can_trap() => {
                    // Normalize commutative operand order.
                    let (x, y) = if is_commutative(*op) {
                        sort_ops(*a, *b)
                    } else {
                        (*a, *b)
                    };
                    Some(ExprKey::Bin(*op, x, y))
                }
                Inst::Un { op, a, .. } => Some(ExprKey::Un(*op, *a)),
                Inst::Load { base, offset, .. } => Some(ExprKey::Load(*base, *offset)),
                Inst::FrameAddr { slot, .. } => Some(ExprKey::FrameAddr(slot.0)),
                _ => None,
            };

            // Memory clobbers invalidate loads.
            if matches!(
                inst,
                Inst::Store { .. } | Inst::Call { .. } | Inst::Alloca { .. }
            ) {
                avail.retain(|(k, _)| !matches!(k, ExprKey::Load(..)));
            }

            // Replace a recomputation with a copy of the earlier result.
            if let (Some(k), Some(d)) = (key, inst.dst()) {
                if let Some(&(_, prev)) = avail.iter().find(|(ak, _)| *ak == k) {
                    if prev != d {
                        *inst = Inst::Copy {
                            dst: d,
                            src: Operand::Reg(prev),
                        };
                        replaced += 1;
                    }
                }
            }

            // A redefined register invalidates expressions mentioning it
            // (as source or as the remembered result)...
            if let Some(d) = inst.dst() {
                let mentions_d = |k: &ExprKey| match k {
                    ExprKey::Bin(_, a, b) => a.as_reg() == Some(d) || b.as_reg() == Some(d),
                    ExprKey::Un(_, a) => a.as_reg() == Some(d),
                    ExprKey::Load(a, b) => a.as_reg() == Some(d) || b.as_reg() == Some(d),
                    ExprKey::FrameAddr(_) => false,
                };
                avail.retain(|(k, v)| *v != d && !mentions_d(k));
                // ...and only then does the new expression become
                // available (unless it reads its own destination, in which
                // case the key would describe the pre-def value).
                if let Some(k) = key {
                    if !mentions_d(&k) && !matches!(inst, Inst::Copy { .. }) {
                        avail.push((k, d));
                    }
                }
            }
        }
    }
    replaced
}

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::FAdd
            | BinOp::FMul
            | BinOp::FEq
    )
}

fn sort_ops(a: Operand, b: Operand) -> (Operand, Operand) {
    // Any deterministic total order works.
    let key = |o: &Operand| match o {
        Operand::Reg(r) => (0u8, r.0 as i64, 0u8),
        Operand::Const(c) => (1u8, 0, const_tag(c)),
    };
    fn const_tag(_c: &hlo_ir::ConstVal) -> u8 {
        0
    }
    if key(&a) <= key(&b) {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FunctionBuilder, Linkage, ModuleId, Type};

    #[test]
    fn dedups_repeated_adds() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 2);
        let e = fb.entry_block();
        let p0 = Operand::Reg(fb.param(0));
        let p1 = Operand::Reg(fb.param(1));
        let a = fb.bin(e, BinOp::Add, p0, p1);
        let b = fb.bin(e, BinOp::Add, p0, p1);
        let s = fb.bin(e, BinOp::Mul, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_common(&mut f), 1);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
    }

    #[test]
    fn commutative_operands_normalize() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 2);
        let e = fb.entry_block();
        let p0 = Operand::Reg(fb.param(0));
        let p1 = Operand::Reg(fb.param(1));
        let a = fb.bin(e, BinOp::Add, p0, p1);
        let b = fb.bin(e, BinOp::Add, p1, p0);
        let s = fb.bin(e, BinOp::Sub, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_common(&mut f), 1);
    }

    #[test]
    fn stores_invalidate_loads() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let p = Operand::Reg(fb.param(0));
        let a = fb.load(e, p, Operand::imm(0));
        fb.store(e, p, Operand::imm(0), Operand::imm(1));
        let b = fb.load(e, p, Operand::imm(0));
        let s = fb.bin(e, BinOp::Add, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_common(&mut f), 0);
    }

    #[test]
    fn repeated_loads_without_clobber_dedup() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let p = Operand::Reg(fb.param(0));
        let a = fb.load(e, p, Operand::imm(0));
        let b = fb.load(e, p, Operand::imm(0));
        let s = fb.bin(e, BinOp::Add, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_common(&mut f), 1);
    }

    #[test]
    fn redefined_source_invalidates() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let p = fb.param(0);
        let a = fb.bin(e, BinOp::Add, p.into(), Operand::imm(1));
        fb.copy_to(e, p, Operand::imm(0)); // clobber source
        let b = fb.bin(e, BinOp::Add, p.into(), Operand::imm(1));
        let s = fb.bin(e, BinOp::Mul, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_common(&mut f), 0);
    }

    #[test]
    fn trapping_ops_not_cse_candidates() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 2);
        let e = fb.entry_block();
        let p0 = Operand::Reg(fb.param(0));
        let p1 = Operand::Reg(fb.param(1));
        let a = fb.bin(e, BinOp::Div, p0, p1);
        let b = fb.bin(e, BinOp::Div, p0, p1);
        let s = fb.bin(e, BinOp::Add, a.into(), b.into());
        fb.ret(e, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        // Folding traps across is safe actually, but we stay conservative.
        assert_eq!(eliminate_common(&mut f), 0);
    }
}
