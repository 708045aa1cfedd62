//! Human-readable IR printing (for debugging, tests and examples).

use crate::{Callee, Function, Inst, Operand};
use std::fmt;

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Callee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Func(id) => write!(f, "{id}"),
            Callee::Extern(id) => write!(f, "{id}"),
            Callee::Indirect(op) => write!(f, "*{op}"),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = const {value}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Bin { dst, op, a, b } => write!(f, "{dst} = {op:?} {a}, {b}"),
            Inst::Un { dst, op, a } => write!(f, "{dst} = {op:?} {a}"),
            Inst::Load { dst, base, offset } => write!(f, "{dst} = load [{base} + {offset}]"),
            Inst::Store {
                base,
                offset,
                value,
            } => write!(f, "store [{base} + {offset}] = {value}"),
            Inst::FrameAddr { dst, slot } => write!(f, "{dst} = frameaddr {slot}"),
            Inst::Alloca { dst, bytes } => write!(f, "{dst} = alloca {bytes}"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::Br { cond, then_, else_ } => write!(f, "br {cond} ? {then_} : {else_}"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fn {}({} params, {} regs, {:?})",
            self.name, self.params, self.num_regs, self.linkage
        )?;
        writeln!(f, " {{")?;
        for (bid, block) in self.iter_blocks() {
            let freq = self
                .profile
                .as_ref()
                .and_then(|p| p.blocks.get(bid.index()))
                .map(|c| format!("  ; freq {c:.0}"))
                .unwrap_or_default();
            writeln!(f, "{bid}:{freq}")?;
            for inst in &block.insts {
                writeln!(f, "  {inst}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, BlockId, ConstVal, ModuleId, Reg};

    #[test]
    fn instruction_rendering() {
        let i = Inst::Bin {
            dst: Reg(2),
            op: BinOp::Add,
            a: Operand::Reg(Reg(0)),
            b: Operand::imm(3),
        };
        assert_eq!(i.to_string(), "r2 = Add r0, 3");
        let c = Inst::Call {
            dst: Some(Reg(1)),
            callee: Callee::Indirect(Operand::Reg(Reg(0))),
            args: vec![Operand::imm(1), Operand::imm(2)],
        };
        assert_eq!(c.to_string(), "r1 = call *r0(1, 2)");
    }

    #[test]
    fn function_rendering_includes_blocks() {
        let mut f = Function::new("t", ModuleId(0), 0);
        f.blocks[0].insts.push(Inst::Const {
            dst: Reg(0),
            value: ConstVal::int(1),
        });
        f.num_regs = 1;
        f.blocks[0].insts.push(Inst::Jump { target: BlockId(1) });
        f.new_block();
        f.blocks[1].insts.push(Inst::Ret { value: None });
        let s = f.to_string();
        assert!(s.contains("b0:"));
        assert!(s.contains("b1:"));
        assert!(s.contains("jump b1"));
    }
}
