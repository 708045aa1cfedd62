//! Instructions, operands and operators.

use crate::{BlockId, ConstVal, ExternId, FuncId, Reg, SlotId};

/// An instruction operand: a virtual register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(Reg),
    /// Immediate constant.
    Const(ConstVal),
}

impl Operand {
    /// Integer immediate.
    pub fn imm(v: i64) -> Self {
        Operand::Const(ConstVal::I64(v))
    }

    /// The register read, if any.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is an immediate.
    pub fn as_const(self) -> Option<ConstVal> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Reg(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<ConstVal> for Operand {
    fn from(c: ConstVal) -> Self {
        Operand::Const(c)
    }
}

/// Binary operators. Integer ops interpret operands as `i64`; `F*` ops as
/// `f64`. Comparison results are `0`/`1` integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero traps at run time and is never
    /// folded at compile time.
    Div,
    /// Signed remainder; traps on zero divisor.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (count masked to 0..63).
    Shl,
    /// Arithmetic shift right (count masked to 0..63).
    Shr,
    /// Equality (0/1 result).
    Eq,
    /// Inequality (0/1 result).
    Ne,
    /// Signed less-than (0/1 result).
    Lt,
    /// Signed less-or-equal (0/1 result).
    Le,
    /// Signed greater-than (0/1 result).
    Gt,
    /// Signed greater-or-equal (0/1 result).
    Ge,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division (IEEE, never traps).
    FDiv,
    /// Float less-than (0/1 result).
    FLt,
    /// Float equality (0/1 result).
    FEq,
}

impl BinOp {
    /// True for operators that compute on floats. Functions compiled with
    /// `strict_fp` forbid reassociation of these; the inliner refuses to mix
    /// strict and relaxed bodies (the paper's "technical restriction").
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FLt | BinOp::FEq
        )
    }

    /// True when the operator can trap at run time (so it is not dead-code
    /// removable and not always foldable).
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Float negation.
    FNeg,
    /// Convert integer to float.
    IToF,
    /// Truncate float to integer.
    FToI,
}

impl UnOp {
    /// True for operators that compute on floats.
    pub fn is_float(self) -> bool {
        matches!(self, UnOp::FNeg | UnOp::IToF | UnOp::FToI)
    }
}

/// The target of a call instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a function in the program.
    Func(FuncId),
    /// Call to an external routine (library code invisible to the
    /// optimizer, executed by VM builtins).
    Extern(ExternId),
    /// Indirect call through a function-pointer value.
    Indirect(Operand),
}

/// A single IR instruction.
///
/// Blocks must end with exactly one terminator ([`Inst::is_terminator`]);
/// [`crate::verify_function`] enforces this.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = constant`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant produced.
        value: ConstVal,
    },
    /// `dst = src` (register-to-register or materialized immediate).
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <op> b`.
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`.
    Un {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// `dst = mem[base + offset]` (byte address, must be 8-aligned).
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address.
        base: Operand,
        /// Byte offset added to the base.
        offset: Operand,
    },
    /// `mem[base + offset] = value`.
    Store {
        /// Base address.
        base: Operand,
        /// Byte offset added to the base.
        offset: Operand,
        /// Value stored.
        value: Operand,
    },
    /// `dst = address of frame slot` (local arrays, address-taken locals).
    FrameAddr {
        /// Destination register.
        dst: Reg,
        /// The frame slot whose address is taken.
        slot: SlotId,
    },
    /// `dst = allocate `bytes` bytes in the current frame` (dynamic; freed
    /// at return). A callee containing this is pragmatically non-inlinable,
    /// mirroring the paper's `alloca` concern.
    Alloca {
        /// Receives the allocation's address.
        dst: Reg,
        /// Bytes to allocate (rounded up to 8).
        bytes: Operand,
    },
    /// Call. `dst = callee(args...)`; calls whose callee returns `Void`
    /// leave `dst` `None`. Arity mismatches with the callee's signature are
    /// tolerated at run time (missing args read as 0) but make the site
    /// illegal for inlining/cloning, exactly as in the paper — and
    /// [`crate::verify_program`] rejects them, since no transform should
    /// ever introduce one.
    Call {
        /// Where the result goes (`None` discards it).
        dst: Option<Reg>,
        /// The call target.
        callee: Callee,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// Return from the function.
    Ret {
        /// Returned value (`None` for procedures).
        value: Option<Operand>,
    },
    /// Unconditional jump.
    Jump {
        /// Destination block.
        target: BlockId,
    },
    /// Conditional branch: to `then_` when `cond != 0`, else `else_`.
    Br {
        /// Condition value (taken when non-zero).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_: BlockId,
        /// Target when the condition is zero.
        else_: BlockId,
    },
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::Alloca { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst,
            Inst::Store { .. } | Inst::Ret { .. } | Inst::Jump { .. } | Inst::Br { .. } => None,
        }
    }

    /// Mutable access to the defined register, if any.
    pub fn dst_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::Alloca { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst.as_mut(),
            Inst::Store { .. } | Inst::Ret { .. } | Inst::Jump { .. } | Inst::Br { .. } => None,
        }
    }

    /// Invokes `f` on every operand this instruction reads.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Inst::Const { .. } | Inst::FrameAddr { .. } => {}
            Inst::Copy { src, .. } => f(src),
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Load { base, offset, .. } => {
                f(base);
                f(offset);
            }
            Inst::Store {
                base,
                offset,
                value,
            } => {
                f(base);
                f(offset);
                f(value);
            }
            Inst::Alloca { bytes, .. } => f(bytes),
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(op) = callee {
                    f(op);
                }
                for a in args {
                    f(a);
                }
            }
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Inst::Jump { .. } => {}
            Inst::Br { cond, .. } => f(cond),
        }
    }

    /// Invokes `f` on mutable references to every operand this instruction
    /// reads (used by register renaming during inline/clone splicing and by
    /// constant/copy propagation).
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Const { .. } | Inst::FrameAddr { .. } => {}
            Inst::Copy { src, .. } => f(src),
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Load { base, offset, .. } => {
                f(base);
                f(offset);
            }
            Inst::Store {
                base,
                offset,
                value,
            } => {
                f(base);
                f(offset);
                f(value);
            }
            Inst::Alloca { bytes, .. } => f(bytes),
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(op) = callee {
                    f(op);
                }
                for a in args {
                    f(a);
                }
            }
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Inst::Jump { .. } => {}
            Inst::Br { cond, .. } => f(cond),
        }
    }

    /// Invokes `f` on a mutable reference to every [`FuncId`] this
    /// instruction mentions: direct call targets (`Callee::Func`, which
    /// [`Inst::for_each_use_mut`] does *not* visit) and `FuncAddr`
    /// constants, both as a `Const` instruction's value and as constant
    /// operands. Used to renumber function references when cached
    /// optimized bodies are spliced into a program whose function table
    /// assigns their clones different ids.
    pub fn for_each_func_ref_mut(&mut self, mut f: impl FnMut(&mut crate::FuncId)) {
        if let Inst::Call {
            callee: Callee::Func(t),
            ..
        } = self
        {
            f(t);
        }
        if let Inst::Const {
            value: crate::ConstVal::FuncAddr(t),
            ..
        } = self
        {
            f(t);
        }
        self.for_each_use_mut(|op| {
            if let Operand::Const(crate::ConstVal::FuncAddr(t)) = op {
                f(t);
            }
        });
    }

    /// True for instructions that must terminate a block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Ret { .. } | Inst::Jump { .. } | Inst::Br { .. })
    }

    /// True if removing this instruction (when its result is unused) could
    /// change program behaviour.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Inst::Store { .. }
            | Inst::Call { .. }
            | Inst::Ret { .. }
            | Inst::Jump { .. }
            | Inst::Br { .. }
            | Inst::Alloca { .. } => true,
            Inst::Bin { op, .. } => op.can_trap(),
            Inst::Load { .. } => false, // loads can trap, but our DCE keeps them only if used
            _ => false,
        }
    }

    /// Successor blocks, for terminators (empty otherwise).
    pub fn successors(&self) -> Vec<BlockId> {
        self.iter_successors().collect()
    }

    /// [`Inst::successors`] without allocating: a branch whose arms agree
    /// yields its target once.
    pub fn iter_successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Inst::Jump { target } => (Some(target), None),
            Inst::Br { then_, else_, .. } => (Some(then_), (then_ != else_).then_some(else_)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Rewrites successor block ids through `map` (used when splicing CFGs).
    pub fn map_successors(&mut self, mut map: impl FnMut(BlockId) -> BlockId) {
        match self {
            Inst::Jump { target } => *target = map(*target),
            Inst::Br { then_, else_, .. } => {
                *then_ = map(*then_);
                *else_ = map(*else_);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let r = Reg(4);
        assert_eq!(Operand::from(r).as_reg(), Some(r));
        assert_eq!(Operand::imm(3).as_const(), Some(ConstVal::I64(3)));
        assert_eq!(Operand::imm(3).as_reg(), None);
    }

    #[test]
    fn uses_cover_indirect_callee() {
        let inst = Inst::Call {
            dst: None,
            callee: Callee::Indirect(Operand::Reg(Reg(9))),
            args: vec![Operand::Reg(Reg(1)), Operand::imm(2)],
        };
        let mut regs = Vec::new();
        inst.for_each_use(|op| {
            if let Some(r) = op.as_reg() {
                regs.push(r);
            }
        });
        assert_eq!(regs, vec![Reg(9), Reg(1)]);
    }

    #[test]
    fn branch_successors_dedup() {
        let b = Inst::Br {
            cond: Operand::imm(1),
            then_: BlockId(3),
            else_: BlockId(3),
        };
        assert_eq!(b.successors(), vec![BlockId(3)]);
    }

    #[test]
    fn terminators_and_side_effects() {
        assert!(Inst::Ret { value: None }.is_terminator());
        assert!(!Inst::Const {
            dst: Reg(0),
            value: ConstVal::int(1)
        }
        .is_terminator());
        assert!(Inst::Bin {
            dst: Reg(0),
            op: BinOp::Div,
            a: Operand::imm(1),
            b: Operand::imm(0)
        }
        .has_side_effect());
        assert!(!Inst::Bin {
            dst: Reg(0),
            op: BinOp::Add,
            a: Operand::imm(1),
            b: Operand::imm(0)
        }
        .has_side_effect());
    }

    #[test]
    fn map_successors_rewrites_both_arms() {
        let mut b = Inst::Br {
            cond: Operand::imm(0),
            then_: BlockId(1),
            else_: BlockId(2),
        };
        b.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(b.successors(), vec![BlockId(11), BlockId(12)]);
    }
}
