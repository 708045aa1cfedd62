#![warn(missing_docs)]
//! Mid-level intermediate representation for the Aggressive Inlining
//! reproduction.
//!
//! This crate plays the role of HP's *ucode* in the original system: a
//! language-neutral intermediate form that front ends produce and that the
//! high-level optimizer (HLO, crate `hlo`) transforms. The design goals
//! mirror what the paper needs:
//!
//! * **Modules with linkage** — programs are collections of modules;
//!   functions and globals are either `Public` or module-`Static`, so the
//!   optimizer can distinguish within-module from cross-module call sites
//!   and must promote statics when code moves between modules.
//! * **Every call variety** — direct calls, calls to externals (precompiled
//!   libraries, invisible to the optimizer), and indirect calls through
//!   function-pointer values. Function addresses are first-class constants,
//!   which is what lets cloning + constant propagation promote indirect
//!   calls to direct ones across optimizer passes.
//! * **Non-SSA register machine** — each function has an unbounded set of
//!   mutable virtual registers (the first `params` of which receive
//!   arguments), a control-flow graph of basic blocks, and a frame of
//!   statically sized slots for arrays and address-taken locals. This keeps
//!   the inline and clone transforms simple and faithful to a 1990s
//!   intermediate form.
//!
//! # Example
//!
//! ```
//! use hlo_ir::{ProgramBuilder, FunctionBuilder, Operand, BinOp, Linkage, Type};
//!
//! let mut pb = ProgramBuilder::new();
//! let m = pb.add_module("main");
//! let mut f = FunctionBuilder::new("add1", m, 1);
//! let entry = f.entry_block();
//! let p0 = f.param(0);
//! let r = f.bin(entry, BinOp::Add, Operand::Reg(p0), Operand::imm(1));
//! f.ret(entry, Some(Operand::Reg(r)));
//! let id = pb.add_function(f.finish(Linkage::Public, Type::I64));
//! let program = pb.finish(Some(id));
//! assert_eq!(program.func(id).name, "add1");
//! ```

mod builder;
mod display;
mod func;
mod hash;
mod inst;
mod layout;
mod module;
mod program;
mod text;
mod types;
mod verify;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use func::{Block, FuncFlags, FuncProfile, Function, Linkage};
pub use hash::{fnv1a_64, hash_function, Fnv64};
pub use inst::{BinOp, Callee, Inst, Operand, UnOp};
pub use layout::{CodeLayout, FuncLayout, INST_BYTES};
pub use module::{Extern, Global, Module};
pub use program::{routine_cost, FuncNames, Program};
pub use text::{
    function_to_text, parse_inst, parse_program_text, program_to_text, IrParseError, ProgramText,
};
pub use types::{ConstVal, F64Bits, Type};
pub use verify::{
    verify_function, verify_function_all, verify_program, verify_program_all, VerifyError,
};

/// Identifies a module within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

/// Identifies a function within a [`Program`] (program-wide, not per-module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// A virtual register within a [`Function`]. Registers `0..params` hold the
/// incoming arguments on entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

/// Identifies a frame slot (statically sized local storage) of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

/// Identifies a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Identifies an external routine (precompiled library code the optimizer
/// cannot see into; executed by VM builtins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExternId(pub u32);

impl ModuleId {
    /// Index into `Program::modules`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl FuncId {
    /// Index into `Program::funcs`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    /// Index into `Function::blocks`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl Reg {
    /// Index into a register file of `Function::num_regs` registers.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl SlotId {
    /// Index into `Function::slots`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl GlobalId {
    /// Index into `Program::globals`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl ExternId {
    /// Index into `Program::externs`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}
impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}
impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl std::fmt::Display for GlobalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}
impl std::fmt::Display for ExternId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}
