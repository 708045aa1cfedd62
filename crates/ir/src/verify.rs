//! Structural verification of IR.
//!
//! Two API layers exist: [`verify_function_all`]/[`verify_program_all`]
//! collect *every* defect (the form the `hlo-lint` diagnostics layer and
//! the driver's verify-each mode consume), while [`verify_function`]/
//! [`verify_program`] are thin first-error wrappers kept for callers that
//! only need a pass/fail answer.

use crate::{BlockId, Callee, FuncId, Function, Inst, Operand, Program, Reg};

/// A structural defect found by [`verify_function`] or [`verify_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block is empty or does not end with a terminator.
    MissingTerminator {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A terminator appears before the end of a block.
    EarlyTerminator {
        /// Offending function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A branch targets a block id that does not exist.
    BadBlockTarget {
        /// Offending function name.
        func: String,
        /// Block containing the branch.
        block: BlockId,
    },
    /// An instruction references a register `>= num_regs`.
    BadReg {
        /// Offending function name.
        func: String,
        /// The out-of-range register.
        reg: Reg,
    },
    /// An instruction references a frame slot that does not exist.
    BadSlot {
        /// Offending function name.
        func: String,
    },
    /// More declared parameters than registers.
    ParamsExceedRegs {
        /// Offending function name.
        func: String,
    },
    /// A call references a function id outside the program.
    BadCallee {
        /// Offending function name.
        func: String,
        /// The missing callee id.
        callee: FuncId,
    },
    /// A direct call passes a different number of arguments than the
    /// callee declares. The VM tolerates this at run time (missing
    /// arguments read as 0), but no front end or transform should ever
    /// produce such a site, so the verifier rejects it.
    ArityMismatch {
        /// Offending (calling) function name.
        func: String,
        /// Name of the callee whose signature is violated. A name, not an
        /// id, so the finding reads the same in a sub-program that
        /// numbers its functions differently.
        callee: String,
        /// Arguments the callee declares.
        expected: u32,
        /// Arguments the call site passes.
        got: usize,
    },
    /// A constant references a global or extern outside the program.
    BadSymbol {
        /// Offending function name.
        func: String,
    },
    /// A profile annotation's block vector length mismatches the CFG.
    ProfileShape {
        /// Offending function name.
        func: String,
    },
    /// The designated entry function does not exist or is not public.
    BadEntry,
}

impl VerifyError {
    /// The function the defect was found in (`None` for program-level
    /// defects such as [`VerifyError::BadEntry`]).
    pub fn func_name(&self) -> Option<&str> {
        match self {
            VerifyError::MissingTerminator { func, .. }
            | VerifyError::EarlyTerminator { func, .. }
            | VerifyError::BadBlockTarget { func, .. }
            | VerifyError::BadReg { func, .. }
            | VerifyError::BadSlot { func }
            | VerifyError::ParamsExceedRegs { func }
            | VerifyError::BadCallee { func, .. }
            | VerifyError::ArityMismatch { func, .. }
            | VerifyError::BadSymbol { func }
            | VerifyError::ProfileShape { func } => Some(func),
            VerifyError::BadEntry => None,
        }
    }

    /// The block the defect was found in, when block-granular.
    pub fn block(&self) -> Option<BlockId> {
        match self {
            VerifyError::MissingTerminator { block, .. }
            | VerifyError::EarlyTerminator { block, .. }
            | VerifyError::BadBlockTarget { block, .. } => Some(*block),
            _ => None,
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingTerminator { func, block } => {
                write!(f, "function {func}: block {block} lacks a terminator")
            }
            VerifyError::EarlyTerminator { func, block } => {
                write!(f, "function {func}: terminator mid-block in {block}")
            }
            VerifyError::BadBlockTarget { func, block } => {
                write!(f, "function {func}: branch from {block} to missing block")
            }
            VerifyError::BadReg { func, reg } => {
                write!(f, "function {func}: register {reg} out of range")
            }
            VerifyError::BadSlot { func } => write!(f, "function {func}: slot out of range"),
            VerifyError::ParamsExceedRegs { func } => {
                write!(f, "function {func}: params exceed num_regs")
            }
            VerifyError::BadCallee { func, callee } => {
                write!(f, "function {func}: call to missing function {callee}")
            }
            VerifyError::ArityMismatch {
                func,
                callee,
                expected,
                got,
            } => {
                write!(
                    f,
                    "function {func}: call to `{callee}` passes {got} args, callee takes {expected}"
                )
            }
            VerifyError::BadSymbol { func } => {
                write!(f, "function {func}: reference to missing global/extern")
            }
            VerifyError::ProfileShape { func } => {
                write!(f, "function {func}: profile shape mismatch")
            }
            VerifyError::BadEntry => write!(f, "program entry is missing or not public"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Collects every structural defect of one function: terminators, register
/// and block ranges, slot references, profile shape.
pub fn verify_function_all(f: &Function) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let name = || f.name.clone();
    if f.params > f.num_regs {
        errs.push(VerifyError::ParamsExceedRegs { func: name() });
    }
    if let Some(p) = &f.profile {
        if p.blocks.len() != f.blocks.len() {
            errs.push(VerifyError::ProfileShape { func: name() });
        }
    }
    let nblocks = f.blocks.len() as u32;
    for (bid, block) in f.iter_blocks() {
        match block.insts.last() {
            Some(t) if t.is_terminator() => {}
            _ => {
                errs.push(VerifyError::MissingTerminator {
                    func: name(),
                    block: bid,
                });
            }
        }
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.is_terminator() && i + 1 != block.insts.len() {
                errs.push(VerifyError::EarlyTerminator {
                    func: name(),
                    block: bid,
                });
            }
            if let Some(d) = inst.dst() {
                if d.0 >= f.num_regs {
                    errs.push(VerifyError::BadReg {
                        func: name(),
                        reg: d,
                    });
                }
            }
            let mut bad_use = None;
            inst.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    if r.0 >= f.num_regs && bad_use.is_none() {
                        bad_use = Some(*r);
                    }
                }
            });
            if let Some(r) = bad_use {
                errs.push(VerifyError::BadReg {
                    func: name(),
                    reg: r,
                });
            }
            if let Inst::FrameAddr { slot, .. } = inst {
                if slot.index() >= f.slots.len() {
                    errs.push(VerifyError::BadSlot { func: name() });
                }
            }
            for s in inst.successors() {
                if s.0 >= nblocks {
                    errs.push(VerifyError::BadBlockTarget {
                        func: name(),
                        block: bid,
                    });
                }
            }
        }
    }
    errs
}

/// Checks one function's structural invariants (terminators, register and
/// block ranges, slot references, profile shape).
///
/// # Errors
/// Returns the first defect found.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    match verify_function_all(f).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Collects every structural defect of the whole program: each function
/// individually, plus call-target resolution and arity, global/extern
/// references, and the entry point.
pub fn verify_program_all(p: &Program) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    if let Some(e) = p.entry {
        if e.index() >= p.funcs.len() {
            errs.push(VerifyError::BadEntry);
        }
    }
    for f in &p.funcs {
        errs.extend(verify_function_all(f));
        for block in &f.blocks {
            for inst in &block.insts {
                if let Inst::Call { callee, args, .. } = inst {
                    match callee {
                        Callee::Func(id) if id.index() >= p.funcs.len() => {
                            errs.push(VerifyError::BadCallee {
                                func: f.name.clone(),
                                callee: *id,
                            });
                        }
                        Callee::Func(id) if p.func(*id).params as usize != args.len() => {
                            errs.push(VerifyError::ArityMismatch {
                                func: f.name.clone(),
                                callee: p.func(*id).name.clone(),
                                expected: p.func(*id).params,
                                got: args.len(),
                            });
                        }
                        Callee::Extern(id) if id.index() >= p.externs.len() => {
                            errs.push(VerifyError::BadSymbol {
                                func: f.name.clone(),
                            });
                        }
                        _ => {}
                    }
                }
                let mut bad = false;
                let mut check_const = |c: crate::ConstVal| match c {
                    crate::ConstVal::FuncAddr(id) if id.index() >= p.funcs.len() => bad = true,
                    crate::ConstVal::GlobalAddr(id) if id.index() >= p.globals.len() => bad = true,
                    _ => {}
                };
                if let Inst::Const { value, .. } = inst {
                    check_const(*value);
                }
                inst.for_each_use(|op| {
                    if let Operand::Const(c) = op {
                        check_const(*c);
                    }
                });
                if bad {
                    errs.push(VerifyError::BadSymbol {
                        func: f.name.clone(),
                    });
                }
            }
        }
    }
    errs
}

/// Checks the whole program: every function individually, plus that call
/// targets resolve with matching arity, globals, externs and the entry
/// point exist.
///
/// # Errors
/// Returns the first defect found.
pub fn verify_program(p: &Program) -> Result<(), VerifyError> {
    match verify_program_all(p).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstVal, Function, ModuleId, Operand};

    fn ret1() -> Function {
        let mut f = Function::new("f", ModuleId(0), 0);
        f.blocks[0].insts.push(Inst::Ret {
            value: Some(Operand::imm(1)),
        });
        f
    }

    #[test]
    fn accepts_minimal_function() {
        assert!(verify_function(&ret1()).is_ok());
        assert!(verify_function_all(&ret1()).is_empty());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut f = ret1();
        f.blocks[0].insts.pop();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::MissingTerminator { .. })
        ));
    }

    #[test]
    fn rejects_early_terminator() {
        let mut f = ret1();
        f.blocks[0].insts.push(Inst::Ret { value: None });
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::EarlyTerminator { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut f = ret1();
        f.blocks[0].insts.insert(
            0,
            Inst::Const {
                dst: Reg(10),
                value: ConstVal::int(0),
            },
        );
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::BadReg { .. })
        ));
    }

    #[test]
    fn rejects_bad_branch_target() {
        let mut f = ret1();
        f.blocks[0].insts.pop();
        f.blocks[0].insts.push(Inst::Jump { target: BlockId(7) });
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::BadBlockTarget { .. })
        ));
    }

    #[test]
    fn rejects_bad_callee_in_program() {
        let mut p = Program::new();
        p.modules.push(crate::Module::new("m"));
        let mut f = ret1();
        f.blocks[0].insts.insert(
            0,
            Inst::Call {
                dst: None,
                callee: Callee::Func(FuncId(5)),
                args: vec![],
            },
        );
        p.funcs.push(f);
        p.modules[0].funcs.push(FuncId(0));
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadCallee { .. })
        ));
    }

    #[test]
    fn rejects_arity_mismatch_in_program() {
        // callee takes 2 params, the site passes 1
        let mut p = Program::new();
        p.modules.push(crate::Module::new("m"));
        let mut caller = ret1();
        caller.name = "caller".into();
        caller.num_regs = 1;
        caller.blocks[0].insts.insert(
            0,
            Inst::Call {
                dst: Some(Reg(0)),
                callee: Callee::Func(FuncId(1)),
                args: vec![Operand::imm(1)],
            },
        );
        p.funcs.push(caller);
        let mut callee = Function::new("callee", ModuleId(0), 2);
        callee.blocks[0].insts.push(Inst::Ret {
            value: Some(Operand::imm(0)),
        });
        p.funcs.push(callee);
        p.modules[0].funcs.push(FuncId(0));
        p.modules[0].funcs.push(FuncId(1));
        let err = verify_program(&p).unwrap_err();
        assert_eq!(
            err.to_string(),
            "function caller: call to `callee` passes 1 args, callee takes 2"
        );
        match err {
            VerifyError::ArityMismatch {
                func,
                callee,
                expected,
                got,
            } => {
                assert_eq!(func, "caller");
                assert_eq!(callee, "callee");
                assert_eq!(expected, 2);
                assert_eq!(got, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_profile_shape_mismatch() {
        let mut f = ret1();
        f.profile = Some(crate::FuncProfile {
            entry: 1.0,
            blocks: vec![1.0, 2.0],
        });
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::ProfileShape { .. })
        ));
    }

    #[test]
    fn collects_multiple_defects() {
        // Missing terminator in one block AND a bad register in another.
        let mut f = ret1();
        f.blocks[0].insts.insert(
            0,
            Inst::Const {
                dst: Reg(10),
                value: ConstVal::int(0),
            },
        );
        let b = f.new_block(); // left without a terminator
        let _ = b;
        let errs = verify_function_all(&f);
        assert!(errs.len() >= 2, "{errs:?}");
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::MissingTerminator { .. })));
        assert!(errs.iter().any(|e| matches!(e, VerifyError::BadReg { .. })));
    }
}
