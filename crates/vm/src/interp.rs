//! The interpreter core.

use crate::builtins::{call_builtin, BuiltinState};
use crate::memory::{Memory, CODE_BASE};
use crate::monitor::{CallKind, ExecMonitor, NullMonitor, SiteId};
use crate::{Trap, TrapKind};
use hlo_ir::{BinOp, BlockId, Callee, ConstVal, FuncId, Inst, Operand, Program, Reg, UnOp};

/// Which execution engine runs the program. Both tiers implement the
/// same observable semantics — fuel accounting, trap taxonomy, extern
/// ordering, output, checksum, and the [`ExecMonitor`] event stream are
/// identical instruction for instruction; the fuzz oracle cross-checks
/// every candidate on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The tree-walking reference interpreter.
    #[default]
    Tree,
    /// The linear-bytecode dispatch loop (`crate::bytecode` +
    /// `crate::exec`): registers resolved to frame slots, block targets
    /// pre-linked to instruction offsets, constants pooled.
    Bytecode,
}

impl Tier {
    /// Stable lower-case name (`tree` / `bytecode`), used in metric
    /// labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Tree => "tree",
            Tier::Bytecode => "bytecode",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Execution limits and sizing.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Maximum instructions to retire before trapping with
    /// [`TrapKind::FuelExhausted`].
    pub fuel: u64,
    /// Stack segment size in bytes.
    pub stack_bytes: u64,
    /// Which execution engine to use (default: the tree-walking
    /// reference interpreter).
    pub tier: Tier,
}

impl ExecOptions {
    /// The default limits on the tree tier, as a constant that other
    /// constants can build on.
    pub const DEFAULT: ExecOptions = ExecOptions {
        fuel: 1 << 32,
        stack_bytes: 4 << 20,
        tier: Tier::Tree,
    };
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::DEFAULT
    }
}

/// The result of a completed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Value returned by the entry function (0 for void entries).
    pub ret: i64,
    /// Values printed via the `print_i64` builtin.
    pub output: Vec<i64>,
    /// Checksum accumulated by the `sink` builtin.
    pub checksum: u64,
    /// Instructions retired (program instructions; excludes modeled
    /// call-overhead instructions, which `hlo-sim` adds).
    pub retired: u64,
}

/// Bytes of stack charged per activation beyond declared slots (models the
/// frame-marker/save area; also bounds recursion depth).
pub(crate) const FRAME_OVERHEAD_BYTES: u64 = 32;

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<i64>,
    slot_addrs: Vec<u64>,
    /// Stack pointer to restore when this frame pops.
    saved_sp: u64,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
}

/// Runs `p` from its entry with the given arguments and no monitor.
///
/// # Errors
/// Returns a [`Trap`] on any run-time fault, missing entry, or fuel
/// exhaustion.
pub fn run_program(p: &Program, args: &[i64], opts: &ExecOptions) -> Result<ExecOutcome, Trap> {
    run_with_monitor(p, args, opts, &mut NullMonitor)
}

#[inline]
fn ev(op: Operand, regs: &[i64], mem: &Memory) -> i64 {
    match op {
        Operand::Reg(r) => regs[r.index()],
        Operand::Const(c) => const_value(c, mem),
    }
}

/// Runs `p` from its entry, reporting every dynamic event to `monitor`.
/// `opts.tier` selects the engine; both tiers produce identical outcomes,
/// traps, and monitor event streams.
///
/// # Errors
/// Returns a [`Trap`] on any run-time fault, missing entry, or fuel
/// exhaustion.
pub fn run_with_monitor<M: ExecMonitor>(
    p: &Program,
    args: &[i64],
    opts: &ExecOptions,
    monitor: &mut M,
) -> Result<ExecOutcome, Trap> {
    match opts.tier {
        Tier::Tree => run_tree(p, args, opts, monitor),
        Tier::Bytecode => {
            let bc = crate::bytecode::BytecodeProgram::compile(p);
            crate::exec::run_bytecode(&bc, p, args, opts, monitor)
        }
    }
}

/// The tree-walking reference interpreter (tier `tree`).
pub(crate) fn run_tree<M: ExecMonitor>(
    p: &Program,
    args: &[i64],
    opts: &ExecOptions,
    monitor: &mut M,
) -> Result<ExecOutcome, Trap> {
    let entry = p.entry.ok_or_else(|| Trap::new(TrapKind::NoEntry))?;
    let mut mem = Memory::new(p, opts.stack_bytes);
    let mut sp = mem.stack_top();
    let mut builtins = BuiltinState::default();
    let mut fuel = opts.fuel;
    let mut retired = 0u64;

    let mut frames: Vec<Frame> = Vec::with_capacity(64);
    push_frame(
        p,
        entry,
        args,
        &mut sp,
        mem.stack_limit(),
        None,
        &mut frames,
    )
    .map_err(|t| in_func(t, p, entry))?;
    monitor.block(entry, BlockId(0));

    let final_ret;
    loop {
        let (func_id, cur_block, cur_idx) = {
            let t = frames.last().expect("active frame");
            (t.func, t.block, t.idx)
        };
        let f = p.func(func_id);
        let inst = match f.blocks[cur_block.index()].insts.get(cur_idx) {
            Some(i) => i,
            // Unreachable for verified programs; stay panic-free anyway.
            None => return Err(in_func(Trap::new(TrapKind::Abort), p, func_id)),
        };
        let site = SiteId {
            func: func_id,
            block: cur_block,
            inst: cur_idx,
        };
        if fuel == 0 {
            return Err(in_func(Trap::new(TrapKind::FuelExhausted), p, func_id));
        }
        fuel -= 1;
        retired += 1;
        monitor.inst(site);

        match inst {
            Inst::Const { dst, value } => {
                let v = const_value(*value, &mem);
                let fr = frames.last_mut().expect("frame");
                fr.regs[dst.index()] = v;
                fr.idx += 1;
            }
            Inst::Copy { dst, src } => {
                let fr = frames.last_mut().expect("frame");
                let v = ev(*src, &fr.regs, &mem);
                fr.regs[dst.index()] = v;
                fr.idx += 1;
            }
            Inst::Bin { dst, op, a, b } => {
                let fr = frames.last_mut().expect("frame");
                let x = ev(*a, &fr.regs, &mem);
                let y = ev(*b, &fr.regs, &mem);
                let v = eval_bin(*op, x, y).map_err(|t| in_func(t, p, func_id))?;
                fr.regs[dst.index()] = v;
                fr.idx += 1;
            }
            Inst::Un { dst, op, a } => {
                let fr = frames.last_mut().expect("frame");
                let x = ev(*a, &fr.regs, &mem);
                fr.regs[dst.index()] = eval_un(*op, x);
                fr.idx += 1;
            }
            Inst::Load { dst, base, offset } => {
                let fr = frames.last_mut().expect("frame");
                let addr =
                    ev(*base, &fr.regs, &mem).wrapping_add(ev(*offset, &fr.regs, &mem)) as u64;
                monitor.mem(addr, false);
                let v = mem.load(addr).map_err(|t| in_func(t, p, func_id))?;
                let fr = frames.last_mut().expect("frame");
                fr.regs[dst.index()] = v;
                fr.idx += 1;
            }
            Inst::Store {
                base,
                offset,
                value,
            } => {
                let fr = frames.last().expect("frame");
                let addr =
                    ev(*base, &fr.regs, &mem).wrapping_add(ev(*offset, &fr.regs, &mem)) as u64;
                let v = ev(*value, &fr.regs, &mem);
                monitor.mem(addr, true);
                mem.store(addr, v).map_err(|t| in_func(t, p, func_id))?;
                frames.last_mut().expect("frame").idx += 1;
            }
            Inst::FrameAddr { dst, slot } => {
                let fr = frames.last_mut().expect("frame");
                fr.regs[dst.index()] = fr.slot_addrs[slot.index()] as i64;
                fr.idx += 1;
            }
            Inst::Alloca { dst, bytes } => {
                let fr = frames.last().expect("frame");
                let n = ev(*bytes, &fr.regs, &mem).max(0) as u64;
                let n = (n + 7) & !7;
                if sp < mem.stack_limit() + n {
                    return Err(in_func(Trap::new(TrapKind::StackOverflow), p, func_id));
                }
                sp -= n;
                let fr = frames.last_mut().expect("frame");
                fr.regs[dst.index()] = sp as i64;
                fr.idx += 1;
            }
            Inst::Call { dst, callee, args } => {
                // Evaluate target and arguments with the caller frame.
                enum Target {
                    Program(FuncId, CallKind),
                    External(hlo_ir::ExternId),
                }
                let (target, argv) = {
                    let fr = frames.last().expect("frame");
                    let target = match callee {
                        Callee::Func(t) => Target::Program(*t, CallKind::Direct),
                        Callee::Extern(e) => Target::External(*e),
                        Callee::Indirect(op) => {
                            let v = ev(*op, &fr.regs, &mem);
                            if v & CODE_BASE == CODE_BASE
                                && ((v & !CODE_BASE) as u64) < p.funcs.len() as u64
                            {
                                Target::Program(FuncId((v & !CODE_BASE) as u32), CallKind::Indirect)
                            } else {
                                return Err(in_func(
                                    Trap::new(TrapKind::BadIndirect { value: v }),
                                    p,
                                    func_id,
                                ));
                            }
                        }
                    };
                    let argv: Vec<i64> = args.iter().map(|a| ev(*a, &fr.regs, &mem)).collect();
                    (target, argv)
                };
                let dst = *dst;
                frames.last_mut().expect("frame").idx += 1; // resume point
                match target {
                    Target::Program(t, kind) => {
                        let callee_fn = p.func(t);
                        monitor.call(site, t, kind, callee_fn.num_regs, argv.len());
                        push_frame(p, t, &argv, &mut sp, mem.stack_limit(), dst, &mut frames)
                            .map_err(|t| in_func(t, p, func_id))?;
                        monitor.block(t, BlockId(0));
                    }
                    Target::External(e) => {
                        monitor.extern_call(site, e);
                        let name = &p.ext(e).name;
                        let r = call_builtin(&mut builtins, name, &argv)
                            .map_err(|t| in_func(t, p, func_id))?;
                        if let Some(d) = dst {
                            frames.last_mut().expect("frame").regs[d.index()] = r;
                        }
                    }
                }
            }
            Inst::Ret { value } => {
                let v = {
                    let fr = frames.last().expect("frame");
                    match value {
                        Some(op) => ev(*op, &fr.regs, &mem),
                        None => 0,
                    }
                };
                let regs = f.num_regs;
                let frame = frames.pop().expect("frame exists");
                sp = frame.saved_sp;
                monitor.ret(func_id, regs);
                match frames.last_mut() {
                    Some(caller) => {
                        if let Some(d) = frame.ret_dst {
                            caller.regs[d.index()] = v;
                        }
                    }
                    None => {
                        final_ret = v;
                        break;
                    }
                }
            }
            Inst::Jump { target } => {
                let t = *target;
                monitor.jump(site, t);
                monitor.edge(func_id, cur_block, t);
                let fr = frames.last_mut().expect("frame");
                fr.block = t;
                fr.idx = 0;
                monitor.block(func_id, t);
            }
            Inst::Br { cond, then_, else_ } => {
                let fr = frames.last_mut().expect("frame");
                let c = ev(*cond, &fr.regs, &mem) != 0;
                let t = if c { *then_ } else { *else_ };
                fr.block = t;
                fr.idx = 0;
                monitor.cond_branch(site, c);
                monitor.edge(func_id, cur_block, t);
                monitor.block(func_id, t);
            }
        }
    }

    Ok(ExecOutcome {
        ret: final_ret,
        output: builtins.output,
        checksum: builtins.checksum,
        retired,
    })
}

pub(crate) fn in_func(mut t: Trap, p: &Program, f: FuncId) -> Trap {
    if t.func.is_none() {
        t.func = Some(p.func(f).name.clone());
    }
    t
}

fn push_frame(
    p: &Program,
    func: FuncId,
    args: &[i64],
    sp: &mut u64,
    stack_limit: u64,
    ret_dst: Option<Reg>,
    frames: &mut Vec<Frame>,
) -> Result<(), Trap> {
    let f = p.func(func);
    let saved_sp = *sp;
    let mut need = FRAME_OVERHEAD_BYTES;
    for &s in &f.slots {
        need += ((s as u64) + 7) & !7;
    }
    if *sp < stack_limit + need {
        return Err(Trap::new(TrapKind::StackOverflow));
    }
    *sp -= need;
    let mut slot_addrs = Vec::with_capacity(f.slots.len());
    let mut cursor = *sp;
    for &s in &f.slots {
        slot_addrs.push(cursor);
        cursor += ((s as u64) + 7) & !7;
    }
    let mut regs = vec![0i64; f.num_regs as usize];
    // Missing arguments read as 0, extras are dropped: arity-mismatched
    // programs keep running (the paper preserves semantically incorrect
    // programs; HLO just refuses to inline or clone such sites).
    let n = (f.params as usize).min(args.len());
    regs[..n].copy_from_slice(&args[..n]);
    frames.push(Frame {
        func,
        block: BlockId(0),
        idx: 0,
        regs,
        slot_addrs,
        saved_sp,
        ret_dst,
    });
    Ok(())
}

fn const_value(c: ConstVal, mem: &Memory) -> i64 {
    match c {
        ConstVal::I64(v) => v,
        ConstVal::F64(b) => b.0 as i64,
        ConstVal::FuncAddr(f) => CODE_BASE | f.0 as i64,
        ConstVal::GlobalAddr(g) => mem.layout().addr(g) as i64,
    }
}

#[inline(always)]
pub(crate) fn eval_bin(op: BinOp, x: i64, y: i64) -> Result<i64, Trap> {
    let f = |v: i64| f64::from_bits(v as u64);
    let b = |v: f64| v.to_bits() as i64;
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(Trap::new(TrapKind::DivByZero));
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(Trap::new(TrapKind::DivByZero));
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl((y & 63) as u32),
        BinOp::Shr => x.wrapping_shr((y & 63) as u32),
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::FAdd => b(f(x) + f(y)),
        BinOp::FSub => b(f(x) - f(y)),
        BinOp::FMul => b(f(x) * f(y)),
        BinOp::FDiv => b(f(x) / f(y)),
        BinOp::FLt => (f(x) < f(y)) as i64,
        BinOp::FEq => (f(x) == f(y)) as i64,
    })
}

#[inline(always)]
pub(crate) fn eval_un(op: UnOp, x: i64) -> i64 {
    match op {
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Not => !x,
        UnOp::FNeg => (-f64::from_bits(x as u64)).to_bits() as i64,
        UnOp::IToF => (x as f64).to_bits() as i64,
        UnOp::FToI => {
            let v = f64::from_bits(x as u64);
            if v.is_nan() {
                0
            } else {
                v as i64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{ConstVal, FunctionBuilder, Linkage, ProgramBuilder, Type};

    fn build_fact() -> Program {
        // fact(n) = n <= 1 ? 1 : n * fact(n - 1); main() = fact(10)
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![Operand::imm(10)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));

        let mut fact = FunctionBuilder::new("fact", m, 1);
        let e = fact.entry_block();
        let base = fact.new_block();
        let rec = fact.new_block();
        let n = Operand::Reg(fact.param(0));
        let c = fact.bin(e, BinOp::Le, n, Operand::imm(1));
        fact.br(e, c.into(), base, rec);
        fact.ret(base, Some(Operand::imm(1)));
        let n1 = fact.bin(rec, BinOp::Sub, n, Operand::imm(1));
        let sub = fact.call(rec, FuncId(1), vec![n1.into()]);
        let prod = fact.bin(rec, BinOp::Mul, n, sub.into());
        fact.ret(rec, Some(prod.into()));
        pb.add_function(fact.finish(Linkage::Public, Type::I64));
        pb.finish(Some(FuncId(0)))
    }

    #[test]
    fn recursion_works() {
        let p = build_fact();
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 3_628_800);
        assert!(out.retired > 10);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let p = build_fact();
        let err = run_program(
            &p,
            &[],
            &ExecOptions {
                fuel: 5,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err.kind, TrapKind::FuelExhausted));
    }

    #[test]
    fn stack_overflow_on_infinite_recursion() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        f.call_void(e, FuncId(0), vec![]);
        f.ret(e, None);
        pb.add_function(f.finish(Linkage::Public, Type::Void));
        let p = pb.finish(Some(FuncId(0)));
        let err = run_program(&p, &[], &ExecOptions::default()).unwrap_err();
        assert!(matches!(err.kind, TrapKind::StackOverflow));
    }

    #[test]
    fn div_by_zero_traps_with_function_name() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        let q = f.bin(e, BinOp::Div, Operand::imm(1), Operand::imm(0));
        f.ret(e, Some(q.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let err = run_program(&p, &[], &ExecOptions::default()).unwrap_err();
        assert!(matches!(err.kind, TrapKind::DivByZero));
        assert_eq!(err.func.as_deref(), Some("main"));
    }

    #[test]
    fn globals_load_store() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 2, vec![5, 0]);
        let mut f = FunctionBuilder::new("main", m, 0);
        let e = f.entry_block();
        let ga = f.const_(e, ConstVal::GlobalAddr(g));
        let v = f.load(e, ga.into(), Operand::imm(0));
        let v2 = f.bin(e, BinOp::Add, v.into(), Operand::imm(1));
        f.store(e, ga.into(), Operand::imm(8), v2.into());
        let back = f.load(e, ga.into(), Operand::imm(8));
        f.ret(e, Some(back.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 6);
    }

    #[test]
    fn frame_slots_are_private_per_activation() {
        // rec(n): slot x = n; if n > 0 { rec(n-1) }; return x  -- if frames
        // shared slots the inner call would clobber the outer x.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![Operand::imm(3)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));

        let mut rec = FunctionBuilder::new("rec", m, 1);
        let s = rec.new_slot(8);
        let e = rec.entry_block();
        let then_b = rec.new_block();
        let join = rec.new_block();
        let n = Operand::Reg(rec.param(0));
        let a = rec.frame_addr(e, s);
        rec.store(e, a.into(), Operand::imm(0), n);
        let c = rec.bin(e, BinOp::Gt, n, Operand::imm(0));
        rec.br(e, c.into(), then_b, join);
        let n1 = rec.bin(then_b, BinOp::Sub, n, Operand::imm(1));
        let _ = rec.call(then_b, FuncId(1), vec![n1.into()]);
        rec.jump(then_b, join);
        let a2 = rec.frame_addr(join, s);
        let v = rec.load(join, a2.into(), Operand::imm(0));
        rec.ret(join, Some(v.into()));
        pb.add_function(rec.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 3);
    }

    #[test]
    fn indirect_call_through_table() {
        // main: fp = &id; fp(99)
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let fp = main.const_(e, ConstVal::FuncAddr(FuncId(1)));
        let r = main.call_indirect(e, fp.into(), vec![Operand::imm(99)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut id = FunctionBuilder::new("id", m, 1);
        let e = id.entry_block();
        id.ret(e, Some(Operand::Reg(id.param(0))));
        pb.add_function(id.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 99);
    }

    #[test]
    fn bad_indirect_traps() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call_indirect(e, Operand::imm(12345), vec![]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let err = run_program(&p, &[], &ExecOptions::default()).unwrap_err();
        assert!(matches!(err.kind, TrapKind::BadIndirect { value: 12345 }));
    }

    #[test]
    fn extern_builtins_and_output() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let pr = pb.declare_extern("print_i64", Some(1), false);
        let sink = pb.declare_extern("sink", Some(1), false);
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        main.call_extern(e, pr, vec![Operand::imm(7)], false);
        main.call_extern(e, sink, vec![Operand::imm(9)], false);
        main.ret(e, None);
        pb.add_function(main.finish(Linkage::Public, Type::Void));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.output, vec![7]);
        assert_ne!(out.checksum, 0);
    }

    #[test]
    fn arity_mismatch_reads_zero() {
        // main calls two_param with a single argument; param 1 must read 0.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![Operand::imm(5)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut f = FunctionBuilder::new("two", m, 2);
        let e = f.entry_block();
        let s = f.bin(
            e,
            BinOp::Add,
            Operand::Reg(f.param(0)),
            Operand::Reg(f.param(1)),
        );
        f.ret(e, Some(s.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 5);
    }

    #[test]
    fn float_arithmetic_roundtrips() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let x = main.un(e, UnOp::IToF, Operand::imm(3));
        let y = main.un(e, UnOp::IToF, Operand::imm(4));
        let s = main.bin(e, BinOp::FMul, x.into(), y.into());
        let r = main.un(e, UnOp::FToI, s.into());
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 12);
    }

    #[test]
    fn alloca_allocates_distinct_memory() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let a = main.new_reg();
        main.push(
            e,
            Inst::Alloca {
                dst: a,
                bytes: Operand::imm(16),
            },
        );
        let b = main.new_reg();
        main.push(
            e,
            Inst::Alloca {
                dst: b,
                bytes: Operand::imm(16),
            },
        );
        main.store(e, a.into(), Operand::imm(0), Operand::imm(1));
        main.store(e, b.into(), Operand::imm(0), Operand::imm(2));
        let va = main.load(e, a.into(), Operand::imm(0));
        let vb = main.load(e, b.into(), Operand::imm(0));
        let s = main.bin(e, BinOp::Add, va.into(), vb.into());
        main.ret(e, Some(s.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 3);
    }

    #[test]
    fn monitor_sees_calls_and_branches() {
        #[derive(Default)]
        struct Rec {
            calls: usize,
            rets: usize,
            branches: usize,
            mems: usize,
        }
        impl ExecMonitor for Rec {
            fn call(&mut self, _s: SiteId, _c: FuncId, _k: CallKind, _r: u32, _n: usize) {
                self.calls += 1;
            }
            fn ret(&mut self, _f: FuncId, _r: u32) {
                self.rets += 1;
            }
            fn cond_branch(&mut self, _s: SiteId, _t: bool) {
                self.branches += 1;
            }
            fn mem(&mut self, _a: u64, _w: bool) {
                self.mems += 1;
            }
        }
        let p = build_fact();
        let mut r = Rec::default();
        run_with_monitor(&p, &[], &ExecOptions::default(), &mut r).unwrap();
        assert_eq!(r.calls, 10); // fact(10)..fact(1)
        assert_eq!(r.rets, 11); // + main
        assert_eq!(r.branches, 10);
        assert_eq!(r.mems, 0);
    }

    #[test]
    fn bytecode_tier_matches_tree_on_fact() {
        let p = build_fact();
        let tree = run_program(&p, &[], &ExecOptions::default()).unwrap();
        let bc = run_program(
            &p,
            &[],
            &ExecOptions {
                tier: Tier::Bytecode,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(tree, bc);
    }

    #[test]
    fn bytecode_tier_fuel_parity_on_fact() {
        // At every fuel level the two tiers agree on the full result —
        // same outcome (incl. retired count) or the same trap in the
        // same function.
        let p = build_fact();
        for fuel in 0..120 {
            let a = run_program(
                &p,
                &[],
                &ExecOptions {
                    fuel,
                    ..Default::default()
                },
            );
            let b = run_program(
                &p,
                &[],
                &ExecOptions {
                    fuel,
                    tier: Tier::Bytecode,
                    ..Default::default()
                },
            );
            assert_eq!(a, b, "tiers diverged at fuel {fuel}");
        }
    }

    #[test]
    fn void_callee_result_reads_zero() {
        // A call that expects a result from a void function gets 0.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut v = FunctionBuilder::new("v", m, 0);
        let e = v.entry_block();
        v.ret(e, None);
        pb.add_function(v.finish(Linkage::Public, Type::Void));
        let p = pb.finish(Some(FuncId(0)));
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 0);
    }
}
