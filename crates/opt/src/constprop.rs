//! Dataflow constant propagation and folding.
//!
//! The lattice per register is `Top` (undefined on every path so far),
//! `Const(c)` (same compile-time constant on all paths), or `Bottom`
//! (varies). `ConstVal::FuncAddr` participates fully: when a cloned
//! function binds a function-pointer formal, the constant flows to the
//! indirect call and [`propagate`] rewrites it into a direct call — the
//! enabling step of the paper's staged indirect-call promotion.

use crate::pipeline::Solved;
use hlo_analysis::Cfg;
use hlo_ir::{BinOp, Callee, ConstVal, Function, Inst, Operand, UnOp};

/// Lattice value for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lat {
    Top,
    Const(ConstVal),
    Bottom,
}

impl Lat {
    pub(crate) fn meet(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Top, x) | (x, Lat::Top) => x,
            (Lat::Const(a), Lat::Const(b)) if a == b => Lat::Const(a),
            _ => Lat::Bottom,
        }
    }
}

/// Outcome of one propagation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstPropStats {
    /// Register uses replaced by immediates.
    pub uses_folded: u64,
    /// Instructions strength-reduced to `Const`.
    pub insts_folded: u64,
    /// Conditional branches with known condition rewritten to jumps.
    pub branches_folded: u64,
    /// Indirect calls promoted to direct calls.
    pub indirect_promoted: u64,
}

impl ConstPropStats {
    /// True when the pass changed the function.
    pub fn changed(&self) -> bool {
        self.uses_folded + self.insts_folded + self.branches_folded + self.indirect_promoted > 0
    }
}

/// Runs constant propagation on `f`, rewriting in place.
///
/// A register's value at a block's entry is read only when the register
/// is live there, and a live register's value there depends only on the
/// predecessors' live registers. So the worklist meets only the
/// registers live into each successor: the fixpoint is the full one
/// restricted to live registers, and the rewrite cannot tell them apart.
pub fn propagate(f: &mut Function) -> ConstPropStats {
    if f.blocks.is_empty() {
        return ConstPropStats::default();
    }
    let solved = Solved::of(f);
    propagate_solved(f, &solved, &mut Scratch::default())
}

/// The buffers a run's propagations clear and reuse: the in-states, the
/// walk's state, its worklist and its flags.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    ins: Vec<Lat>,
    state: Vec<Lat>,
    on_list: Vec<bool>,
    visited: Vec<bool>,
    work: Vec<usize>,
}

/// [`propagate`] on `solved`, the graph and liveness of `f` as it stands,
/// in `scratch`'s buffers. `f` has at least one block.
pub(crate) fn propagate_solved(
    f: &mut Function,
    solved: &Solved,
    scratch: &mut Scratch,
) -> ConstPropStats {
    let nregs = f.num_regs as usize;
    let nblocks = f.blocks.len();
    let (cfg, live) = (&solved.cfg, &solved.live);
    let Scratch {
        ins,
        state,
        on_list,
        visited,
        work,
    } = scratch;

    // In-states, block-major: block `b`'s are `ins[b * nregs..][..nregs]`.
    // Entry: params unknown (Bottom), others Top.
    ins.clear();
    ins.resize(nblocks * nregs, Lat::Top);
    for l in ins[..nregs].iter_mut().take(f.params as usize) {
        *l = Lat::Bottom;
    }

    // Worklist fixpoint.
    on_list.clear();
    on_list.resize(nblocks, false);
    work.clear();
    work.push(0);
    on_list[0] = true;
    // Entry is always "visited"; others only after a predecessor flows in.
    visited.clear();
    visited.resize(nblocks, false);
    visited[0] = true;
    state.clear();
    state.resize(nregs, Lat::Top);

    while let Some(b) = work.pop() {
        on_list[b] = false;
        state.copy_from_slice(&ins[b * nregs..(b + 1) * nregs]);
        for inst in &f.blocks[b].insts {
            transfer(inst, state);
        }
        for &si in cfg.succs(b) {
            let into = &mut ins[si * nregs..(si + 1) * nregs];
            let mut changed = false;
            if !visited[si] {
                // The first arrival copies: a meet with Top.
                visited[si] = true;
                into.copy_from_slice(state);
                changed = true;
            } else {
                for r in live.live_in(si).iter() {
                    let m = into[r].meet(state[r]);
                    if m != into[r] {
                        into[r] = m;
                        changed = true;
                    }
                }
            }
            if changed && !on_list[si] {
                on_list[si] = true;
                work.push(si);
            }
        }
    }
    rewrite(f, ins, visited, state)
}

/// Folds `f` by the solved block-entry states (`ins`, block-major) of the
/// blocks the solve reached, then repairs the profile if a branch folded.
/// `state` is a buffer of `f.num_regs` lattice values.
pub(crate) fn rewrite(
    f: &mut Function,
    ins: &[Lat],
    visited: &[bool],
    state: &mut [Lat],
) -> ConstPropStats {
    let nregs = f.num_regs as usize;
    let mut stats = ConstPropStats::default();
    for (b, block) in f.blocks.iter_mut().enumerate() {
        if !visited[b] {
            continue; // unreachable; simplify_cfg removes it
        }
        state.copy_from_slice(&ins[b * nregs..(b + 1) * nregs]);
        for inst in &mut block.insts {
            // Replace register uses that are known constants.
            inst.for_each_use_mut(|op| {
                if let Operand::Reg(r) = *op {
                    if let Lat::Const(c) = state[r.index()] {
                        *op = Operand::Const(c);
                        stats.uses_folded += 1;
                    }
                }
            });
            // Fold whole instructions.
            match inst {
                Inst::Bin { dst, op, a, b } => {
                    if let (Operand::Const(ca), Operand::Const(cb)) = (*a, *b) {
                        if let Some(c) = fold_bin(*op, ca, cb) {
                            *inst = Inst::Const {
                                dst: *dst,
                                value: c,
                            };
                            stats.insts_folded += 1;
                        }
                    }
                }
                Inst::Un {
                    dst,
                    op,
                    a: Operand::Const(ca),
                } => {
                    if let Some(c) = fold_un(*op, *ca) {
                        *inst = Inst::Const {
                            dst: *dst,
                            value: c,
                        };
                        stats.insts_folded += 1;
                    }
                }
                Inst::Copy {
                    dst,
                    src: Operand::Const(c),
                } => {
                    *inst = Inst::Const {
                        dst: *dst,
                        value: *c,
                    };
                    stats.insts_folded += 1;
                }
                Inst::Br { cond, then_, else_ } => {
                    if let Operand::Const(c) = *cond {
                        let taken = const_truthy(c);
                        let target = if taken { *then_ } else { *else_ };
                        *inst = Inst::Jump { target };
                        stats.branches_folded += 1;
                    } else if then_ == else_ {
                        *inst = Inst::Jump { target: *then_ };
                        stats.branches_folded += 1;
                    }
                }
                Inst::Call { callee, .. } => {
                    if let Callee::Indirect(Operand::Const(ConstVal::FuncAddr(t))) = callee {
                        *callee = Callee::Func(*t);
                        stats.indirect_promoted += 1;
                    }
                }
                _ => {}
            }
            transfer(inst, state);
        }
    }
    if stats.branches_folded > 0 {
        repair_profile(f);
    }
    stats
}

/// Folding a branch disconnects CFG edges, which can strand profile
/// estimates: a loop header annotated for N iterations keeps its count
/// after the back edge is proven dead, violating flow conservation
/// (checked by `hlo-lint`). Zero the counts of blocks that became
/// unreachable and clamp every reachable block to its inflow (entry count
/// plus reachable-predecessor counts). The clamp is swept in block order
/// until fixpoint; deficits only propagate along acyclic paths — a cycle
/// justifies its members through its own back edge — so `n` sweeps
/// suffice.
fn repair_profile(f: &mut Function) {
    let n = f.blocks.len();
    match &f.profile {
        Some(p) if p.blocks.len() == n => {}
        _ => return,
    }
    let cfg = Cfg::new(f);
    let reach = cfg.reachable();
    let p = f.profile.as_mut().expect("checked above");
    for (b, r) in reach.iter().enumerate() {
        if !r {
            p.blocks[b] = 0.0;
        }
    }
    for _ in 0..n {
        let mut changed = false;
        for b in (0..n).filter(|&b| reach[b]) {
            let mut inflow = if b == 0 { p.entry } else { 0.0 };
            for &pr in cfg.preds(b).iter().filter(|&&pr| reach[pr]) {
                inflow += p.blocks[pr];
            }
            if p.blocks[b] > inflow {
                p.blocks[b] = inflow;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

pub(crate) fn transfer(inst: &Inst, state: &mut [Lat]) {
    if let Some(d) = inst.dst() {
        let v = match inst {
            Inst::Const { value, .. } => Lat::Const(*value),
            Inst::Copy { src, .. } => operand_lat(*src, state),
            Inst::Bin { op, a, b, .. } => match (operand_lat(*a, state), operand_lat(*b, state)) {
                (Lat::Const(ca), Lat::Const(cb)) => {
                    fold_bin(*op, ca, cb).map(Lat::Const).unwrap_or(Lat::Bottom)
                }
                (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
                _ => Lat::Bottom,
            },
            Inst::Un { op, a, .. } => match operand_lat(*a, state) {
                Lat::Const(c) => fold_un(*op, c).map(Lat::Const).unwrap_or(Lat::Bottom),
                Lat::Top => Lat::Top,
                Lat::Bottom => Lat::Bottom,
            },
            // Loads, calls, frame addresses and allocas produce run-time
            // values.
            _ => Lat::Bottom,
        };
        state[d.index()] = v;
    }
}

fn operand_lat(op: Operand, state: &[Lat]) -> Lat {
    match op {
        Operand::Reg(r) => state[r.index()],
        Operand::Const(c) => Lat::Const(c),
    }
}

/// Truthiness matching the VM exactly: the raw 64-bit value is compared
/// with zero (`F64(+0.0)` is false, `F64(-0.0)` is true, addresses are
/// true).
fn const_truthy(c: ConstVal) -> bool {
    match c {
        ConstVal::I64(v) => v != 0,
        ConstVal::F64(b) => b.0 != 0,
        ConstVal::FuncAddr(_) | ConstVal::GlobalAddr(_) => true,
    }
}

/// Folds `a <op> b` when the result is expressible as a constant, matching
/// the VM's wrapping semantics. Division by zero is never folded (it must
/// trap at run time).
pub(crate) fn fold_bin(op: BinOp, a: ConstVal, b: ConstVal) -> Option<ConstVal> {
    use ConstVal::*;
    // Symbolic equality for addresses (distinct symbols never alias).
    match (op, a, b) {
        (BinOp::Eq, FuncAddr(x), FuncAddr(y)) => return Some(I64((x == y) as i64)),
        (BinOp::Ne, FuncAddr(x), FuncAddr(y)) => return Some(I64((x != y) as i64)),
        (BinOp::Eq, GlobalAddr(x), GlobalAddr(y)) => return Some(I64((x == y) as i64)),
        (BinOp::Ne, GlobalAddr(x), GlobalAddr(y)) => return Some(I64((x != y) as i64)),
        _ => {}
    }
    if op.is_float() {
        let (x, y) = match (a, b) {
            (F64(x), F64(y)) => (x.to_f64(), y.to_f64()),
            _ => return None,
        };
        return Some(match op {
            BinOp::FAdd => ConstVal::float(x + y),
            BinOp::FSub => ConstVal::float(x - y),
            BinOp::FMul => ConstVal::float(x * y),
            BinOp::FDiv => ConstVal::float(x / y),
            BinOp::FLt => I64((x < y) as i64),
            BinOp::FEq => I64((x == y) as i64),
            _ => unreachable!(),
        });
    }
    let (x, y) = match (a, b) {
        (I64(x), I64(y)) => (x, y),
        _ => return None,
    };
    Some(I64(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
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
        _ => unreachable!(),
    }))
}

pub(crate) fn fold_un(op: UnOp, a: ConstVal) -> Option<ConstVal> {
    use ConstVal::*;
    Some(match (op, a) {
        (UnOp::Neg, I64(x)) => I64(x.wrapping_neg()),
        (UnOp::Not, I64(x)) => I64(!x),
        (UnOp::FNeg, F64(b)) => ConstVal::float(-b.to_f64()),
        (UnOp::IToF, I64(x)) => ConstVal::float(x as f64),
        (UnOp::FToI, F64(b)) => {
            let v = b.to_f64();
            I64(if v.is_nan() { 0 } else { v as i64 })
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FuncId, FunctionBuilder, Linkage, ModuleId, Type};

    #[test]
    fn folds_straightline_arithmetic() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let a = fb.iconst(e, 6);
        let b = fb.iconst(e, 7);
        let p = fb.bin(e, BinOp::Mul, a.into(), b.into());
        fb.ret(e, Some(p.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = propagate(&mut f);
        assert!(st.changed());
        match &f.blocks[0].insts[3] {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::imm(42))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn folds_constant_branch() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let t = fb.new_block();
        let z = fb.new_block();
        let c = fb.iconst(e, 0);
        fb.br(e, c.into(), t, z);
        fb.ret(t, Some(Operand::imm(1)));
        fb.ret(z, Some(Operand::imm(2)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = propagate(&mut f);
        assert_eq!(st.branches_folded, 1);
        assert!(matches!(f.blocks[0].insts.last(), Some(Inst::Jump { target }) if *target == z));
    }

    #[test]
    fn folding_a_dead_loop_repairs_the_profile() {
        // while (0) { }: entry -> header; header -> body | exit on a
        // constant-false condition; body -> header. The static estimate
        // gives the header a looping count; once the branch folds, the
        // body is unreachable and the header must drop to its acyclic
        // inflow or the flow-conservation lint fires mid-pipeline.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(e, header);
        let c = fb.iconst(header, 0);
        fb.br(header, c.into(), body, exit);
        fb.jump(body, header);
        fb.ret(exit, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        f.profile = Some(hlo_ir::FuncProfile {
            entry: 1.0,
            blocks: vec![1.0, 11.0, 10.0, 1.0],
        });
        let st = propagate(&mut f);
        assert_eq!(st.branches_folded, 1);
        let p = f.profile.as_ref().unwrap();
        assert_eq!(p.blocks, vec![1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn promotes_indirect_call_with_known_target() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let fp = fb.const_(e, ConstVal::FuncAddr(FuncId(3)));
        let r = fb.call_indirect(e, fp.into(), vec![Operand::imm(1)]);
        fb.ret(e, Some(r.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = propagate(&mut f);
        assert_eq!(st.indirect_promoted, 1);
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Call {
                callee: Callee::Func(FuncId(3)),
                ..
            }
        )));
    }

    #[test]
    fn does_not_fold_div_by_zero() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let q = fb.bin(e, BinOp::Div, Operand::imm(1), Operand::imm(0));
        fb.ret(e, Some(q.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate(&mut f);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn merges_over_join_points() {
        // r set to 5 on both arms -> use after join folds to 5.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let a = fb.new_block();
        let b = fb.new_block();
        let j = fb.new_block();
        let r = fb.new_reg();
        fb.br(e, Operand::Reg(fb.param(0)), a, b);
        fb.copy_to(a, r, Operand::imm(5));
        fb.jump(a, j);
        fb.copy_to(b, r, Operand::imm(5));
        fb.jump(b, j);
        let s = fb.bin(j, BinOp::Add, r.into(), Operand::imm(1));
        fb.ret(j, Some(s.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate(&mut f);
        match f.blocks[j.index()].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::imm(6))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn divergent_join_stays_runtime() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let a = fb.new_block();
        let b = fb.new_block();
        let j = fb.new_block();
        let r = fb.new_reg();
        fb.br(e, Operand::Reg(fb.param(0)), a, b);
        fb.copy_to(a, r, Operand::imm(5));
        fb.jump(a, j);
        fb.copy_to(b, r, Operand::imm(6));
        fb.jump(b, j);
        fb.ret(j, Some(r.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate(&mut f);
        match f.blocks[j.index()].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::Reg(r))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn loop_carried_register_not_folded() {
        // i = 0; while (i < p) i = i + 1; ret i  -- i must stay Bottom.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.new_reg();
        fb.copy_to(e, i, Operand::imm(0));
        fb.jump(e, h);
        let c = fb.bin(h, BinOp::Lt, i.into(), Operand::Reg(fb.param(0)));
        fb.br(h, c.into(), body, exit);
        let i1 = fb.bin(body, BinOp::Add, i.into(), Operand::imm(1));
        fb.copy_to(body, i, i1.into());
        fb.jump(body, h);
        fb.ret(exit, Some(i.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        propagate(&mut f);
        match f.blocks[exit.index()].insts.last().unwrap() {
            Inst::Ret { value } => assert_eq!(*value, Some(Operand::Reg(i))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn float_zero_truthiness_matches_vm() {
        assert!(!const_truthy(ConstVal::float(0.0)));
        assert!(const_truthy(ConstVal::float(-0.0)));
        assert!(const_truthy(ConstVal::FuncAddr(FuncId(0))));
    }

    #[test]
    fn fold_matches_vm_for_shift_masking() {
        // Shl with count 65 must behave like the VM (mask to 1).
        assert_eq!(
            fold_bin(BinOp::Shl, ConstVal::int(1), ConstVal::int(65)),
            Some(ConstVal::int(2))
        );
    }

    #[test]
    fn same_arm_branch_becomes_jump() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let t = fb.new_block();
        fb.br(e, Operand::Reg(fb.param(0)), t, t);
        fb.ret(t, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        let st = propagate(&mut f);
        assert_eq!(st.branches_folded, 1);
    }
}
