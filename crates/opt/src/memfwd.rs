//! Store-to-load forwarding, and the optimizer's one model of which
//! registers hold which addresses.
//!
//! Within a block, a load from an address just stored to can read the
//! stored value directly. Aliasing is resolved conservatively from three
//! base classes that provably never overlap:
//!
//! * `Slot(s)` — a register holding the address of frame slot `s`;
//! * `Global(g)` — a `GlobalAddr` constant, or a register holding one;
//! * `Reg(r)` — any other register base: identical register ⇒ identical
//!   address (as long as `r` is not redefined), but unknown otherwise.
//!
//! The map of which registers hold which slot or global address
//! (`addr_regs`) is the optimizer's only one: [`crate::dead_slots`] and
//! [`crate::xcall`] read it too.
//!
//! Distinct slots never alias each other or globals; distinct globals
//! never alias; everything may alias a `Reg` base. Allocas clobber all
//! knowledge, and so do calls (the callee may write anything it can
//! reach), unless the walk is given interprocedural summaries: then a
//! direct call kills only what its callee's summary says it may write,
//! which is [`crate::xcall::forward_across_calls`].
//!
//! Forwarding is what turns an inlined callee's local-array traffic into
//! register dataflow; the dead stores and slots left behind are collected
//! by [`crate::dce`] and [`crate::dead_slots`].

use hlo_ipa::Summaries;
use hlo_ir::{Block, Callee, ConstVal, FuncId, Function, GlobalId, Inst, Operand, Reg, SlotId};

/// An alias class of memory bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BaseKey {
    Slot(SlotId),
    Global(GlobalId),
    Reg(Reg),
}

/// A store whose value a later load of the same address may read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Known {
    base: BaseKey,
    offset: i64,
    value: Operand,
}

/// Per register: the frame slot or global whose address it holds wherever
/// it is read (`Slot` or `Global`), or `None`. A register qualifies only
/// when every definition it has names the same base, whatever their
/// order; a parameter never does, since its incoming value is a
/// definition the body does not show.
pub(crate) fn addr_regs(f: &Function) -> Vec<Option<BaseKey>> {
    // `None` until a definition is seen; then `Some` of the base every
    // definition so far names, or `Some(None)` once one names none or
    // two disagree.
    let mut seen: Vec<Option<Option<BaseKey>>> = vec![None; f.num_regs as usize];
    for param in seen.iter_mut().take(f.params as usize) {
        *param = Some(None);
    }
    for inst in f.blocks.iter().flat_map(|b| &b.insts) {
        let Some(d) = inst.dst() else { continue };
        let named = match *inst {
            Inst::FrameAddr { slot, .. } => Some(BaseKey::Slot(slot)),
            Inst::Const {
                value: ConstVal::GlobalAddr(g),
                ..
            } => Some(BaseKey::Global(g)),
            _ => None,
        };
        let e = &mut seen[d.index()];
        *e = Some(match *e {
            Some(prev) if prev != named => None,
            _ => named,
        });
    }
    seen.into_iter().map(Option::flatten).collect()
}

/// The alias class of a load or store base; `None` for an absolute
/// integer address.
pub(crate) fn classify(base: &Operand, regs: &[Option<BaseKey>]) -> Option<BaseKey> {
    match base {
        Operand::Const(ConstVal::GlobalAddr(g)) => Some(BaseKey::Global(*g)),
        Operand::Reg(r) => Some(regs[r.index()].unwrap_or(BaseKey::Reg(*r))),
        Operand::Const(_) => None,
    }
}

/// Whether two alias classes may name overlapping memory.
pub(crate) fn may_alias(a: BaseKey, b: BaseKey) -> bool {
    match (a, b) {
        (BaseKey::Slot(x), BaseKey::Slot(y)) => x == y,
        (BaseKey::Global(x), BaseKey::Global(y)) => x == y,
        (BaseKey::Slot(_), BaseKey::Global(_)) | (BaseKey::Global(_), BaseKey::Slot(_)) => false,
        // A raw register base could point anywhere.
        _ => true,
    }
}

/// Runs store-to-load forwarding on `f`, forgetting everything at every
/// call. Returns loads replaced.
pub fn forward_stores(f: &mut Function) -> u64 {
    let regs = addr_regs(f);
    let mut known = Vec::new();
    f.blocks
        .iter_mut()
        .map(|b| forward_block(b, &regs, None, &mut known))
        .sum()
}

/// Forwards stores to later loads of the same address within `block`.
/// Without `summaries` every call clears what is known; with them a
/// direct call kills only what its callee may write. `known` is a buffer
/// the walk clears first. Returns loads replaced.
pub(crate) fn forward_block(
    block: &mut Block,
    regs: &[Option<BaseKey>],
    summaries: Option<&Summaries>,
    known: &mut Vec<Known>,
) -> u64 {
    let mut replaced = 0;
    known.clear();
    for inst in &mut block.insts {
        match inst {
            Inst::Store {
                base,
                offset,
                value,
            } => {
                let key = classify(base, regs);
                let off = offset.as_const().and_then(ConstVal::as_i64);
                match (key, off) {
                    (Some(k), Some(o)) => {
                        // Kill aliasing entries; exact match is replaced.
                        known.retain(|e| !may_alias(e.base, k) || (e.base == k && e.offset != o));
                        known.push(Known {
                            base: k,
                            offset: o,
                            value: *value,
                        });
                    }
                    (Some(k), None) => {
                        // Unknown offset within a known base: kills
                        // everything aliasing that base.
                        known.retain(|e| !may_alias(e.base, k));
                    }
                    _ => known.clear(),
                }
            }
            Inst::Load { dst, base, offset } => {
                let key = classify(base, regs);
                let off = offset.as_const().and_then(ConstVal::as_i64);
                if let (Some(k), Some(o)) = (key, off) {
                    if let Some(e) = known.iter().find(|e| e.base == k && e.offset == o) {
                        *inst = Inst::Copy {
                            dst: *dst,
                            src: e.value,
                        };
                        replaced += 1;
                    }
                }
            }
            Inst::Call { callee, args, .. } => {
                let screened = match (callee, summaries) {
                    (Callee::Func(t), Some(s)) => apply_call_kills(known, *t, args, regs, s),
                    _ => false,
                };
                if !screened {
                    known.clear();
                }
            }
            Inst::Alloca { .. } => known.clear(),
            _ => {}
        }
        // A redefined register invalidates entries reading it (value)
        // and entries whose Reg base is it. Slot/Global-keyed entries
        // survive: their identity does not depend on the register.
        if let Some(d) = inst.dst() {
            known.retain(|e| e.value.as_reg() != Some(d) && e.base != BaseKey::Reg(d));
        }
    }
    replaced
}

/// Applies a direct call's summary to the known-store set: kill exactly
/// what the callee may write instead of everything. Returns false when the
/// call is too opaque and the caller should clear the whole set.
fn apply_call_kills(
    known: &mut Vec<Known>,
    callee: FuncId,
    args: &[Operand],
    regs: &[Option<BaseKey>],
    summaries: &Summaries,
) -> bool {
    let ct = &summaries.funcs[callee.index()];
    if ct.writes_unknown || ct.calls_extern || ct.calls_indirect {
        return false;
    }
    for &g in &ct.mod_globals {
        known.retain(|e| !may_alias(e.base, BaseKey::Global(g)));
    }
    for (j, wrote) in ct.writes_params.iter().enumerate() {
        if !*wrote {
            continue;
        }
        // Missing arguments read as zero (writes through address 0 would
        // trap in the VM, but stay conservative and clear).
        let Some(arg) = args.get(j) else {
            return false;
        };
        match classify(arg, regs) {
            Some(k) => known.retain(|e| !may_alias(e.base, k)),
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FuncId, FunctionBuilder, Linkage, ModuleId, Type};

    #[test]
    fn forwards_through_frame_slot() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(16);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::Reg(fb.param(0)));
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 1);
        assert!(f.blocks[0]
            .insts
            .iter()
            .all(|i| !matches!(i, Inst::Load { .. })));
    }

    #[test]
    fn different_offsets_do_not_alias() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 2);
        let s = fb.new_slot(16);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::Reg(fb.param(0)));
        fb.store(e, a.into(), Operand::imm(8), Operand::Reg(fb.param(1)));
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 1);
        match f.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, Inst::Copy { .. }))
        {
            Some(Inst::Copy { src, .. }) => assert_eq!(*src, Operand::Reg(Reg(0))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn distinct_slots_do_not_alias() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s1 = fb.new_slot(8);
        let s2 = fb.new_slot(8);
        let e = fb.entry_block();
        let a1 = fb.frame_addr(e, s1);
        let a2 = fb.frame_addr(e, s2);
        fb.store(e, a1.into(), Operand::imm(0), Operand::imm(11));
        fb.store(e, a2.into(), Operand::imm(0), Operand::imm(22));
        let v = fb.load(e, a1.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 1);
        match f.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, Inst::Copy { .. }))
        {
            Some(Inst::Copy { src, .. }) => assert_eq!(*src, Operand::imm(11)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_base_store_clobbers_slots() {
        // A store through a raw pointer register may hit the slot.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::imm(1));
        fb.store(
            e,
            Operand::Reg(fb.param(0)),
            Operand::imm(0),
            Operand::imm(2),
        );
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 0);
    }

    #[test]
    fn calls_clobber_everything() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::imm(1));
        fb.call_void(e, FuncId(0), vec![a.into()]);
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 0);
    }

    #[test]
    fn redefined_value_register_invalidates_entry() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        let p = fb.param(0);
        fb.store(e, a.into(), Operand::imm(0), Operand::Reg(p));
        fb.copy_to(e, p, Operand::imm(99)); // p no longer holds the stored value
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 0);
    }

    #[test]
    fn global_bases_forward_and_do_not_cross_alias() {
        use hlo_ir::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g1 = pb.add_global("g1", m, Linkage::Public, 1, vec![]);
        let g2 = pb.add_global("g2", m, Linkage::Public, 1, vec![]);
        let mut fb = FunctionBuilder::new("f", m, 0);
        let e = fb.entry_block();
        fb.store(
            e,
            Operand::Const(ConstVal::GlobalAddr(g1)),
            Operand::imm(0),
            Operand::imm(5),
        );
        fb.store(
            e,
            Operand::Const(ConstVal::GlobalAddr(g2)),
            Operand::imm(0),
            Operand::imm(6),
        );
        let v = fb.load(e, Operand::Const(ConstVal::GlobalAddr(g1)), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 1);
        match f.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, Inst::Copy { .. }))
        {
            Some(Inst::Copy { src, .. }) => assert_eq!(*src, Operand::imm(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_address_register_reads_what_the_immediate_stored() {
        use hlo_ir::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let mut fb = FunctionBuilder::new("f", m, 0);
        let e = fb.entry_block();
        let ga = fb.const_(e, ConstVal::GlobalAddr(g));
        fb.store(
            e,
            Operand::Const(ConstVal::GlobalAddr(g)),
            Operand::imm(0),
            Operand::imm(5),
        );
        let v = fb.load(e, ga.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(forward_stores(&mut f), 1);
    }

    /// The two-word global `g` that `main` passes to `f` below.
    fn g() -> Operand {
        Operand::Const(ConstVal::GlobalAddr(GlobalId(0)))
    }

    /// `r = p + 8`, with `p` the first parameter.
    fn param_plus_8(r: Reg) -> Inst {
        Inst::Bin {
            dst: r,
            op: hlo_ir::BinOp::Add,
            a: Operand::Reg(Reg(0)),
            b: Operand::imm(8),
        }
    }

    /// Builds `main() { r = f(&g); return main_ret(r) }` around `f` and
    /// runs it before and after `optimize_function` on `f` alone.
    fn run_before_and_after(
        f: Function,
        main_ret: impl FnOnce(&mut FunctionBuilder, hlo_ir::BlockId, Reg) -> Operand,
    ) -> (i64, i64) {
        use hlo_ir::ProgramBuilder;
        use hlo_vm::{run_program, ExecOptions};
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        pb.add_global("g", m, Linkage::Public, 2, vec![]);
        let fid = pb.add_function(f);
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, fid, vec![g()]);
        let v = main_ret(&mut main, e, r);
        main.ret(e, Some(v));
        let entry = pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(entry));
        let run = |p: &hlo_ir::Program| {
            run_program(p, &[], &ExecOptions::default())
                .expect("runs")
                .ret
        };
        let before = run(&p);
        crate::optimize_function(&mut p.funcs[fid.index()]);
        (before, run(&p))
    }

    /// `r` holds `p + 8` in b0 and a slot's address in b1, so the store
    /// through `r` in b0 writes `g[1]`: it is not a dead slot store.
    #[test]
    fn redefined_slot_register_keeps_its_other_stores() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let (b0, b1) = (fb.entry_block(), fb.new_block());
        let r = fb.new_reg();
        fb.push(b0, param_plus_8(r));
        fb.store(b0, r.into(), Operand::imm(0), Operand::imm(7));
        fb.jump(b0, b1);
        fb.push(b1, Inst::FrameAddr { dst: r, slot: s });
        fb.store(b1, r.into(), Operand::imm(0), Operand::imm(1));
        fb.ret(b1, Some(Operand::imm(0)));
        let f = fb.finish(Linkage::Public, Type::I64);
        let g1 = |main: &mut FunctionBuilder, e, _| main.load(e, g(), Operand::imm(8)).into();
        assert_eq!(run_before_and_after(f, g1), (7, 7));
    }

    /// The same register shape: the store through `r` in b0 overwrites
    /// `g[1]`, so the load of `g[1]` after it must not see the 5.
    #[test]
    fn redefined_slot_register_may_alias_a_global() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let (b0, b1) = (fb.entry_block(), fb.new_block());
        let r = fb.new_reg();
        fb.store(b0, g(), Operand::imm(8), Operand::imm(5));
        fb.push(b0, param_plus_8(r));
        fb.store(b0, r.into(), Operand::imm(0), Operand::imm(7));
        let v = fb.load(b0, g(), Operand::imm(8));
        fb.jump(b0, b1);
        fb.push(b1, Inst::FrameAddr { dst: r, slot: s });
        fb.store(b1, r.into(), Operand::imm(0), Operand::imm(1));
        let w = fb.bin(b1, hlo_ir::BinOp::Add, v.into(), Operand::imm(1));
        fb.ret(b1, Some(w.into()));
        let f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(run_before_and_after(f, |_, _, r| r.into()), (8, 8));
    }

    /// A parameter's incoming value is a definition the body does not
    /// show: `p` names `g[0]` before it is redefined as a slot address.
    #[test]
    fn parameter_redefined_as_slot_address_keeps_its_earlier_stores() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let p = fb.param(0);
        fb.store(e, p.into(), Operand::imm(0), Operand::imm(7));
        fb.push(e, Inst::FrameAddr { dst: p, slot: s });
        fb.store(e, p.into(), Operand::imm(0), Operand::imm(1));
        fb.ret(e, Some(Operand::imm(0)));
        let f = fb.finish(Linkage::Public, Type::I64);
        let g0 = |main: &mut FunctionBuilder, e, _| main.load(e, g(), Operand::imm(0)).into();
        assert_eq!(run_before_and_after(f, g0), (7, 7));
    }
}
