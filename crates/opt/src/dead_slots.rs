//! Dead frame-slot elimination.
//!
//! After inlining, a callee's local array often becomes write-only in the
//! merged body (its reads folded away, or the values forwarded through
//! registers). A slot whose address is used *only* as the base of stores
//! — never loaded, never copied, never passed anywhere — cannot be
//! observed, so those stores, the address computations and the slot
//! itself can go.
//!
//! Which register holds which slot's address is [`crate::memfwd`]'s map.

use crate::memfwd::{addr_regs, BaseKey};
use hlo_ir::{Function, Inst, Operand, SlotId};

/// Removes write-only, non-escaping frame slots from `f`. Returns the
/// number of instructions removed.
pub fn eliminate_dead_slots(f: &mut Function) -> u64 {
    let nslots = f.slots.len();
    if nslots == 0 {
        return 0;
    }

    let regs = addr_regs(f);
    let slot_of = |op: &Operand| -> Option<SlotId> {
        match op {
            Operand::Reg(r) => match regs[r.index()] {
                Some(BaseKey::Slot(s)) => Some(s),
                _ => None,
            },
            Operand::Const(_) => None,
        }
    };

    // A FrameAddr whose register is not that slot's address register (it
    // has another definition, or is a parameter) escapes its slot: the
    // register may hold something else where it is read. Any use of a
    // slot-address register other than "store base" escapes the slot too
    // (loads read it; copies/arithmetic/calls leak the address; store
    // *value* position writes the address to memory).
    let mut escaped = vec![false; nslots];
    for block in &f.blocks {
        for inst in &block.insts {
            match inst {
                Inst::FrameAddr { dst, slot } => {
                    if regs[dst.index()] != Some(BaseKey::Slot(*slot)) {
                        escaped[slot.index()] = true;
                    }
                }
                Inst::Store { offset, value, .. } => {
                    // base is fine; offset/value uses escape
                    for s in [slot_of(offset), slot_of(value)].into_iter().flatten() {
                        escaped[s.index()] = true;
                    }
                }
                other => {
                    other.for_each_use(|op| {
                        if let Some(s) = slot_of(op) {
                            escaped[s.index()] = true;
                        }
                    });
                }
            }
        }
    }

    let dead = |s: SlotId| !escaped[s.index()];
    if (0..nslots).all(|i| !dead(SlotId(i as u32))) {
        return 0;
    }

    // Remove stores through dead slots and the FrameAddrs that produced
    // their addresses (the address registers become dead; ordinary DCE
    // already ran, so drop the FrameAddrs here directly).
    let mut removed = 0;
    for block in &mut f.blocks {
        let before = block.insts.len();
        block.insts.retain(|inst| match inst {
            Inst::Store { base, .. } => slot_of(base).map(dead) != Some(true),
            Inst::FrameAddr { slot, .. } => !dead(*slot),
            _ => true,
        });
        removed += (before - block.insts.len()) as u64;
    }

    // Compact the slot table, renumbering survivors.
    let mut remap: Vec<Option<SlotId>> = vec![None; nslots];
    let mut new_slots = Vec::new();
    for (i, slot) in remap.iter_mut().enumerate() {
        if !dead(SlotId(i as u32)) {
            *slot = Some(SlotId(new_slots.len() as u32));
            new_slots.push(f.slots[i]);
        }
    }
    f.slots = new_slots;
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            if let Inst::FrameAddr { slot, .. } = inst {
                *slot = remap[slot.index()].expect("surviving slot has a mapping");
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{verify_function, FunctionBuilder, Linkage, ModuleId, Type};
    use hlo_vm::{run_program, ExecOptions};

    #[test]
    fn write_only_slot_is_removed() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(32);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::Reg(fb.param(0)));
        fb.store(e, a.into(), Operand::imm(8), Operand::imm(5));
        fb.ret(e, Some(Operand::Reg(fb.param(0))));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let n = eliminate_dead_slots(&mut f);
        assert_eq!(n, 3); // 2 stores + 1 frameaddr
        assert!(f.slots.is_empty());
        verify_function(&f).unwrap();
    }

    #[test]
    fn loaded_slot_is_kept() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(16);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::Reg(fb.param(0)));
        let v = fb.load(e, a.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_dead_slots(&mut f), 0);
        assert_eq!(f.slots.len(), 1);
    }

    #[test]
    fn escaping_address_keeps_slot() {
        // The address is passed to a call: another function may read it.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        fb.store(e, a.into(), Operand::imm(0), Operand::imm(1));
        let r = fb.call(e, hlo_ir::FuncId(0), vec![a.into()]);
        fb.ret(e, Some(r.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert_eq!(eliminate_dead_slots(&mut f), 0);
    }

    #[test]
    fn address_stored_as_value_escapes() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let s = fb.new_slot(8);
        let e = fb.entry_block();
        let a = fb.frame_addr(e, s);
        // store the ADDRESS into memory elsewhere: it escapes.
        fb.store(e, Operand::Reg(fb.param(0)), Operand::imm(0), a.into());
        fb.store(e, a.into(), Operand::imm(0), Operand::imm(3));
        fb.ret(e, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        assert_eq!(eliminate_dead_slots(&mut f), 0);
    }

    #[test]
    fn surviving_slots_are_renumbered() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let dead_slot = fb.new_slot(8);
        let live = fb.new_slot(16);
        let e = fb.entry_block();
        let d = fb.frame_addr(e, dead_slot);
        fb.store(e, d.into(), Operand::imm(0), Operand::imm(1));
        let l = fb.frame_addr(e, live);
        fb.store(e, l.into(), Operand::imm(0), Operand::Reg(fb.param(0)));
        let v = fb.load(e, l.into(), Operand::imm(0));
        fb.ret(e, Some(v.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        assert!(eliminate_dead_slots(&mut f) > 0);
        assert_eq!(f.slots, vec![16]);
        verify_function(&f).unwrap();
        // and it still runs
        let mut pb = hlo_ir::ProgramBuilder::new();
        pb.add_module("m");
        // rebuild a runnable program around the function
        let mut p = pb.finish(None);
        p.funcs.push(f);
        p.modules[0].funcs.push(hlo_ir::FuncId(0));
        p.entry = Some(hlo_ir::FuncId(0));
        let out = run_program(&p, &[7], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 7);
    }

    #[test]
    fn forwarding_plus_slot_elimination_dissolves_local_arrays() {
        // The whole local array dissolves: store-to-load forwarding turns
        // the reads into register dataflow, constant folding collapses
        // them, and this pass removes the now write-only slot.
        let src = r#"
            fn main() { var t[2]; t[0] = 4 * 2; t[1] = t[0] + 1; return t[1]; }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        crate::optimize_program(&mut p);
        hlo_ir::verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        let main = p.entry.unwrap();
        assert!(
            p.func(main).slots.is_empty(),
            "dead array should be gone: {}",
            p.func(main)
        );
        assert_eq!(p.func(main).size(), 1, "{}", p.func(main));
    }
}
