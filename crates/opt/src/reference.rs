//! Dense reference solvers, kept for tests only: constant propagation
//! meeting every register at every join, and liveness on one `Vec<bool>`
//! per block solved round-robin. [`crate::constprop::propagate`] and
//! [`crate::dce::eliminate_dead`] must leave every function exactly as
//! these do; they share the rewrite and the removal sweep, so the tests
//! here compare the solvers.

use crate::constprop::{self, ConstPropStats, Lat};
use crate::dce;
use hlo_analysis::BitSet;
use hlo_ir::{Function, Operand};

/// Per-block live-out register sets as bit vectors.
pub(crate) fn live_out_sets(f: &Function) -> Vec<Vec<bool>> {
    let nregs = f.num_regs as usize;
    let nblocks = f.blocks.len();
    // use[b], def[b]
    let mut use_b = vec![vec![false; nregs]; nblocks];
    let mut def_b = vec![vec![false; nregs]; nblocks];
    for (bi, block) in f.blocks.iter().enumerate() {
        for inst in &block.insts {
            inst.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    if !def_b[bi][r.index()] {
                        use_b[bi][r.index()] = true;
                    }
                }
            });
            if let Some(d) = inst.dst() {
                def_b[bi][d.index()] = true;
            }
        }
    }
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| b.successors().iter().map(|s| s.index()).collect())
        .collect();
    let mut live_in = vec![vec![false; nregs]; nblocks];
    let mut live_out = vec![vec![false; nregs]; nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            // out = union of in[succ]
            for &s in &succs[bi] {
                for r in 0..nregs {
                    if live_in[s][r] && !live_out[bi][r] {
                        live_out[bi][r] = true;
                        changed = true;
                    }
                }
            }
            // in = use | (out - def)
            for r in 0..nregs {
                let v = use_b[bi][r] || (live_out[bi][r] && !def_b[bi][r]);
                if v != live_in[bi][r] {
                    live_in[bi][r] = v;
                    changed = true;
                }
            }
        }
    }
    live_out
}

/// [`dce::eliminate_dead`] on [`live_out_sets`].
pub(crate) fn eliminate_dead(f: &mut Function) -> u64 {
    let mut total = 0;
    loop {
        let sets: Vec<BitSet> = live_out_sets(f)
            .iter()
            .map(|dense| {
                let mut s = BitSet::empty(dense.len());
                for (r, _) in dense.iter().enumerate().filter(|(_, &l)| l) {
                    s.set(r);
                }
                s
            })
            .collect();
        let removed = dce::sweep(f, |b| sets[b].view(), &mut dce::Scratch::default());
        total += removed;
        if removed == 0 {
            return total;
        }
    }
}

/// [`constprop::propagate`] with one `Vec<Lat>` per block, cloned on
/// every visit, meeting every register.
pub(crate) fn propagate(f: &mut Function) -> ConstPropStats {
    let nregs = f.num_regs as usize;
    let nblocks = f.blocks.len();
    if nblocks == 0 {
        return ConstPropStats::default();
    }

    // In-states per block. Entry: params unknown (Bottom), others Top.
    let mut ins: Vec<Vec<Lat>> = vec![vec![Lat::Top; nregs]; nblocks];
    for l in ins[0].iter_mut().take(f.params as usize) {
        *l = Lat::Bottom;
    }

    // Worklist fixpoint.
    let mut on_list = vec![false; nblocks];
    let mut work: Vec<usize> = vec![0];
    on_list[0] = true;
    // Entry is always "visited"; others only after a predecessor flows in.
    let mut visited = vec![false; nblocks];
    visited[0] = true;

    while let Some(b) = work.pop() {
        on_list[b] = false;
        let mut state = ins[b].clone();
        for inst in &f.blocks[b].insts {
            constprop::transfer(inst, &mut state);
        }
        for s in f.blocks[b].successors() {
            let si = s.index();
            let mut changed = false;
            if !visited[si] {
                visited[si] = true;
                ins[si] = state.clone();
                changed = true;
            } else {
                for r in 0..nregs {
                    let m = ins[si][r].meet(state[r]);
                    if m != ins[si][r] {
                        ins[si][r] = m;
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
    constprop::rewrite(f, &ins.concat(), &visited, &mut vec![Lat::Top; nregs])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algebraic, copyprop, cse, dead_slots, memfwd, simplify_cfg};
    use hlo_ir::{BinOp, FuncProfile, FunctionBuilder, Linkage, ModuleId, Type};

    /// Runs constprop and DCE on `f` beside their references and asserts
    /// both leave the same function with the same counts.
    fn check_step(f: &mut Function, what: &str) -> (ConstPropStats, u64) {
        let mut want = f.clone();
        let want_cp = propagate(&mut want);
        let cp = constprop::propagate(f);
        assert_eq!((&*f, cp), (&want, want_cp), "constprop diverges on {what}");
        let want_n = eliminate_dead(&mut want);
        let n = dce::eliminate_dead(f);
        assert_eq!((&*f, n), (&want, want_n), "dce diverges on {what}");
        (cp, n)
    }

    /// `optimize_function`'s rounds, comparing constprop and DCE with the
    /// references at every round. Returns the rounds run.
    fn optimize_checked(f: &mut Function, what: &str) -> usize {
        for round in 1..=8 {
            let mut want = f.clone();
            let want_cp = propagate(&mut want);
            let cp = constprop::propagate(f);
            assert_eq!(
                (&*f, cp),
                (&want, want_cp),
                "constprop, {what} round {round}"
            );
            let alg_n = algebraic::simplify_algebra(f);
            let cfg = simplify_cfg::simplify(f);
            let fwd_n = memfwd::forward_stores(f);
            let copy_n = copyprop::propagate_copies(f);
            let cse_n = cse::eliminate_common(f);
            let mut want = f.clone();
            let want_n = eliminate_dead(&mut want);
            let dce_n = dce::eliminate_dead(f);
            assert_eq!((&*f, dce_n), (&want, want_n), "dce, {what} round {round}");
            let slot_n = dead_slots::eliminate_dead_slots(f);
            let changed = cp.changed()
                || cfg.changed()
                || alg_n + fwd_n + copy_n + cse_n + dce_n + slot_n > 0;
            if !changed {
                return round;
            }
        }
        8
    }

    #[test]
    fn suite_functions_match_the_dense_reference_at_every_step() {
        let mut rounds = 0;
        for b in hlo_suite::all_benchmarks() {
            let p = b.compile().expect("suite program compiles");
            for f in &p.funcs {
                let mut stepped = f.clone();
                let what = format!("{}::{}", b.name, f.name);
                rounds += optimize_checked(&mut stepped, &what);
                // The rounds above are the pipeline's own.
                let mut whole = f.clone();
                crate::optimize_function(&mut whole);
                assert_eq!(stepped, whole, "{what}");
            }
        }
        assert!(rounds > 100, "only {rounds} rounds compared");
    }

    #[test]
    fn register_live_into_a_loop_header_only_around_its_back_edge() {
        // entry -> h; h -> body | exit; body reads r, then sets r = 7 and
        // loops. No definition of r reaches h from the entry, so h's r is
        // the back edge's 7 and the body's read folds.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let r = fb.new_reg();
        let acc = fb.new_reg();
        fb.copy_to(e, acc, Operand::imm(0));
        fb.jump(e, h);
        fb.br(h, Operand::Reg(fb.param(0)), body, exit);
        let s = fb.bin(body, BinOp::Add, r.into(), Operand::imm(1));
        fb.copy_to(body, acc, s.into());
        fb.copy_to(body, r, Operand::imm(7));
        fb.jump(body, h);
        fb.ret(exit, Some(acc.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let (cp, _) = check_step(&mut f, "back-edge loop");
        assert!(cp.insts_folded >= 1, "{f}");
        optimize_checked(&mut f, "back-edge loop");
    }

    #[test]
    fn register_dead_at_a_join_of_differing_definitions() {
        // Both arms set r (5 and 6); the join overwrites r before reading
        // it. The dense solve meets r to Bottom at the join, the live one
        // never meets it: the outputs must still agree.
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
        fb.copy_to(j, r, Operand::imm(3));
        let t = fb.bin(j, BinOp::Add, r.into(), Operand::Reg(fb.param(0)));
        fb.ret(j, Some(t.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        check_step(&mut f, "dead join");
        optimize_checked(&mut f, "dead join");
    }

    #[test]
    fn unreachable_block_feeding_a_reachable_one() {
        // `dead` is never reached but jumps into the join with r = 4;
        // liveness covers it, the solve never visits it.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let j = fb.new_block();
        let dead = fb.new_block();
        let r = fb.new_reg();
        fb.copy_to(e, r, Operand::imm(2));
        fb.jump(e, j);
        let t = fb.bin(j, BinOp::Mul, r.into(), Operand::imm(3));
        fb.ret(j, Some(t.into()));
        fb.copy_to(dead, r, Operand::imm(4));
        fb.jump(dead, j);
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let (cp, _) = check_step(&mut f, "unreachable block");
        assert!(cp.insts_folded >= 1, "{f}");
        optimize_checked(&mut f, "unreachable block");
    }

    #[test]
    fn entry_block_that_is_a_loop_target() {
        // b0 reads r, sets it, and branches back to itself: the back edge
        // meets into the entry's own in-state. A profile rides along so a
        // folded branch exercises the profile repair.
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let exit = fb.new_block();
        let r = fb.new_reg();
        let t = fb.bin(e, BinOp::Add, r.into(), Operand::imm(1));
        fb.copy_to(e, r, Operand::imm(2));
        let c = fb.bin(e, BinOp::Lt, t.into(), Operand::Reg(fb.param(0)));
        fb.br(e, c.into(), e, exit);
        fb.ret(exit, Some(t.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        f.profile = Some(FuncProfile {
            entry: 1.0,
            blocks: vec![10.0, 1.0],
        });
        check_step(&mut f, "entry loop");
        optimize_checked(&mut f, "entry loop");
    }
}
