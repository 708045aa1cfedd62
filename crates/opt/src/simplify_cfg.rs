//! Control-flow graph simplification.
//!
//! Inlining splices many small CFGs into big ones; this pass cleans the
//! seams: constant branches become jumps, trivial jump-only blocks are
//! threaded through, unreachable blocks are dropped, and straight-line
//! chains are merged. Profile annotations are maintained so later HLO
//! passes keep seeing valid frequencies.

use hlo_ir::{BlockId, ConstVal, Function, Inst, Operand};

/// Outcome of one simplification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CfgStats {
    /// Conditional branches rewritten to jumps.
    pub branches_folded: u64,
    /// Unreachable blocks removed.
    pub blocks_removed: u64,
    /// Straight-line merges performed.
    pub blocks_merged: u64,
    /// Jumps redirected through trivial blocks.
    pub jumps_threaded: u64,
}

impl CfgStats {
    /// True when the pass changed the function.
    pub fn changed(&self) -> bool {
        self.branches_folded + self.blocks_removed + self.blocks_merged + self.jumps_threaded > 0
    }
}

/// Simplifies `f`'s CFG to a fixpoint (bounded).
pub fn simplify(f: &mut Function) -> CfgStats {
    let mut stats = CfgStats::default();
    for _ in 0..32 {
        let mut changed = false;
        changed |= fold_const_branches(f, &mut stats);
        changed |= thread_jumps(f, &mut stats);
        changed |= remove_unreachable(f, &mut stats);
        changed |= merge_chains(f, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn const_truthy(c: ConstVal) -> bool {
    match c {
        ConstVal::I64(v) => v != 0,
        ConstVal::F64(b) => b.0 != 0,
        ConstVal::FuncAddr(_) | ConstVal::GlobalAddr(_) => true,
    }
}

fn fold_const_branches(f: &mut Function, stats: &mut CfgStats) -> bool {
    let mut changed = false;
    for block in &mut f.blocks {
        if let Some(Inst::Br { cond, then_, else_ }) = block.insts.last() {
            let target = if let Operand::Const(c) = cond {
                Some(if const_truthy(*c) { *then_ } else { *else_ })
            } else if then_ == else_ {
                Some(*then_)
            } else {
                None
            };
            if let Some(t) = target {
                *block.insts.last_mut().expect("terminator") = Inst::Jump { target: t };
                stats.branches_folded += 1;
                changed = true;
            }
        }
    }
    changed
}

/// A block is trivial when it contains exactly one instruction: `jump t`.
fn trivial_target(f: &Function, b: BlockId) -> Option<BlockId> {
    let insts = &f.blocks[b.index()].insts;
    if insts.len() == 1 {
        if let Inst::Jump { target } = insts[0] {
            if target != b {
                return Some(target);
            }
        }
    }
    None
}

fn thread_jumps(f: &mut Function, stats: &mut CfgStats) -> bool {
    let n = f.blocks.len();
    // Resolve each block to its final non-trivial destination, with a hop
    // bound to defuse trivial-jump cycles.
    let mut resolved: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
    for (b, res) in resolved.iter_mut().enumerate() {
        let mut cur = BlockId(b as u32);
        let mut hops = 0;
        while let Some(t) = trivial_target(f, cur) {
            cur = t;
            hops += 1;
            if hops > n {
                cur = BlockId(b as u32); // cycle of empty blocks; leave as is
                break;
            }
        }
        *res = cur;
    }
    let mut changed = false;
    for block in &mut f.blocks {
        if let Some(t) = block.insts.last_mut() {
            t.map_successors(|s| {
                let r = resolved[s.index()];
                if r != s {
                    stats.jumps_threaded += 1;
                    changed = true;
                }
                r
            });
        }
    }
    changed
}

fn remove_unreachable(f: &mut Function, stats: &mut CfgStats) -> bool {
    // A successor walk from the entry; targets past the last block are
    // skipped, as `hlo_analysis::Cfg` skips them.
    let n = f.blocks.len();
    let mut reach = vec![false; n];
    let mut stack = Vec::new();
    if n > 0 {
        reach[0] = true;
        stack.push(0);
    }
    while let Some(b) = stack.pop() {
        for s in f.blocks[b].iter_successors() {
            let s = s.index();
            if s < n && !reach[s] {
                reach[s] = true;
                stack.push(s);
            }
        }
    }
    if reach.iter().all(|&r| r) {
        return false;
    }
    // Build the renumbering (entry stays first).
    let mut remap = vec![BlockId(0); n];
    let mut next = 0u32;
    for b in 0..n {
        if reach[b] {
            remap[b] = BlockId(next);
            next += 1;
        }
    }
    let removed = (n as u32 - next) as u64;
    // Filter blocks and profile in lockstep.
    let mut keep_iter = reach.iter();
    f.blocks.retain(|_| *keep_iter.next().expect("len"));
    if let Some(p) = &mut f.profile {
        let mut keep_iter = reach.iter();
        p.blocks.retain(|_| *keep_iter.next().expect("len"));
    }
    for block in &mut f.blocks {
        if let Some(t) = block.insts.last_mut() {
            t.map_successors(|s| remap[s.index()]);
        }
    }
    stats.blocks_removed += removed;
    true
}

fn merge_chains(f: &mut Function, stats: &mut CfgStats) -> bool {
    let n = f.blocks.len();
    let mut npreds = vec![0u32; n];
    for b in &f.blocks {
        for s in b.iter_successors() {
            npreds[s.index()] += 1;
        }
    }
    let mut merged_away = vec![false; n];
    let mut changed = false;
    for b in 0..n {
        if merged_away[b] {
            continue;
        }
        // Follow the chain greedily from b.
        while let Some(Inst::Jump { target }) = f.blocks[b].insts.last() {
            let t = target.index();
            if t == b || t == 0 || merged_away[t] || npreds[t] != 1 {
                break;
            }
            // npreds counted before any merges this sweep; a block merged
            // into b keeps its original single-pred property because we
            // never duplicate edges.
            let mut tail = std::mem::take(&mut f.blocks[t].insts);
            let blk = &mut f.blocks[b];
            blk.insts.pop(); // drop the jump
            blk.insts.append(&mut tail);
            // Leave a self-consistent husk: the merged-away block becomes
            // unreachable and is collected by remove_unreachable.
            f.blocks[t].insts.push(Inst::Jump {
                target: BlockId(b as u32),
            });
            merged_away[t] = true;
            stats.blocks_merged += 1;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{verify_function, FuncProfile, FunctionBuilder, Linkage, ModuleId, Type};

    #[test]
    fn folds_constant_branch_and_drops_dead_arm() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let t = fb.new_block();
        let z = fb.new_block();
        fb.br(e, Operand::imm(1), t, z);
        fb.ret(t, Some(Operand::imm(10)));
        fb.ret(z, Some(Operand::imm(20)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = simplify(&mut f);
        assert!(st.branches_folded >= 1);
        assert!(st.blocks_removed >= 1);
        verify_function(&f).unwrap();
        // entry + merged ret
        assert!(f.blocks.len() <= 2);
    }

    #[test]
    fn threads_trivial_jumps() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let hop = fb.new_block();
        let land = fb.new_block();
        let other = fb.new_block();
        fb.br(e, Operand::Reg(fb.param(0)), hop, other);
        fb.jump(hop, land);
        fb.ret(land, Some(Operand::imm(1)));
        fb.ret(other, Some(Operand::imm(2)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = simplify(&mut f);
        assert!(st.jumps_threaded >= 1);
        verify_function(&f).unwrap();
        // hop removed
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn merges_straightline_chains() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let x = fb.iconst(e, 1);
        fb.jump(e, b1);
        let y = fb.bin(b1, hlo_ir::BinOp::Add, x.into(), Operand::imm(1));
        fb.jump(b1, b2);
        fb.ret(b2, Some(y.into()));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let st = simplify(&mut f);
        assert!(st.blocks_merged >= 2);
        verify_function(&f).unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.size(), 3);
    }

    #[test]
    fn profile_stays_parallel_to_blocks() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let t = fb.new_block();
        let z = fb.new_block();
        fb.br(e, Operand::imm(0), t, z);
        fb.ret(t, Some(Operand::imm(1)));
        fb.ret(z, Some(Operand::imm(2)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        f.profile = Some(FuncProfile {
            entry: 100.0,
            blocks: vec![100.0, 0.0, 100.0],
        });
        simplify(&mut f);
        verify_function(&f).unwrap();
        let p = f.profile.as_ref().unwrap();
        assert_eq!(p.blocks.len(), f.blocks.len());
    }

    #[test]
    fn loop_back_edges_survive() {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let x = fb.new_block();
        fb.jump(e, h);
        fb.br(h, Operand::Reg(fb.param(0)), h, x);
        fb.ret(x, None);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        simplify(&mut f);
        verify_function(&f).unwrap();
        // h has 2 preds (e and itself) so it cannot merge into e.
        assert!(f.blocks.len() >= 2);
    }

    #[test]
    fn infinite_trivial_jump_cycle_does_not_hang() {
        // e -> a -> b -> a  (a, b trivial)
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 0);
        let e = fb.entry_block();
        let a = fb.new_block();
        let b = fb.new_block();
        fb.jump(e, a);
        fb.jump(a, b);
        fb.jump(b, a);
        let mut f = fb.finish(Linkage::Public, Type::Void);
        // Function never returns; CFG is still valid. Must terminate.
        let _ = simplify(&mut f);
        verify_function(&f).unwrap();
    }
}
