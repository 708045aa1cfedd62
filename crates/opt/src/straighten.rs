//! Profile-guided block straightening (intra-procedural code
//! positioning, after Pettis & Hansen — the paper's reference \[12\]).
//!
//! Blocks are reordered so that each block's hottest successor is laid
//! out immediately after it. An unconditional jump whose target is the
//! next block in layout order costs nothing on real hardware (the
//! assembler elides it / the fetch unit streams through); the machine
//! model in `hlo-sim` honours exactly that rule, so straightening shows
//! up as fewer retired instructions and better I-cache behaviour.
//!
//! The transform permutes `Function::blocks` (entry stays first), remaps
//! every branch target, and keeps the profile annotation parallel.

use hlo_ir::{BlockId, Function};

/// Reorders `f`'s blocks into hot chains. Returns true if the order
/// changed. Uses the profile annotation when present; otherwise the
/// existing order is kept (there is nothing to straighten by).
pub fn straighten_blocks(f: &mut Function) -> bool {
    let n = f.blocks.len();
    if n <= 2 || f.profile.is_none() {
        return false;
    }
    let profile = f.profile.as_ref().expect("checked above");
    let count = |b: BlockId| profile.blocks.get(b.index()).copied().unwrap_or(0.0);

    // The machine model elides an unconditional jump whose target is laid
    // out immediately after it, so adjacency pairs `(jump block, target)`
    // are worth `count(jump block)` each; conditional-branch adjacency is
    // only an I-cache locality preference. Chains therefore:
    //   * follow a trailing `jump` unconditionally (guaranteed elision);
    //   * after a conditional branch, never claim a block some unplaced
    //     jump still wants as its fall-through;
    //   * grow *upstream* through jump-predecessors before being emitted,
    //     so the hottest jump into a seed block also becomes adjacent.
    let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.successors()).collect();
    let jump_target: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .map(|b| match b.insts.last() {
            Some(hlo_ir::Inst::Jump { target }) => Some(*target),
            _ => None,
        })
        .collect();
    let mut jump_preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for (i, t) in jump_target.iter().enumerate() {
        if let Some(t) = t {
            if t.index() != i {
                jump_preds[t.index()].push(BlockId(i as u32));
            }
        }
    }

    let mut placed = vec![false; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);
    let mut by_heat: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
    by_heat.sort_by(|&a, &b| {
        count(b)
            .partial_cmp(&count(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let hottest = |cands: &mut dyn Iterator<Item = BlockId>| -> Option<BlockId> {
        cands.max_by(|&a, &b| {
            count(a)
                .partial_cmp(&count(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0.cmp(&a.0))
        })
    };

    let mut heat_cursor = 0usize;
    let mut seed = Some(BlockId(0));
    while order.len() < n {
        let mut head = match seed.take() {
            Some(h) if !placed[h.index()] => h,
            _ => {
                while placed[by_heat[heat_cursor].index()] {
                    heat_cursor += 1;
                }
                by_heat[heat_cursor]
            }
        };
        // Grow upstream through unplaced jump-predecessors (entry stays
        // first overall, so the entry's chain cannot be extended upward).
        let mut upstream: Vec<BlockId> = Vec::new();
        if head != BlockId(0) || !order.is_empty() {
            let mut walk_guard = vec![false; n];
            walk_guard[head.index()] = true;
            let mut cur = head;
            while let Some(q) = hottest(
                &mut jump_preds[cur.index()]
                    .iter()
                    .copied()
                    .filter(|q| !placed[q.index()] && !walk_guard[q.index()] && *q != BlockId(0)),
            ) {
                walk_guard[q.index()] = true;
                upstream.push(q);
                cur = q;
            }
        }
        for &q in upstream.iter().rev() {
            placed[q.index()] = true;
            order.push(q);
        }
        if order.is_empty() {
            head = BlockId(0); // entry must lead the first chain
        }
        // Grow downstream.
        let mut cur = head;
        loop {
            placed[cur.index()] = true;
            order.push(cur);
            let next = if let Some(t) = jump_target[cur.index()] {
                // Guaranteed elision when the jump target follows.
                (!placed[t.index()]).then_some(t)
            } else {
                // Conditional branch: adjacency is only locality. Leave
                // blocks that an unplaced jump wants as fall-through.
                let unclaimed = hottest(&mut succs[cur.index()].iter().copied().filter(|s| {
                    !placed[s.index()] && !jump_preds[s.index()].iter().any(|q| !placed[q.index()])
                }));
                unclaimed.or_else(|| {
                    hottest(
                        &mut succs[cur.index()]
                            .iter()
                            .copied()
                            .filter(|s| !placed[s.index()]),
                    )
                })
            };
            match next {
                Some(s) => cur = s,
                None => break,
            }
        }
    }

    if order.iter().enumerate().all(|(i, b)| b.index() == i) {
        return false;
    }

    // Apply the permutation.
    let mut remap = vec![BlockId(0); n];
    for (new_idx, &old) in order.iter().enumerate() {
        remap[old.index()] = BlockId(new_idx as u32);
    }
    let mut new_blocks = Vec::with_capacity(n);
    let mut new_counts = Vec::with_capacity(n);
    let old_profile = f.profile.clone();
    for &old in &order {
        new_blocks.push(std::mem::take(&mut f.blocks[old.index()]));
        if let Some(pr) = &old_profile {
            new_counts.push(pr.blocks[old.index()]);
        }
    }
    for b in &mut new_blocks {
        if let Some(t) = b.insts.last_mut() {
            t.map_successors(|s| remap[s.index()]);
        }
    }
    f.blocks = new_blocks;
    if let Some(pr) = &mut f.profile {
        pr.blocks = new_counts;
    }
    true
}

/// Straightens every function of a program. Returns how many functions
/// changed.
pub fn straighten_program(p: &mut hlo_ir::Program) -> u64 {
    let mut changed = 0;
    for f in &mut p.funcs {
        if straighten_blocks(f) {
            changed += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{verify_function, FuncProfile, FunctionBuilder, Linkage, ModuleId, Operand, Type};
    use hlo_vm::{run_program, ExecOptions};

    /// entry -> {cold, hot}; hot -> exit; cold -> exit. Source order puts
    /// cold first; straightening must move hot next to entry.
    fn skewed() -> Function {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let cold = fb.new_block(); // b1
        let hot = fb.new_block(); // b2
        let exit = fb.new_block(); // b3
        fb.br(e, Operand::Reg(fb.param(0)), hot, cold);
        fb.jump(cold, exit);
        fb.jump(hot, exit);
        fb.ret(exit, Some(Operand::imm(9)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        f.profile = Some(FuncProfile {
            entry: 100.0,
            blocks: vec![100.0, 1.0, 99.0, 100.0],
        });
        f
    }

    #[test]
    fn hot_successor_becomes_next_block() {
        let mut f = skewed();
        assert!(straighten_blocks(&mut f));
        verify_function(&f).unwrap();
        // New order must be entry, hot, exit, cold.
        // entry's Br: hot arm should now target block 1.
        let term = f.blocks[0].insts.last().unwrap();
        let succ = term.successors();
        assert_eq!(succ[0], hlo_ir::BlockId(1), "hot arm follows entry");
        // profile stays parallel & permuted
        let pr = f.profile.as_ref().unwrap();
        assert_eq!(pr.blocks.len(), 4);
        assert_eq!(pr.blocks[1], 99.0);
    }

    #[test]
    fn without_profile_nothing_happens() {
        let mut f = skewed();
        f.profile = None;
        assert!(!straighten_blocks(&mut f));
    }

    #[test]
    fn semantics_preserved_on_benchmarks() {
        for name in ["022.li", "085.gcc", "134.perl"] {
            let b = hlo_suite::benchmark(name).unwrap();
            let mut p = b.compile().unwrap();
            // annotate from a training run so there is a real profile
            let (db, _) =
                hlo_profile::collect_profile(&p, &[b.train_arg], &ExecOptions::default()).unwrap();
            hlo_profile::apply_profile(&mut p, &db);
            let before = run_program(&p, &[b.train_arg], &ExecOptions::default()).unwrap();
            let changed = straighten_program(&mut p);
            assert!(changed > 0, "{name}: expected some reordering");
            hlo_ir::verify_program(&p).unwrap();
            let after = run_program(&p, &[b.train_arg], &ExecOptions::default()).unwrap();
            assert_eq!(before.ret, after.ret, "{name}");
            assert_eq!(before.checksum, after.checksum, "{name}");
            assert_eq!(before.retired, after.retired, "{name}");
        }
    }

    #[test]
    fn entry_block_stays_first() {
        let mut f = skewed();
        straighten_blocks(&mut f);
        // Block 0 must still be the old entry (it holds the Br).
        assert!(matches!(
            f.blocks[0].insts.last(),
            Some(hlo_ir::Inst::Br { .. })
        ));
    }

    #[test]
    fn idempotent_once_straightened() {
        let mut f = skewed();
        assert!(straighten_blocks(&mut f));
        assert!(!straighten_blocks(&mut f), "second run must be a no-op");
    }
}
