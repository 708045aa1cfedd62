//! Dominator trees (Cooper–Harvey–Kennedy iterative algorithm).

use hlo_ir::{BlockId, Function};

/// The dominator tree of one function's CFG.
///
/// Blocks unreachable from the entry have no immediate dominator and are
/// reported by [`Dominators::is_reachable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Immediate dominator of each block (`idom[entry] == entry`);
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes dominators for `f`.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let preds = f.predecessors();

        // DFS postorder from entry.
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        seen[0] = true;
        stack.push((BlockId(0), 0));
        // Cache successor lists to avoid recomputation.
        let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.successors()).collect();
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.iter().rev().copied().collect();
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[0] = Some(BlockId(0));
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom }
    }

    /// Immediate dominator of `b` (`b` itself for the entry).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom(b).is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let id = match self.idom(cur) {
                Some(i) => i,
                None => return false,
            };
            if id == cur {
                return cur == a;
            }
            cur = id;
        }
    }

    /// True if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom(b).is_some()
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_num: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FunctionBuilder, Linkage, ModuleId, Operand, Type};

    /// Diamond: 0 -> {1,2} -> 3.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", ModuleId(0), 1);
        let e = fb.entry_block();
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        fb.br(e, Operand::Reg(fb.param(0)), b1, b2);
        fb.jump(b1, b3);
        fb.jump(b2, b3);
        fb.ret(b3, None);
        fb.finish(Linkage::Public, Type::Void)
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let d = Dominators::compute(&f);
        assert_eq!(d.idom(BlockId(0)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(0)));
        assert!(d.dominates(BlockId(0), BlockId(3)));
        assert!(!d.dominates(BlockId(1), BlockId(3)));
        assert!(d.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut fb = FunctionBuilder::new("u", ModuleId(0), 0);
        let e = fb.entry_block();
        let dead = fb.new_block();
        fb.ret(e, None);
        fb.ret(dead, None);
        let f = fb.finish(Linkage::Public, Type::Void);
        let d = Dominators::compute(&f);
        assert!(!d.is_reachable(dead));
        assert!(d.is_reachable(e));
    }

    #[test]
    fn loop_header_dominates_body() {
        // 0 -> 1 (header) -> 2 (body) -> 1; 1 -> 3 (exit)
        let mut fb = FunctionBuilder::new("l", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(e, h);
        fb.br(h, Operand::Reg(fb.param(0)), body, exit);
        fb.jump(body, h);
        fb.ret(exit, None);
        let f = fb.finish(Linkage::Public, Type::Void);
        let d = Dominators::compute(&f);
        assert!(d.dominates(h, body));
        assert!(d.dominates(h, exit));
        assert_eq!(d.idom(body), Some(h));
    }
}
