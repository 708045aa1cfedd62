//! Word-packed bitsets and the per-function block graph that the scalar
//! optimizer and the lint battery share: successor and predecessor lists
//! built once, reachability from the entry, and backward register
//! liveness.

use hlo_ir::{Function, Operand};

/// A fixed-capacity bitset over `0..nbits`, packed 64 elements to a word.
/// The default is the empty set over nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// The empty set over `0..nbits`.
    pub fn empty(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// The full set `{0, .., nbits-1}`.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; nbits.div_ceil(64)],
            nbits,
        };
        s.mask_tail();
        s
    }

    fn mask_tail(&mut self) {
        let tail = self.nbits % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Membership test; out-of-range indexes are simply absent.
    pub fn get(&self, i: usize) -> bool {
        self.view().get(i)
    }

    /// Inserts `i` (ignored when out of range).
    pub fn set(&mut self, i: usize) {
        if i < self.nbits {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Removes `i` (ignored when out of range).
    pub fn remove(&mut self, i: usize) {
        if i < self.nbits {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True when no element is present.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// The elements, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.view().iter()
    }

    /// A read-only view of this set, as [`Liveness`] hands out its rows.
    pub fn view(&self) -> BitsView<'_> {
        BitsView {
            words: &self.words,
            nbits: self.nbits,
        }
    }

    /// Makes this set a copy of `v`, reusing its words: nothing is
    /// allocated once the set has held a row as wide.
    pub fn copy_from(&mut self, v: BitsView<'_>) {
        self.words.clear();
        self.words.extend_from_slice(v.words);
        self.nbits = v.nbits;
    }
}

/// A borrowed, read-only bitset over `0..nbits`: one block's row of a
/// [`Liveness`], or [`BitSet::view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsView<'a> {
    words: &'a [u64],
    nbits: usize,
}

impl<'a> BitsView<'a> {
    /// Membership test; out-of-range indexes are simply absent.
    pub fn get(&self, i: usize) -> bool {
        i < self.nbits && self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// True when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The elements, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + bit
                })
            })
        })
    }
}

/// One function's block graph: successor and predecessor lists by block
/// index, built once. Successors are listed in terminator order without
/// repeats (a branch whose arms agree has one), predecessors in block
/// order. Targets past the last block are skipped, so a malformed function
/// (the lint battery checks those) gives a graph rather than a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    succ_start: Vec<usize>,
    succ: Vec<usize>,
    pred_start: Vec<usize>,
    pred: Vec<usize>,
}

impl Cfg {
    /// The block graph of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(2 * n);
        let mut npreds = vec![0usize; n + 1];
        for b in &f.blocks {
            succ_start.push(succ.len());
            for s in b.iter_successors() {
                if s.index() < n {
                    succ.push(s.index());
                    npreds[s.index() + 1] += 1;
                }
            }
        }
        succ_start.push(succ.len());
        // Counting sort by target keeps each block's predecessors in block
        // order.
        for i in 1..=n {
            npreds[i] += npreds[i - 1];
        }
        let pred_start = npreds;
        let mut fill = pred_start.clone();
        let mut pred = vec![0; succ.len()];
        for b in 0..n {
            for &s in &succ[succ_start[b]..succ_start[b + 1]] {
                pred[fill[s]] = b;
                fill[s] += 1;
            }
        }
        Cfg {
            succ_start,
            succ,
            pred_start,
            pred,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succ_start.len() - 1
    }

    /// True for a function without blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successors of block `b`.
    pub fn succs(&self, b: usize) -> &[usize] {
        &self.succ[self.succ_start[b]..self.succ_start[b + 1]]
    }

    /// Predecessors of block `b`, in block order.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.pred[self.pred_start[b]..self.pred_start[b + 1]]
    }

    /// Which blocks are reachable from the entry, by block index.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if self.is_empty() {
            return seen;
        }
        let mut work = vec![0];
        seen[0] = true;
        while let Some(b) = work.pop() {
            for &s in self.succs(b) {
                if !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        seen
    }

    /// Backward register liveness of `f` (whose graph this is): a register
    /// is live at a point when some path from there reads it before
    /// writing it. The least fixpoint, solved in reverse block order.
    /// Registers past `f.num_regs` are ignored.
    pub fn liveness(&self, f: &Function) -> Liveness {
        let nregs = f.num_regs as usize;
        let w = nregs.div_ceil(64);
        let n = self.len();
        // Block `b`'s row is `words[b * w..][..w]` in each array. Live-in
        // starts as the upward-exposed uses.
        let mut live_in = vec![0u64; n * w];
        let mut defined = vec![0u64; n * w];
        for (b, block) in f.blocks.iter().enumerate() {
            let used = &mut live_in[b * w..][..w];
            let def = &mut defined[b * w..][..w];
            for inst in &block.insts {
                inst.for_each_use(|op| {
                    if let Operand::Reg(r) = op {
                        let i = r.index();
                        if i < nregs && def[i / 64] >> (i % 64) & 1 == 0 {
                            used[i / 64] |= 1 << (i % 64);
                        }
                    }
                });
                if let Some(d) = inst.dst().map(|d| d.index()).filter(|&d| d < nregs) {
                    def[d / 64] |= 1 << (d % 64);
                }
            }
        }
        // Seeded with the upward-exposed uses, live-in only ever grows, so
        // `in | (out - defined)` is `used | (out - defined)`.
        let mut live_out = vec![0u64; n * w];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let out = &mut live_out[b * w..][..w];
                for &s in self.succs(b) {
                    for (o, i) in out.iter_mut().zip(&live_in[s * w..][..w]) {
                        *o |= i;
                    }
                }
                let words = live_in[b * w..][..w].iter_mut().zip(&*out);
                for ((x, o), d) in words.zip(&defined[b * w..][..w]) {
                    let grown = *x | (o & !d);
                    changed |= grown != *x;
                    *x = grown;
                }
            }
        }
        Liveness {
            nbits: nregs,
            live_in,
            live_out,
        }
    }
}

/// Per-block live-in and live-out register sets (see [`Cfg::liveness`]),
/// held as two flat block-major word arrays: `ceil(nregs / 64)` words per
/// block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    nbits: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    fn row<'a>(&self, words: &'a [u64], b: usize) -> BitsView<'a> {
        let w = self.nbits.div_ceil(64);
        BitsView {
            words: &words[b * w..][..w],
            nbits: self.nbits,
        }
    }

    /// Registers live at the entry of block `b`.
    pub fn live_in(&self, b: usize) -> BitsView<'_> {
        self.row(&self.live_in, b)
    }

    /// Registers live at the exit of block `b`: the union of its
    /// successors' live-in sets.
    pub fn live_out(&self, b: usize) -> BitsView<'_> {
        self.row(&self.live_out, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{BinOp, BlockId, FunctionBuilder, Inst, Linkage, ModuleId, Type};

    #[test]
    fn set_ops() {
        let mut a = BitSet::empty(70);
        a.set(3);
        a.set(69);
        assert!(a.get(3) && a.get(69) && !a.get(4));
        let mut b = BitSet::full(70);
        b.remove(3);
        let mut u = a.clone();
        u.union_with(&b);
        assert!(u.get(3) && u.get(68));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert!(!i.get(3) && i.get(69));
        a.subtract(&b);
        assert!(a.get(3) && !a.get(69));
        assert!(BitSet::empty(10).is_empty());
        assert!(!BitSet::full(10).is_empty());
    }

    #[test]
    fn full_masks_tail_bits() {
        let f = BitSet::full(65);
        assert!(f.get(64));
        assert!(!f.get(65));
        assert!(!f.get(127));
    }

    #[test]
    fn out_of_range_is_absent() {
        let mut s = BitSet::empty(8);
        s.set(100); // ignored
        assert!(!s.get(100));
    }

    #[test]
    fn iter_lists_members_in_order_across_words() {
        let mut s = BitSet::empty(200);
        for i in [0, 5, 63, 64, 130, 199] {
            s.set(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 130, 199]);
        assert_eq!(BitSet::empty(0).iter().count(), 0);
        assert_eq!(BitSet::full(65).iter().count(), 65);
    }

    /// entry -> header; header -> body | exit; body -> header; `dead` is
    /// unreachable and jumps into the loop.
    fn loop_function() -> Function {
        let mut fb = FunctionBuilder::new("f", ModuleId(0), 1);
        let e = fb.entry_block();
        let h = fb.new_block();
        let body = fb.new_block();
        let x = fb.new_block();
        let dead = fb.new_block();
        let i = fb.new_reg();
        fb.copy_to(e, i, Operand::imm(0));
        fb.jump(e, h);
        let c = fb.bin(h, BinOp::Lt, i.into(), Operand::Reg(fb.param(0)));
        fb.br(h, c.into(), body, x);
        let i1 = fb.bin(body, BinOp::Add, i.into(), Operand::imm(1));
        fb.copy_to(body, i, i1.into());
        fb.jump(body, h);
        fb.ret(x, Some(i.into()));
        fb.jump(dead, h);
        fb.finish(Linkage::Public, Type::I64)
    }

    #[test]
    fn graph_lists_successors_and_predecessors_in_order() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.len(), 5);
        assert_eq!(cfg.succs(1), &[2, 3]);
        assert_eq!(cfg.preds(1), &[0, 2, 4]);
        assert_eq!(cfg.preds(0), &[] as &[usize]);
        assert_eq!(cfg.reachable(), vec![true, true, true, true, false]);
        for (b, preds) in f.predecessors().iter().enumerate() {
            let want: Vec<usize> = preds.iter().map(|p| p.index()).collect();
            assert_eq!(cfg.preds(b), want.as_slice());
        }
    }

    #[test]
    fn graph_skips_targets_past_the_last_block() {
        let mut f = loop_function();
        f.blocks[0].insts.pop();
        f.blocks[0].insts.push(Inst::Jump { target: BlockId(7) });
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(0), &[] as &[usize]);
        assert_eq!(cfg.reachable(), vec![true, false, false, false, false]);
        // Liveness still solves; nothing flows out of the entry.
        assert!(cfg.liveness(&f).live_out(0).is_empty());
    }

    #[test]
    fn liveness_carries_loop_registers_around_the_back_edge() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        let live = cfg.liveness(&f);
        let (p, i) = (0, 1);
        // The parameter and the counter are live around the loop.
        for b in [1, 2] {
            assert!(live.live_in(b).get(p) && live.live_in(b).get(i), "b{b}");
        }
        // The entry defines the counter, so only the parameter is live in.
        assert!(live.live_in(0).get(p) && !live.live_in(0).get(i));
        assert!(live.live_out(0).get(i));
        // The exit reads only the counter.
        assert_eq!(live.live_in(3).iter().collect::<Vec<_>>(), vec![i]);
        assert!(live.live_out(3).is_empty());
        assert_out_is_union_of_successors_in(&f);
    }

    /// A block's live-out, read through the view, is the union of its
    /// successors' live-in.
    fn assert_out_is_union_of_successors_in(f: &Function) {
        let cfg = Cfg::new(f);
        let live = cfg.liveness(f);
        let mut row = BitSet::empty(0);
        for b in 0..cfg.len() {
            let mut u = BitSet::empty(f.num_regs as usize);
            for &s in cfg.succs(b) {
                row.copy_from(live.live_in(s));
                u.union_with(&row);
            }
            assert_eq!(u.view(), live.live_out(b), "b{b}");
        }
    }

    /// entry defines `nregs` registers and jumps to a block that reads
    /// those in `read` and returns.
    fn wide_function(nregs: u32, read: &[u32]) -> Function {
        let mut fb = FunctionBuilder::new("wide", ModuleId(0), 0);
        let e = fb.entry_block();
        let x = fb.new_block();
        let regs: Vec<_> = (0..nregs).map(|i| fb.iconst(e, i as i64)).collect();
        fb.jump(e, x);
        let mut acc = Operand::imm(0);
        for &r in read {
            acc = fb.bin(x, BinOp::Add, acc, regs[r as usize].into()).into();
        }
        fb.ret(x, Some(acc));
        fb.finish(Linkage::Public, Type::I64)
    }

    #[test]
    fn rows_span_several_words() {
        for (nregs, read) in [
            (70, vec![0, 63, 64, 69]),
            (130, vec![1, 63, 64, 127, 128, 129]),
        ] {
            let f = wide_function(nregs, &read);
            let cfg = Cfg::new(&f);
            let live = cfg.liveness(&f);
            let want: Vec<usize> = read.iter().map(|&r| r as usize).collect();
            assert_eq!(live.live_in(1).iter().collect::<Vec<_>>(), want);
            assert_eq!(live.live_out(0).iter().collect::<Vec<_>>(), want);
            assert!(live.live_in(0).is_empty() && live.live_out(1).is_empty());
            for r in 0..f.num_regs as usize {
                assert_eq!(live.live_in(1).get(r), want.contains(&r), "r{r}");
            }
            assert!(!live.live_in(1).get(f.num_regs as usize + 64));
            assert_out_is_union_of_successors_in(&f);
        }
    }

    #[test]
    fn a_function_without_registers_has_empty_rows() {
        let mut fb = FunctionBuilder::new("none", ModuleId(0), 0);
        let e = fb.entry_block();
        let x = fb.new_block();
        fb.jump(e, x);
        fb.ret(x, None);
        let f = fb.finish(Linkage::Public, Type::Void);
        assert_eq!(f.num_regs, 0);
        let live = Cfg::new(&f).liveness(&f);
        for b in 0..2 {
            assert!(live.live_in(b).is_empty() && live.live_out(b).is_empty());
            assert_eq!(live.live_in(b).iter().count(), 0);
            assert!(!live.live_out(b).get(0));
        }
        assert_out_is_union_of_successors_in(&f);
    }

    #[test]
    fn a_branch_past_the_last_block_contributes_nothing() {
        // The loop header branches to the body or past the end: its
        // live-out is the body's live-in alone.
        let mut f = loop_function();
        let last = f.blocks[1].insts.len() - 1;
        let Inst::Br { cond, then_, .. } = f.blocks[1].insts[last] else {
            panic!("the header ends in a branch");
        };
        f.blocks[1].insts[last] = Inst::Br {
            cond,
            then_,
            else_: BlockId(9),
        };
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(1), &[2]);
        let live = cfg.liveness(&f);
        assert_eq!(live.live_out(1), live.live_in(2));
        assert_out_is_union_of_successors_in(&f);
    }

    #[test]
    fn a_set_copies_a_view_without_changing_it() {
        let mut src = BitSet::empty(130);
        for i in [0, 64, 129] {
            src.set(i);
        }
        let mut dst = BitSet::full(7);
        dst.copy_from(src.view());
        assert_eq!(dst, src);
        dst.copy_from(BitSet::empty(3).view());
        assert!(dst.is_empty() && !dst.get(0));
        assert_eq!(dst.view(), BitSet::empty(3).view());
    }
}
