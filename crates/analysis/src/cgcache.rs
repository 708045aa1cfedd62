//! An incrementally-invalidated call graph.
//!
//! The HLO driver queries the call graph at every pass boundary
//! (inline, clone, delete, pure-call removal), but each pass edits only a
//! handful of functions. Rebuilding from scratch re-scans every
//! instruction of the program; the cache re-scans only the functions whose
//! bodies changed since the last query and reassembles the graph from the
//! per-function scans. Assembly goes through the same code path as
//! [`CallGraph::build`], so the cached graph is always byte-identical to a
//! fresh build — there is no "approximately right" mode.
//!
//! Because every pipeline stage that edits a body while the cache is in
//! use reports the edit here, the cache also keeps a *settled* bit per
//! function: the scalar optimizer converged on the function and its body
//! has not changed since, so re-running the optimizer on it would change
//! nothing. Invalidation clears the bit.
//!
//! For the same reason each function's *scan stamp* changes exactly when
//! its body is re-scanned, so analyses that keep per-function facts
//! beside the cache (`hlo-ipa`'s summary cache) can tell which bodies
//! changed since they last looked without being told themselves.

use crate::callgraph::{scan_function, CallGraph, FuncScan};
use hlo_ir::{FuncId, Program};

/// A demand-rebuilt call graph with per-function invalidation.
///
/// Usage: call [`CallGraphCache::graph`] to get the current graph; after
/// mutating a function's body, call [`CallGraphCache::invalidate`] with its
/// id. Newly appended functions (clones, outlined regions) are picked up
/// automatically — the cache notices the program grew. Functions are never
/// removed from a [`Program`] (deletion empties the body and drops the
/// module-list entry), so shrinkage does not occur.
///
/// After running the scalar optimizer on a function to convergence, call
/// [`CallGraphCache::settle`]; [`CallGraphCache::is_settled`] then holds
/// until the next invalidation of that function.
#[derive(Debug, Default)]
pub struct CallGraphCache {
    scans: Vec<FuncScan>,
    dirty: Vec<bool>,
    /// Per function, the ordinal of the scan that produced `scans[i]`
    /// (`rescans` just after it), so every scan gets a stamp of its own.
    stamps: Vec<u64>,
    /// Indexed by id, and may reach past `scans` (a clone settles before
    /// the next query scans it); ids past its end are unsettled.
    settled: Vec<bool>,
    graph: Option<CallGraph>,
    rebuilds: u64,
    rescans: u64,
}

impl CallGraphCache {
    /// An empty cache; the first [`CallGraphCache::graph`] call scans the
    /// whole program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks one function's body as changed. Only its out-edges (and the
    /// address-taken bits it contributes) are re-scanned at the next query,
    /// and the function is no longer settled.
    pub fn invalidate(&mut self, f: FuncId) {
        if f.index() < self.dirty.len() {
            self.dirty[f.index()] = true;
            self.graph = None;
        }
        // Ids beyond the scanned range are new functions; growth is
        // detected in `graph()` regardless.
        if let Some(s) = self.settled.get_mut(f.index()) {
            *s = false;
        }
    }

    /// Marks every function as changed (used after transforms with
    /// non-local effects, e.g. outlining).
    pub fn invalidate_all(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
        self.settled.clear();
        self.graph = None;
    }

    /// Records that the scalar optimizer converged on `f`'s current body,
    /// until the next invalidation of `f`.
    pub fn settle(&mut self, f: FuncId) {
        if self.settled.len() <= f.index() {
            self.settled.resize(f.index() + 1, false);
        }
        self.settled[f.index()] = true;
    }

    /// Whether `f` is settled: [`CallGraphCache::settle`] was called for it
    /// and it has not been invalidated since.
    pub fn is_settled(&self, f: FuncId) -> bool {
        self.settled.get(f.index()).copied().unwrap_or(false)
    }

    /// The call graph of `p`, re-scanning only invalidated or newly
    /// appended functions.
    pub fn graph(&mut self, p: &Program) -> &CallGraph {
        if self.scans.len() < p.funcs.len() {
            // Program grew: scan the new tail.
            for i in self.scans.len()..p.funcs.len() {
                let id = FuncId(i as u32);
                self.scans.push(scan_function(id, p.func(id)));
                self.dirty.push(false);
                self.rescans += 1;
                self.stamps.push(self.rescans);
            }
            self.graph = None;
        }
        debug_assert_eq!(self.scans.len(), p.funcs.len());
        let mut changed = false;
        for (i, d) in self.dirty.iter_mut().enumerate() {
            if *d {
                let id = FuncId(i as u32);
                self.scans[i] = scan_function(id, p.func(id));
                self.rescans += 1;
                self.stamps[i] = self.rescans;
                *d = false;
                changed = true;
            }
        }
        if changed {
            self.graph = None;
        }
        if self.graph.is_none() {
            self.graph = Some(CallGraph::assemble_from_scans(&self.scans));
            self.rebuilds += 1;
        }
        self.graph.as_ref().expect("graph just assembled")
    }

    /// The stamp of the scan behind `f`'s current call-graph facts: it
    /// changes exactly when [`CallGraphCache::graph`] re-scans `f`, and no
    /// two scans of one cache share a stamp. 0 until `f` is first scanned.
    /// Read it after [`CallGraphCache::graph`], which performs the scans an
    /// invalidation asked for.
    pub fn scan_stamp(&self, f: FuncId) -> u64 {
        self.stamps.get(f.index()).copied().unwrap_or(0)
    }

    /// How many times the graph was reassembled (cheap, `O(edges)`).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// How many function bodies were re-scanned (the expensive part a
    /// fresh `CallGraph::build` pays for *every* function, every time).
    pub fn rescans(&self) -> u64 {
        self.rescans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FuncId, FunctionBuilder, Linkage, ProgramBuilder, Type};

    fn chain_program(n: u32) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        for i in 0..n {
            let mut f = FunctionBuilder::new(format!("f{i}"), m, 0);
            let e = f.entry_block();
            if i + 1 < n {
                f.call_void(e, FuncId(i + 1), vec![]);
            }
            f.ret(e, None);
            pb.add_function(f.finish(Linkage::Public, Type::Void));
        }
        pb.finish(Some(FuncId(0)))
    }

    fn assert_matches_fresh(cache: &mut CallGraphCache, p: &Program) {
        let cached = cache.graph(p);
        let fresh = CallGraph::build(p);
        assert_eq!(cached.edges, fresh.edges);
        assert_eq!(cached.callees_of, fresh.callees_of);
        assert_eq!(cached.callers_of, fresh.callers_of);
        assert_eq!(cached.indirect_sites, fresh.indirect_sites);
        assert_eq!(cached.extern_sites, fresh.extern_sites);
        assert_eq!(cached.address_taken, fresh.address_taken);
    }

    #[test]
    fn first_query_matches_fresh_build() {
        let p = chain_program(5);
        let mut cache = CallGraphCache::new();
        assert_matches_fresh(&mut cache, &p);
        assert_eq!(cache.rescans(), 5);
        assert_eq!(cache.rebuilds(), 1);
    }

    #[test]
    fn unchanged_requery_rescans_nothing() {
        let p = chain_program(4);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        cache.graph(&p);
        cache.graph(&p);
        assert_eq!(cache.rescans(), 4);
        assert_eq!(cache.rebuilds(), 1);
    }

    #[test]
    fn invalidation_rescans_only_the_edited_function() {
        let mut p = chain_program(6);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        // Edit f2: retarget its call from f3 to f5.
        for b in &mut p.funcs[2].blocks {
            for inst in &mut b.insts {
                if let hlo_ir::Inst::Call { callee, .. } = inst {
                    *callee = hlo_ir::Callee::Func(FuncId(5));
                }
            }
        }
        cache.invalidate(FuncId(2));
        assert_matches_fresh(&mut cache, &p);
        assert_eq!(cache.rescans(), 7, "6 initial + 1 invalidated");
    }

    #[test]
    fn appended_functions_are_picked_up() {
        let p = chain_program(3);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        // Grow the program by a function that calls f0 and takes f1's
        // address.
        let mut p = p;
        let m = p.funcs[0].module;
        let mut g = FunctionBuilder::new("g", m, 0);
        let e = g.entry_block();
        g.call_void(e, FuncId(0), vec![]);
        let fp = g.const_(e, hlo_ir::ConstVal::FuncAddr(FuncId(1)));
        g.call_indirect(e, fp.into(), vec![]);
        g.ret(e, None);
        let id = FuncId(p.funcs.len() as u32);
        p.funcs.push(g.finish(Linkage::Public, Type::Void));
        p.modules[m.index()].funcs.push(id);
        assert_matches_fresh(&mut cache, &p);
        let cg = cache.graph(&p);
        assert!(cg.address_taken[1]);
        assert_eq!(cg.callees_of[id.index()].len(), 1);
    }

    #[test]
    fn invalidate_all_matches_fresh() {
        let mut p = chain_program(4);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        p.funcs[1].blocks[0].insts.clear();
        p.funcs[1].blocks[0]
            .insts
            .push(hlo_ir::Inst::Ret { value: None });
        cache.invalidate_all();
        assert_matches_fresh(&mut cache, &p);
    }

    #[test]
    fn scan_stamps_change_exactly_on_rescan() {
        let mut p = chain_program(3);
        let mut cache = CallGraphCache::new();
        assert_eq!(cache.scan_stamp(FuncId(0)), 0, "never scanned");
        cache.graph(&p);
        let first: Vec<u64> = (0..3).map(|i| cache.scan_stamp(FuncId(i))).collect();
        cache.invalidate(FuncId(1));
        cache.graph(&p);
        let clone = p.push_function(p.funcs[2].clone());
        cache.graph(&p);
        let second: Vec<u64> = (0..3).map(|i| cache.scan_stamp(FuncId(i))).collect();
        assert_eq!((first[0], first[2]), (second[0], second[2]));
        assert!(second[1] > first[1], "a re-scan gets a fresh stamp");
        assert!(cache.scan_stamp(clone) > second[1], "so does a first scan");
    }

    #[test]
    fn invalidating_unknown_id_is_harmless() {
        let p = chain_program(2);
        let mut cache = CallGraphCache::new();
        cache.invalidate(FuncId(99));
        assert_matches_fresh(&mut cache, &p);
        cache.settle(FuncId(1));
        cache.invalidate(FuncId(99));
        assert!(!cache.is_settled(FuncId(99)));
        assert!(cache.is_settled(FuncId(1)));
        assert_matches_fresh(&mut cache, &p);
    }

    #[test]
    fn settled_until_invalidated() {
        let p = chain_program(3);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        assert!(!cache.is_settled(FuncId(1)));
        cache.settle(FuncId(1));
        assert!(cache.is_settled(FuncId(1)));
        // A query re-scans nothing and keeps the bit.
        cache.graph(&p);
        assert!(cache.is_settled(FuncId(1)));
    }

    #[test]
    fn invalidate_unsettles_only_its_id() {
        let p = chain_program(4);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        for i in 0..4 {
            cache.settle(FuncId(i));
        }
        cache.invalidate(FuncId(2));
        let settled: Vec<bool> = (0..4).map(|i| cache.is_settled(FuncId(i))).collect();
        assert_eq!(settled, [true, true, false, true]);
        // The re-scan that follows the invalidation does not resettle it.
        assert_matches_fresh(&mut cache, &p);
        assert!(!cache.is_settled(FuncId(2)));
    }

    #[test]
    fn invalidate_all_unsettles_every_id() {
        let p = chain_program(3);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        for i in 0..3 {
            cache.settle(FuncId(i));
        }
        cache.invalidate_all();
        assert!((0..3).all(|i| !cache.is_settled(FuncId(i))));
    }

    #[test]
    fn fresh_clone_starts_unsettled_and_can_settle_before_its_scan() {
        let mut p = chain_program(2);
        let mut cache = CallGraphCache::new();
        cache.graph(&p);
        cache.settle(FuncId(0));
        // Append a function past the scanned range, as cloning does.
        let clone = FuncId(p.funcs.len() as u32);
        let mut f = p.funcs[1].clone();
        f.name = "f1.clone".into();
        p.funcs.push(f);
        p.modules[0].funcs.push(clone);
        assert!(!cache.is_settled(clone));
        cache.settle(clone);
        assert!(cache.is_settled(clone));
        // Scanning the grown program keeps both bits; an edit to the
        // clone clears its own.
        assert_matches_fresh(&mut cache, &p);
        assert!(cache.is_settled(clone) && cache.is_settled(FuncId(0)));
        cache.invalidate(clone);
        assert!(!cache.is_settled(clone) && cache.is_settled(FuncId(0)));
        // A clone appended later starts unsettled even though a
        // neighbouring id was settled.
        let later = FuncId(p.funcs.len() as u32);
        p.funcs.push(p.funcs[1].clone());
        assert_matches_fresh(&mut cache, &p);
        assert!(!cache.is_settled(later));
    }
}
