//! Summaries that follow a program's edits.
//!
//! The driver reads the summaries up to four times per pass (the
//! `pure_calls` and `ipa` stages, the clone planner, the inline planner),
//! and each stage between two reads edits a handful of bodies. A
//! [`SummaryCache`] keeps every function's local scan beside the
//! partition's [`CallGraphCache`] and, on each read, re-scans only the
//! bodies that cache re-scanned since the last read (it compares the
//! cache's per-function scan stamps) plus any appended functions. It then
//! walks the SCCs callees first and re-solves a component only when one of
//! its members was re-scanned, its membership changed, or a function it
//! calls got a summary of a different value in this read. Every other
//! component's inputs are what they were when it was last solved, and
//! [`crate::analyze`]'s per-SCC solve depends on nothing else, so the
//! result is [`Summaries::compute`]'s, exactly. Debug builds check that on
//! every read.

use crate::analyze::{plant_fault, scan, solve_scc, LocalFacts};
use crate::summary::{FuncSummary, Summaries};
use hlo_analysis::CallGraphCache;
use hlo_ir::{FuncId, Program};

/// Per-function summary facts kept across the reads of one pipeline.
///
/// Read it with the same [`CallGraphCache`] every time: the scan stamps it
/// compares are that cache's. Every body edit must reach that cache as an
/// invalidation, as it must for the call graph itself. Renames need not:
/// names are refreshed on every read, because static promotion in
/// `make_clone` renames a function without editing it. The planted
/// [`crate::fault`] is applied to what a read returns, never to what the
/// cache keeps, so the first read after disarming is clean.
#[derive(Debug, Default)]
pub struct SummaryCache {
    /// Each function's local scan, and the call-graph scan stamp of the
    /// body it was taken from.
    facts: Vec<LocalFacts>,
    stamps: Vec<u64>,
    /// The solved summaries, indexed like `Program::funcs`.
    solved: Summaries,
    /// At the last read: each function's SCC index, and each SCC's size.
    scc_of: Vec<usize>,
    scc_len: Vec<usize>,
    /// The faulted copy the last read returned while the fault was armed.
    faulted: Option<Summaries>,
    scans: u64,
    solves: u64,
}

impl SummaryCache {
    /// An empty cache; the first read scans and solves the whole program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summaries of `p`, equal to `Summaries::compute(p, &CallGraph::build(p))`.
    ///
    /// # Panics
    /// Debug builds panic if the result differs from that fresh
    /// computation: some stage edited a body without invalidating it in
    /// `cgc`.
    pub fn read(&mut self, p: &Program, cgc: &mut CallGraphCache) -> &Summaries {
        cgc.graph(p); // performs the re-scans pending invalidations ask for
        let n = p.funcs.len();
        debug_assert!(self.facts.len() <= n, "a program never loses functions");
        let mut rescanned = vec![false; n];
        for (i, f) in p.funcs.iter().enumerate() {
            let stamp = cgc.scan_stamp(FuncId(i as u32));
            if i == self.facts.len() {
                self.facts.push(scan(&f.name, f));
                self.stamps.push(stamp);
                self.solved.funcs.push(FuncSummary::bottom("", 0));
            } else if self.stamps[i] != stamp {
                self.facts[i] = scan(&f.name, f);
                self.stamps[i] = stamp;
            } else {
                if self.facts[i].base.name != f.name {
                    self.facts[i].base.name.clone_from(&f.name);
                    self.solved.funcs[i].name.clone_from(&f.name);
                }
                continue;
            }
            rescanned[i] = true;
            self.scans += 1;
        }

        let cg = cgc.graph(p);
        let sccs = cg.sccs();
        let mut changed = vec![false; n];
        let mut scc_of = vec![0; n];
        for (si, comp) in sccs.iter().enumerate() {
            for &f in comp {
                scc_of[f.index()] = si;
            }
            let before = self.scc_of.get(comp[0].index()).copied();
            let same_members = before.is_some_and(|b| {
                self.scc_len[b] == comp.len()
                    && comp.iter().all(|f| self.scc_of.get(f.index()) == Some(&b))
            });
            let stale = !same_members
                || comp.iter().any(|f| {
                    rescanned[f.index()]
                        || self.facts[f.index()].callees().any(|t| changed[t.index()])
                });
            if !stale {
                continue;
            }
            let old = solve_scc(comp, cg, &self.facts, &mut self.solved.funcs);
            self.solves += comp.len() as u64;
            for (&f, was) in comp.iter().zip(old) {
                changed[f.index()] = self.solved.funcs[f.index()] != was;
            }
        }
        self.scc_of = scc_of;
        self.scc_len = sccs.iter().map(Vec::len).collect();

        self.faulted = crate::fault::armed().then(|| {
            let mut view = self.solved.clone();
            plant_fault(&mut view);
            view
        });
        let view = self.faulted.as_ref().unwrap_or(&self.solved);
        #[cfg(debug_assertions)]
        check_against_compute(p, view);
        view
    }

    /// Function bodies scanned so far, across every read.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Functions solved so far (members of re-solved SCCs), across every
    /// read.
    pub fn solves(&self) -> u64 {
        self.solves
    }
}

/// The debug oracle: a read must equal a from-scratch computation.
#[cfg(debug_assertions)]
fn check_against_compute(p: &Program, view: &Summaries) {
    let fresh = Summaries::compute(p, &hlo_analysis::CallGraph::build(p));
    if let Some(i) = (0..fresh.funcs.len()).find(|&i| fresh.funcs[i] != view.funcs[i]) {
        panic!(
            "summary cache is stale for `{}`: cached\n{}but `Summaries::compute` gives\n{}",
            p.funcs[i].name,
            view.funcs[i].section(i),
            fresh.funcs[i].section(i)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_analysis::CallGraph;

    /// Two independent chains under one entry; `leaf_a` is the body the
    /// tests edit.
    const CHAINS: &str = "
        global g;
        fn leaf_a(x) { return x + 1; }
        fn mid_a(x) { return leaf_a(x); }
        fn leaf_b(x) { return x * 3; }
        fn mid_b(x) { return leaf_b(x); }
        fn main(n) { return mid_a(n) + mid_b(n); }
    ";

    fn compile(src: &str) -> Program {
        hlo_frontc::compile(&[("m", src)]).expect("test program compiles")
    }

    fn id(p: &Program, name: &str) -> FuncId {
        p.iter_funcs()
            .find(|(_, f)| f.name == name)
            .map(|(i, _)| i)
            .expect("function exists")
    }

    /// Replaces `name`'s body with its body in `from` (same ids) and
    /// reports the edit to the call-graph cache, as a pipeline stage does.
    fn edit(p: &mut Program, cgc: &mut CallGraphCache, from: &Program, name: &str) {
        let f = id(p, name);
        p.funcs[f.index()] = from.funcs[f.index()].clone();
        cgc.invalidate(f);
    }

    /// A read, checked against the reference in every build.
    fn read(c: &mut SummaryCache, p: &Program, cgc: &mut CallGraphCache) -> Summaries {
        let s = c.read(p, cgc).clone();
        assert_eq!(s, Summaries::compute(p, &CallGraph::build(p)));
        s
    }

    /// (scans, solves) since `before`.
    fn work(c: &SummaryCache, before: (u64, u64)) -> (u64, u64) {
        (c.scans() - before.0, c.solves() - before.1)
    }

    #[test]
    fn unchanged_reread_scans_and_solves_nothing() {
        let p = compile(CHAINS);
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        read(&mut c, &p, &mut cgc);
        let n = p.funcs.len() as u64;
        let before = (c.scans(), c.solves());
        assert_eq!(before, (n, n), "the first read does it all");
        read(&mut c, &p, &mut cgc);
        read(&mut c, &p, &mut cgc);
        assert_eq!(work(&c, before), (0, 0));
    }

    #[test]
    fn one_body_edit_rescans_it_and_resolves_only_the_sccs_that_reach_it() {
        let mut p = compile(CHAINS);
        let stores = compile(&CHAINS.replace(
            "fn leaf_a(x) { return x + 1; }",
            "fn leaf_a(x) { g = x; return x + 1; }",
        ));
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        let old = read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        edit(&mut p, &mut cgc, &stores, "leaf_a");
        let new = read(&mut c, &p, &mut cgc);
        // leaf_a, mid_a and main re-solve; the b chain is untouched.
        assert_eq!(work(&c, before), (1, 3));
        for name in ["leaf_a", "mid_a", "main"] {
            let f = id(&p, name).index();
            assert_ne!(old.funcs[f], new.funcs[f], "{name} absorbs the store");
        }
    }

    #[test]
    fn an_edit_that_keeps_a_leaf_summary_resolves_none_of_its_callers() {
        let mut p = compile(CHAINS);
        let bumped = compile(&CHAINS.replace("return x + 1;", "return x + 2;"));
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        edit(&mut p, &mut cgc, &bumped, "leaf_a");
        read(&mut c, &p, &mut cgc);
        assert_eq!(work(&c, before), (1, 1), "only leaf_a itself re-solves");
    }

    #[test]
    fn an_appended_clone_is_scanned_on_the_next_read() {
        let mut p = compile(CHAINS);
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        let mut clone = p.func(id(&p, "mid_b")).clone();
        clone.name = "mid_b.clone".into();
        let clone = p.push_function(clone);
        let s = read(&mut c, &p, &mut cgc);
        assert_eq!(work(&c, before), (1, 1));
        assert_eq!(s.funcs.len(), p.funcs.len());
        assert_eq!(s.funcs[clone.index()].name, "mid_b.clone");
    }

    #[test]
    fn invalidate_all_rescans_everything() {
        let p = compile(CHAINS);
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        cgc.invalidate_all();
        read(&mut c, &p, &mut cgc);
        let n = p.funcs.len() as u64;
        assert_eq!(work(&c, before), (n, n));
    }

    /// Static promotion renames a function without editing (or
    /// invalidating) it; the next read carries the new name.
    #[test]
    fn a_function_renamed_without_invalidation_reads_back_renamed() {
        let mut p = compile(CHAINS);
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        let f = id(&p, "leaf_b");
        p.func_mut(f).name = "leaf_b.promoted".into();
        let s = read(&mut c, &p, &mut cgc);
        assert_eq!(s.funcs[f.index()].name, "leaf_b.promoted");
        assert_eq!(work(&c, before), (0, 0));
    }

    /// `b` stops calling `a` but keeps its summary (its own loop keeps it
    /// `may_not_terminate`), so only the split membership says `a` must be
    /// solved again, from its own seed, as `Summaries::compute` would.
    #[test]
    fn an_scc_that_splits_resolves_the_member_that_was_not_edited() {
        let src = "
            fn a(n) { if (n > 0) { return b(n - 1); } return 0; }
            fn b(n) { var s = 0; while (s < n) { s = s + 1; } return a(s); }
            fn main(n) { return a(n); }
        ";
        let mut p = compile(src);
        let split = compile(&src.replace("return a(s);", "return s;"));
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        let old = read(&mut c, &p, &mut cgc);
        let before = (c.scans(), c.solves());
        edit(&mut p, &mut cgc, &split, "b");
        let new = read(&mut c, &p, &mut cgc);
        let b = id(&p, "b").index();
        assert_eq!(old.funcs[b], new.funcs[b], "b's summary is unchanged");
        assert_eq!(work(&c, before), (1, 2), "b and the split-off a; not main");
    }

    #[test]
    fn an_armed_fault_reaches_the_read_and_the_next_clean_read_is_clean() {
        let p = compile(
            "extern fn print_i64(1); fn noisy() { print_i64(1); return 0; } fn main() { noisy(); return 0; }",
        );
        let noisy = id(&p, "noisy").index();
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        assert!(!read(&mut c, &p, &mut cgc).funcs[noisy].removable());
        {
            let _armed = crate::fault::FaultGuard::arm();
            assert!(read(&mut c, &p, &mut cgc).funcs[noisy].removable());
        }
        assert!(!read(&mut c, &p, &mut cgc).funcs[noisy].removable());
        assert_eq!(
            c.scans(),
            p.funcs.len() as u64,
            "the fault costs no re-scan"
        );
    }

    /// A body edited behind the call-graph cache's back leaves a stale
    /// entry; the debug oracle must refuse it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "summary cache is stale for `leaf_a`")]
    fn debug_oracle_rejects_a_stale_entry() {
        let mut p = compile(CHAINS);
        let stores = compile(&CHAINS.replace(
            "fn leaf_a(x) { return x + 1; }",
            "fn leaf_a(x) { g = x; return x + 1; }",
        ));
        let (mut c, mut cgc) = (SummaryCache::new(), CallGraphCache::new());
        c.read(&p, &mut cgc);
        let f = id(&p, "leaf_a");
        p.funcs[f.index()] = stores.funcs[f.index()].clone();
        c.read(&p, &mut cgc);
    }
}
