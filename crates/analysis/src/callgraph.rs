//! Call graph construction and strongly connected components.

use hlo_ir::{BlockId, Callee, ConstVal, FuncId, Inst, Operand, Program};
use std::sync::OnceLock;

/// Names a particular call instruction: function, block, instruction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallSiteRef {
    /// The calling function.
    pub caller: FuncId,
    /// Block containing the call.
    pub block: BlockId,
    /// Index of the call within the block.
    pub inst: usize,
}

/// A direct call edge in the call graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Where the call happens.
    pub site: CallSiteRef,
    /// The function called.
    pub callee: FuncId,
}

/// One weakly connected component of the call graph — an independent
/// optimization region for the parallel inline/clone planner (see
/// [`CallGraph::partitions`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraphPartition {
    /// Member functions, ascending. Singleton partitions (functions with
    /// no direct-call edges at all) are included.
    pub funcs: Vec<FuncId>,
    /// Indices into [`CallGraph::edges`] of every edge inside this
    /// partition, ascending.
    pub edge_indices: Vec<usize>,
}

/// The program call graph.
///
/// Only *direct* calls form edges; indirect and external sites are recorded
/// separately (they cannot be inlined or cloned directly, Figure 5).
/// Functions whose address is taken anywhere are flagged: they stay alive
/// during unreachable-routine deletion and keep their original entry when
/// cloned. The SCC list is computed on first use and kept with the graph,
/// so each assembly runs Tarjan at most once however many readers ask.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// All direct edges, in deterministic program order.
    pub edges: Vec<CallEdge>,
    /// For each function: indices into `edges` of calls *out of* it.
    pub callees_of: Vec<Vec<usize>>,
    /// For each function: indices into `edges` of calls *into* it.
    pub callers_of: Vec<Vec<usize>>,
    /// Indirect call sites (callee computed at run time).
    pub indirect_sites: Vec<CallSiteRef>,
    /// Calls to external routines.
    pub extern_sites: Vec<CallSiteRef>,
    /// Whether each function has its address taken by a `FuncAddr` constant.
    pub address_taken: Vec<bool>,
    /// Whether each function *takes* some function's address (its body
    /// contains a `FuncAddr` constant).
    pub address_takers: Vec<bool>,
    /// [`CallGraph::sccs`], once computed.
    sccs: OnceLock<Vec<Vec<FuncId>>>,
}

/// The call-relevant facts of a single function body: its direct call
/// edges, indirect/external sites, and the functions whose address it
/// takes. This is the unit of incremental invalidation in
/// [`CallGraphCache`] — editing one function only requires re-scanning
/// this, not the whole program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncScan {
    /// Direct call edges out of this function, in instruction order.
    pub direct: Vec<CallEdge>,
    /// Indirect call sites in this function.
    pub indirect: Vec<CallSiteRef>,
    /// External call sites in this function.
    pub externs: Vec<CallSiteRef>,
    /// Functions whose address this body takes via `FuncAddr` constants.
    pub takes_address_of: Vec<FuncId>,
}

/// Scans one function body for the facts [`CallGraph::build`] needs.
pub fn scan_function(caller: FuncId, f: &hlo_ir::Function) -> FuncScan {
    let mut scan = FuncScan::default();
    for (bid, block) in f.iter_blocks() {
        for (idx, inst) in block.insts.iter().enumerate() {
            let mut note_const = |c: ConstVal| {
                if let ConstVal::FuncAddr(t) = c {
                    scan.takes_address_of.push(t);
                }
            };
            if let Inst::Const { value, .. } = inst {
                note_const(*value);
            }
            inst.for_each_use(|op| {
                if let Operand::Const(c) = op {
                    note_const(*c);
                }
            });
            if let Inst::Call { callee, .. } = inst {
                let site = CallSiteRef {
                    caller,
                    block: bid,
                    inst: idx,
                };
                match callee {
                    Callee::Func(t) => scan.direct.push(CallEdge { site, callee: *t }),
                    Callee::Extern(_) => scan.externs.push(site),
                    Callee::Indirect(_) => scan.indirect.push(site),
                }
            }
        }
    }
    scan
}

/// Assembles a [`CallGraph`] from per-function scans, in function order.
/// `CallGraph::build` and [`CallGraphCache`] both go through this, so a
/// cached graph is byte-identical to a fresh build.
fn assemble(scans: &[FuncScan]) -> CallGraph {
    let n = scans.len();
    let mut edges = Vec::new();
    let mut callees_of = vec![Vec::new(); n];
    let mut callers_of = vec![Vec::new(); n];
    let mut indirect_sites = Vec::new();
    let mut extern_sites = Vec::new();
    let mut address_taken = vec![false; n];
    let mut address_takers = vec![false; n];
    for (fi, scan) in scans.iter().enumerate() {
        for edge in &scan.direct {
            let ei = edges.len();
            edges.push(*edge);
            callees_of[fi].push(ei);
            callers_of[edge.callee.index()].push(ei);
        }
        indirect_sites.extend_from_slice(&scan.indirect);
        extern_sites.extend_from_slice(&scan.externs);
        for &t in &scan.takes_address_of {
            address_taken[t.index()] = true;
            address_takers[fi] = true;
        }
    }
    CallGraph {
        edges,
        callees_of,
        callers_of,
        indirect_sites,
        extern_sites,
        address_taken,
        address_takers,
        sccs: OnceLock::new(),
    }
}

impl CallGraph {
    /// Builds the call graph of `p`.
    pub fn build(p: &Program) -> Self {
        let scans: Vec<FuncScan> = p
            .iter_funcs()
            .map(|(caller, f)| scan_function(caller, f))
            .collect();
        assemble(&scans)
    }

    /// Assembles a graph from per-function scans (the
    /// [`crate::CallGraphCache`] fast path; same code as `build`).
    pub(crate) fn assemble_from_scans(scans: &[FuncScan]) -> Self {
        assemble(scans)
    }

    /// Number of functions covered.
    pub fn num_funcs(&self) -> usize {
        self.callees_of.len()
    }

    /// Strongly connected components in *reverse topological order*:
    /// callees appear before callers, which is exactly the bottom-up order
    /// the paper's inline scheduler works in. Members of each component
    /// ascend. Computed on the first call and kept with the graph.
    pub fn sccs(&self) -> &[Vec<FuncId>] {
        self.sccs.get_or_init(|| self.tarjan())
    }

    fn tarjan(&self) -> Vec<Vec<FuncId>> {
        // Iterative Tarjan to avoid recursion limits on deep call chains.
        let n = self.num_funcs();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs = Vec::new();
        let mut counter = 0usize;

        #[derive(Clone, Copy)]
        struct Frame {
            v: usize,
            edge_pos: usize,
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame {
                v: start,
                edge_pos: 0,
            }];
            index[start] = counter;
            low[start] = counter;
            counter += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(frame) = call_stack.last_mut() {
                let v = frame.v;
                let succs = &self.callees_of[v];
                if frame.edge_pos < succs.len() {
                    let w = self.edges[succs[frame.edge_pos]].callee.index();
                    frame.edge_pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push(Frame { v: w, edge_pos: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(parent) = call_stack.last() {
                        low[parent.v] = low[parent.v].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// Partitions the program into independent optimization regions: the
    /// weakly connected components of the SCC condensation of the direct
    /// call graph (equivalently, of the graph itself — condensing cycles
    /// never merges or splits weak components). No direct-call edge
    /// crosses a partition boundary, so inline/clone decisions inside one
    /// partition cannot affect any other: the inline and clone passes plan
    /// each partition against its own share of the budget headroom, one
    /// partition after another in the order returned here.
    ///
    /// Partitions are returned in ascending order of their smallest
    /// member `FuncId`; members and edge indices are ascending too, so
    /// the decomposition is deterministic.
    pub fn partitions(&self) -> Vec<CallGraphPartition> {
        let n = self.num_funcs();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        for e in &self.edges {
            let a = find(&mut parent, e.site.caller.index());
            let b = find(&mut parent, e.callee.index());
            if a != b {
                // Union by smaller root id keeps roots == smallest member.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }
        let mut index_of_root = vec![usize::MAX; n];
        let mut parts: Vec<CallGraphPartition> = Vec::new();
        for f in 0..n {
            let r = find(&mut parent, f);
            if index_of_root[r] == usize::MAX {
                index_of_root[r] = parts.len();
                parts.push(CallGraphPartition::default());
            }
            parts[index_of_root[r]].funcs.push(FuncId(f as u32));
        }
        for (ei, e) in self.edges.iter().enumerate() {
            let r = find(&mut parent, e.site.caller.index());
            parts[index_of_root[r]].edge_indices.push(ei);
        }
        parts
    }

    /// Partitions the program into **cache partitions**: the unit of
    /// function-grain result reuse in the incremental daemon. These are
    /// the [`CallGraph::partitions`] weak components, except that every
    /// component touching the *indirect-call environment* — a component
    /// containing an indirect call site, an address-taken function, or a
    /// function whose body takes an address — is merged into a single
    /// **island**. Optimization may promote an indirect site to a direct
    /// call of any address-taken function (and cloning an address-taking
    /// caller may rename the taken target), so those components can
    /// observe each other; keeping them in one partition makes each
    /// partition's optimized output a pure function of its own members.
    ///
    /// Same ordering guarantees as [`CallGraph::partitions`]: partitions
    /// ascend by smallest member id, members and edges ascend within.
    pub fn cache_partitions(&self) -> Vec<CallGraphPartition> {
        let n = self.num_funcs();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let a = find(parent, a);
            let b = find(parent, b);
            if a != b {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }
        for e in &self.edges {
            union(&mut parent, e.site.caller.index(), e.callee.index());
        }
        // Merge the indirect-call island.
        let mut island: Option<usize> = None;
        let mut join = |parent: &mut [usize], f: usize| match island {
            None => island = Some(f),
            Some(anchor) => union(parent, anchor, f),
        };
        for s in &self.indirect_sites {
            join(&mut parent, s.caller.index());
        }
        for f in 0..n {
            if self.address_taken[f] || self.address_takers[f] {
                join(&mut parent, f);
            }
        }
        let mut index_of_root = vec![usize::MAX; n];
        let mut parts: Vec<CallGraphPartition> = Vec::new();
        for f in 0..n {
            let r = find(&mut parent, f);
            if index_of_root[r] == usize::MAX {
                index_of_root[r] = parts.len();
                parts.push(CallGraphPartition::default());
            }
            parts[index_of_root[r]].funcs.push(FuncId(f as u32));
        }
        for (ei, e) in self.edges.iter().enumerate() {
            let r = find(&mut parent, e.site.caller.index());
            parts[index_of_root[r]].edge_indices.push(ei);
        }
        parts
    }

    /// Combines per-function content hashes into **cone hashes**: the hash
    /// of everything inlining into `f` could possibly read — `f`'s own
    /// content plus, transitively, every function reachable from `f`
    /// through direct calls (its *inline-reachable cone*). Two programs
    /// assign a function equal cone hashes exactly when the function and
    /// its whole cone are textually identical, which is what lets a result
    /// cache invalidate only the dependence cone of an edit: callers of a
    /// changed function change, untouched siblings do not.
    ///
    /// Cycles are handled by SCC condensation (every member of a recursive
    /// component shares the component's combined hash). Functions whose
    /// cone contains an **indirect** call site additionally absorb a hash
    /// of every address-taken function's cone — an indirect site can reach
    /// any of them, so all of them must invalidate it. Extern callees are
    /// fixed by the runtime and contribute only through the call site text
    /// already covered by `own`.
    ///
    /// `own[i]` is the content hash of function `i` (normally
    /// [`hlo_ir::hash_function`]).
    ///
    /// # Panics
    /// Panics if `own.len()` differs from the number of functions.
    pub fn cone_hashes(&self, own: &[u64]) -> Vec<u64> {
        assert_eq!(own.len(), self.num_funcs(), "one hash per function");
        let n = self.num_funcs();
        let sccs = self.sccs(); // reverse topological: callees first
        let mut scc_of = vec![usize::MAX; n];
        for (si, comp) in sccs.iter().enumerate() {
            for &f in comp {
                scc_of[f.index()] = si;
            }
        }
        let mut has_indirect = vec![false; n];
        for s in &self.indirect_sites {
            has_indirect[s.caller.index()] = true;
        }

        // Pass 1 (callees before callers): per-SCC combined hash over the
        // members and their external callee SCCs, plus whether the cone
        // transitively contains an indirect site.
        let mut scc_hash = vec![0u64; sccs.len()];
        let mut scc_indirect = vec![false; sccs.len()];
        for (si, comp) in sccs.iter().enumerate() {
            let mut callee_sccs: Vec<usize> = Vec::new();
            let mut indirect = false;
            let mut h = hlo_ir::Fnv64::new();
            for &f in comp {
                // Members are sorted ascending, so this is deterministic.
                h.write_u64(own[f.index()]);
                indirect |= has_indirect[f.index()];
                for &e in &self.callees_of[f.index()] {
                    let cs = scc_of[self.edges[e].callee.index()];
                    if cs != si {
                        callee_sccs.push(cs);
                    }
                }
            }
            callee_sccs.sort_unstable();
            callee_sccs.dedup();
            for cs in callee_sccs {
                h.write_u64(scc_hash[cs]);
                indirect |= scc_indirect[cs];
            }
            scc_hash[si] = h.finish();
            scc_indirect[si] = indirect;
        }

        // A function's direct cone hash: its own content plus its SCC's
        // combined cone (which already includes `own[f]`, but mixing it
        // again keeps members of one SCC distinguishable).
        let direct: Vec<u64> = (0..n)
            .map(|f| {
                let mut h = hlo_ir::Fnv64::new();
                h.write_u64(own[f]).write_u64(scc_hash[scc_of[f]]);
                h.finish()
            })
            .collect();

        // Pass 2: one environment hash over every address-taken function's
        // direct cone; any cone containing an indirect site absorbs it.
        let mut env = hlo_ir::Fnv64::new();
        env.write(b"indirect-env");
        for (f, &d) in direct.iter().enumerate() {
            if self.address_taken[f] {
                env.write_u64(d);
            }
        }
        let env = env.finish();
        (0..n)
            .map(|f| {
                if scc_indirect[scc_of[f]] {
                    let mut h = hlo_ir::Fnv64::new();
                    h.write_u64(direct[f]).write_u64(env);
                    h.finish()
                } else {
                    direct[f]
                }
            })
            .collect()
    }

    /// Whether the component `comp` of [`CallGraph::sccs`] is recursive:
    /// it has several members, or its one member calls itself.
    pub fn is_recursive(&self, comp: &[FuncId]) -> bool {
        comp.len() > 1
            || self.callees_of[comp[0].index()]
                .iter()
                .any(|&e| self.edges[e].callee == comp[0])
    }

    /// Whether `f` participates in recursion: a self edge or a nontrivial
    /// SCC.
    pub fn in_recursion(&self, f: FuncId) -> bool {
        self.sccs()
            .iter()
            .find(|comp| comp.contains(&f))
            .is_some_and(|comp| self.is_recursive(comp))
    }
}

/// For each function, the index of its partition within `parts` (which
/// must cover all `n` functions, as both [`CallGraph::partitions`] and
/// [`CallGraph::cache_partitions`] guarantee).
pub fn partition_index_map(parts: &[CallGraphPartition], n: usize) -> Vec<usize> {
    let mut map = vec![usize::MAX; n];
    for (pi, part) in parts.iter().enumerate() {
        for &f in &part.funcs {
            map[f.index()] = pi;
        }
    }
    debug_assert!(map.iter().all(|&pi| pi != usize::MAX));
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FunctionBuilder, Linkage, ModuleId, Operand, ProgramBuilder, Type};

    /// Builds: main -> a -> b -> a (cycle), main -> c, c address-taken by main.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        // placeholder ids: we add in order main=0, a=1, b=2, c=3
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        main.call_void(e, FuncId(1), vec![]);
        main.call_void(e, FuncId(3), vec![]);
        let fp = main.const_(e, ConstVal::FuncAddr(FuncId(3)));
        main.call_indirect(e, fp.into(), vec![]);
        main.ret(e, None);
        pb.add_function(main.finish(Linkage::Public, Type::Void));

        let mut a = FunctionBuilder::new("a", m, 0);
        let e = a.entry_block();
        a.call_void(e, FuncId(2), vec![]);
        a.ret(e, None);
        pb.add_function(a.finish(Linkage::Public, Type::Void));

        let mut b = FunctionBuilder::new("b", m, 0);
        let e = b.entry_block();
        b.call_void(e, FuncId(1), vec![]);
        b.ret(e, None);
        pb.add_function(b.finish(Linkage::Public, Type::Void));

        let mut c = FunctionBuilder::new("c", m, 0);
        let e = c.entry_block();
        c.ret(e, None);
        pb.add_function(c.finish(Linkage::Public, Type::Void));

        pb.finish(Some(FuncId(0)))
    }

    #[test]
    fn builds_edges_and_sites() {
        let p = program();
        let cg = CallGraph::build(&p);
        assert_eq!(cg.edges.len(), 4); // main->a, main->c, a->b, b->a
        assert_eq!(cg.indirect_sites.len(), 1);
        assert!(cg.extern_sites.is_empty());
        assert!(cg.address_taken[3]);
        assert!(!cg.address_taken[1]);
        assert_eq!(cg.callers_of[1].len(), 2); // from main and from b
    }

    #[test]
    fn sccs_are_bottom_up() {
        let p = program();
        let cg = CallGraph::build(&p);
        let sccs = cg.sccs();
        // {a, b} must be one component; main must come after it.
        let ab_pos = sccs
            .iter()
            .position(|c| c.contains(&FuncId(1)))
            .expect("a in some scc");
        let main_pos = sccs
            .iter()
            .position(|c| c.contains(&FuncId(0)))
            .expect("main in some scc");
        assert_eq!(sccs[ab_pos], vec![FuncId(1), FuncId(2)]);
        assert!(ab_pos < main_pos, "callees before callers");
    }

    #[test]
    fn recursion_detection() {
        let p = program();
        let cg = CallGraph::build(&p);
        assert!(cg.in_recursion(FuncId(1)));
        assert!(cg.in_recursion(FuncId(2)));
        assert!(!cg.in_recursion(FuncId(0)));
        assert!(!cg.in_recursion(FuncId(3)));
    }

    #[test]
    fn self_loop_counts_as_recursion() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("f", m, 0);
        let e = f.entry_block();
        f.call_void(e, FuncId(0), vec![]);
        f.ret(e, None);
        pb.add_function(f.finish(Linkage::Public, Type::Void));
        let p = pb.finish(Some(FuncId(0)));
        let cg = CallGraph::build(&p);
        assert!(cg.in_recursion(FuncId(0)));
    }

    use hlo_ir::ConstVal;
    #[allow(unused_imports)]
    use hlo_ir::Reg;

    #[test]
    fn empty_program() {
        let p = Program::new();
        let cg = CallGraph::build(&p);
        assert!(cg.sccs().is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 10_000-deep call chain exercises the iterative Tarjan.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let n = 10_000u32;
        for i in 0..n {
            let mut f = FunctionBuilder::new(format!("f{i}"), m, 0);
            let e = f.entry_block();
            if i + 1 < n {
                f.call_void(e, FuncId(i + 1), vec![]);
            }
            f.ret(e, None);
            pb.add_function(f.finish(Linkage::Public, Type::Void));
        }
        let p = pb.finish(Some(FuncId(0)));
        let cg = CallGraph::build(&p);
        let sccs = cg.sccs();
        assert_eq!(sccs.len(), n as usize);
        // bottom-up: the leaf (last function) first
        assert_eq!(sccs[0], vec![FuncId(n - 1)]);
    }

    #[test]
    fn partitions_split_weak_components() {
        // Two islands: {main, a, b, c} (main->a->b->a, main->c direct and
        // indirect) and two isolated helpers {d}, {e} with d->e.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let base = program(); // main=0,a=1,b=2,c=3
        let mut p = base;
        let mut d = FunctionBuilder::new("d", m, 0);
        let e = d.entry_block();
        d.call_void(e, FuncId(5), vec![]);
        d.ret(e, None);
        let did = FuncId(p.funcs.len() as u32);
        p.funcs.push(d.finish(Linkage::Public, Type::Void));
        p.modules[0].funcs.push(did);
        let mut ef = FunctionBuilder::new("e", m, 0);
        let b = ef.entry_block();
        ef.ret(b, None);
        let eid = FuncId(p.funcs.len() as u32);
        p.funcs.push(ef.finish(Linkage::Public, Type::Void));
        p.modules[0].funcs.push(eid);
        let _ = pb;

        let cg = CallGraph::build(&p);
        let parts = cg.partitions();
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts[0].funcs,
            vec![FuncId(0), FuncId(1), FuncId(2), FuncId(3)]
        );
        assert_eq!(parts[1].funcs, vec![FuncId(4), FuncId(5)]);
        // Every edge is inside exactly one partition.
        let total: usize = parts.iter().map(|q| q.edge_indices.len()).sum();
        assert_eq!(total, cg.edges.len());
        for part in &parts {
            for &ei in &part.edge_indices {
                let e = cg.edges[ei];
                assert!(part.funcs.contains(&e.site.caller));
                assert!(part.funcs.contains(&e.callee));
            }
        }
    }

    #[test]
    fn every_function_lands_in_exactly_one_partition() {
        let p = program();
        let cg = CallGraph::build(&p);
        let parts = cg.partitions();
        let mut seen: Vec<FuncId> = parts.iter().flat_map(|q| q.funcs.clone()).collect();
        seen.sort();
        assert_eq!(seen.len(), p.funcs.len());
        seen.dedup();
        assert_eq!(seen.len(), p.funcs.len());
    }

    /// Three islands with no address/indirect traffic: cache partitions
    /// coincide with the plain weak components.
    #[test]
    fn cache_partitions_match_partitions_without_indirection() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        for i in 0..3u32 {
            let mut caller = FunctionBuilder::new(format!("c{i}"), m, 0);
            let e = caller.entry_block();
            caller.call_void(e, FuncId(i * 2 + 1), vec![]);
            caller.ret(e, None);
            pb.add_function(caller.finish(Linkage::Public, Type::Void));
            let mut leaf = FunctionBuilder::new(format!("l{i}"), m, 0);
            let e = leaf.entry_block();
            leaf.ret(e, None);
            pb.add_function(leaf.finish(Linkage::Public, Type::Void));
        }
        let p = pb.finish(Some(FuncId(0)));
        let cg = CallGraph::build(&p);
        assert_eq!(cg.cache_partitions(), cg.partitions());
        assert_eq!(cg.cache_partitions().len(), 3);
    }

    /// The base `program()` has an indirect site in main and c's address
    /// taken — both already inside main's weak component. An unrelated
    /// function `t` that takes an address joins that island; a genuinely
    /// disconnected pure pair {d, e} stays its own partition.
    #[test]
    fn cache_partitions_merge_indirect_island() {
        let mut p = program(); // main=0, a=1, b=2, c=3 (c address-taken)
        let m = p.funcs[0].module;
        // t (id 4): takes a's address, otherwise disconnected.
        let mut t = FunctionBuilder::new("t", m, 0);
        let e = t.entry_block();
        let _ = t.const_(e, ConstVal::FuncAddr(FuncId(1)));
        t.ret(e, None);
        let tid = FuncId(p.funcs.len() as u32);
        p.funcs.push(t.finish(Linkage::Public, Type::Void));
        p.modules[0].funcs.push(tid);
        // d (id 5) -> e (id 6): pure direct pair, stays separate.
        let mut d = FunctionBuilder::new("d", m, 0);
        let e = d.entry_block();
        d.call_void(e, FuncId(6), vec![]);
        d.ret(e, None);
        let did = FuncId(p.funcs.len() as u32);
        p.funcs.push(d.finish(Linkage::Public, Type::Void));
        p.modules[0].funcs.push(did);
        let mut ef = FunctionBuilder::new("e", m, 0);
        let b = ef.entry_block();
        ef.ret(b, None);
        let eid = FuncId(p.funcs.len() as u32);
        p.funcs.push(ef.finish(Linkage::Public, Type::Void));
        p.modules[0].funcs.push(eid);

        let cg = CallGraph::build(&p);
        assert!(cg.address_takers[0], "main takes c's address");
        assert!(cg.address_takers[4], "t takes a's address");
        let parts = cg.cache_partitions();
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts[0].funcs,
            vec![FuncId(0), FuncId(1), FuncId(2), FuncId(3), FuncId(4)]
        );
        assert_eq!(parts[1].funcs, vec![FuncId(5), FuncId(6)]);
        // Plain partitions keep t separate (no direct edges touch it).
        assert_eq!(cg.partitions().len(), 3);
        // Edges are all accounted for.
        let total: usize = parts.iter().map(|q| q.edge_indices.len()).sum();
        assert_eq!(total, cg.edges.len());
    }

    #[test]
    fn partition_index_map_covers_every_function() {
        let p = program();
        let cg = CallGraph::build(&p);
        let parts = cg.cache_partitions();
        let map = partition_index_map(&parts, p.funcs.len());
        for (f, &pi) in map.iter().enumerate() {
            assert!(parts[pi].funcs.contains(&FuncId(f as u32)));
        }
    }

    #[allow(unused)]
    fn _use_module_id(_: ModuleId, _: Operand) {}
}
