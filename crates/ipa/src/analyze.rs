//! The bottom-up summary computation.
//!
//! Three stages, all sequential and allocation-order deterministic:
//!
//! 1. **Pointer classification** per function: a flow-insensitive fixpoint
//!    assigns every register a [`PtrClass`] (frame address, specific
//!    global, incoming parameter, definitely-not-a-pointer, or unknown).
//! 2. **Local scan** per function: one pass over the body turns memory and
//!    call instructions into local summary facts plus a list of direct
//!    calls with classified arguments.
//! 3. **SCC fixpoint**: walking [`CallGraph::sccs`] callees-first, each
//!    component iterates "rebuild from local facts + current callee
//!    summaries" until its members stop changing. Acyclic components
//!    converge in one pass; recursive ones in a few (the lattices are
//!    finite and all merges are monotone).
//!
//! A component's solution depends only on its members' local facts and
//! the solved summaries of the functions they call ([`solve_scc`] seeds
//! every member afresh), which is what lets [`crate::SummaryCache`]
//! re-solve just the components an edit reaches and still agree with
//! [`Summaries::compute`] exactly.

use crate::summary::{FuncSummary, ParamEscape, RetInfo, Summaries};
use hlo_analysis::CallGraph;
use hlo_ir::{BinOp, Callee, ConstVal, FuncId, Function, GlobalId, Inst, Operand, Program};
use std::collections::BTreeSet;

/// What a register may hold, as far as a flow-insensitive pass can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PtrClass {
    /// No definition seen yet (lattice bottom; undefined registers read
    /// as zero at run time).
    None,
    /// Definitely not an address (integer/float arithmetic results,
    /// comparison bits, non-address constants).
    NotPtr,
    /// An address within this function's own frame (`FrameAddr`,
    /// `Alloca`, or offsets from one).
    Frame,
    /// The address of global `.0` (or an offset from it).
    Global(GlobalId),
    /// The value of incoming parameter `.0`, unmodified (or an offset
    /// from it) — the conduit for interprocedural escape and MOD/REF.
    Param(u32),
    /// Could be anything (lattice top).
    Unknown,
}

impl PtrClass {
    fn join(self, other: PtrClass) -> PtrClass {
        use PtrClass::*;
        match (self, other) {
            (None, x) | (x, None) => x,
            (a, b) if a == b => a,
            _ => Unknown,
        }
    }
}

fn const_class(c: ConstVal) -> PtrClass {
    match c {
        ConstVal::GlobalAddr(g) => PtrClass::Global(g),
        _ => PtrClass::NotPtr,
    }
}

/// Flow-insensitive register classification for one function.
fn pointer_classes(f: &Function) -> Vec<PtrClass> {
    let n = f.num_regs as usize;
    let mut class = vec![PtrClass::None; n];
    for i in 0..f.params.min(f.num_regs) {
        class[i as usize] = PtrClass::Param(i);
    }
    let operand = |class: &[PtrClass], op: Operand| match op {
        Operand::Reg(r) => class[r.index()],
        Operand::Const(c) => const_class(c),
    };
    loop {
        let mut changed = false;
        for block in &f.blocks {
            for inst in &block.insts {
                let Some(d) = inst.dst() else { continue };
                let new = match inst {
                    Inst::Const { value, .. } => const_class(*value),
                    Inst::Copy { src, .. } => operand(&class, *src),
                    Inst::FrameAddr { .. } | Inst::Alloca { .. } => PtrClass::Frame,
                    Inst::Bin { op, a, b, .. } => match op {
                        // Comparisons always produce 0/1.
                        BinOp::Eq
                        | BinOp::Ne
                        | BinOp::Lt
                        | BinOp::Le
                        | BinOp::Gt
                        | BinOp::Ge
                        | BinOp::FLt
                        | BinOp::FEq => PtrClass::NotPtr,
                        // Offsetting an address stays within its region
                        // (out-of-bounds arithmetic is undefined, matching
                        // the memfwd alias model's slot/global disjointness).
                        BinOp::Add | BinOp::Sub => {
                            match (operand(&class, *a), operand(&class, *b)) {
                                (PtrClass::None, _) | (_, PtrClass::None) => PtrClass::None,
                                (PtrClass::NotPtr, x) | (x, PtrClass::NotPtr) => x,
                                _ => PtrClass::Unknown,
                            }
                        }
                        _ => match (operand(&class, *a), operand(&class, *b)) {
                            (PtrClass::None, _) | (_, PtrClass::None) => PtrClass::None,
                            (PtrClass::NotPtr, PtrClass::NotPtr) => PtrClass::NotPtr,
                            _ => PtrClass::Unknown,
                        },
                    },
                    Inst::Un { a, .. } => match operand(&class, *a) {
                        PtrClass::None => PtrClass::None,
                        PtrClass::NotPtr => PtrClass::NotPtr,
                        _ => PtrClass::Unknown,
                    },
                    // Loaded values and call results are unconstrained.
                    Inst::Load { .. } | Inst::Call { .. } => PtrClass::Unknown,
                    _ => PtrClass::Unknown,
                };
                let joined = class[d.index()].join(new);
                if joined != class[d.index()] {
                    class[d.index()] = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            return class;
        }
    }
}

/// Where a `Ret` value comes from, resolved as far as a single-definition
/// scan allows. `Call` sources are resolved against the callee's summary
/// during the SCC fixpoint (so a chain of wrappers still folds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetSrc {
    Const(i64),
    /// A comparison result: always in `[0, 1]`.
    Cmp,
    Call(FuncId),
    Opaque,
}

/// Everything the fixpoint needs about one function, computed once.
#[derive(Debug)]
pub(crate) struct LocalFacts {
    /// Summary over the body alone (no callee facts merged yet).
    pub(crate) base: FuncSummary,
    /// Direct calls in program order, with classified argument values.
    calls: Vec<(FuncId, Vec<PtrClass>)>,
    /// One entry per `Ret` carrying a value.
    ret_srcs: Vec<RetSrc>,
}

impl LocalFacts {
    /// The direct callees, in program order (repeats included).
    pub(crate) fn callees(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.calls.iter().map(|(t, _)| *t)
    }
}

/// The local scan of one function body: its [`LocalFacts`].
pub(crate) fn scan(name: &str, f: &Function) -> LocalFacts {
    let class = pointer_classes(f);
    let mut base = FuncSummary::bottom(name, f.params);
    let mut calls = Vec::new();
    let mut ret_srcs = Vec::new();

    // Single-definition map for return-value resolution. Parameter
    // registers count as defined on entry.
    #[derive(Clone, Copy, PartialEq)]
    enum Def {
        Never,
        Once(RetSrc),
        Multi,
    }
    let mut defs = vec![Def::Never; f.num_regs as usize];
    for i in 0..f.params.min(f.num_regs) {
        defs[i as usize] = Def::Once(RetSrc::Opaque);
    }
    for block in &f.blocks {
        for inst in &block.insts {
            let Some(d) = inst.dst() else { continue };
            let src = match inst {
                Inst::Const {
                    value: ConstVal::I64(k),
                    ..
                } => RetSrc::Const(*k),
                Inst::Copy {
                    src: Operand::Const(ConstVal::I64(k)),
                    ..
                } => RetSrc::Const(*k),
                Inst::Bin { op, .. } if is_cmp(*op) => RetSrc::Cmp,
                Inst::Call {
                    callee: Callee::Func(t),
                    ..
                } => RetSrc::Call(*t),
                _ => RetSrc::Opaque,
            };
            defs[d.index()] = match defs[d.index()] {
                Def::Never => Def::Once(src),
                _ => Def::Multi,
            };
        }
    }

    let operand_class = |op: Operand| match op {
        Operand::Reg(r) => class[r.index()],
        Operand::Const(c) => const_class(c),
    };
    let escape_value = |base: &mut FuncSummary, c: PtrClass| match c {
        PtrClass::Frame => base.leaks_frame = true,
        PtrClass::Param(i) if base.param_escapes[i as usize] == ParamEscape::No => {
            base.param_escapes[i as usize] = ParamEscape::Direct;
        }
        _ => {}
    };

    if cfg_has_cycle(f) {
        base.may_not_terminate = true;
    }
    let mut mods: BTreeSet<GlobalId> = BTreeSet::new();
    let mut refs: BTreeSet<GlobalId> = BTreeSet::new();
    for block in &f.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Store { base: b, value, .. } => {
                    base.syntactic_effects = true;
                    match operand_class(*b) {
                        PtrClass::Frame => {}
                        PtrClass::Global(g) => {
                            mods.insert(g);
                        }
                        PtrClass::Param(i) => base.writes_params[i as usize] = true,
                        _ => base.writes_unknown = true,
                    }
                    // Storing a frame address anywhere counts as a leak
                    // (escape tracking does not follow values through
                    // memory); a parameter stored outside the local frame
                    // escapes.
                    match operand_class(*value) {
                        PtrClass::Frame => base.leaks_frame = true,
                        PtrClass::Param(i)
                            if operand_class(*b) != PtrClass::Frame
                                && base.param_escapes[i as usize] == ParamEscape::No =>
                        {
                            base.param_escapes[i as usize] = ParamEscape::Direct;
                        }
                        _ => {}
                    }
                }
                Inst::Load { base: b, .. } => match operand_class(*b) {
                    PtrClass::Frame => {}
                    PtrClass::Global(g) => {
                        refs.insert(g);
                    }
                    PtrClass::Param(i) => base.reads_params[i as usize] = true,
                    _ => base.reads_unknown = true,
                },
                Inst::Alloca { .. } => base.syntactic_effects = true,
                Inst::Bin { op, b, .. } if op.can_trap() => {
                    base.syntactic_effects = true;
                    let safe = matches!(b.as_const(), Some(ConstVal::I64(k)) if k != 0 && k != -1);
                    if !safe {
                        base.may_trap = true;
                    }
                }
                Inst::Call { callee, args, .. } => match callee {
                    Callee::Func(t) => {
                        calls.push((*t, args.iter().map(|a| operand_class(*a)).collect()));
                    }
                    Callee::Extern(_) | Callee::Indirect(_) => {
                        if matches!(callee, Callee::Extern(_)) {
                            base.calls_extern = true;
                        } else {
                            base.calls_indirect = true;
                        }
                        for a in args {
                            escape_value(&mut base, operand_class(*a));
                        }
                        if let Callee::Indirect(op) = callee {
                            escape_value(&mut base, operand_class(*op));
                        }
                    }
                },
                Inst::Ret { value: Some(v) } => {
                    // Returning a frame address leaks it; returning a
                    // parameter is not an escape (the caller already held
                    // the value).
                    if operand_class(*v) == PtrClass::Frame {
                        base.leaks_frame = true;
                    }
                    ret_srcs.push(match v {
                        Operand::Const(ConstVal::I64(k)) => RetSrc::Const(*k),
                        Operand::Const(_) => RetSrc::Opaque,
                        Operand::Reg(r) => match defs[r.index()] {
                            Def::Once(s) => s,
                            _ => RetSrc::Opaque,
                        },
                    });
                }
                _ => {}
            }
        }
    }
    base.mod_globals = mods.into_iter().collect();
    base.ref_globals = refs.into_iter().collect();
    LocalFacts {
        base,
        calls,
        ret_srcs,
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::FLt
            | BinOp::FEq
    )
}

fn cfg_has_cycle(f: &Function) -> bool {
    let n = f.blocks.len();
    if n == 0 {
        return false;
    }
    let succs: Vec<Vec<_>> = f.blocks.iter().map(|b| b.successors()).collect();
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if *i < succs[v].len() {
            let s = succs[v][*i].index();
            *i += 1;
            match color[s] {
                0 => {
                    color[s] = 1;
                    stack.push((s, 0));
                }
                1 => return true,
                _ => {}
            }
        } else {
            color[v] = 2;
            stack.pop();
        }
    }
    false
}

/// Inclusive bounds of a known return range.
fn bounds(r: RetInfo) -> Option<(i64, i64)> {
    match r {
        RetInfo::Unknown => None,
        RetInfo::Const(k) => Some((k, k)),
        RetInfo::Range(a, b) => Some((a, b)),
    }
}

fn join_ret(acc: Option<RetInfo>, next: RetInfo) -> Option<RetInfo> {
    Some(match acc {
        None => next,
        Some(a) => match (bounds(a), bounds(next)) {
            (Some((lo1, hi1)), Some((lo2, hi2))) => {
                let (lo, hi) = (lo1.min(lo2), hi1.max(hi2));
                if lo == hi {
                    RetInfo::Const(lo)
                } else {
                    RetInfo::Range(lo, hi)
                }
            }
            _ => RetInfo::Unknown,
        },
    })
}

/// Rebuilds `f`'s summary from its local facts plus the current summaries
/// of its callees.
fn refresh(facts: &LocalFacts, current: &[FuncSummary]) -> FuncSummary {
    let mut s = facts.base.clone();
    let mut mods: BTreeSet<GlobalId> = s.mod_globals.iter().copied().collect();
    let mut refs: BTreeSet<GlobalId> = s.ref_globals.iter().copied().collect();
    for (t, arg_classes) in &facts.calls {
        let ct = &current[t.index()];
        s.calls_extern |= ct.calls_extern;
        s.calls_indirect |= ct.calls_indirect;
        s.may_trap |= ct.may_trap;
        s.may_not_terminate |= ct.may_not_terminate;
        s.syntactic_effects |= ct.syntactic_effects;
        s.writes_unknown |= ct.writes_unknown;
        s.reads_unknown |= ct.reads_unknown;
        mods.extend(ct.mod_globals.iter().copied());
        refs.extend(ct.ref_globals.iter().copied());
        // Translate the callee's per-parameter facts through this site's
        // argument classes. Missing arguments read as zero (NotPtr);
        // extra arguments are ignored by the callee.
        for j in 0..ct.params as usize {
            let ac = arg_classes.get(j).copied().unwrap_or(PtrClass::NotPtr);
            if ct.writes_params[j] {
                match ac {
                    // A callee writing through the caller's own frame
                    // address stays within the caller's activation.
                    PtrClass::Frame => {}
                    PtrClass::Global(g) => {
                        mods.insert(g);
                    }
                    PtrClass::Param(i) => s.writes_params[i as usize] = true,
                    _ => s.writes_unknown = true,
                }
            }
            if ct.reads_params[j] {
                match ac {
                    PtrClass::Frame => {}
                    PtrClass::Global(g) => {
                        refs.insert(g);
                    }
                    PtrClass::Param(i) => s.reads_params[i as usize] = true,
                    _ => s.reads_unknown = true,
                }
            }
            if ct.param_escapes[j] != ParamEscape::No {
                match ac {
                    PtrClass::Frame => s.leaks_frame = true,
                    PtrClass::Param(i) if s.param_escapes[i as usize] == ParamEscape::No => {
                        s.param_escapes[i as usize] = ParamEscape::Via(*t, j);
                    }
                    _ => {}
                }
            }
        }
    }
    s.mod_globals = mods.into_iter().collect();
    s.ref_globals = refs.into_iter().collect();
    let mut ret = None;
    for src in &facts.ret_srcs {
        let info = match src {
            RetSrc::Const(k) => RetInfo::Const(*k),
            RetSrc::Cmp => RetInfo::Range(0, 1),
            RetSrc::Call(t) => current[t.index()].ret,
            RetSrc::Opaque => RetInfo::Unknown,
        };
        ret = join_ret(ret, info);
    }
    s.ret = ret.unwrap_or(RetInfo::Unknown);
    s
}

/// Solves one SCC of `cg` in place: every member of `comp` is reseeded
/// from its local facts, then the members are rebuilt in order, each from
/// its facts plus the current summaries of its callees, until a round
/// changes nothing. Callees outside `comp` must already be solved.
/// Returns the members' previous summaries, in `comp` order.
pub(crate) fn solve_scc(
    comp: &[FuncId],
    cg: &CallGraph,
    facts: &[LocalFacts],
    funcs: &mut [FuncSummary],
) -> Vec<FuncSummary> {
    let recursive = cg.is_recursive(comp);
    let old = comp
        .iter()
        .map(|&f| {
            let mut seed = facts[f.index()].base.clone();
            seed.may_not_terminate |= recursive;
            std::mem::replace(&mut funcs[f.index()], seed)
        })
        .collect();
    loop {
        let mut changed = false;
        for &f in comp {
            let mut next = refresh(&facts[f.index()], funcs);
            if recursive {
                next.may_not_terminate = true;
            }
            if next != funcs[f.index()] {
                funcs[f.index()] = next;
                changed = true;
            }
        }
        if !changed {
            return old;
        }
    }
}

/// The planted fault for the fuzz gate: erases every effect fact so
/// summary-driven deletion and forwarding misfire observably.
pub(crate) fn plant_fault(out: &mut Summaries) {
    for s in &mut out.funcs {
        s.writes_unknown = false;
        s.calls_extern = false;
        s.calls_indirect = false;
        s.may_trap = false;
        s.may_not_terminate = false;
        s.syntactic_effects = false;
        s.leaks_frame = false;
        s.mod_globals.clear();
        for w in &mut s.writes_params {
            *w = false;
        }
    }
}

impl Summaries {
    /// Computes summaries for every function of `p` by the bottom-up SCC
    /// fixpoint described in the module docs. Deterministic: depends only
    /// on the program text, never on thread count or iteration timing.
    /// This is the reference a [`crate::SummaryCache`] read must equal.
    pub fn compute(p: &Program, cg: &CallGraph) -> Summaries {
        let facts: Vec<LocalFacts> = p.iter_funcs().map(|(_, f)| scan(&f.name, f)).collect();
        // Every slot is reseeded when its SCC is solved, callees first.
        let mut funcs = vec![FuncSummary::bottom("", 0); facts.len()];
        for comp in cg.sccs() {
            solve_scc(comp, cg, &facts, &mut funcs);
        }
        let mut out = Summaries { funcs };
        if crate::fault::armed() {
            plant_fault(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{FunctionBuilder, Linkage, ProgramBuilder, Type};

    fn summaries(p: &Program) -> Summaries {
        let cg = CallGraph::build(p);
        Summaries::compute(p, &cg)
    }

    /// callee0 stores to g; wrapper calls callee0; pure adds.
    #[test]
    fn mod_sets_propagate_to_callers() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let mut callee = FunctionBuilder::new("callee", m, 0);
        let e = callee.entry_block();
        let ga = callee.const_(e, ConstVal::GlobalAddr(g));
        callee.store(e, ga.into(), Operand::imm(0), Operand::imm(1));
        callee.ret(e, None);
        pb.add_function(callee.finish(Linkage::Public, Type::Void));
        let mut caller = FunctionBuilder::new("caller", m, 0);
        let e = caller.entry_block();
        caller.call_void(e, FuncId(0), vec![]);
        caller.ret(e, None);
        pb.add_function(caller.finish(Linkage::Public, Type::Void));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert_eq!(s.funcs[0].mod_globals, vec![g]);
        assert_eq!(s.funcs[1].mod_globals, vec![g], "MOD flows bottom-up");
        assert!(!s.funcs[0].removable());
        assert!(!s.funcs[1].removable());
        assert!(!s.funcs[0].syntactic_removable(), "a store fails the test");
        assert!(
            !s.funcs[1].syntactic_removable(),
            "and so does calling a function that stores"
        );
    }

    /// A function that fills a local scratch slot is removable under ipa
    /// but *not* syntactically side-effect-free — the sharpening this
    /// crate exists for.
    #[test]
    fn local_scratch_store_is_removable_but_not_syntactically_pure() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("scratch", m, 1);
        let e = f.entry_block();
        let s = f.new_slot(16);
        let a = f.frame_addr(e, s);
        f.store(e, a.into(), Operand::imm(0), Operand::Reg(f.param(0)));
        let v = f.load(e, a.into(), Operand::imm(0));
        f.ret(e, Some(v.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert!(s.funcs[0].removable());
        assert!(
            !s.funcs[0].syntactic_removable(),
            "syntactic purity rejects any store"
        );
    }

    /// ipa's removable set must contain everything the syntactic
    /// projection admits (on programs that do not return frame addresses,
    /// which the syntactic test cannot see).
    #[test]
    fn removable_is_superset_of_syntactic_purity() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let ext = pb.declare_extern("print_i64", Some(1), false);
        // pure leaf
        let mut leaf = FunctionBuilder::new("leaf", m, 1);
        let e = leaf.entry_block();
        let r = leaf.bin(e, BinOp::Add, Operand::Reg(leaf.param(0)), Operand::imm(1));
        leaf.ret(e, Some(r.into()));
        pb.add_function(leaf.finish(Linkage::Public, Type::I64));
        // pure wrapper
        let mut wrap = FunctionBuilder::new("wrap", m, 1);
        let e = wrap.entry_block();
        let r = wrap.call(e, FuncId(0), vec![Operand::Reg(wrap.param(0))]);
        wrap.ret(e, Some(r.into()));
        pb.add_function(wrap.finish(Linkage::Public, Type::I64));
        // impure printer
        let mut noisy = FunctionBuilder::new("noisy", m, 0);
        let e = noisy.entry_block();
        noisy.call_extern(e, ext, vec![Operand::imm(1)], false);
        noisy.ret(e, None);
        pb.add_function(noisy.finish(Linkage::Public, Type::Void));
        // divider (traps)
        let mut dv = FunctionBuilder::new("dv", m, 2);
        let e = dv.entry_block();
        let r = dv.bin(
            e,
            BinOp::Div,
            Operand::Reg(dv.param(0)),
            Operand::Reg(dv.param(1)),
        );
        dv.ret(e, Some(r.into()));
        pb.add_function(dv.finish(Linkage::Public, Type::I64));
        let p = pb.finish(None);
        let s = summaries(&p);
        let free = s.syntactic_removable();
        let removable = s.removable();
        for i in 0..p.funcs.len() {
            if free[i] {
                assert!(removable[i], "func {i}: ipa must admit what purity admits");
            }
        }
        assert_eq!(
            free,
            vec![true, true, false, false],
            "a pure leaf and its wrapper pass; an extern call and a division fail"
        );
        assert!(!removable[2], "extern caller stays blocked");
        assert!(!removable[3], "unproven divisor stays blocked");
    }

    #[test]
    fn constant_divisor_division_is_removable() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("halve", m, 1);
        let e = f.entry_block();
        let r = f.bin(e, BinOp::Div, Operand::Reg(f.param(0)), Operand::imm(2));
        f.ret(e, Some(r.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert!(!s.funcs[0].may_trap, "divisor 2 cannot trap");
        assert!(s.funcs[0].removable());
        assert!(
            !s.funcs[0].syntactic_removable(),
            "the syntactic test rejects every division"
        );
    }

    /// sink(p) stores p to a global (Direct escape); fwd(q) passes q to
    /// sink (Via escape); outer passes a frame address to fwd, so the
    /// frame leaks through two call levels.
    #[test]
    fn escape_chains_are_tracked_through_two_levels() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let mut sink = FunctionBuilder::new("sink", m, 1);
        let e = sink.entry_block();
        let ga = sink.const_(e, ConstVal::GlobalAddr(g));
        sink.store(e, ga.into(), Operand::imm(0), Operand::Reg(sink.param(0)));
        sink.ret(e, None);
        pb.add_function(sink.finish(Linkage::Public, Type::Void));
        let mut fwd = FunctionBuilder::new("fwd", m, 1);
        let e = fwd.entry_block();
        fwd.call_void(e, FuncId(0), vec![Operand::Reg(fwd.param(0))]);
        fwd.ret(e, None);
        pb.add_function(fwd.finish(Linkage::Public, Type::Void));
        let mut outer = FunctionBuilder::new("outer", m, 0);
        let e = outer.entry_block();
        let s = outer.new_slot(8);
        let a = outer.frame_addr(e, s);
        outer.call_void(e, FuncId(1), vec![a.into()]);
        outer.ret(e, None);
        pb.add_function(outer.finish(Linkage::Public, Type::Void));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert_eq!(s.funcs[0].param_escapes[0], ParamEscape::Direct);
        assert_eq!(s.funcs[1].param_escapes[0], ParamEscape::Via(FuncId(0), 0));
        assert!(s.funcs[2].leaks_frame, "frame escapes through the chain");
        assert!(
            !s.funcs[1].leaks_frame,
            "fwd leaks its caller's frame, not its own"
        );
    }

    #[test]
    fn return_constancy_folds_through_wrappers() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut leaf = FunctionBuilder::new("leaf", m, 0);
        let e = leaf.entry_block();
        leaf.ret(e, Some(Operand::imm(7)));
        pb.add_function(leaf.finish(Linkage::Public, Type::I64));
        let mut wrap = FunctionBuilder::new("wrap", m, 0);
        let e = wrap.entry_block();
        let r = wrap.call(e, FuncId(0), vec![]);
        wrap.ret(e, Some(r.into()));
        pb.add_function(wrap.finish(Linkage::Public, Type::I64));
        let mut cmp = FunctionBuilder::new("cmp", m, 2);
        let e = cmp.entry_block();
        let r = cmp.bin(
            e,
            BinOp::Lt,
            Operand::Reg(cmp.param(0)),
            Operand::Reg(cmp.param(1)),
        );
        cmp.ret(e, Some(r.into()));
        pb.add_function(cmp.finish(Linkage::Public, Type::I64));
        // Two-armed function returning 3 or 5.
        let mut two = FunctionBuilder::new("two", m, 1);
        let e = two.entry_block();
        let a = two.new_block();
        let b = two.new_block();
        two.br(e, Operand::Reg(two.param(0)), a, b);
        two.ret(a, Some(Operand::imm(3)));
        two.ret(b, Some(Operand::imm(5)));
        pb.add_function(two.finish(Linkage::Public, Type::I64));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert_eq!(s.funcs[0].ret, RetInfo::Const(7));
        assert_eq!(s.funcs[1].ret, RetInfo::Const(7), "constancy flows up");
        assert_eq!(s.funcs[2].ret, RetInfo::Range(0, 1));
        assert_eq!(s.funcs[3].ret, RetInfo::Range(3, 5));
    }

    #[test]
    fn recursion_and_loops_block_removal() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("rec", m, 1);
        let e = f.entry_block();
        let r = f.call(e, FuncId(0), vec![Operand::Reg(f.param(0))]);
        f.ret(e, Some(r.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let mut l = FunctionBuilder::new("looper", m, 1);
        let e = l.entry_block();
        let h = l.new_block();
        let x = l.new_block();
        l.jump(e, h);
        l.br(h, Operand::Reg(l.param(0)), h, x);
        l.ret(x, None);
        pb.add_function(l.finish(Linkage::Public, Type::Void));
        let p = pb.finish(None);
        let s = summaries(&p);
        assert!(s.funcs[0].may_not_terminate);
        assert!(s.funcs[1].may_not_terminate);
        assert!(!s.funcs[0].removable());
        assert!(!s.funcs[1].removable());
        assert!(
            !s.funcs[0].syntactic_removable(),
            "recursion fails the test"
        );
        assert!(!s.funcs[1].syntactic_removable(), "a loop fails the test");
    }

    #[test]
    fn armed_fault_erases_effect_facts() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let ext = pb.declare_extern("print_i64", Some(1), false);
        let mut f = FunctionBuilder::new("noisy", m, 0);
        let e = f.entry_block();
        f.call_extern(e, ext, vec![Operand::imm(1)], false);
        f.ret(e, None);
        pb.add_function(f.finish(Linkage::Public, Type::Void));
        let p = pb.finish(None);
        let cg = CallGraph::build(&p);
        let clean = Summaries::compute(&p, &cg);
        assert!(!clean.funcs[0].removable());
        assert!(!clean.funcs[0].syntactic_removable(), "extern call fails");
        let _g = crate::fault::FaultGuard::arm();
        let faulty = Summaries::compute(&p, &cg);
        assert!(
            faulty.funcs[0].removable() && faulty.funcs[0].syntactic_removable(),
            "armed fault must claim purity"
        );
    }

    /// Two independent call chains; editing the leaf of one changes exactly
    /// that chain's summaries (the dependence cone) — the same functions
    /// whose cone hashes the edit re-keys.
    #[test]
    fn editing_one_function_rekeys_exactly_its_cone() {
        fn build(leaf_a_stores: bool) -> Program {
            let mut pb = ProgramBuilder::new();
            let m = pb.add_module("m");
            let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
            let mut leaf_a = FunctionBuilder::new("leaf_a", m, 1);
            let e = leaf_a.entry_block();
            if leaf_a_stores {
                let ga = leaf_a.const_(e, ConstVal::GlobalAddr(g));
                leaf_a.store(e, ga.into(), Operand::imm(0), Operand::Reg(leaf_a.param(0)));
            }
            let r = leaf_a.bin(
                e,
                BinOp::Add,
                Operand::Reg(leaf_a.param(0)),
                Operand::imm(1),
            );
            leaf_a.ret(e, Some(r.into()));
            pb.add_function(leaf_a.finish(Linkage::Public, Type::I64));
            let mut mid_a = FunctionBuilder::new("mid_a", m, 1);
            let e = mid_a.entry_block();
            let r = mid_a.call(e, FuncId(0), vec![Operand::Reg(mid_a.param(0))]);
            mid_a.ret(e, Some(r.into()));
            pb.add_function(mid_a.finish(Linkage::Public, Type::I64));
            let mut leaf_b = FunctionBuilder::new("leaf_b", m, 1);
            let e = leaf_b.entry_block();
            let r = leaf_b.bin(
                e,
                BinOp::Mul,
                Operand::Reg(leaf_b.param(0)),
                Operand::imm(3),
            );
            leaf_b.ret(e, Some(r.into()));
            pb.add_function(leaf_b.finish(Linkage::Public, Type::I64));
            let mut mid_b = FunctionBuilder::new("mid_b", m, 1);
            let e = mid_b.entry_block();
            let r = mid_b.call(e, FuncId(2), vec![Operand::Reg(mid_b.param(0))]);
            mid_b.ret(e, Some(r.into()));
            pb.add_function(mid_b.finish(Linkage::Public, Type::I64));
            let mut main = FunctionBuilder::new("main", m, 1);
            let e = main.entry_block();
            let x = main.call(e, FuncId(1), vec![Operand::Reg(main.param(0))]);
            let y = main.call(e, FuncId(3), vec![x.into()]);
            main.ret(e, Some(y.into()));
            pb.add_function(main.finish(Linkage::Public, Type::I64));
            pb.finish(Some(FuncId(4)))
        }
        let before = summaries(&build(false)).funcs;
        let after = summaries(&build(true)).funcs;
        assert_ne!(before[0], after[0], "leaf_a changed");
        assert_ne!(before[1], after[1], "mid_a absorbs leaf_a's summary");
        assert_ne!(before[4], after[4], "main absorbs both chains");
        assert_eq!(before[2], after[2], "leaf_b untouched");
        assert_eq!(before[3], after[3], "mid_b untouched");
    }
}
