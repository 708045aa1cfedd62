//! The lint battery: individual checks over functions and programs.

use crate::diag::{Diagnostic, Severity};
use crate::LintOptions;
use hlo_analysis::{BitSet, Cfg};
use hlo_ir::{BlockId, Callee, Function, Inst, Program, Reg};

/// Per-block register-definition summary plus the per-function CFG facts
/// the dataflow checks share. The block graph skips branch targets past
/// the last block (the structural verifier reports those), so a malformed
/// function is linted, not a panic.
struct FuncFacts {
    cfg: Cfg,
    reachable: Vec<bool>,
    defs: Vec<BitSet>,
}

impl FuncFacts {
    fn compute(f: &Function) -> Self {
        let nr = f.num_regs as usize;
        let defs = f
            .blocks
            .iter()
            .map(|b| {
                let mut d = BitSet::empty(nr);
                for inst in &b.insts {
                    if let Some(r) = inst.dst() {
                        d.set(r.index());
                    }
                }
                d
            })
            .collect();
        let cfg = Cfg::new(f);
        FuncFacts {
            reachable: cfg.reachable(),
            cfg,
            defs,
        }
    }
}

/// Use-before-def of virtual registers, via forward may/must-be-uninitialized
/// dataflow over the CFG.
///
/// On entry, registers `0..params` hold arguments and everything above them
/// is uninitialized. A register that is uninitialized on *every* path to a
/// use is an error (the read is meaningless no matter what the program
/// does); one uninitialized on only *some* path is a warning (the lint is
/// path-insensitive, so this may be a false positive guarded by a
/// condition the analysis cannot see).
fn check_uninit(f: &Function, facts: &FuncFacts, out: &mut Vec<Diagnostic>) {
    let nr = f.num_regs as usize;
    let nb = f.blocks.len();
    if nb == 0 || nr == 0 {
        return;
    }
    let mut entry_uninit = BitSet::empty(nr);
    for r in f.params as usize..nr {
        entry_uninit.set(r);
    }
    if entry_uninit.is_empty() {
        return; // every register is a parameter; nothing can be uninitialized
    }

    // Block-level fixpoint on *-out sets. `may` joins with union (bottom =
    // empty), `must` with intersection (top = full); both kill a register
    // once the block defines it.
    let run = |is_may: bool| -> Vec<BitSet> {
        let mut outs = vec![
            if is_may {
                BitSet::empty(nr)
            } else {
                BitSet::full(nr)
            };
            nb
        ];
        loop {
            let mut changed = false;
            for b in 0..nb {
                if !facts.reachable[b] {
                    continue;
                }
                let mut inb = if b == 0 {
                    entry_uninit.clone()
                } else if is_may {
                    let mut s = BitSet::empty(nr);
                    for &p in facts.cfg.preds(b) {
                        s.union_with(&outs[p]);
                    }
                    s
                } else {
                    let mut s = BitSet::full(nr);
                    for &p in facts.cfg.preds(b) {
                        s.intersect_with(&outs[p]);
                    }
                    s
                };
                inb.subtract(&facts.defs[b]);
                if inb != outs[b] {
                    outs[b] = inb;
                    changed = true;
                }
            }
            if !changed {
                return outs;
            }
        }
    };
    let may_out = run(true);
    let must_out = run(false);

    // Reporting walk: recompute block-entry states from predecessor outs,
    // then track kills instruction by instruction.
    for b in 0..nb {
        if !facts.reachable[b] {
            continue;
        }
        let (mut may, mut must) = if b == 0 {
            (entry_uninit.clone(), entry_uninit.clone())
        } else {
            let mut may = BitSet::empty(nr);
            let mut must = BitSet::full(nr);
            for &p in facts.cfg.preds(b) {
                may.union_with(&may_out[p]);
                must.intersect_with(&must_out[p]);
            }
            (may, must)
        };
        for (i, inst) in f.blocks[b].insts.iter().enumerate() {
            inst.for_each_use(|op| {
                if let Some(r) = op.as_reg() {
                    if must.get(r.index()) {
                        out.push(
                            Diagnostic::new(
                                Severity::Error,
                                &f.name,
                                format!("register {r} is read but never initialized"),
                            )
                            .at_inst(BlockId(b as u32), i),
                        );
                    } else if may.get(r.index()) {
                        out.push(
                            Diagnostic::new(
                                Severity::Warning,
                                &f.name,
                                format!("register {r} may be read before initialization"),
                            )
                            .at_inst(BlockId(b as u32), i),
                        );
                    }
                }
            });
            if let Some(d) = inst.dst() {
                may.remove(d.index());
                must.remove(d.index());
            }
        }
    }
}

/// Profile-consistency lint.
///
/// Errors: a profile vector whose length disagrees with the CFG, or any
/// non-finite / negative count. Warnings: a reachable block executing more
/// often than flow into it permits (its predecessors' counts, plus the
/// function entry count for the entry block) — inline/clone splicing
/// rescales spliced profiles, and a violation here means a transform
/// corrupted the annotation.
fn check_profile(f: &Function, facts: &FuncFacts, out: &mut Vec<Diagnostic>) {
    let Some(p) = &f.profile else { return };
    if p.blocks.len() != f.blocks.len() {
        out.push(Diagnostic::new(
            Severity::Error,
            &f.name,
            format!(
                "profile has {} block counts for {} blocks",
                p.blocks.len(),
                f.blocks.len()
            ),
        ));
        return;
    }
    let mut bad_counts = false;
    if !p.entry.is_finite() || p.entry < 0.0 {
        bad_counts = true;
        out.push(Diagnostic::new(
            Severity::Error,
            &f.name,
            format!(
                "profile entry count {} is not a finite non-negative number",
                p.entry
            ),
        ));
    }
    for (i, &c) in p.blocks.iter().enumerate() {
        if !c.is_finite() || c < 0.0 {
            bad_counts = true;
            out.push(
                Diagnostic::new(
                    Severity::Error,
                    &f.name,
                    format!("profile count {c} is not a finite non-negative number"),
                )
                .at_block(BlockId(i as u32)),
            );
        }
    }
    if bad_counts {
        return; // flow comparison is meaningless on garbage counts
    }
    for b in 0..f.blocks.len() {
        if !facts.reachable[b] {
            continue;
        }
        let mut inflow = if b == 0 { p.entry } else { 0.0 };
        for &pr in facts.cfg.preds(b) {
            if facts.reachable[pr] {
                inflow += p.blocks[pr];
            }
        }
        let freq = p.blocks[b];
        if freq > inflow * (1.0 + 1e-6) + 1e-6 {
            out.push(
                Diagnostic::new(
                    Severity::Warning,
                    &f.name,
                    format!("block executes {freq} times but flow into it totals only {inflow}"),
                )
                .at_block(BlockId(b as u32)),
            );
        }
    }
}

/// Frame-slot lints: a `FrameAddr` whose address flows into a call argument
/// or is stored to memory escapes the frame — legal, but it defeats the
/// dead-slot and memory-forwarding optimizations and interacts with the
/// inliner's slot remapping, so it is worth surfacing under `--pedantic`.
fn check_frame_escape(f: &Function, out: &mut Vec<Diagnostic>) {
    for (bid, block) in f.iter_blocks() {
        // Local (per-block) tracking of which registers currently hold a
        // frame address; cleared on redefinition.
        let mut holds: Vec<Option<hlo_ir::SlotId>> = vec![None; f.num_regs as usize];
        let slot_of = |holds: &[Option<hlo_ir::SlotId>], op: &hlo_ir::Operand| {
            op.as_reg()
                .and_then(|r: Reg| holds.get(r.index()).copied().flatten())
        };
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Call { args, .. } => {
                    for a in args {
                        if let Some(s) = slot_of(&holds, a) {
                            out.push(
                                Diagnostic::new(
                                    Severity::Info,
                                    &f.name,
                                    format!("address of frame slot {s} escapes into a call"),
                                )
                                .at_inst(bid, i),
                            );
                        }
                    }
                }
                Inst::Store { value, .. } => {
                    if let Some(s) = slot_of(&holds, value) {
                        out.push(
                            Diagnostic::new(
                                Severity::Info,
                                &f.name,
                                format!("address of frame slot {s} is stored to memory"),
                            )
                            .at_inst(bid, i),
                        );
                    }
                }
                _ => {}
            }
            if let Some(d) = inst.dst() {
                if let Some(h) = holds.get_mut(d.index()) {
                    *h = match inst {
                        Inst::FrameAddr { slot, .. } => Some(*slot),
                        _ => None,
                    };
                }
            }
        }
    }
}

/// Dead stores: a register assignment whose value no other instruction can
/// ever read, found by backward liveness. Pedantic — unoptimized code is
/// legitimately full of these (DCE exists to remove them).
fn check_dead_stores(f: &Function, facts: &FuncFacts, out: &mut Vec<Diagnostic>) {
    if f.blocks.is_empty() || f.num_regs == 0 {
        return;
    }
    let liveness = facts.cfg.liveness(f);
    let mut live = BitSet::default();
    for b in 0..f.blocks.len() {
        if !facts.reachable[b] {
            continue;
        }
        live.copy_from(liveness.live_out(b));
        // The backward walk discovers dead stores last-first; buffer and
        // flip so diagnostics come out in source order.
        let mut found = Vec::new();
        for (i, inst) in f.blocks[b].insts.iter().enumerate().rev() {
            if let Some(d) = inst.dst() {
                if !live.get(d.index()) && !inst.has_side_effect() {
                    found.push(
                        Diagnostic::new(
                            Severity::Info,
                            &f.name,
                            format!("register {d} is assigned but never read (dead store)"),
                        )
                        .at_inst(BlockId(b as u32), i),
                    );
                }
                live.remove(d.index());
            }
            inst.for_each_use(|op| {
                if let Some(r) = op.as_reg() {
                    live.set(r.index());
                }
            });
        }
        out.extend(found.into_iter().rev());
    }
}

/// Unreachable blocks. Pedantic: `simplify_cfg`/`delete_unreachable` clean
/// these up as a matter of course, so they are only interesting when
/// examining a single pass's output.
fn check_unreachable(f: &Function, facts: &FuncFacts, out: &mut Vec<Diagnostic>) {
    for b in 0..f.blocks.len() {
        if !facts.reachable[b] {
            out.push(
                Diagnostic::new(
                    Severity::Info,
                    &f.name,
                    "block is unreachable from the entry".to_string(),
                )
                .at_block(BlockId(b as u32)),
            );
        }
    }
}

/// Call-arity linting over a whole program: direct calls must pass exactly
/// the callee's parameter count (the VM tolerates mismatches — missing
/// arguments read as zero — but no front end or transform should produce
/// one, and such sites are illegal to inline). Extern calls are checked
/// against the declared signature when one exists (`params: None` declares
/// varargs).
pub(crate) fn check_call_arity(p: &Program, out: &mut Vec<Diagnostic>) {
    for (_, f) in p.iter_funcs() {
        for (bid, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let Inst::Call { callee, args, .. } = inst else {
                    continue;
                };
                match callee {
                    Callee::Func(id) if id.index() < p.funcs.len() => {
                        let callee_f = p.func(*id);
                        if callee_f.params as usize != args.len() {
                            out.push(
                                Diagnostic::new(
                                    Severity::Error,
                                    &f.name,
                                    format!(
                                        "call to `{}` passes {} arguments, callee takes {}",
                                        callee_f.name,
                                        args.len(),
                                        callee_f.params
                                    ),
                                )
                                .at_inst(bid, i),
                            );
                        }
                    }
                    Callee::Extern(id) if id.index() < p.externs.len() => {
                        let ext = p.ext(*id);
                        if let Some(n) = ext.params {
                            if n as usize != args.len() {
                                out.push(
                                    Diagnostic::new(
                                        Severity::Warning,
                                        &f.name,
                                        format!(
                                            "call to extern `{}` passes {} arguments, declaration takes {}",
                                            ext.name,
                                            args.len(),
                                            n
                                        ),
                                    )
                                    .at_inst(bid, i),
                                );
                            }
                        }
                    }
                    _ => {} // out-of-range ids are the verifier's job
                }
            }
        }
    }
}

/// Runs the per-function battery.
pub(crate) fn lint_function_into(f: &Function, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let facts = FuncFacts::compute(f);
    check_uninit(f, &facts, out);
    check_profile(f, &facts, out);
    if opts.pedantic {
        check_unreachable(f, &facts, out);
        check_dead_stores(f, &facts, out);
        check_frame_escape(f, out);
    }
}
