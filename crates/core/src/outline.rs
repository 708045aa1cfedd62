//! Aggressive outlining — the paper's future work (§5): "using
//! aggressive outlining as a complement to aggressive inlining, to help
//! further focus the global optimizer on the truly important stretches of
//! code".
//!
//! The outliner extracts *cold, return-terminated regions*: a block whose
//! execution count is far below its function's entry count, entered from
//! hot code, from which every path stays cold and ends in a `ret`. The
//! region becomes a new routine and the head block becomes a call + ret.
//! Two benefits mirror the paper's motivation:
//!
//! * hot routines shrink, so the quadratic back-end budget (`Σ size²`)
//!   stretches further — outlining literally buys inlining budget;
//! * cold code leaves the hot code's cache lines (the layout places each
//!   function contiguously), improving I-cache behaviour.

use hlo_ir::{
    Block, BlockId, Callee, FuncId, FuncNames, FuncProfile, Function, Inst, Linkage, Operand,
    Program, Reg, Type,
};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};

/// Options for an outlining pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlineOptions {
    /// A block is cold when `count <= cold_fraction * entry_count`.
    pub cold_fraction: f64,
    /// Regions needing more than this many live-in registers are skipped
    /// (they would produce absurd signatures).
    pub max_params: u32,
    /// Minimum instructions a region must contain to be worth a call.
    pub min_region_size: u64,
}

impl Default for OutlineOptions {
    fn default() -> Self {
        OutlineOptions {
            cold_fraction: 0.01,
            max_params: 6,
            min_region_size: 4,
        }
    }
}

/// Runs outlining over every function of `p`. Returns the number of
/// regions extracted.
pub fn outline_cold_regions(p: &mut Program, opts: &OutlineOptions) -> u64 {
    let mut names = FuncNames::of(p);
    outline_cold_regions_traced(p, &mut names, opts, &mut Tracer::disabled())
}

/// [`outline_cold_regions`] with decision provenance: every extracted
/// region emits an [`DecisionKind::Outline`] event whose site is the
/// region's head block and whose callee is the new cold routine. The cold
/// routines' names are minted from `names`, which holds every function
/// name of the program.
pub fn outline_cold_regions_traced(
    p: &mut Program,
    names: &mut FuncNames,
    opts: &OutlineOptions,
    tracer: &mut Tracer,
) -> u64 {
    let mut outlined = 0;
    let n = p.funcs.len();
    for fi in 0..n {
        let id = FuncId(fi as u32);
        // Do not outline from functions that are themselves dead husks.
        if !p.module(p.func(id).module).funcs.contains(&id) {
            continue;
        }
        outlined += outline_one(p, names, id, opts, tracer);
    }
    outlined
}

fn outline_one(
    p: &mut Program,
    names: &mut FuncNames,
    id: FuncId,
    opts: &OutlineOptions,
    tracer: &mut Tracer,
) -> u64 {
    let mut count = 0;
    // Re-examine after each extraction (block ids stay valid: we only
    // rewrite the head block in place and append nothing to the old CFG).
    loop {
        let Some(region) = find_region(p.func(id), opts) else {
            return count;
        };
        let event = tracer.decisions_enabled().then(|| {
            let f = p.func(id);
            DecisionEvent {
                pass: 0,
                kind: DecisionKind::Outline,
                site: format!("{}@b{}", f.name, region.head.index()),
                callee: String::new(), // named after extraction
                verdict: Verdict::Performed,
                reason: "cold-region",
                benefit: region.blocks.len() as f64,
                cost: 0,
                budget_before: 0,
                budget_after: 0,
                profile_weight: f
                    .profile
                    .as_ref()
                    .map(|pr| pr.blocks[region.head.index()])
                    .unwrap_or(0.0),
            }
        });
        let out_id = extract(p, names, id, &region);
        if let Some(mut e) = event {
            e.callee = p.func(out_id).name.clone();
            tracer.decision(e);
        }
        count += 1;
    }
}

struct Region {
    head: BlockId,
    /// All blocks in the region, head first.
    blocks: Vec<BlockId>,
    /// Registers live into the head (the outlined function's params).
    live_in: Vec<Reg>,
}

fn find_region(f: &Function, opts: &OutlineOptions) -> Option<Region> {
    let profile = f.profile.as_ref()?;
    if profile.entry <= 0.0 {
        return None;
    }
    let cold = |b: BlockId| profile.blocks[b.index()] <= opts.cold_fraction * profile.entry;
    let preds = f.predecessors();

    'heads: for (head, _) in f.iter_blocks() {
        if head.index() == 0 || !cold(head) {
            continue;
        }
        // The head must be entered only from hot blocks (a boundary), so
        // extracting it cannot orphan other cold code.
        if preds[head.index()].is_empty() || preds[head.index()].iter().any(|&q| cold(q)) {
            continue;
        }
        // Collect the cold region reachable from head; every block must be
        // cold, stay in-region, and eventually ret. Reject loops back to
        // hot code or into the head.
        let mut blocks = vec![head];
        let mut seen = vec![false; f.blocks.len()];
        seen[head.index()] = true;
        let mut stack = vec![head];
        let mut size = 0u64;
        while let Some(b) = stack.pop() {
            let block = f.block(b);
            size += block.insts.len() as u64;
            for inst in &block.insts {
                // Caller-frame and dynamic-stack references pin the code
                // to its frame.
                if matches!(inst, Inst::FrameAddr { .. } | Inst::Alloca { .. }) {
                    continue 'heads;
                }
            }
            for s in block.successors() {
                if !cold(s) || s == head {
                    continue 'heads;
                }
                // Region blocks other than the head must not be reachable
                // from outside the region (single entry).
                if preds[s.index()].iter().any(|&q| !seen[q.index()] && q != b) {
                    // A predecessor not (yet) in the region: only legal if
                    // it will join the region later; be conservative.
                    continue 'heads;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    blocks.push(s);
                    stack.push(s);
                }
            }
            if block.successors().is_empty()
                && !matches!(block.insts.last(), Some(Inst::Ret { .. }))
            {
                continue 'heads;
            }
        }
        if size < opts.min_region_size {
            continue;
        }
        let live_in = region_live_in(f, &blocks);
        if live_in.len() as u32 > opts.max_params {
            continue;
        }
        return Some(Region {
            head,
            blocks,
            live_in,
        });
    }
    None
}

/// Registers possibly read within the region before being defined there.
///
/// Conservative: within the head block, a def kills later uses (straight
/// line); in every other region block any use counts (it may or may not
/// be dominated by an in-region def — passing a superfluous parameter is
/// harmless because such a use is preceded by a redefinition on every
/// path that reaches it).
fn region_live_in(f: &Function, blocks: &[BlockId]) -> Vec<Reg> {
    let mut live = Vec::new();
    for (pos, &b) in blocks.iter().enumerate() {
        let mut killed: Vec<Reg> = Vec::new();
        for inst in &f.block(b).insts {
            inst.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    let shadowed = pos == 0 && killed.contains(r);
                    if !shadowed && !live.contains(r) {
                        live.push(*r);
                    }
                }
            });
            if let Some(d) = inst.dst() {
                killed.push(d);
            }
        }
    }
    live.sort();
    live
}

fn extract(p: &mut Program, names: &mut FuncNames, id: FuncId, region: &Region) -> FuncId {
    let f = p.func(id).clone();
    let name = names.fresh(&format!("{}.cold", f.name));

    // Build the outlined function: params = live-ins, body = region
    // blocks with registers remapped and block ids renumbered.
    let mut out = Function::new(name, f.module, region.live_in.len() as u32);
    out.linkage = Linkage::Static;
    out.ret = f.ret;
    out.flags = f.flags;
    // Register map: live-in i -> param i; other regs -> fresh.
    let mut reg_map: Vec<Option<Reg>> = vec![None; f.num_regs as usize];
    for (i, r) in region.live_in.iter().enumerate() {
        reg_map[r.index()] = Some(Reg(i as u32));
    }
    out.num_regs = region.live_in.len() as u32;
    let mut map_reg = |r: Reg, out: &mut Function| -> Reg {
        if let Some(m) = reg_map[r.index()] {
            m
        } else {
            let m = out.new_reg();
            reg_map[r.index()] = Some(m);
            m
        }
    };
    let mut block_map = vec![BlockId(0); f.blocks.len()];
    for (i, &b) in region.blocks.iter().enumerate() {
        block_map[b.index()] = BlockId(i as u32);
    }
    out.blocks.clear();
    let mut out_profile_blocks = Vec::new();
    for &b in &region.blocks {
        let mut nb = Block::new();
        for inst in &f.block(b).insts {
            let mut ni = inst.clone();
            if let Some(d) = ni.dst_mut() {
                *d = map_reg(*d, &mut out);
            }
            ni.for_each_use_mut(|op| {
                if let Operand::Reg(r) = op {
                    *r = map_reg(*r, &mut out);
                }
            });
            ni.map_successors(|s| block_map[s.index()]);
            nb.insts.push(ni);
        }
        out.blocks.push(nb);
        if let Some(pr) = &f.profile {
            out_profile_blocks.push(pr.blocks[b.index()]);
        }
    }
    if let Some(pr) = &f.profile {
        out.profile = Some(FuncProfile {
            entry: pr.blocks[region.head.index()],
            blocks: out_profile_blocks,
        });
    }
    let out_id = p.push_function(out);

    // Rewrite the head block in the original: call + ret. Non-head region
    // blocks become unreachable; simplify_cfg collects them.
    let returns_value = f.ret != Type::Void;
    let caller = p.func_mut(id);
    let dst = returns_value.then(|| caller.new_reg());
    let args: Vec<Operand> = region.live_in.iter().map(|&r| Operand::Reg(r)).collect();
    let head = caller.block_mut(region.head);
    head.insts.clear();
    head.insts.push(Inst::Call {
        dst,
        callee: Callee::Func(out_id),
        args,
    });
    head.insts.push(Inst::Ret {
        value: dst.map(Operand::Reg),
    });
    out_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    /// A function with a hot loop and a cold error path that returns.
    fn program() -> Program {
        hlo_frontc::compile(&[(
            "m",
            r#"
            global errs;
            fn work(n, mode) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) {
                    if (mode == 77) {
                        // cold error path: several instructions, rets
                        errs = errs + 1;
                        var penalty = mode * 1000 + n;
                        penalty = penalty + errs * 3;
                        return 0 - penalty;
                    }
                    s = s + i * 2 + 1;
                }
                return s;
            }
            fn main() {
                var a = 0;
                for (var r = 0; r < 300; r = r + 1) { a = a + work(20, 1); }
                var b = work(5, 77);
                return a * 1000 + b;
            }
            "#,
        )])
        .unwrap()
    }

    fn annotate_from_training(p: &mut Program) {
        let (db, _) = hlo_profile::collect_profile(p, &[], &ExecOptions::default()).unwrap();
        hlo_profile::apply_profile(p, &db);
    }

    #[test]
    fn outlines_cold_return_path() {
        let mut p = program();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap();
        annotate_from_training(&mut p);
        let n = outline_cold_regions(&mut p, &OutlineOptions::default());
        assert!(n >= 1, "expected at least one outlined region");
        verify_program(&p).unwrap();
        let got = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(expect.ret, got.ret);
        assert_eq!(expect.checksum, got.checksum);
        assert!(
            p.iter_funcs().any(|(_, f)| f.name.contains(".cold")),
            "cold routine must exist"
        );
    }

    #[test]
    fn hot_function_shrinks() {
        let mut p = program();
        annotate_from_training(&mut p);
        let work = p.find_func("m", "work").unwrap();
        let before = p.func(work).size();
        outline_cold_regions(&mut p, &OutlineOptions::default());
        // After CFG cleanup the hot body is smaller.
        hlo_opt::optimize_function(p.func_mut(work));
        assert!(p.func(work).size() < before);
    }

    #[test]
    fn no_profile_means_no_outlining() {
        let mut p = program();
        assert_eq!(outline_cold_regions(&mut p, &OutlineOptions::default()), 0);
    }

    #[test]
    fn frame_touching_regions_are_skipped() {
        let mut p = hlo_frontc::compile(&[(
            "m",
            r#"
            fn f(n, mode) {
                var buf[4];
                var s = 0;
                for (var i = 0; i < n; i = i + 1) {
                    if (mode == 9) {
                        buf[0] = n;
                        buf[1] = buf[0] * 2;
                        return buf[1] + buf[0];
                    }
                    s = s + i;
                }
                return s;
            }
            fn main() { return f(100, 1) + f(3, 9); }
            "#,
        )])
        .unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        annotate_from_training(&mut p);
        let n = outline_cold_regions(&mut p, &OutlineOptions::default());
        assert_eq!(n, 0, "regions touching frame slots must not outline");
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn outlined_function_has_scaled_profile() {
        let mut p = program();
        annotate_from_training(&mut p);
        outline_cold_regions(&mut p, &OutlineOptions::default());
        let cold = p
            .iter_funcs()
            .find(|(_, f)| f.name.contains(".cold"))
            .map(|(i, _)| i)
            .unwrap();
        let prof = p.func(cold).profile.as_ref().unwrap();
        assert_eq!(prof.blocks.len(), p.func(cold).blocks.len());
    }
}
