//! The two code transformations: inline splicing and clone creation.

use crate::cloner::CloneSpec;
use hlo_analysis::CallSiteRef;
use hlo_ir::{
    Block, BlockId, Callee, ConstVal, FuncId, FuncNames, FuncProfile, Inst, Linkage, Operand,
    Program, Reg, SlotId,
};

/// Description of one performed inline, used by the pass to fix the
/// coordinates of other pending sites in the same caller and to scale
/// profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineSplice {
    /// Block that contained the call (it now ends with a jump into the
    /// spliced body).
    pub split_block: BlockId,
    /// Index the call instruction occupied in `split_block`.
    pub call_index: usize,
    /// Block that received the instructions that followed the call.
    pub continuation: BlockId,
    /// Execution count attributed to the site (for profile bookkeeping).
    pub site_count: f64,
}

/// Splices the body of the direct callee at `site` into the caller.
///
/// The callee's registers, frame slots and blocks are renumbered into the
/// caller's spaces; parameter passing becomes register copies; every
/// `ret` becomes a copy of the return value (if the caller wanted one)
/// plus a jump to the continuation block. Block-frequency annotations are
/// extended: the spliced blocks receive the callee's relative profile
/// scaled to the site's execution count.
///
/// # Panics
/// Panics if `site` does not name a direct call — the pass must have
/// screened the site with [`crate::inline_restriction`] first.
pub fn inline_call(p: &mut Program, site: &CallSiteRef) -> InlineSplice {
    // Fetch and validate the call.
    let (target, args, dst) = {
        let inst = &p.func(site.caller).blocks[site.block.index()].insts[site.inst];
        match inst {
            Inst::Call {
                dst,
                callee: Callee::Func(t),
                args,
            } => (*t, args.clone(), *dst),
            other => panic!("inline_call on non-direct-call instruction {other}"),
        }
    };
    assert_ne!(target, site.caller, "direct self-inline is not supported");
    let callee = p.func(target).clone();

    let caller = p.func_mut(site.caller);
    let site_count = caller
        .profile
        .as_ref()
        .map(|pr| pr.blocks[site.block.index()])
        .unwrap_or(1.0);

    let reg_base = caller.num_regs;
    caller.num_regs += callee.num_regs;
    let slot_base = caller.slots.len() as u32;
    caller.slots.extend_from_slice(&callee.slots);
    let block_base = caller.blocks.len() as u32;
    let continuation = BlockId(block_base + callee.blocks.len() as u32);

    // Copy elision: a parameter the callee never redefines can read its
    // argument operand directly, with no copy — unless the argument is
    // the very register the call result overwrites (`x = f(x)`).
    let mut param_written = vec![false; callee.params as usize];
    for b in &callee.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst() {
                if d.0 < callee.params {
                    param_written[d.index()] = true;
                }
            }
        }
    }
    let mut subst: Vec<Option<Operand>> = vec![None; callee.params as usize];
    for i in 0..callee.params as usize {
        if param_written[i] {
            continue;
        }
        let arg = args.get(i).copied().unwrap_or(Operand::imm(0));
        let clobbered = matches!((arg, dst), (Operand::Reg(r), Some(d)) if r == d);
        if !clobbered {
            subst[i] = Some(arg);
        }
    }

    // Split the call block.
    let split = &mut caller.blocks[site.block.index()];
    let tail: Vec<Inst> = split.insts.split_off(site.inst + 1);
    split.insts.pop().expect("call instruction present");
    for i in 0..callee.params {
        if subst[i as usize].is_some() {
            continue;
        }
        let src = args.get(i as usize).copied().unwrap_or(Operand::imm(0));
        split.insts.push(Inst::Copy {
            dst: Reg(reg_base + i),
            src,
        });
    }
    split.insts.push(Inst::Jump {
        target: BlockId(block_base),
    });

    // Splice the callee body.
    let mut fault_pending = crate::fault::armed();
    for cb in &callee.blocks {
        let mut nb = Block::new();
        for inst in &cb.insts {
            let mut ni = inst.clone();
            if let Some(d) = ni.dst_mut() {
                *d = Reg(d.0 + reg_base);
            }
            ni.for_each_use_mut(|op| {
                if let Operand::Reg(r) = op {
                    match subst.get(r.index()).copied().flatten() {
                        Some(replacement) => *op = replacement,
                        None => *r = Reg(r.0 + reg_base),
                    }
                }
            });
            match ni {
                Inst::Ret { value } => {
                    if let Some(d) = dst {
                        nb.insts.push(Inst::Copy {
                            dst: d,
                            src: value.unwrap_or(Operand::imm(0)),
                        });
                    }
                    nb.insts.push(Inst::Jump {
                        target: continuation,
                    });
                }
                Inst::FrameAddr { dst, slot } => {
                    nb.insts.push(Inst::FrameAddr {
                        dst,
                        slot: SlotId(slot.0 + slot_base),
                    });
                }
                mut other => {
                    if fault_pending {
                        if let Inst::Bin { op, .. } = &mut other {
                            if *op == hlo_ir::BinOp::Add {
                                *op = hlo_ir::BinOp::Sub;
                                fault_pending = false;
                            }
                        }
                    }
                    other.map_successors(|s| BlockId(s.0 + block_base));
                    nb.insts.push(other);
                }
            }
        }
        caller.blocks.push(nb);
    }
    caller.blocks.push(Block { insts: tail });

    // Extend the caller's profile over the new blocks.
    if let Some(pr) = &mut caller.profile {
        let scale = match &callee.profile {
            Some(cp) if cp.entry > 0.0 => site_count / cp.entry,
            _ => 0.0,
        };
        for (i, _) in callee.blocks.iter().enumerate() {
            let c = match &callee.profile {
                Some(cp) if cp.entry > 0.0 => cp.blocks[i] * scale,
                _ => site_count,
            };
            pr.blocks.push(c);
        }
        pr.blocks.push(site_count); // continuation
    }

    InlineSplice {
        split_block: site.block,
        call_index: site.inst,
        continuation,
        site_count,
    }
}

/// Materializes a clone of `spec.callee` with the spec's parameters bound
/// to constants in the entry block (paper §2.3). Returns the new function.
///
/// The clone lands in the clonee's module with `Static` linkage and a
/// fresh `<name>.clone[.N]` name. Module-static symbols referenced by the
/// bound constants from *other* modules are promoted to public scope with
/// unique names, exactly as the paper describes for cross-module cloning.
/// Function names are minted from `names`, which holds every function
/// name of the whole program (`p` may be a partition's sub-program) and
/// records the clone's name and any promoted function's new one.
pub fn make_clone(p: &mut Program, names: &mut FuncNames, spec: &CloneSpec) -> FuncId {
    let orig = p.func(spec.callee).clone();
    let params = orig.params;
    debug_assert!(spec.bindings.windows(2).all(|w| w[0].0 < w[1].0));
    let bound: Vec<bool> = (0..params).map(|i| spec.binding(i).is_some()).collect();
    let unbound: Vec<u32> = (0..params).filter(|&i| !bound[i as usize]).collect();

    // Permute the parameter registers: unbound params become the new
    // parameters 0..k, bound ones become ordinary registers after them.
    let mut perm: Vec<u32> = (0..orig.num_regs).collect();
    for (k, &op) in unbound.iter().enumerate() {
        perm[op as usize] = k as u32;
    }
    for (j, (bp, _)) in spec.bindings.iter().enumerate() {
        perm[*bp as usize] = (unbound.len() + j) as u32;
    }

    let mut clone = orig.clone();
    clone.remap_regs(|r| Reg(perm[r.index()]));
    for (j, (_, value)) in spec.bindings.iter().enumerate().rev() {
        clone.blocks[0].insts.insert(
            0,
            Inst::Const {
                dst: Reg((unbound.len() + j) as u32),
                value: *value,
            },
        );
    }
    clone.params = unbound.len() as u32;
    clone.name = names.fresh(&format!("{}.clone", orig.name));
    clone.linkage = Linkage::Static;
    // The inserted constants belong to the entry block; keep the profile
    // annotation shape intact (the pass rescales values afterwards).
    if let Some(pr) = &mut clone.profile {
        debug_assert_eq!(pr.blocks.len(), clone.blocks.len());
    }

    // Promote module-static symbols that the bound constants make visible
    // outside their module.
    let clone_module = clone.module;
    for (_, value) in &spec.bindings {
        match value {
            ConstVal::FuncAddr(f) => {
                let fun = p.func(*f);
                if fun.linkage == Linkage::Static && fun.module != clone_module {
                    let fresh = names.fresh(&format!("{}.promoted", fun.name));
                    names.remove(&fun.name);
                    let fun = p.func_mut(*f);
                    fun.linkage = Linkage::Public;
                    fun.name = fresh;
                }
            }
            ConstVal::GlobalAddr(g)
                if p.global(*g).linkage == Linkage::Static
                    && p.global(*g).module != clone_module =>
            {
                let fresh = format!("{}.promoted.{}", p.global(*g).name, g.0);
                let gl = &mut p.globals[g.index()];
                gl.linkage = Linkage::Public;
                gl.name = fresh;
            }
            _ => {}
        }
    }

    p.push_function(clone)
}

/// Rewrites the direct call at `site` to target `clone`, dropping the
/// actuals the spec bound ("parameters incorporated into the clone are
/// edited from the actuals list").
///
/// # Panics
/// Panics if `site` is not a direct call to the spec's callee.
pub fn redirect_site_to_clone(
    p: &mut Program,
    site: &CallSiteRef,
    spec: &CloneSpec,
    clone: FuncId,
) {
    let inst = &mut p.funcs[site.caller.index()].blocks[site.block.index()].insts[site.inst];
    match inst {
        Inst::Call { callee, args, .. } => {
            assert_eq!(
                *callee,
                Callee::Func(spec.callee),
                "redirect_site_to_clone on a site that does not call the clonee"
            );
            let kept: Vec<Operand> = args
                .iter()
                .enumerate()
                .filter(|(i, _)| spec.binding(*i as u32).is_none())
                .map(|(_, a)| *a)
                .collect();
            *args = kept;
            *callee = Callee::Func(clone);
        }
        other => panic!("redirect_site_to_clone on non-call {other}"),
    }
}

/// Scales a function's profile by `factor` (used to split counts between
/// a clonee and its clones, and to deduct inlined executions).
pub(crate) fn scale_profile(profile: &mut Option<FuncProfile>, factor: f64) {
    if let Some(pr) = profile {
        let f = factor.max(0.0);
        pr.entry *= f;
        for b in &mut pr.blocks {
            *b *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_analysis::CallGraph;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn first_site(p: &Program, caller: &str, callee: &str) -> CallSiteRef {
        let cg = CallGraph::build(p);
        let callee_id = p
            .iter_funcs()
            .find(|(_, f)| f.name == callee)
            .map(|(i, _)| i)
            .unwrap();
        cg.edges
            .iter()
            .find(|e| p.func(e.site.caller).name == caller && e.callee == callee_id)
            .unwrap()
            .site
    }

    #[test]
    fn inline_preserves_semantics() {
        let src = &[(
            "m",
            r#"
            fn mix(a, b) { if (a > b) { return a * 2; } return b + 3; }
            fn main() { return mix(10, 4) * 100 + mix(1, 5); }
            "#,
        )];
        let p0 = hlo_frontc::compile(src).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let s = first_site(&p, "main", "mix");
        inline_call(&mut p, &s);
        verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        // one call fewer at run time
        assert!(after.retired != before.retired);
    }

    #[test]
    fn inline_both_sites_sequentially() {
        let src = &[(
            "m",
            r#"
            fn f(x) { return x + 7; }
            fn main() { return f(1) + f(2); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        // Inline the second site first, then the first (order-robustness).
        let cg = CallGraph::build(&p);
        let sites: Vec<_> = cg.edges.iter().map(|e| e.site).collect();
        assert_eq!(sites.len(), 2);
        let (s0, s1) = (sites[0], sites[1]);
        let splice = inline_call(&mut p, &s1);
        let _ = splice;
        // s0 is before s1 in the same block, so its coordinates survive.
        inline_call(&mut p, &s0);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn inline_updates_later_site_coordinates() {
        let src = &[(
            "m",
            r#"
            fn f(x) { return x + 7; }
            fn main() { return f(1) + f(2); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let cg = CallGraph::build(&p);
        let sites: Vec<_> = cg.edges.iter().map(|e| e.site).collect();
        let (s0, mut s1) = (sites[0], sites[1]);
        let sp = inline_call(&mut p, &s0);
        // apply the coordinate-shift rule for a later site in the block
        assert_eq!(s1.block, sp.split_block);
        assert!(s1.inst > sp.call_index);
        s1.block = sp.continuation;
        s1.inst -= sp.call_index + 1;
        inline_call(&mut p, &s1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn inline_void_callee() {
        let src = &[(
            "m",
            r#"
            global g;
            fn bump(x) { g = g + x; }
            fn main() { g = 0; bump(4); bump(5); return g; }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let s = first_site(&p, "main", "bump");
        inline_call(&mut p, &s);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            9
        );
    }

    #[test]
    fn inline_callee_with_frame_slots() {
        let src = &[(
            "m",
            r#"
            fn tab(x) { var t[4]; t[0] = x; t[1] = x * 2; return t[0] + t[1]; }
            fn main() { var u[2]; u[0] = 5; return tab(u[0]); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let s = first_site(&p, "main", "tab");
        inline_call(&mut p, &s);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            15
        );
    }

    #[test]
    fn inline_extends_profile_in_lockstep() {
        let src = &[("m", "fn f(x) { return x + 1; } fn main() { return f(3); }")];
        let mut p = hlo_frontc::compile(src).unwrap();
        for f in &mut p.funcs {
            let n = f.blocks.len();
            f.profile = Some(FuncProfile::flat(10.0, n));
        }
        let s = first_site(&p, "main", "f");
        inline_call(&mut p, &s);
        let main = p.entry.unwrap();
        let mf = p.func(main);
        assert_eq!(mf.profile.as_ref().unwrap().blocks.len(), mf.blocks.len());
    }

    #[test]
    fn clone_binds_constants_and_preserves_semantics() {
        let src = &[(
            "m",
            r#"
            fn poly(k, x) { if (k == 0) { return x; } return x * k + 1; }
            fn main() { return poly(3, 5) + poly(3, 7); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let callee = p.find_func("m", "poly").unwrap();
        let spec = CloneSpec {
            callee,
            bindings: vec![(0, ConstVal::int(3))],
        };
        let mut names = FuncNames::of(&p);
        let clone = make_clone(&mut p, &mut names, &spec);
        assert_eq!(p.func(clone).params, 1);
        assert_eq!(p.func(clone).linkage, Linkage::Static);
        assert!(p.func(clone).name.contains("clone"));
        let cg = CallGraph::build(&p);
        let sites: Vec<_> = cg
            .edges
            .iter()
            .filter(|e| e.callee == callee)
            .map(|e| e.site)
            .collect();
        for s in &sites {
            redirect_site_to_clone(&mut p, s, &spec, clone);
        }
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn clone_with_function_pointer_binding_promotes_statics() {
        let a = r#"
            static fn secret(x) { return x * 3; }
            fn main() { return apply(&secret, 7); }
        "#;
        let b = r#"
            fn apply(f, x) { return f(x); }
        "#;
        let mut p = hlo_frontc::compile(&[("a", a), ("b", b)]).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let secret = p
            .iter_funcs()
            .find(|(_, f)| f.name == "secret")
            .map(|(i, _)| i)
            .unwrap();
        let apply = p.find_func("b", "apply").unwrap();
        let spec = CloneSpec {
            callee: apply,
            bindings: vec![(0, ConstVal::FuncAddr(secret))],
        };
        let mut names = FuncNames::of(&p);
        let clone = make_clone(&mut p, &mut names, &spec);
        // The clone lives in apply's module (b) and references `secret`
        // which was static to module a: it must have been promoted.
        assert_eq!(p.func(clone).module, p.func(apply).module);
        assert_eq!(p.func(secret).linkage, Linkage::Public);
        assert!(p.func(secret).name.contains("promoted"));
        let s = first_site(&p, "main", "apply");
        redirect_site_to_clone(&mut p, &s, &spec, clone);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn clone_binding_multiple_params() {
        let src = &[(
            "m",
            r#"
            fn f(a, b, c) { return a * 100 + b * 10 + c; }
            fn main() { return f(1, 2, 3); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let callee = p.find_func("m", "f").unwrap();
        let spec = CloneSpec {
            callee,
            bindings: vec![(0, ConstVal::int(1)), (2, ConstVal::int(3))],
        };
        let mut names = FuncNames::of(&p);
        let clone = make_clone(&mut p, &mut names, &spec);
        assert_eq!(p.func(clone).params, 1);
        let s = first_site(&p, "main", "f");
        redirect_site_to_clone(&mut p, &s, &spec, clone);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            123
        );
    }

    #[test]
    fn scale_profile_clamps_and_scales() {
        let mut pr = Some(FuncProfile {
            entry: 10.0,
            blocks: vec![10.0, 4.0],
        });
        scale_profile(&mut pr, 0.5);
        let p = pr.as_ref().unwrap();
        assert_eq!(p.entry, 5.0);
        assert_eq!(p.blocks, vec![5.0, 2.0]);
        scale_profile(&mut pr, -1.0);
        assert_eq!(pr.as_ref().unwrap().entry, 0.0);
    }
}
