//! Deletion of unreachable routines (paper §2.3/§3.2 "Deletions").

use crate::driver::Scope;
use hlo_analysis::{reachable_funcs, CallGraphCache};
use hlo_ir::{Block, FuncId, Function, Inst, Program};

/// Removes routines that can no longer be called: file-scope functions
/// whose calls were all inlined, and clonees fully replaced by clones.
/// Under `Scope::CrossModule` (the link-time path) unused public routines
/// are deletable too, since the whole program is visible.
///
/// Reachability is computed over the cached call graph (the driver shares
/// one [`CallGraphCache`] across a partition's pipeline); each deleted
/// routine is invalidated in the cache, since emptying its body drops its
/// out-edges.
///
/// Deleted functions keep their `FuncId` (ids are never reused) but their
/// bodies are emptied and they leave their module's function list, so code
/// layout, classification and cost models no longer see them. Returns the
/// number of routines deleted.
pub fn delete_unreachable(p: &mut Program, scope: Scope, cache: &mut CallGraphCache) -> u64 {
    let reach = {
        let cg = cache.graph(p);
        reachable_funcs(p, cg, scope == Scope::CrossModule)
    };
    let mut deleted = 0;
    for (fi, alive) in reach.iter().enumerate() {
        if *alive {
            continue;
        }
        let id = FuncId(fi as u32);
        let module = p.func(id).module;
        let in_module_list = p.module(module).funcs.contains(&id);
        if !in_module_list {
            continue; // already deleted in an earlier pass
        }
        empty_body(p.func_mut(id));
        let m = &mut p.modules[module.index()];
        m.funcs.retain(|&x| x != id);
        cache.invalidate(id);
        deleted += 1;
    }
    deleted
}

/// Replaces `f`'s body with the deleted form: a lone `ret`, no registers
/// beyond the parameters, no frame slots and no profile. Name, module,
/// signature and flags stay, so the function keeps its id and identity.
fn empty_body(f: &mut Function) {
    f.blocks = vec![Block {
        insts: vec![Inst::Ret { value: None }],
    }];
    f.num_regs = f.params;
    f.slots.clear();
    f.profile = None;
}

/// True when `f`'s body is the one [`empty_body`] leaves: one block
/// holding a lone valueless `ret`, and no frame slots.
pub(crate) fn has_empty_body(f: &Function) -> bool {
    f.slots.is_empty()
        && matches!(f.blocks.as_slice(), [b] if matches!(b.insts.as_slice(), [Inst::Ret { value: None }]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;

    fn delete(p: &mut Program, scope: Scope) -> u64 {
        delete_unreachable(p, scope, &mut CallGraphCache::new())
    }

    #[test]
    fn deletes_orphaned_static_keeps_public_in_module_scope() {
        let p = hlo_frontc::compile(&[(
            "m",
            r#"
            static fn orphan_static() { return 1; }
            fn orphan_public() { return 2; }
            fn main() { return 0; }
            "#,
        )])
        .unwrap();
        let mut per_module = p.clone();
        assert_eq!(delete(&mut per_module, Scope::WithinModule), 1);
        verify_program(&per_module).unwrap();
        let mut whole = p;
        assert_eq!(delete(&mut whole, Scope::CrossModule), 2);
        verify_program(&whole).unwrap();
    }

    #[test]
    fn address_taken_functions_survive() {
        let mut p = hlo_frontc::compile(&[(
            "m",
            r#"
            static fn cb() { return 3; }
            fn main() { var f = &cb; return f(); }
            "#,
        )])
        .unwrap();
        assert_eq!(delete(&mut p, Scope::CrossModule), 0);
    }

    #[test]
    fn second_deletion_pass_counts_nothing_twice() {
        let mut p = hlo_frontc::compile(&[(
            "m",
            "static fn dead() { return 1; } fn main() { return 0; }",
        )])
        .unwrap();
        // One shared cache across both queries, exercising invalidation.
        let mut cache = CallGraphCache::new();
        assert_eq!(
            delete_unreachable(&mut p, Scope::CrossModule, &mut cache),
            1
        );
        assert_eq!(
            delete_unreachable(&mut p, Scope::CrossModule, &mut cache),
            0
        );
    }

    #[test]
    fn deletion_cascades_through_call_chains() {
        let mut p = hlo_frontc::compile(&[(
            "m",
            r#"
            static fn leaf() { return 1; }
            static fn mid() { return leaf(); }
            fn main() { return 0; }
            "#,
        )])
        .unwrap();
        // mid and leaf are both unreachable: a single pass removes both.
        assert_eq!(delete(&mut p, Scope::CrossModule), 2);
    }

    #[test]
    fn deleted_function_shrinks_compile_cost() {
        let mut p = hlo_frontc::compile(&[(
            "m",
            r#"
            static fn big(x) { var s = 0;
                for (var i = 0; i < x; i = i + 1) { s = s + i * i; }
                return s; }
            fn main() { return 0; }
            "#,
        )])
        .unwrap();
        let before = p.compile_cost();
        delete(&mut p, Scope::CrossModule);
        assert!(p.compile_cost() < before);
    }

    #[test]
    fn stale_cache_entries_do_not_resurrect_deleted_callees() {
        // After deleting `mid` (which called `leaf`), a cached graph must
        // not still show the mid -> leaf edge: a second query sees leaf as
        // unreachable too only because mid's scan was invalidated.
        let mut p = hlo_frontc::compile(&[(
            "m",
            r#"
            static fn leaf() { return 1; }
            fn mid() { return leaf(); }
            fn main() { return 0; }
            "#,
        )])
        .unwrap();
        let mut cache = CallGraphCache::new();
        // Per-module scope keeps public `mid` alive, so only nothing dies
        // yet; then cross-module deletes mid, and leaf must cascade within
        // the same cache.
        assert_eq!(
            delete_unreachable(&mut p, Scope::WithinModule, &mut cache),
            0
        );
        assert_eq!(
            delete_unreachable(&mut p, Scope::CrossModule, &mut cache),
            2
        );
        let cg = cache.graph(&p);
        let mid = p.find_func("m", "mid").unwrap();
        assert!(cg.callees_of[mid.index()].is_empty());
    }
}
