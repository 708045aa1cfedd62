//! Whole programs.

use crate::{Extern, ExternId, FuncId, Function, Global, GlobalId, Module, ModuleId};
use std::collections::HashMap;

/// A whole program: the unit HLO optimizes on the link-time ("isom") path.
///
/// All symbol references are resolved: direct calls carry [`FuncId`]s,
/// unresolved names become [`Extern`]s. The *scope* option of the optimizer
/// decides whether transformations may cross module boundaries, which
/// models the paper's per-module vs link-time compilation paths.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Compilation units.
    pub modules: Vec<Module>,
    /// All functions, program-wide.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
    /// External routines.
    pub externs: Vec<Extern>,
    /// The program entry point (`main`).
    pub entry: Option<FuncId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Shared access to a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Shared access to a module.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Shared access to a global.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Shared access to an external declaration.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn ext(&self, id: ExternId) -> &Extern {
        &self.externs[id.index()]
    }

    /// Iterates `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Finds a function by `(module name, function name)`.
    pub fn find_func(&self, module: &str, name: &str) -> Option<FuncId> {
        self.iter_funcs()
            .find(|(_, f)| f.name == name && self.module(f.module).name == module)
            .map(|(id, _)| id)
    }

    /// Finds a public function by name anywhere in the program.
    pub fn find_public_func(&self, name: &str) -> Option<FuncId> {
        self.iter_funcs()
            .find(|(_, f)| f.name == name && f.linkage == crate::Linkage::Public)
            .map(|(id, _)| id)
    }

    /// Finds an external by name.
    pub fn find_extern(&self, name: &str) -> Option<ExternId> {
        self.externs
            .iter()
            .position(|e| e.name == name)
            .map(|i| ExternId(i as u32))
    }

    /// Total instruction count across all functions.
    pub fn total_size(&self) -> u64 {
        self.funcs.iter().map(|f| f.size()).sum()
    }

    /// The paper's compile-time cost estimate: `sum over routines of
    /// size(R)^2` (the HP back end contains quadratic algorithms, so this is
    /// the quantity the inlining budget limits).
    pub fn compile_cost(&self) -> u64 {
        self.funcs
            .iter()
            .map(|f| {
                let s = f.size();
                s * s
            })
            .sum()
    }

    /// Appends a function, registering it with its module. Returns its id.
    pub fn push_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        let m = f.module;
        self.funcs.push(f);
        self.modules[m.index()].funcs.push(id);
        id
    }
}

/// Every function name a program holds, with multiplicity (two modules
/// may each hold a static of one name): the pool fresh names are minted
/// from. The optimizer keeps one for the whole program while it builds
/// partitions on sub-programs that hold only their own members, so names
/// minted in one partition see every name of the program, clones of
/// earlier partitions included.
#[derive(Debug, Default)]
pub struct FuncNames {
    counts: HashMap<String, u32>,
}

impl FuncNames {
    /// The names of every function of `p`, deleted ones included.
    pub fn of(p: &Program) -> Self {
        let mut names = FuncNames::default();
        for f in &p.funcs {
            names.insert(&f.name);
        }
        names
    }

    /// Records one more function holding `name`.
    pub fn insert(&mut self, name: &str) {
        *self.counts.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Records that one function holding `name` gave it up (it was
    /// renamed).
    pub fn remove(&mut self, name: &str) {
        if let Some(n) = self.counts.get_mut(name) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(name);
            }
        }
    }

    /// Mints a name no function holds yet — `base`, then `base.1`,
    /// `base.2`, ... — and records it as held.
    pub fn fresh(&mut self, base: &str) -> String {
        let taken = |name: &str| self.counts.contains_key(name);
        let name = if taken(base) {
            (1..)
                .map(|i| format!("{base}.{i}"))
                .find(|cand| !taken(cand))
                .expect("some suffix is free")
        } else {
            base.to_string()
        };
        self.insert(&name);
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, Linkage, Operand, ProgramBuilder, Type};

    fn two_module_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m0 = pb.add_module("a");
        let m1 = pb.add_module("b");
        let mut f = FunctionBuilder::new("f", m0, 0);
        let e = f.entry_block();
        f.ret(e, Some(Operand::imm(1)));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        let mut g = FunctionBuilder::new("g", m1, 0);
        let e = g.entry_block();
        g.ret(e, Some(Operand::imm(2)));
        pb.add_function(g.finish(Linkage::Static, Type::I64));
        pb.finish(None)
    }

    #[test]
    fn find_by_module_and_name() {
        let p = two_module_program();
        assert!(p.find_func("a", "f").is_some());
        assert!(p.find_func("b", "f").is_none());
        assert!(p.find_func("b", "g").is_some());
    }

    #[test]
    fn find_public_skips_statics() {
        let p = two_module_program();
        assert!(p.find_public_func("f").is_some());
        assert!(p.find_public_func("g").is_none());
    }

    #[test]
    fn compile_cost_is_sum_of_squares() {
        let p = two_module_program();
        // each function is a single ret => size 1 => cost 1 each
        assert_eq!(p.compile_cost(), 2);
        assert_eq!(p.total_size(), 2);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut p = two_module_program();
        p.funcs[1].name = "f.1".into();
        let mut names = FuncNames::of(&p);
        assert_eq!(names.fresh("h"), "h");
        assert_eq!(names.fresh("h"), "h.1");
        assert_eq!(names.fresh("f"), "f.2");
        assert_eq!(names.fresh("f"), "f.3");
    }

    #[test]
    fn names_count_every_holder() {
        // Two statics share `leaf`: renaming one leaves the other's name
        // taken.
        let mut p = two_module_program();
        p.funcs[0].name = "leaf".into();
        p.funcs[1].name = "leaf".into();
        let mut names = FuncNames::of(&p);
        let promoted = names.fresh("leaf.promoted");
        names.remove("leaf");
        assert_eq!(promoted, "leaf.promoted");
        assert_eq!(names.fresh("leaf"), "leaf.1");
        names.remove("leaf");
        assert_eq!(names.fresh("leaf"), "leaf");
    }
}
