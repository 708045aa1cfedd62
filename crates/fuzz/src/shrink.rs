//! Greedy failure shrinker.
//!
//! Given a failing program and a predicate ("does this candidate still
//! fail the same way?"), the shrinker repeatedly tries structural
//! reductions — drop a module, drop an item, delete a statement, flatten
//! a compound statement into its children, replace an expression by a
//! constant or one of its operands, strip attributes — and keeps every
//! candidate the predicate accepts. Each accepted step strictly shrinks
//! the AST, so the process terminates; an evaluation budget bounds it in
//! time as well.
//!
//! The predicate sees *printed source*, exactly what a reproducer file
//! contains — so the shrunk program is guaranteed to reproduce from its
//! on-disk form, not just from the in-memory AST. Candidates that fail to
//! compile, trap at baseline, or fail differently are simply rejected, so
//! every accepted step is a well-formed MinC program exhibiting the
//! original finding.

use crate::print::print_sources;
use crate::walk::{expr_count, mutate_expr_at, remove_stmt_at, stmt_count, unnest_stmt_at};
use hlo_frontc::{Expr, Item, ModuleAst};

/// The shrink predicate: "does this candidate, in printed-source form,
/// still fail the same way?"
pub type StillFails<'a> = dyn FnMut(&[(String, String)]) -> bool + 'a;

/// Shrinker limits.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Maximum number of predicate evaluations.
    pub max_evals: u32,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig { max_evals: 400 }
    }
}

/// One accepted reduction, for auditability: the shrinker's soundness
/// test re-verifies that every intermediate program still compiles and
/// still exhibits the finding.
#[derive(Debug, Clone)]
pub struct ShrinkStep {
    /// What the step did (e.g. `"remove stmt"`).
    pub action: &'static str,
    /// The program after the step, in reproducer (printed) form.
    pub sources: Vec<(String, String)>,
}

/// The result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized program.
    pub modules: Vec<ModuleAst>,
    /// Its printed form.
    pub sources: Vec<(String, String)>,
    /// Every accepted intermediate, in order.
    pub steps: Vec<ShrinkStep>,
    /// Predicate evaluations spent.
    pub evals: u32,
}

/// Greedily minimizes `modules` while `still_fails` holds on the printed
/// sources. The initial program is assumed to fail (the caller observed
/// the finding before calling).
pub fn shrink(
    modules: Vec<ModuleAst>,
    cfg: &ShrinkConfig,
    still_fails: &mut StillFails<'_>,
) -> ShrinkOutcome {
    let mut s = Shrinker {
        cur: modules,
        steps: Vec::new(),
        evals: 0,
        max_evals: cfg.max_evals,
    };
    loop {
        let mut changed = false;
        changed |= s.pass_drop_modules(still_fails);
        changed |= s.pass_drop_items(still_fails);
        changed |= s.pass_stmts(still_fails, false);
        changed |= s.pass_stmts(still_fails, true);
        changed |= s.pass_exprs(still_fails);
        changed |= s.pass_strip_attrs(still_fails);
        if !changed || s.evals >= s.max_evals {
            break;
        }
    }
    let sources = print_sources(&s.cur);
    ShrinkOutcome {
        modules: s.cur,
        sources,
        steps: s.steps,
        evals: s.evals,
    }
}

struct Shrinker {
    cur: Vec<ModuleAst>,
    steps: Vec<ShrinkStep>,
    evals: u32,
    max_evals: u32,
}

impl Shrinker {
    /// Evaluates a candidate; on acceptance it becomes the current
    /// program and the step is recorded.
    fn try_accept(
        &mut self,
        cand: Vec<ModuleAst>,
        action: &'static str,
        still_fails: &mut StillFails<'_>,
    ) -> bool {
        if self.evals >= self.max_evals {
            return false;
        }
        self.evals += 1;
        let sources = print_sources(&cand);
        if still_fails(&sources) {
            self.cur = cand;
            self.steps.push(ShrinkStep { action, sources });
            true
        } else {
            false
        }
    }

    fn pass_drop_modules(&mut self, still_fails: &mut StillFails<'_>) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < self.cur.len() && self.cur.len() > 1 {
            let mut cand = self.cur.clone();
            cand.remove(i);
            if self.try_accept(cand, "drop module", still_fails) {
                changed = true; // same index now names the next module
            } else {
                i += 1;
            }
        }
        changed
    }

    fn pass_drop_items(&mut self, still_fails: &mut StillFails<'_>) -> bool {
        let mut changed = false;
        let mut m = 0;
        while m < self.cur.len() {
            let mut i = 0;
            while i < self.cur[m].items.len() {
                // Never drop main: the oracle needs an entry point, so the
                // candidate would only waste an evaluation.
                let is_main = matches!(&self.cur[m].items[i], Item::Fn(f) if f.name == "main");
                if is_main {
                    i += 1;
                    continue;
                }
                let mut cand = self.cur.clone();
                cand[m].items.remove(i);
                if self.try_accept(cand, "drop item", still_fails) {
                    changed = true;
                } else {
                    i += 1;
                }
            }
            m += 1;
        }
        changed
    }

    fn pass_stmts(&mut self, still_fails: &mut StillFails<'_>, unnest: bool) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < stmt_count(&self.cur) {
            let mut cand = self.cur.clone();
            let applied = if unnest {
                unnest_stmt_at(&mut cand, i)
            } else {
                remove_stmt_at(&mut cand, i)
            };
            let action = if unnest { "unnest stmt" } else { "remove stmt" };
            if applied && self.try_accept(cand, action, still_fails) {
                changed = true; // indices shifted; retry the same slot
            } else {
                i += 1;
            }
        }
        changed
    }

    fn pass_exprs(&mut self, still_fails: &mut StillFails<'_>) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < expr_count(&mut self.cur) {
            for replacement in ["zero", "one", "child"] {
                let mut cand = self.cur.clone();
                let mut did = false;
                mutate_expr_at(&mut cand, i, |e| {
                    let new = match replacement {
                        // Literal-to-literal rewrites are excluded: they
                        // would make a step that shrinks nothing, breaking
                        // the strict-progress argument below.
                        "zero" if !matches!(e, Expr::Int(_)) => Some(Expr::Int(0)),
                        "one" if !matches!(e, Expr::Int(_)) => Some(Expr::Int(1)),
                        "child" => first_child(e),
                        _ => None,
                    };
                    if let Some(n) = new {
                        *e = n;
                        did = true;
                    }
                });
                if did && self.try_accept(cand, "simplify expr", still_fails) {
                    changed = true;
                    break; // node replaced; the fixpoint loop revisits it
                }
            }
            i += 1;
        }
        changed
    }

    fn pass_strip_attrs(&mut self, still_fails: &mut StillFails<'_>) -> bool {
        let mut changed = false;
        let n_modules = self.cur.len();
        for m in 0..n_modules {
            for i in 0..self.cur[m].items.len() {
                let interesting = matches!(
                    &self.cur[m].items[i],
                    Item::Fn(f) if f.attrs != Default::default() || f.is_static
                );
                if !interesting {
                    continue;
                }
                let mut cand = self.cur.clone();
                if let Item::Fn(f) = &mut cand[m].items[i] {
                    f.attrs = Default::default();
                    f.is_static = false;
                }
                if self.try_accept(cand, "strip attrs", still_fails) {
                    changed = true;
                }
            }
        }
        changed
    }
}

/// A structurally smaller equivalent-position subexpression, if one
/// exists. Index bases are excluded: replacing a load by its base would
/// turn an array name into an address value, which for local arrays is
/// frame-layout-dependent — shrinking must never *introduce* layout
/// sensitivity.
fn first_child(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Un(_, a) => Some((**a).clone()),
        Expr::Bin(_, a, _) => Some((**a).clone()),
        Expr::Ternary(_, a, _) => Some((**a).clone()),
        Expr::Call(_, args) | Expr::Intrinsic(_, args) => args.first().cloned(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_modules, GenConfig};
    use crate::print::source_lines;

    /// Shrinks against a syntactic property: "the program still calls
    /// `sink` somewhere and still compiles". Cheap to evaluate, and
    /// exercises every pass.
    #[test]
    fn shrinks_toward_a_minimal_sink_call() {
        let modules = generate_modules(11, &GenConfig::default());
        let before = source_lines(&print_sources(&modules));
        let mut pred = |sources: &[(String, String)]| {
            crate::oracle::compile_sources(sources).is_ok()
                && sources.iter().any(|(_, s)| s.contains("sink("))
        };
        let out = shrink(modules, &ShrinkConfig::default(), &mut pred);
        let after = source_lines(&out.sources);
        assert!(after < before, "no reduction: {before} -> {after}");
        assert!(out.sources.iter().any(|(_, s)| s.contains("sink(")));
        // Every accepted step satisfied the predicate (recorded form).
        for step in &out.steps {
            assert!(
                crate::oracle::compile_sources(&step.sources).is_ok(),
                "accepted step does not compile"
            );
        }
    }
}
