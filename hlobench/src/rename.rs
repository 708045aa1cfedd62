//! The `suite-linked` input: all fourteen suite programs renamed apart
//! and linked into one whole program, the link-time setting where
//! whole-program inlining cost grows with program size.
//!
//! Renaming walks the parsed AST and mirrors the front end's name
//! resolution (`hlo_frontc::link`): block-scoped locals shadow top-level
//! names; a bare name reads a local, then a global, then a function; a
//! call through a bare name reaches a local, then a function, and
//! otherwise an extern or builtin, which keeps its name so the VM still
//! finds it.

use hlo_frontc::{Expr, FrontError, Item, LValue, ModuleAst, Stmt};
use std::collections::{HashMap, HashSet};

/// One suite program, every top-level function, global and module
/// renamed with `prefix`.
pub fn rename_program(modules: &[ModuleAst], prefix: &str) -> Vec<ModuleAst> {
    let mut public_fns = HashSet::new();
    let mut public_globals = HashSet::new();
    for m in modules {
        for item in &m.items {
            match item {
                Item::Fn(f) if !f.is_static => {
                    public_fns.insert(f.name.clone());
                }
                Item::Global(g) if !g.is_static => {
                    public_globals.insert(g.name.clone());
                }
                _ => {}
            }
        }
    }
    modules
        .iter()
        .map(|m| {
            let mut fns = public_fns.clone();
            let mut globals = public_globals.clone();
            for item in &m.items {
                match item {
                    Item::Fn(f) => {
                        fns.insert(f.name.clone());
                    }
                    Item::Global(g) => {
                        globals.insert(g.name.clone());
                    }
                    Item::Extern(_) => {}
                }
            }
            let mut r = Renamer {
                prefix,
                fns: &fns,
                globals: &globals,
                scopes: Vec::new(),
            };
            let mut out = m.clone();
            out.name = format!("{prefix}{}", m.name);
            for item in &mut out.items {
                match item {
                    Item::Fn(f) => {
                        f.name = format!("{prefix}{}", f.name);
                        r.scopes
                            .push(f.params.iter().map(|p| (p.clone(), false)).collect());
                        r.block(&mut f.body);
                        r.scopes.pop();
                    }
                    Item::Global(g) => g.name = format!("{prefix}{}", g.name),
                    Item::Extern(_) => {}
                }
            }
            out
        })
        .collect()
}

/// Prefix of suite program `i` in the linked program.
pub fn prefix(i: usize) -> String {
    format!("p{i:02}_")
}

/// Parses every suite program, renames program `i` with [`prefix`]`(i)`,
/// and appends an `entry` module whose `main` sums each program's renamed
/// `main(train_arg)`.
///
/// # Errors
/// A front-end error in an embedded suite source (a suite bug).
pub fn linked_modules(suite: &[hlo_suite::Benchmark]) -> Result<Vec<ModuleAst>, FrontError> {
    let mut all = Vec::new();
    let mut body = String::from("fn main() { var s = 0;\n");
    for (i, b) in suite.iter().enumerate() {
        let parsed = b
            .sources
            .iter()
            .map(|(n, s)| hlo_frontc::parse_module(n, s))
            .collect::<Result<Vec<_>, _>>()?;
        all.extend(rename_program(&parsed, &prefix(i)));
        body.push_str(&format!("  s = s + {}main({});\n", prefix(i), b.train_arg));
    }
    body.push_str("  return s; }\n");
    all.push(hlo_frontc::parse_module("entry", &body)?);
    Ok(all)
}

struct Renamer<'a> {
    prefix: &'a str,
    /// Functions visible from this module: its own plus every public one.
    fns: &'a HashSet<String>,
    /// Globals visible from this module.
    globals: &'a HashSet<String>,
    /// Local scopes: name → declared as an array.
    scopes: Vec<HashMap<String, bool>>,
}

impl Renamer<'_> {
    fn local(&self, name: &str) -> Option<bool> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn declare(&mut self, name: &str, array: bool) {
        self.scopes
            .last_mut()
            .expect("a function body always has a scope")
            .insert(name.to_string(), array);
    }

    fn rename(&self, name: &mut String) {
        *name = format!("{}{name}", self.prefix);
    }

    fn block(&mut self, stmts: &mut [Stmt]) {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::VarDecl { name, init } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                self.declare(name, false);
            }
            Stmt::ArrayDecl { name, .. } => self.declare(name, true),
            Stmt::Assign { target, value } => {
                self.expr(value);
                match target {
                    LValue::Name(n) => {
                        if self.local(n).is_none() && self.globals.contains(n.as_str()) {
                            self.rename(n);
                        }
                    }
                    LValue::Index(base, idx) => {
                        self.expr(base);
                        self.expr(idx);
                    }
                }
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::If { cond, then_, else_ } => {
                self.expr(cond);
                self.block(then_);
                self.block(else_);
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.block(body);
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.scopes.pop();
            }
            Stmt::Return(Some(e)) => self.expr(e),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }

    fn expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Int(_) => {}
            Expr::Name(n) => {
                if self.local(n).is_none()
                    && (self.globals.contains(n.as_str()) || self.fns.contains(n.as_str()))
                {
                    self.rename(n);
                }
            }
            Expr::AddrOf(n) => {
                if self.local(n) != Some(true)
                    && (self.fns.contains(n.as_str()) || self.globals.contains(n.as_str()))
                {
                    self.rename(n);
                }
            }
            Expr::Un(_, a) => self.expr(a),
            Expr::Bin(_, a, b) | Expr::Index(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Ternary(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
            }
            Expr::Call(callee, args) => {
                for a in args.iter_mut() {
                    self.expr(a);
                }
                match callee.as_mut() {
                    Expr::Name(n) => {
                        if self.local(n).is_none() && self.fns.contains(n.as_str()) {
                            self.rename(n);
                        }
                    }
                    other => self.expr(other),
                }
            }
            Expr::Intrinsic(_, args) => {
                for a in args.iter_mut() {
                    self.expr(a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_vm::{run_program, ExecOptions};

    #[test]
    fn renaming_keeps_every_suite_program_output_identical() {
        for (i, b) in hlo_suite::all_benchmarks().into_iter().enumerate() {
            let want = run_program(
                &b.compile().expect("suite compiles"),
                &[b.train_arg],
                &ExecOptions::default(),
            )
            .expect("original runs");
            let parsed: Vec<ModuleAst> = b
                .sources
                .iter()
                .map(|(n, s)| hlo_frontc::parse_module(n, s).expect("parses"))
                .collect();
            let mut renamed = rename_program(&parsed, &prefix(i));
            let fwd = format!("fn main(n) {{ return {}main(n); }}", prefix(i));
            renamed.push(hlo_frontc::parse_module("entry", &fwd).expect("entry parses"));
            let p = hlo_frontc::link(&renamed).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            // Nothing of the original namespace survives except externs.
            assert!(p
                .funcs
                .iter()
                .all(|f| f.name.starts_with(&prefix(i)) || f.name == "main"));
            assert!(p.globals.iter().all(|g| g.name.starts_with(&prefix(i))));
            let got = run_program(&p, &[b.train_arg], &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
            assert_eq!(
                (got.ret, &got.output, got.checksum),
                (want.ret, &want.output, want.checksum),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn locals_shadow_and_builtins_keep_their_names() {
        let m = hlo_frontc::parse_module(
            "m",
            "global g = 3;
             fn f(x) { return x + g; }
             fn main() { var g = 10; var s = f(g); sink(s); return s + g; }",
        )
        .expect("parses");
        let renamed = rename_program(&[m], "q_");
        let text = format!("{:?}", renamed[0]);
        assert!(
            text.contains("\"q_f\"") && text.contains("\"q_g\""),
            "{text}"
        );
        // The local `g` and the builtin `sink` are untouched.
        assert!(
            text.contains("Name(\"g\")") && text.contains("\"sink\""),
            "{text}"
        );
        assert_eq!(renamed[0].name, "q_m");
    }

    #[test]
    fn linked_program_has_every_module_plus_an_entry() {
        let suite = hlo_suite::all_benchmarks();
        let modules = linked_modules(&suite).expect("links");
        let want: usize = suite.iter().map(|b| b.sources.len()).sum::<usize>() + 1;
        assert_eq!(modules.len(), want);
        let p = hlo_frontc::link(&modules).expect("links");
        assert!(p.entry.is_some());
    }
}
