//! AST → IR lowering and cross-module linking.
//!
//! Linking resolves names the way a C toolchain does: definitions in the
//! same module win (including `static` ones), then public definitions in
//! other modules, then declared externs, then — for calls only — an
//! implicit external (library code the optimizer cannot see into).

use crate::ast::*;
use crate::FrontError;
use hlo_ir::{
    BinOp, BlockId, ConstVal, ExternId, FuncId, FunctionBuilder, GlobalId, Linkage, ModuleId,
    Operand, Program, ProgramBuilder, Reg, SlotId, Type, UnOp,
};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Links parsed modules into a whole [`Program`]. The modules may be
/// owned or shared (`ModuleAst`, `&ModuleAst`, `Arc<ModuleAst>`): linking
/// only reads them.
///
/// # Errors
/// Reports duplicate definitions, unresolved names used as values, misuse
/// of intrinsics, and `break`/`continue` outside loops.
pub fn link<M: Borrow<ModuleAst>>(modules: &[M]) -> Result<Program, FrontError> {
    let modules: Vec<&ModuleAst> = modules.iter().map(Borrow::borrow).collect();
    let mut pb = ProgramBuilder::new();
    let module_ids: Vec<ModuleId> = modules.iter().map(|m| pb.add_module(&m.name)).collect();

    // --- collect definitions and assign ids ---------------------------
    let mut fn_defs: Vec<(usize, &FnDef)> = Vec::new(); // (module idx, def)
    let mut public_fns: HashMap<&str, FuncId> = HashMap::new();
    let mut local_fns: Vec<HashMap<&str, FuncId>> = vec![HashMap::new(); modules.len()];
    let mut public_globals: HashMap<&str, GlobalId> = HashMap::new();
    let mut local_globals: Vec<HashMap<&str, GlobalId>> = vec![HashMap::new(); modules.len()];
    let mut declared_externs: Vec<HashMap<&str, ExternId>> = vec![HashMap::new(); modules.len()];

    let err = |m: &ModuleAst, line: u32, msg: String| FrontError {
        module: m.name.clone(),
        line,
        col: 1,
        msg,
    };

    let mut next_fn = 0u32;
    for (mi, m) in modules.iter().enumerate() {
        for item in &m.items {
            match item {
                Item::Fn(f) => {
                    let id = FuncId(next_fn);
                    next_fn += 1;
                    if local_fns[mi].insert(&f.name, id).is_some() {
                        return Err(err(
                            m,
                            f.line,
                            format!("duplicate function `{}` in module", f.name),
                        ));
                    }
                    if !f.is_static && public_fns.insert(&f.name, id).is_some() {
                        return Err(err(
                            m,
                            f.line,
                            format!("duplicate public function `{}`", f.name),
                        ));
                    }
                    fn_defs.push((mi, f));
                }
                Item::Global(g) => {
                    let linkage = if g.is_static {
                        Linkage::Static
                    } else {
                        Linkage::Public
                    };
                    let id =
                        pb.add_global(&g.name, module_ids[mi], linkage, g.words, g.init.clone());
                    if local_globals[mi].insert(&g.name, id).is_some() {
                        return Err(err(
                            m,
                            g.line,
                            format!("duplicate global `{}` in module", g.name),
                        ));
                    }
                    if !g.is_static && public_globals.insert(&g.name, id).is_some() {
                        return Err(err(
                            m,
                            g.line,
                            format!("duplicate public global `{}`", g.name),
                        ));
                    }
                }
                Item::Extern(e) => {
                    let id = pb.declare_extern(&e.name, Some(e.arity), true);
                    declared_externs[mi].insert(&e.name, id);
                }
            }
        }
    }

    // --- lower bodies ---------------------------------------------------
    for &(mi, def) in &fn_defs {
        let resolver = Resolver {
            module: mi,
            local_fns: &local_fns,
            public_fns: &public_fns,
            local_globals: &local_globals,
            public_globals: &public_globals,
            declared_externs: &declared_externs,
        };
        let func = lower_fn(&mut pb, &modules[mi].name, module_ids[mi], def, &resolver)?;
        let got = pb.add_function(func);
        debug_assert_eq!(got, local_fns[mi][def.name.as_str()]);
    }

    let entry = pb.program().find_public_func("main");
    Ok(pb.finish(entry))
}

struct Resolver<'a> {
    module: usize,
    local_fns: &'a [HashMap<&'a str, FuncId>],
    public_fns: &'a HashMap<&'a str, FuncId>,
    local_globals: &'a [HashMap<&'a str, GlobalId>],
    public_globals: &'a HashMap<&'a str, GlobalId>,
    declared_externs: &'a [HashMap<&'a str, ExternId>],
}

impl Resolver<'_> {
    fn func(&self, name: &str) -> Option<FuncId> {
        self.local_fns[self.module]
            .get(name)
            .or_else(|| self.public_fns.get(name))
            .copied()
    }

    fn global(&self, name: &str) -> Option<GlobalId> {
        self.local_globals[self.module]
            .get(name)
            .or_else(|| self.public_globals.get(name))
            .copied()
    }

    fn declared_extern(&self, name: &str) -> Option<ExternId> {
        self.declared_externs[self.module].get(name).copied()
    }
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Scalar(Reg),
    Array(SlotId),
}

struct Lower<'a, 'b> {
    pb: &'a mut ProgramBuilder,
    fb: FunctionBuilder,
    cur: BlockId,
    scopes: Vec<HashMap<String, Binding>>,
    /// (continue target, break target)
    loops: Vec<(BlockId, BlockId)>,
    resolver: &'a Resolver<'b>,
    module_name: &'a str,
    fn_line: u32,
    returns_value: bool,
}

impl Lower<'_, '_> {
    fn err(&self, msg: impl Into<String>) -> FrontError {
        FrontError {
            module: self.module_name.to_string(),
            line: self.fn_line,
            col: 1,
            msg: msg.into(),
        }
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn declare(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name.to_string(), b);
    }

    // --- statements ---------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), FrontError> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), FrontError> {
        match s {
            Stmt::VarDecl { name, init } => {
                let r = self.fb.new_reg();
                let v = match init {
                    Some(e) => self.expr(e)?,
                    None => Operand::imm(0),
                };
                self.fb.copy_to(self.cur, r, v);
                self.declare(name, Binding::Scalar(r));
            }
            Stmt::ArrayDecl { name, words } => {
                let slot = self.fb.new_slot(words * 8);
                self.declare(name, Binding::Array(slot));
            }
            Stmt::Assign { target, value } => match target {
                LValue::Name(n) => {
                    let v = self.expr(value)?;
                    if let Some(Binding::Scalar(r)) = self.lookup(n) {
                        self.fb.copy_to(self.cur, r, v);
                    } else if let Some(Binding::Array(_)) = self.lookup(n) {
                        return Err(self.err(format!("cannot assign to array `{n}`")));
                    } else if let Some(g) = self.resolver.global(n) {
                        self.fb.store(
                            self.cur,
                            Operand::Const(ConstVal::GlobalAddr(g)),
                            Operand::imm(0),
                            v,
                        );
                    } else {
                        return Err(self.err(format!("assignment to undefined variable `{n}`")));
                    }
                }
                LValue::Index(base, idx) => {
                    let b = self.expr(base)?;
                    let i = self.expr(idx)?;
                    let off = self.scaled_offset(i);
                    let v = self.expr(value)?;
                    self.fb.store(self.cur, b, off, v);
                }
            },
            Stmt::Expr(e) => {
                self.expr_for_effect(e)?;
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.expr(cond)?;
                let tb = self.fb.new_block();
                let eb = self.fb.new_block();
                let join = self.fb.new_block();
                self.fb.br(self.cur, c, tb, eb);
                self.cur = tb;
                self.stmts(then_)?;
                self.fb.jump(self.cur, join);
                self.cur = eb;
                self.stmts(else_)?;
                self.fb.jump(self.cur, join);
                self.cur = join;
            }
            Stmt::While { cond, body } => {
                let header = self.fb.new_block();
                let body_b = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.jump(self.cur, header);
                self.cur = header;
                let c = self.expr(cond)?;
                self.fb.br(self.cur, c, body_b, exit);
                self.cur = body_b;
                self.loops.push((header, exit));
                self.stmts(body)?;
                self.loops.pop();
                self.fb.jump(self.cur, header);
                self.cur = exit;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The for-scope covers the init declaration and the body.
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let header = self.fb.new_block();
                let body_b = self.fb.new_block();
                let step_b = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.jump(self.cur, header);
                self.cur = header;
                let c = match cond {
                    Some(e) => self.expr(e)?,
                    None => Operand::imm(1),
                };
                self.fb.br(self.cur, c, body_b, exit);
                self.cur = body_b;
                self.loops.push((step_b, exit));
                self.stmts(body)?;
                self.loops.pop();
                self.fb.jump(self.cur, step_b);
                self.cur = step_b;
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.fb.jump(self.cur, header);
                self.cur = exit;
                self.scopes.pop();
            }
            Stmt::Return(v) => {
                let val = match v {
                    Some(e) => Some(self.expr(e)?),
                    None => {
                        if self.returns_value {
                            Some(Operand::imm(0))
                        } else {
                            None
                        }
                    }
                };
                self.fb.ret(self.cur, val);
                // Code after a return in the same block is unreachable;
                // park it in a fresh block for simplify_cfg to collect.
                self.cur = self.fb.new_block();
            }
            Stmt::Break => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.err("`break` outside loop"))?;
                self.fb.jump(self.cur, brk);
                self.cur = self.fb.new_block();
            }
            Stmt::Continue => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.err("`continue` outside loop"))?;
                self.fb.jump(self.cur, cont);
                self.cur = self.fb.new_block();
            }
        }
        Ok(())
    }

    // --- expressions ----------------------------------------------------

    fn scaled_offset(&mut self, idx: Operand) -> Operand {
        match idx {
            Operand::Const(ConstVal::I64(v)) => Operand::imm(v.wrapping_mul(8)),
            other => {
                let r = self.fb.bin(self.cur, BinOp::Shl, other, Operand::imm(3));
                Operand::Reg(r)
            }
        }
    }

    fn expr_for_effect(&mut self, e: &Expr) -> Result<(), FrontError> {
        if let Expr::Call(callee, args) = e {
            self.lower_call(callee, args, false)?;
            return Ok(());
        }
        self.expr(e)?;
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<Operand, FrontError> {
        match e {
            Expr::Int(v) => Ok(Operand::imm(*v)),
            Expr::Name(n) => {
                if let Some(b) = self.lookup(n) {
                    return Ok(match b {
                        Binding::Scalar(r) => Operand::Reg(r),
                        Binding::Array(s) => {
                            let r = self.fb.frame_addr(self.cur, s);
                            Operand::Reg(r)
                        }
                    });
                }
                if let Some(g) = self.resolver.global(n) {
                    let words = self.pb.program().global(g).words;
                    if words == 1 {
                        let r = self.fb.load(
                            self.cur,
                            Operand::Const(ConstVal::GlobalAddr(g)),
                            Operand::imm(0),
                        );
                        return Ok(Operand::Reg(r));
                    }
                    // Arrays decay to their address.
                    return Ok(Operand::Const(ConstVal::GlobalAddr(g)));
                }
                if let Some(f) = self.resolver.func(n) {
                    // Function names decay to function pointers.
                    return Ok(Operand::Const(ConstVal::FuncAddr(f)));
                }
                Err(self.err(format!("undefined name `{n}`")))
            }
            Expr::AddrOf(n) => {
                if let Some(Binding::Array(s)) = self.lookup(n) {
                    let r = self.fb.frame_addr(self.cur, s);
                    return Ok(Operand::Reg(r));
                }
                if let Some(f) = self.resolver.func(n) {
                    return Ok(Operand::Const(ConstVal::FuncAddr(f)));
                }
                if let Some(g) = self.resolver.global(n) {
                    return Ok(Operand::Const(ConstVal::GlobalAddr(g)));
                }
                Err(self.err(format!("cannot take address of `{n}`")))
            }
            Expr::Un(op, a) => {
                let v = self.expr(a)?;
                let r = match op {
                    UnAst::Neg => self.fb.un(self.cur, UnOp::Neg, v),
                    UnAst::Not => self.fb.un(self.cur, UnOp::Not, v),
                    UnAst::LogNot => self.fb.bin(self.cur, BinOp::Eq, v, Operand::imm(0)),
                };
                Ok(Operand::Reg(r))
            }
            Expr::Bin(op, a, b) => match op {
                BinAst::LogAnd | BinAst::LogOr => self.short_circuit(*op, a, b),
                _ => {
                    let x = self.expr(a)?;
                    let y = self.expr(b)?;
                    let ir = match op {
                        BinAst::Add => BinOp::Add,
                        BinAst::Sub => BinOp::Sub,
                        BinAst::Mul => BinOp::Mul,
                        BinAst::Div => BinOp::Div,
                        BinAst::Rem => BinOp::Rem,
                        BinAst::And => BinOp::And,
                        BinAst::Or => BinOp::Or,
                        BinAst::Xor => BinOp::Xor,
                        BinAst::Shl => BinOp::Shl,
                        BinAst::Shr => BinOp::Shr,
                        BinAst::Lt => BinOp::Lt,
                        BinAst::Le => BinOp::Le,
                        BinAst::Gt => BinOp::Gt,
                        BinAst::Ge => BinOp::Ge,
                        BinAst::Eq => BinOp::Eq,
                        BinAst::Ne => BinOp::Ne,
                        BinAst::LogAnd | BinAst::LogOr => unreachable!(),
                    };
                    Ok(Operand::Reg(self.fb.bin(self.cur, ir, x, y)))
                }
            },
            Expr::Ternary(c, a, b) => {
                let cv = self.expr(c)?;
                let r = self.fb.new_reg();
                let tb = self.fb.new_block();
                let eb = self.fb.new_block();
                let join = self.fb.new_block();
                self.fb.br(self.cur, cv, tb, eb);
                self.cur = tb;
                let av = self.expr(a)?;
                self.fb.copy_to(self.cur, r, av);
                self.fb.jump(self.cur, join);
                self.cur = eb;
                let bv = self.expr(b)?;
                self.fb.copy_to(self.cur, r, bv);
                self.fb.jump(self.cur, join);
                self.cur = join;
                Ok(Operand::Reg(r))
            }
            Expr::Index(base, idx) => {
                let b = self.expr(base)?;
                let i = self.expr(idx)?;
                let off = self.scaled_offset(i);
                Ok(Operand::Reg(self.fb.load(self.cur, b, off)))
            }
            Expr::Call(callee, args) => {
                let r = self.lower_call(callee, args, true)?;
                Ok(Operand::Reg(r.expect("wanted result")))
            }
            Expr::Intrinsic(name, args) => self.intrinsic(name, args),
        }
    }

    fn short_circuit(&mut self, op: BinAst, a: &Expr, b: &Expr) -> Result<Operand, FrontError> {
        let r = self.fb.new_reg();
        let av = self.expr(a)?;
        let a_bool = self.fb.bin(self.cur, BinOp::Ne, av, Operand::imm(0));
        self.fb.copy_to(self.cur, r, Operand::Reg(a_bool));
        let rhs = self.fb.new_block();
        let join = self.fb.new_block();
        match op {
            BinAst::LogAnd => self.fb.br(self.cur, Operand::Reg(a_bool), rhs, join),
            BinAst::LogOr => self.fb.br(self.cur, Operand::Reg(a_bool), join, rhs),
            _ => unreachable!(),
        }
        self.cur = rhs;
        let bv = self.expr(b)?;
        let b_bool = self.fb.bin(self.cur, BinOp::Ne, bv, Operand::imm(0));
        self.fb.copy_to(self.cur, r, Operand::Reg(b_bool));
        self.fb.jump(self.cur, join);
        self.cur = join;
        Ok(Operand::Reg(r))
    }

    fn lower_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        want: bool,
    ) -> Result<Option<Reg>, FrontError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.expr(a)?);
        }
        // A bare name that is *not* a local variable resolves to a direct
        // or external callee; anything else is an indirect call.
        if let Expr::Name(n) = callee {
            if self.lookup(n).is_none() {
                if let Some(f) = self.resolver.func(n) {
                    let dst = want.then(|| self.fb.new_reg());
                    self.fb.push(
                        self.cur,
                        hlo_ir::Inst::Call {
                            dst,
                            callee: hlo_ir::Callee::Func(f),
                            args: argv,
                        },
                    );
                    return Ok(dst);
                }
                // declared extern, builtin, or implicit external library
                let e = match self.resolver.declared_extern(n) {
                    Some(e) => e,
                    None => self.pb.declare_extern(n.clone(), builtin_arity(n), true),
                };
                let dst = want.then(|| self.fb.new_reg());
                self.fb.push(
                    self.cur,
                    hlo_ir::Inst::Call {
                        dst,
                        callee: hlo_ir::Callee::Extern(e),
                        args: argv,
                    },
                );
                return Ok(dst);
            }
        }
        let fp = self.expr(callee)?;
        let dst = want.then(|| self.fb.new_reg());
        self.fb.push(
            self.cur,
            hlo_ir::Inst::Call {
                dst,
                callee: hlo_ir::Callee::Indirect(fp),
                args: argv,
            },
        );
        Ok(dst)
    }

    fn intrinsic(&mut self, name: &str, args: &[Expr]) -> Result<Operand, FrontError> {
        let need = |n: usize| -> Result<(), FrontError> {
            if args.len() != n {
                Err(self.err(format!("`{name}` expects {n} argument(s)")))
            } else {
                Ok(())
            }
        };
        match name {
            "__alloca" => {
                need(1)?;
                let n = self.expr(&args[0])?;
                let dst = self.fb.new_reg();
                self.fb
                    .push(self.cur, hlo_ir::Inst::Alloca { dst, bytes: n });
                Ok(Operand::Reg(dst))
            }
            "__itof" | "__ftoi" | "__fneg" => {
                need(1)?;
                let a = self.expr(&args[0])?;
                let op = match name {
                    "__itof" => UnOp::IToF,
                    "__ftoi" => UnOp::FToI,
                    _ => UnOp::FNeg,
                };
                Ok(Operand::Reg(self.fb.un(self.cur, op, a)))
            }
            "__fadd" | "__fsub" | "__fmul" | "__fdiv" | "__flt" | "__feq" => {
                need(2)?;
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                let op = match name {
                    "__fadd" => BinOp::FAdd,
                    "__fsub" => BinOp::FSub,
                    "__fmul" => BinOp::FMul,
                    "__fdiv" => BinOp::FDiv,
                    "__flt" => BinOp::FLt,
                    _ => BinOp::FEq,
                };
                Ok(Operand::Reg(self.fb.bin(self.cur, op, a, b)))
            }
            other => Err(self.err(format!("unknown intrinsic `{other}`"))),
        }
    }
}

fn builtin_arity(name: &str) -> Option<u32> {
    match name {
        "print_i64" | "sink" => Some(1),
        "checksum" | "abort" | "nop_lib" => Some(0),
        _ => None, // unknown library routine: varargs
    }
}

fn body_returns_value(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Return(v) => v.is_some(),
        Stmt::If { then_, else_, .. } => body_returns_value(then_) || body_returns_value(else_),
        Stmt::While { body, .. } => body_returns_value(body),
        Stmt::For { body, .. } => body_returns_value(body),
        _ => false,
    })
}

fn lower_fn(
    pb: &mut ProgramBuilder,
    module_name: &str,
    module: ModuleId,
    def: &FnDef,
    resolver: &Resolver<'_>,
) -> Result<hlo_ir::Function, FrontError> {
    let mut fb = FunctionBuilder::new(&def.name, module, def.params.len() as u32);
    fb.flags_mut().noinline = def.attrs.noinline;
    fb.flags_mut().inline_hint = def.attrs.inline_hint;
    fb.flags_mut().strict_fp = def.attrs.strict_fp;
    let entry = fb.entry_block();
    let returns_value = body_returns_value(&def.body);
    let mut scopes = vec![HashMap::new()];
    for (i, p) in def.params.iter().enumerate() {
        scopes[0].insert(p.clone(), Binding::Scalar(Reg(i as u32)));
    }
    let mut lower = Lower {
        pb,
        fb,
        cur: entry,
        scopes,
        loops: Vec::new(),
        resolver,
        module_name,
        fn_line: def.line,
        returns_value,
    };
    for s in &def.body {
        lower.stmt(s)?;
    }
    // Implicit return at the end of the body.
    let tail = if returns_value {
        Some(Operand::imm(0))
    } else {
        None
    };
    lower.fb.ret(lower.cur, tail);
    let linkage = if def.is_static {
        Linkage::Static
    } else {
        Linkage::Public
    };
    let ret = if returns_value { Type::I64 } else { Type::Void };
    Ok(lower.fb.finish(linkage, ret))
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn run(sources: &[(&str, &str)]) -> i64 {
        let p = compile(sources).unwrap();
        verify_program(&p).unwrap();
        run_program(&p, &[], &ExecOptions::default()).unwrap().ret
    }

    #[test]
    fn arithmetic_and_calls() {
        assert_eq!(
            run(&[(
                "m",
                "fn sq(x) { return x * x; } fn main() { return sq(5) + sq(2) * 2 - 3 % 2; }"
            )]),
            32
        );
    }

    #[test]
    fn loops_and_arrays() {
        let src = r#"
            global acc;
            fn main() {
                var t[10];
                for (var i = 0; i < 10; i = i + 1) { t[i] = i * i; }
                acc = 0;
                for (var i = 0; i < 10; i = i + 1) { acc = acc + t[i]; }
                return acc;
            }
        "#;
        assert_eq!(run(&[("m", src)]), 285);
    }

    #[test]
    fn cross_module_and_static_shadowing() {
        let a = r#"
            static fn helper() { return 1; }
            fn main() { return helper() + other(); }
        "#;
        let b = r#"
            static fn helper() { return 100; }
            fn other() { return helper() + 10; }
        "#;
        assert_eq!(run(&[("a", a), ("b", b)]), 111);
    }

    #[test]
    fn function_pointers_and_indirect_calls() {
        let src = r#"
            fn inc(x) { return x + 1; }
            fn dec(x) { return x - 1; }
            fn apply(f, x) { return f(x); }
            fn main() { return apply(&inc, 10) * apply(&dec, 10); }
        "#;
        assert_eq!(run(&[("m", src)]), 99);
    }

    #[test]
    fn function_name_decays_to_pointer() {
        let src = r#"
            fn id(x) { return x; }
            fn main() { var f = id; return f(7); }
        "#;
        assert_eq!(run(&[("m", src)]), 7);
    }

    #[test]
    fn short_circuit_evaluation() {
        let src = r#"
            global hits;
            fn bump() { hits = hits + 1; return 1; }
            fn main() {
                hits = 0;
                var a = 0 && bump();
                var b = 1 || bump();
                var c = 1 && bump();
                return hits * 100 + a + b * 10 + c;
            }
        "#;
        assert_eq!(run(&[("m", src)]), 111);
    }

    #[test]
    fn ternary_and_logical_not() {
        assert_eq!(run(&[("m", "fn main() { return !0 ? 4 : 9; }")]), 4);
    }

    #[test]
    fn break_and_continue() {
        let src = r#"
            fn main() {
                var s = 0;
                for (var i = 0; i < 100; i = i + 1) {
                    if (i == 7) { break; }
                    if (i % 2 == 0) { continue; }
                    s = s + i;
                }
                return s;
            }
        "#;
        assert_eq!(run(&[("m", src)]), 9); // 1 + 3 + 5
    }

    #[test]
    fn globals_with_initializers() {
        let src = r#"
            global tab[4] = {10, 20, 30, 40};
            global scale = 2;
            fn main() { return tab[2] * scale; }
        "#;
        assert_eq!(run(&[("m", src)]), 60);
    }

    #[test]
    fn recursion() {
        let src = "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn main() { return fib(12); }";
        assert_eq!(run(&[("m", src)]), 144);
    }

    #[test]
    fn extern_calls_reach_builtins() {
        let p = compile(&[(
            "m",
            "fn main() { print_i64(5); sink(6); return checksum() != 0; }",
        )])
        .unwrap();
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.output, vec![5]);
        assert_eq!(out.ret, 1);
    }

    #[test]
    fn undeclared_call_becomes_external_site() {
        let p = compile(&[("m", "fn main() { return mystery_lib(1, 2, 3); }")]).unwrap();
        assert!(p.find_extern("mystery_lib").is_some());
    }

    #[test]
    fn intrinsics_float_and_alloca() {
        let src = r#"
            fn main() {
                var p = __alloca(16);
                p[0] = 11;
                var f = __fmul(__itof(3), __itof(5));
                return p[0] + __ftoi(f);
            }
        "#;
        assert_eq!(run(&[("m", src)]), 26);
    }

    #[test]
    fn attributes_reach_ir_flags() {
        let p = compile(&[(
            "m",
            "#[noinline] fn a() { return 0; } #[strict_fp] fn b() { return 0; } fn main() { return a() + b(); }",
        )])
        .unwrap();
        let a = p.find_func("m", "a").unwrap();
        let b = p.find_func("m", "b").unwrap();
        assert!(p.func(a).flags.noinline);
        assert!(p.func(b).flags.strict_fp);
    }

    #[test]
    fn duplicate_public_function_rejected() {
        let e =
            compile(&[("a", "fn f() { return 1; }"), ("b", "fn f() { return 2; }")]).unwrap_err();
        assert!(e.msg.contains("duplicate public function"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = compile(&[("m", "fn main() { break; }")]).unwrap_err();
        assert!(e.msg.contains("outside loop"));
    }

    #[test]
    fn undefined_name_rejected() {
        let e = compile(&[("m", "fn main() { return nope + 1; }")]).unwrap_err();
        assert!(e.msg.contains("undefined name"));
    }

    #[test]
    fn while_loop_with_global_state() {
        let src = r#"
            global n = 10;
            fn main() {
                var s = 0;
                while (n > 0) { s = s + n; n = n - 1; }
                return s;
            }
        "#;
        assert_eq!(run(&[("m", src)]), 55);
    }

    #[test]
    fn main_entry_is_detected() {
        let p = compile(&[("m", "fn main() { return 0; }")]).unwrap();
        assert!(p.entry.is_some());
        let p2 = compile(&[("m", "fn not_main() { return 0; }")]).unwrap();
        assert!(p2.entry.is_none());
    }

    #[test]
    fn arity_mismatch_is_representable() {
        // Calling a 2-param function with 1 arg parses, links and runs on
        // the VM (missing args read as 0), but the structural verifier
        // rejects it — such sites are inline-illegal (paper §2.3).
        let src = "fn two(a, b) { return a + b; } fn main() { return two(5); }";
        let p = compile(&[("m", src)]).unwrap();
        assert!(matches!(
            verify_program(&p),
            Err(hlo_ir::VerifyError::ArityMismatch { .. })
        ));
        let ret = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        assert_eq!(ret, 5);
    }
}
