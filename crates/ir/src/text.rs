//! Textual serialization of whole programs.
//!
//! The format is line-oriented and stable, so optimized IR can be dumped,
//! diffed, stored and reloaded — the role HP's *isom* files played for
//! ucode. Instructions use the same syntax as their `Display` impls.
//!
//! ```text
//! hlo-ir v1
//! extern print_i64 1 ret
//! module lex
//! global seed 0 pub 1 = 42
//! func next_token 0 pub params=0 regs=5 ret=i64
//! slots 8
//! flags noinline
//! profile 100 100 400 100
//! block
//!   r0 = const 1
//!   ret r0
//! endfunc
//! entry 0
//! ```

use crate::{
    BinOp, Block, BlockId, Callee, ConstVal, Extern, ExternId, F64Bits, Fnv64, FuncId, FuncProfile,
    Function, Global, GlobalId, Inst, Linkage, Module, ModuleId, Operand, Program, Reg, SlotId,
    Type, UnOp,
};
use std::fmt::Write as _;

/// Error from [`parse_program_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for IrParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ir text line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for IrParseError {}

/// Serializes `p` to the text format.
pub fn program_to_text(p: &Program) -> String {
    ProgramText::render(p).into_string()
}

/// The header suffix that marks a function off its module's list.
const DEAD_SUFFIX: &str = " dead";

/// A program's canonical text ([`program_to_text`]), rendered once, with
/// the byte range of each function's record in it. Every content key a
/// request needs reads this one string: the whole text, each function's
/// record, and the environment around the records (externs, modules,
/// globals, entry).
#[derive(Debug, Clone)]
pub struct ProgramText {
    text: String,
    /// One per function, indexed like `Program::funcs`.
    funcs: Vec<FuncSpan>,
}

/// Where one function's record lies in a [`ProgramText`].
#[derive(Debug, Clone, Copy)]
struct FuncSpan {
    /// From the `func` header through the `endfunc` line.
    start: usize,
    end: usize,
    /// Where the header's ` dead` suffix starts, for a function off its
    /// module's list.
    dead_at: Option<usize>,
}

impl ProgramText {
    /// Renders `p` in one pass.
    pub fn render(p: &Program) -> ProgramText {
        let mut out = String::from("hlo-ir v1\n");
        for e in &p.externs {
            let arity = e
                .params
                .map(|n| n.to_string())
                .unwrap_or_else(|| "var".to_string());
            let ret = if e.has_ret { "ret" } else { "noret" };
            let _ = writeln!(out, "extern {} {} {}", e.name, arity, ret);
        }
        for m in &p.modules {
            let _ = writeln!(out, "module {}", m.name);
        }
        for g in &p.globals {
            let link = if g.linkage == Linkage::Public {
                "pub"
            } else {
                "static"
            };
            let _ = write!(out, "global {} {} {} {}", g.name, g.module.0, link, g.words);
            if !g.init.is_empty() {
                let _ = write!(out, " =");
                for v in &g.init {
                    let _ = write!(out, " {v}");
                }
            }
            out.push('\n');
        }
        let mut funcs = Vec::with_capacity(p.funcs.len());
        for (id, f) in p.iter_funcs() {
            let dead = !p.module(f.module).funcs.contains(&id);
            let start = out.len();
            let dead_at = write_function(&mut out, f, dead);
            funcs.push(FuncSpan {
                start,
                end: out.len(),
                dead_at,
            });
        }
        if let Some(e) = p.entry {
            let _ = writeln!(out, "entry {}", e.0);
        }
        ProgramText { text: out, funcs }
    }

    /// The canonical text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The canonical text, without the function ranges.
    pub fn into_string(self) -> String {
        self.text
    }

    /// Every function's content hash, in index order: FNV-1a over its
    /// record with the header's ` dead` suffix skipped, which is the
    /// record [`crate::function_to_text`] renders, so each value equals
    /// [`crate::hash_function`] of that function.
    pub fn function_hashes(&self) -> Vec<u64> {
        let bytes = self.text.as_bytes();
        self.funcs
            .iter()
            .map(|span| {
                let mut h = Fnv64::new();
                match span.dead_at {
                    Some(d) => h
                        .write(&bytes[span.start..d])
                        .write(&bytes[d + DEAD_SUFFIX.len()..span.end]),
                    None => h.write(&bytes[span.start..span.end]),
                };
                h.finish()
            })
            .collect()
    }

    /// The text outside the function records, which are contiguous: the
    /// part before them (header, externs, modules, globals) and the part
    /// after them (the entry line).
    pub fn environment(&self) -> (&str, &str) {
        let start = self.funcs.first().map_or(self.text.len(), |s| s.start);
        let end = self.funcs.last().map_or(self.text.len(), |s| s.end);
        (&self.text[..start], &self.text[end..])
    }
}

/// Serializes one function exactly as [`program_to_text`] prints it inside
/// a program (minus the surrounding program context). This is the
/// canonical form content hashing is defined over — see
/// [`crate::hash_function`].
pub fn function_to_text(f: &Function) -> String {
    let mut out = String::new();
    write_function(&mut out, f, false);
    out
}

/// Appends `f`'s record; returns where the header's ` dead` suffix
/// starts when `dead`.
fn write_function(out: &mut String, f: &Function, dead: bool) -> Option<usize> {
    let link = if f.linkage == Linkage::Public {
        "pub"
    } else {
        "static"
    };
    let _ = write!(
        out,
        "func {} {} {} params={} regs={} ret={}",
        f.name, f.module.0, link, f.params, f.num_regs, f.ret
    );
    let dead_at = dead.then(|| {
        let at = out.len();
        out.push_str(DEAD_SUFFIX);
        at
    });
    out.push('\n');
    if !f.slots.is_empty() {
        let _ = write!(out, "slots");
        for s in &f.slots {
            let _ = write!(out, " {s}");
        }
        out.push('\n');
    }
    let mut flags = Vec::new();
    if f.flags.noinline {
        flags.push("noinline");
    }
    if f.flags.inline_hint {
        flags.push("inline_hint");
    }
    if f.flags.strict_fp {
        flags.push("strict_fp");
    }
    if f.flags.varargs {
        flags.push("varargs");
    }
    if !flags.is_empty() {
        let _ = writeln!(out, "flags {}", flags.join(" "));
    }
    if let Some(pr) = &f.profile {
        let _ = write!(out, "profile {}", pr.entry);
        for b in &pr.blocks {
            let _ = write!(out, " {b}");
        }
        out.push('\n');
    }
    for b in &f.blocks {
        out.push_str("block\n");
        for inst in &b.insts {
            let _ = writeln!(out, "  {inst}");
        }
    }
    out.push_str("endfunc\n");
    dead_at
}

/// Parses the text format back into a [`Program`].
///
/// # Errors
/// Returns a positioned error on any malformed line; the resulting
/// program additionally satisfies [`crate::verify_program`] when the
/// input was produced by [`program_to_text`].
pub fn parse_program_text(text: &str) -> Result<Program, IrParseError> {
    let mut p = Program::new();
    let mut cur_func: Option<(Function, bool)> = None; // (function, dead)
    let mut lines = text.lines().enumerate();

    let err = |ln: usize, msg: String| IrParseError { line: ln + 1, msg };

    let header = lines.next();
    match header {
        Some((_, l)) if l.trim() == "hlo-ir v1" => {}
        _ => {
            return Err(IrParseError {
                line: 1,
                msg: "missing `hlo-ir v1` header".to_string(),
            })
        }
    }

    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty");
        match tag {
            "extern" => {
                let name = parts.next().ok_or_else(|| err(ln, "extern name".into()))?;
                let arity = parts.next().ok_or_else(|| err(ln, "extern arity".into()))?;
                let params = if arity == "var" {
                    None
                } else {
                    Some(arity.parse().map_err(|_| err(ln, "bad arity".into()))?)
                };
                let has_ret = parts.next() == Some("ret");
                p.externs.push(Extern {
                    name: name.to_string(),
                    params,
                    has_ret,
                });
            }
            "module" => {
                let name = parts.next().ok_or_else(|| err(ln, "module name".into()))?;
                p.modules.push(Module::new(name));
            }
            "global" => {
                let name = parts.next().ok_or_else(|| err(ln, "global name".into()))?;
                let module: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "global module".into()))?;
                let linkage = match parts.next() {
                    Some("pub") => Linkage::Public,
                    Some("static") => Linkage::Static,
                    _ => return Err(err(ln, "global linkage".into())),
                };
                let words: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "global words".into()))?;
                let mut init = Vec::new();
                let rest: Vec<&str> = parts.collect();
                if !rest.is_empty() {
                    if rest[0] != "=" {
                        return Err(err(ln, "expected `=` before initializers".into()));
                    }
                    for v in &rest[1..] {
                        init.push(v.parse().map_err(|_| err(ln, "bad initializer".into()))?);
                    }
                }
                p.globals.push(Global {
                    name: name.to_string(),
                    module: ModuleId(module),
                    linkage,
                    words,
                    init,
                });
            }
            "func" => {
                if cur_func.is_some() {
                    return Err(err(ln, "nested func".into()));
                }
                let name = parts.next().ok_or_else(|| err(ln, "func name".into()))?;
                let module: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "func module".into()))?;
                let linkage = match parts.next() {
                    Some("pub") => Linkage::Public,
                    Some("static") => Linkage::Static,
                    _ => return Err(err(ln, "func linkage".into())),
                };
                let mut params = 0;
                let mut regs = 0;
                let mut ret = Type::I64;
                let mut dead = false;
                for kv in parts {
                    if kv == "dead" {
                        dead = true;
                    } else if let Some(v) = kv.strip_prefix("params=") {
                        params = v.parse().map_err(|_| err(ln, "bad params".into()))?;
                    } else if let Some(v) = kv.strip_prefix("regs=") {
                        regs = v.parse().map_err(|_| err(ln, "bad regs".into()))?;
                    } else if let Some(v) = kv.strip_prefix("ret=") {
                        ret = match v {
                            "i64" => Type::I64,
                            "f64" => Type::F64,
                            "void" => Type::Void,
                            _ => return Err(err(ln, "bad ret type".into())),
                        };
                    } else {
                        return Err(err(ln, format!("unknown func attribute `{kv}`")));
                    }
                }
                let mut f = Function::new(name, ModuleId(module), params);
                f.num_regs = regs.max(params);
                f.ret = ret;
                f.linkage = linkage;
                f.blocks.clear();
                cur_func = Some((f, dead));
            }
            "slots" => {
                let f = &mut cur_func
                    .as_mut()
                    .ok_or_else(|| err(ln, "slots outside func".into()))?
                    .0;
                for s in parts {
                    f.slots
                        .push(s.parse().map_err(|_| err(ln, "bad slot".into()))?);
                }
            }
            "flags" => {
                let f = &mut cur_func
                    .as_mut()
                    .ok_or_else(|| err(ln, "flags outside func".into()))?
                    .0;
                for fl in parts {
                    match fl {
                        "noinline" => f.flags.noinline = true,
                        "inline_hint" => f.flags.inline_hint = true,
                        "strict_fp" => f.flags.strict_fp = true,
                        "varargs" => f.flags.varargs = true,
                        other => return Err(err(ln, format!("unknown flag `{other}`"))),
                    }
                }
            }
            "profile" => {
                let f = &mut cur_func
                    .as_mut()
                    .ok_or_else(|| err(ln, "profile outside func".into()))?
                    .0;
                let entry: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "bad profile entry".into()))?;
                let mut blocks = Vec::new();
                for b in parts {
                    blocks.push(b.parse().map_err(|_| err(ln, "bad profile count".into()))?);
                }
                f.profile = Some(FuncProfile { entry, blocks });
            }
            "block" => {
                let f = &mut cur_func
                    .as_mut()
                    .ok_or_else(|| err(ln, "block outside func".into()))?
                    .0;
                f.blocks.push(Block::new());
            }
            "endfunc" => {
                let (f, dead) = cur_func
                    .take()
                    .ok_or_else(|| err(ln, "stray endfunc".into()))?;
                if f.module.index() >= p.modules.len() {
                    return Err(err(ln, "func module out of range".into()));
                }
                let id = p.push_function(f);
                if dead {
                    let m = p.func(id).module;
                    p.modules[m.index()].funcs.retain(|&x| x != id);
                }
            }
            "entry" => {
                let id: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "bad entry".into()))?;
                p.entry = Some(FuncId(id));
            }
            _ => {
                // An instruction line inside the current block.
                let f = &mut cur_func
                    .as_mut()
                    .ok_or_else(|| err(ln, format!("unknown record `{tag}`")))?
                    .0;
                let block = f
                    .blocks
                    .last_mut()
                    .ok_or_else(|| err(ln, "instruction outside block".into()))?;
                let inst = parse_inst(line).map_err(|msg| err(ln, msg))?;
                block.insts.push(inst);
            }
        }
    }
    if cur_func.is_some() {
        return Err(IrParseError {
            line: text.lines().count(),
            msg: "unterminated func".to_string(),
        });
    }
    Ok(p)
}

// ---- instruction parsing (Display syntax) -------------------------------

fn parse_reg(s: &str) -> Result<Reg, String> {
    s.strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .map(Reg)
        .ok_or_else(|| format!("expected register, found `{s}`"))
}

fn parse_block_id(s: &str) -> Result<BlockId, String> {
    s.strip_prefix('b')
        .and_then(|n| n.parse().ok())
        .map(BlockId)
        .ok_or_else(|| format!("expected block id, found `{s}`"))
}

fn parse_const(s: &str) -> Result<ConstVal, String> {
    if let Some(rest) = s.strip_prefix("&f") {
        return rest
            .parse()
            .map(|n| ConstVal::FuncAddr(FuncId(n)))
            .map_err(|_| format!("bad func addr `{s}`"));
    }
    if let Some(rest) = s.strip_prefix("&g") {
        return rest
            .parse()
            .map(|n| ConstVal::GlobalAddr(GlobalId(n)))
            .map_err(|_| format!("bad global addr `{s}`"));
    }
    if let Some(rest) = s.strip_suffix('f') {
        if let Ok(v) = rest.parse::<f64>() {
            return Ok(ConstVal::F64(F64Bits::from_f64(v)));
        }
    }
    s.parse::<i64>()
        .map(ConstVal::I64)
        .map_err(|_| format!("bad constant `{s}`"))
}

fn parse_operand(s: &str) -> Result<Operand, String> {
    if s.starts_with('r') && s[1..].chars().all(|c| c.is_ascii_digit()) && s.len() > 1 {
        Ok(Operand::Reg(parse_reg(s)?))
    } else {
        parse_const(s).map(Operand::Const)
    }
}

fn parse_bin_op(s: &str) -> Option<BinOp> {
    Some(match s {
        "Add" => BinOp::Add,
        "Sub" => BinOp::Sub,
        "Mul" => BinOp::Mul,
        "Div" => BinOp::Div,
        "Rem" => BinOp::Rem,
        "And" => BinOp::And,
        "Or" => BinOp::Or,
        "Xor" => BinOp::Xor,
        "Shl" => BinOp::Shl,
        "Shr" => BinOp::Shr,
        "Eq" => BinOp::Eq,
        "Ne" => BinOp::Ne,
        "Lt" => BinOp::Lt,
        "Le" => BinOp::Le,
        "Gt" => BinOp::Gt,
        "Ge" => BinOp::Ge,
        "FAdd" => BinOp::FAdd,
        "FSub" => BinOp::FSub,
        "FMul" => BinOp::FMul,
        "FDiv" => BinOp::FDiv,
        "FLt" => BinOp::FLt,
        "FEq" => BinOp::FEq,
        _ => return None,
    })
}

fn parse_un_op(s: &str) -> Option<UnOp> {
    Some(match s {
        "Neg" => UnOp::Neg,
        "Not" => UnOp::Not,
        "FNeg" => UnOp::FNeg,
        "IToF" => UnOp::IToF,
        "FToI" => UnOp::FToI,
        _ => return None,
    })
}

fn parse_mem_ref(s: &str) -> Result<(Operand, Operand), String> {
    // "[<op> + <op>]"
    let inner = s
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("expected [base + offset], found `{s}`"))?;
    let (a, b) = inner
        .split_once(" + ")
        .ok_or_else(|| format!("expected `+` in mem ref `{s}`"))?;
    Ok((parse_operand(a.trim())?, parse_operand(b.trim())?))
}

fn parse_call(rest: &str, dst: Option<Reg>) -> Result<Inst, String> {
    // "<callee>(<args>)"
    let open = rest
        .find('(')
        .ok_or_else(|| format!("expected `(` in call `{rest}`"))?;
    let callee_s = rest[..open].trim();
    let args_s = rest[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| format!("expected `)` in call `{rest}`"))?;
    let callee = if let Some(op) = callee_s.strip_prefix('*') {
        Callee::Indirect(parse_operand(op)?)
    } else if let Some(n) = callee_s.strip_prefix('f') {
        Callee::Func(FuncId(n.parse().map_err(|_| "bad func id".to_string())?))
    } else if let Some(n) = callee_s.strip_prefix('e') {
        Callee::Extern(ExternId(
            n.parse().map_err(|_| "bad extern id".to_string())?,
        ))
    } else {
        return Err(format!("bad callee `{callee_s}`"));
    };
    let mut args = Vec::new();
    if !args_s.trim().is_empty() {
        for a in args_s.split(',') {
            args.push(parse_operand(a.trim())?);
        }
    }
    Ok(Inst::Call { dst, callee, args })
}

/// Parses one instruction in `Display` syntax.
pub fn parse_inst(line: &str) -> Result<Inst, String> {
    let line = line.trim();
    if line == "ret" {
        return Ok(Inst::Ret { value: None });
    }
    if let Some(v) = line.strip_prefix("ret ") {
        return Ok(Inst::Ret {
            value: Some(parse_operand(v.trim())?),
        });
    }
    if let Some(t) = line.strip_prefix("jump ") {
        return Ok(Inst::Jump {
            target: parse_block_id(t.trim())?,
        });
    }
    if let Some(rest) = line.strip_prefix("br ") {
        // "<op> ? b1 : b2"
        let (cond_s, arms) = rest
            .split_once(" ? ")
            .ok_or_else(|| format!("bad br `{line}`"))?;
        let (t, e) = arms
            .split_once(" : ")
            .ok_or_else(|| format!("bad br arms `{line}`"))?;
        return Ok(Inst::Br {
            cond: parse_operand(cond_s.trim())?,
            then_: parse_block_id(t.trim())?,
            else_: parse_block_id(e.trim())?,
        });
    }
    if let Some(rest) = line.strip_prefix("store ") {
        // "[b + o] = v"
        let (mem, v) = rest
            .split_once(" = ")
            .ok_or_else(|| format!("bad store `{line}`"))?;
        let (base, offset) = parse_mem_ref(mem.trim())?;
        return Ok(Inst::Store {
            base,
            offset,
            value: parse_operand(v.trim())?,
        });
    }
    if let Some(rest) = line.strip_prefix("call ") {
        return parse_call(rest.trim(), None);
    }
    // "<reg> = <rhs>"
    let (dst_s, rhs) = line
        .split_once(" = ")
        .ok_or_else(|| format!("unrecognized instruction `{line}`"))?;
    let dst = parse_reg(dst_s.trim())?;
    let rhs = rhs.trim();
    if let Some(v) = rhs.strip_prefix("const ") {
        return Ok(Inst::Const {
            dst,
            value: parse_const(v.trim())?,
        });
    }
    if let Some(m) = rhs.strip_prefix("load ") {
        let (base, offset) = parse_mem_ref(m.trim())?;
        return Ok(Inst::Load { dst, base, offset });
    }
    if let Some(s) = rhs.strip_prefix("frameaddr ") {
        let slot = s
            .trim()
            .strip_prefix('s')
            .and_then(|n| n.parse().ok())
            .map(SlotId)
            .ok_or_else(|| format!("bad slot `{s}`"))?;
        return Ok(Inst::FrameAddr { dst, slot });
    }
    if let Some(n) = rhs.strip_prefix("alloca ") {
        return Ok(Inst::Alloca {
            dst,
            bytes: parse_operand(n.trim())?,
        });
    }
    if let Some(c) = rhs.strip_prefix("call ") {
        return parse_call(c.trim(), Some(dst));
    }
    // Bin/Un: "<Op> a, b" or "<Op> a", else a bare operand (copy).
    let mut words = rhs.splitn(2, ' ');
    let head = words.next().expect("non-empty rhs");
    if let Some(op) = parse_bin_op(head) {
        let rest = words.next().ok_or_else(|| format!("bad bin `{line}`"))?;
        let (a, b) = rest
            .split_once(", ")
            .ok_or_else(|| format!("bad bin operands `{line}`"))?;
        return Ok(Inst::Bin {
            dst,
            op,
            a: parse_operand(a.trim())?,
            b: parse_operand(b.trim())?,
        });
    }
    if let Some(op) = parse_un_op(head) {
        let rest = words.next().ok_or_else(|| format!("bad un `{line}`"))?;
        return Ok(Inst::Un {
            dst,
            op,
            a: parse_operand(rest.trim())?,
        });
    }
    // Copy: "r1 = r0" or "r1 = 5"
    Ok(Inst::Copy {
        dst,
        src: parse_operand(rhs)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_program, FunctionBuilder, ProgramBuilder};

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m0 = pb.add_module("a");
        let m1 = pb.add_module("b");
        let ext = pb.declare_extern("print_i64", Some(1), false);
        pb.declare_extern("mystery", None, true);
        let g = pb.add_global("tab", m0, Linkage::Static, 3, vec![7, 8]);

        let mut f = FunctionBuilder::new("kitchen_sink", m0, 2);
        let s = f.new_slot(16);
        let e = f.entry_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let c = f.const_(e, ConstVal::float(2.5));
        let x = f.bin(e, BinOp::FMul, c.into(), Operand::Reg(f.param(0)));
        let y = f.un(e, UnOp::FToI, x.into());
        let ga = f.const_(e, ConstVal::GlobalAddr(g));
        let v = f.load(e, ga.into(), Operand::imm(8));
        f.store(e, ga.into(), Operand::imm(0), v.into());
        let fa = f.frame_addr(e, s);
        f.store(e, fa.into(), Operand::imm(0), y.into());
        let al = f.new_reg();
        f.push(
            e,
            Inst::Alloca {
                dst: al,
                bytes: Operand::imm(32),
            },
        );
        f.br(e, y.into(), b1, b2);
        let fp = f.const_(b1, ConstVal::FuncAddr(FuncId(1)));
        let r1 = f.call_indirect(b1, fp.into(), vec![Operand::imm(1), v.into()]);
        f.call_extern(b1, ext, vec![r1.into()], false);
        f.ret(b1, Some(r1.into()));
        let r2 = f.call(b2, FuncId(1), vec![]);
        f.jump(b2, b1);
        let _ = r2;
        let mut f = f.finish(Linkage::Public, Type::I64);
        f.flags.strict_fp = true;
        f.profile = Some(FuncProfile {
            entry: 10.0,
            blocks: vec![10.0, 4.0, 6.0],
        });
        pb.add_function(f);

        let mut h = FunctionBuilder::new("helper", m1, 0);
        let e = h.entry_block();
        h.ret(e, Some(Operand::imm(9)));
        let mut h = h.finish(Linkage::Static, Type::I64);
        h.flags.noinline = true;
        pb.add_function(h);
        pb.finish(Some(FuncId(0)))
    }

    #[test]
    fn full_roundtrip() {
        let p = sample_program();
        let text = program_to_text(&p);
        let q = parse_program_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(p, q);
        verify_program(&q).unwrap();
    }

    #[test]
    fn roundtrip_is_fixpoint() {
        let p = sample_program();
        let t1 = program_to_text(&p);
        let t2 = program_to_text(&parse_program_text(&t1).unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn dead_functions_roundtrip() {
        let mut p = sample_program();
        // Mark helper dead the way delete_unreachable does.
        let helper = FuncId(1);
        let m = p.func(helper).module;
        p.modules[m.index()].funcs.retain(|&x| x != helper);
        let text = program_to_text(&p);
        assert!(text.contains(" dead"));
        let q = parse_program_text(&text).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn rendered_records_hash_like_their_functions() {
        let mut p = sample_program();
        let helper = FuncId(1);
        let m = p.func(helper).module;
        p.modules[m.index()].funcs.retain(|&x| x != helper);
        let rendered = ProgramText::render(&p);
        assert_eq!(rendered.as_str(), program_to_text(&p));
        // The dead helper's record carries the suffix; its hash skips it.
        let own: Vec<u64> = p.funcs.iter().map(crate::hash_function).collect();
        assert_eq!(rendered.function_hashes(), own);
        let (head, tail) = rendered.environment();
        assert!(
            head.starts_with("hlo-ir v1\n") && head.ends_with("= 7 8\n"),
            "{head}"
        );
        assert_eq!(tail, "entry 0\n");
        // A program without functions is all environment.
        let empty = ProgramText::render(&Program::new());
        assert_eq!(empty.environment(), (empty.as_str(), ""));
    }

    #[test]
    fn parse_inst_covers_every_shape() {
        for (line, ok) in [
            ("ret", true),
            ("ret r3", true),
            ("ret -12", true),
            ("jump b4", true),
            ("br r0 ? b1 : b2", true),
            ("store [r1 + 8] = r2", true),
            ("store [&g0 + r2] = -1", true),
            ("call f0(r1, 2)", true),
            ("call e1()", true),
            ("r1 = call *r0(r2)", true),
            ("r1 = const &f2", true),
            ("r1 = const 2.5f", true),
            ("r1 = load [r0 + 0]", true),
            ("r1 = frameaddr s0", true),
            ("r1 = alloca r2", true),
            ("r1 = Add r0, 1", true),
            ("r1 = FToI r0", true),
            ("r1 = r0", true),
            ("r1 = 77", true),
            ("store r1 = r2", false),
            ("br r0 ? b1", false),
            ("r1 = Frobnicate r0, r2", false),
            ("bogus", false),
        ] {
            assert_eq!(parse_inst(line).is_ok(), ok, "{line}");
        }
    }

    #[test]
    fn inst_display_parse_roundtrip() {
        let insts = vec![
            Inst::Const {
                dst: Reg(3),
                value: ConstVal::float(-0.5),
            },
            Inst::Bin {
                dst: Reg(1),
                op: BinOp::Shr,
                a: Operand::Reg(Reg(0)),
                b: Operand::imm(63),
            },
            Inst::Call {
                dst: Some(Reg(9)),
                callee: Callee::Indirect(Operand::Reg(Reg(2))),
                args: vec![Operand::imm(-4), Operand::Reg(Reg(1))],
            },
            Inst::Store {
                base: Operand::Const(ConstVal::GlobalAddr(GlobalId(5))),
                offset: Operand::Reg(Reg(2)),
                value: Operand::imm(0),
            },
        ];
        for i in insts {
            let s = i.to_string();
            let back = parse_inst(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(i, back, "{s}");
        }
    }

    #[test]
    fn parse_errors_have_positions() {
        let e = parse_program_text("nope").unwrap_err();
        assert_eq!(e.line, 1);
        let e2 = parse_program_text("hlo-ir v1\nblock\n").unwrap_err();
        assert_eq!(e2.line, 2);
    }
}
