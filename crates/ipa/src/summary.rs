//! Summary types and their canonical text serialization.

use hlo_ir::{FuncId, GlobalId};
use std::fmt::Write as _;

/// How (whether) a pointer passed in a parameter position escapes the
/// callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamEscape {
    /// The parameter value never escapes.
    No,
    /// The callee itself retains the value (stores it to memory, or hands
    /// it to an extern or indirect call the analysis cannot see into).
    Direct,
    /// The callee forwards the value into parameter `.1` of function
    /// `.0`, where it escapes. Following the chain (`Via` links terminate
    /// in a `Direct`) reconstructs the full escape path for diagnostics.
    Via(FuncId, usize),
}

/// What is known about a function's return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetInfo {
    /// Nothing (or the function returns void).
    Unknown,
    /// Every return path yields this constant.
    Const(i64),
    /// Every return path yields a value in `[.0, .1]` (inclusive);
    /// comparison results give `[0, 1]`.
    Range(i64, i64),
}

/// The interprocedural facts of one function, closed over everything it
/// (transitively) calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSummary {
    /// Function name (diagnostics and serialization only; position in
    /// [`Summaries::funcs`] is the identity).
    pub name: String,
    /// Parameter count (sizes the per-param vectors).
    pub params: u32,
    /// Globals this function (or a callee) may write, sorted ascending.
    pub mod_globals: Vec<GlobalId>,
    /// Globals this function (or a callee) may read, sorted ascending.
    pub ref_globals: Vec<GlobalId>,
    /// May write through a pointer the analysis cannot classify.
    pub writes_unknown: bool,
    /// May read through a pointer the analysis cannot classify.
    pub reads_unknown: bool,
    /// Per parameter: may write through it (out-parameters).
    pub writes_params: Vec<bool>,
    /// Per parameter: may read through it.
    pub reads_params: Vec<bool>,
    /// Per parameter: whether (and where) a pointer passed there escapes.
    pub param_escapes: Vec<ParamEscape>,
    /// Calls an external routine (observable; blocks removal).
    pub calls_extern: bool,
    /// Contains an indirect call (unknown callee; blocks everything).
    pub calls_indirect: bool,
    /// May execute a trapping operation (division with a divisor not
    /// provably safe).
    pub may_trap: bool,
    /// Has a CFG cycle or participates in recursion — deleting a call
    /// could delete a non-terminating computation.
    pub may_not_terminate: bool,
    /// Contains (itself or through a direct callee) a store, an alloca,
    /// or a division or remainder whatever its divisor: the instructions
    /// the paper's syntactic side-effect test rejects on sight.
    pub syntactic_effects: bool,
    /// May retain the address of its own frame beyond the call (stores a
    /// frame address, returns one, or passes one where it escapes).
    pub leaks_frame: bool,
    /// Return-value constancy/range.
    pub ret: RetInfo,
}

impl FuncSummary {
    /// A bottom summary for a function with `params` parameters.
    pub(crate) fn bottom(name: &str, params: u32) -> Self {
        FuncSummary {
            name: name.to_string(),
            params,
            mod_globals: Vec::new(),
            ref_globals: Vec::new(),
            writes_unknown: false,
            reads_unknown: false,
            writes_params: vec![false; params as usize],
            reads_params: vec![false; params as usize],
            param_escapes: vec![ParamEscape::No; params as usize],
            calls_extern: false,
            calls_indirect: false,
            may_trap: false,
            may_not_terminate: false,
            syntactic_effects: false,
            leaks_frame: false,
            ret: RetInfo::Unknown,
        }
    }

    /// True when a call to this function whose result is unused can be
    /// deleted: no observable effect can escape the activation. This is a
    /// strict superset of [`FuncSummary::syntactic_removable`] (save for
    /// functions that leak their frame) — local stores, allocas and
    /// constant-divisor divisions are admitted here.
    pub fn removable(&self) -> bool {
        !self.writes_unknown
            && self.mod_globals.is_empty()
            && !self.writes_params.iter().any(|&w| w)
            && !self.calls_extern
            && !self.calls_indirect
            && !self.may_trap
            && !self.may_not_terminate
            && !self.leaks_frame
    }

    /// The paper's syntactic side-effect test (§3.1, the 072.sc curses
    /// stubs) as a projection of the summary: neither this function nor
    /// anything it reaches through direct calls stores, allocates,
    /// divides, calls an extern or an indirect target, loops or recurses.
    /// `--no-ipa` builds delete calls by this test alone.
    pub fn syntactic_removable(&self) -> bool {
        !self.syntactic_effects
            && !self.calls_extern
            && !self.calls_indirect
            && !self.may_not_terminate
    }

    /// Serializes this summary as one canonical text section of the
    /// [`Summaries::to_text`] wire form.
    pub fn section(&self, index: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "func {index} {} params {}", self.name, self.params);
        let mut flags: Vec<&str> = Vec::new();
        if self.writes_unknown {
            flags.push("writes-unknown");
        }
        if self.reads_unknown {
            flags.push("reads-unknown");
        }
        if self.calls_extern {
            flags.push("calls-extern");
        }
        if self.calls_indirect {
            flags.push("calls-indirect");
        }
        if self.may_trap {
            flags.push("may-trap");
        }
        if self.may_not_terminate {
            flags.push("may-not-terminate");
        }
        if self.syntactic_effects {
            flags.push("syntactic-effects");
        }
        if self.leaks_frame {
            flags.push("leaks-frame");
        }
        let _ = writeln!(
            s,
            "flags {}",
            if flags.is_empty() {
                "-".to_string()
            } else {
                flags.join(" ")
            }
        );
        let _ = writeln!(s, "mod {}", id_list(&self.mod_globals));
        let _ = writeln!(s, "ref {}", id_list(&self.ref_globals));
        let _ = writeln!(s, "wparams {}", bit_list(&self.writes_params));
        let _ = writeln!(s, "rparams {}", bit_list(&self.reads_params));
        for (i, e) in self.param_escapes.iter().enumerate() {
            match e {
                ParamEscape::No => {}
                ParamEscape::Direct => {
                    let _ = writeln!(s, "escape {i} direct");
                }
                ParamEscape::Via(f, j) => {
                    let _ = writeln!(s, "escape {i} via {} {j}", f.0);
                }
            }
        }
        match self.ret {
            RetInfo::Unknown => {
                let _ = writeln!(s, "ret unknown");
            }
            RetInfo::Const(k) => {
                let _ = writeln!(s, "ret const {k}");
            }
            RetInfo::Range(a, b) => {
                let _ = writeln!(s, "ret range {a} {b}");
            }
        }
        let _ = writeln!(s, "endfunc");
        s
    }
}

fn id_list(ids: &[GlobalId]) -> String {
    if ids.is_empty() {
        return "-".to_string();
    }
    ids.iter()
        .map(|g| format!("g{}", g.0))
        .collect::<Vec<_>>()
        .join(" ")
}

fn bit_list(bits: &[bool]) -> String {
    let set: Vec<String> = bits
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| i.to_string())
        .collect();
    if set.is_empty() {
        "-".to_string()
    } else {
        set.join(" ")
    }
}

/// Per-function summaries for a whole program, indexed like
/// `Program::funcs`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summaries {
    /// One summary per function.
    pub funcs: Vec<FuncSummary>,
}

impl Summaries {
    /// Per-function removability, indexed like `Program::funcs`.
    pub fn removable(&self) -> Vec<bool> {
        self.funcs.iter().map(FuncSummary::removable).collect()
    }

    /// Per-function [`FuncSummary::syntactic_removable`], indexed like
    /// `Program::funcs`.
    pub fn syntactic_removable(&self) -> Vec<bool> {
        self.funcs
            .iter()
            .map(FuncSummary::syntactic_removable)
            .collect()
    }

    /// Canonical wire form (`ipa-summaries v1`). Line-oriented, stable,
    /// diffable; [`Summaries::from_text`] round-trips it exactly.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ipa-summaries v1");
        let _ = writeln!(s, "funcs {}", self.funcs.len());
        for (i, f) in self.funcs.iter().enumerate() {
            s.push_str(&f.section(i));
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parses the canonical wire form.
    ///
    /// # Errors
    /// Returns a message naming the offending line on malformed input.
    pub fn from_text(text: &str) -> Result<Summaries, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty summaries text")?;
        if header != "ipa-summaries v1" {
            return Err(format!("bad header `{header}`"));
        }
        let count_line = lines.next().ok_or("missing `funcs` line")?;
        let count: usize = count_line
            .strip_prefix("funcs ")
            .ok_or_else(|| format!("expected `funcs N`, got `{count_line}`"))?
            .parse()
            .map_err(|e| format!("bad funcs count: {e}"))?;
        let mut funcs = Vec::with_capacity(count);
        for expect_idx in 0..count {
            let head = lines.next().ok_or("truncated: missing `func` line")?;
            let w: Vec<&str> = head.split_whitespace().collect();
            if w.len() != 5 || w[0] != "func" || w[3] != "params" {
                return Err(format!("expected `func N NAME params K`, got `{head}`"));
            }
            let idx: usize = w[1].parse().map_err(|e| format!("bad func index: {e}"))?;
            if idx != expect_idx {
                return Err(format!("func {idx} out of order (expected {expect_idx})"));
            }
            let params: u32 = w[4].parse().map_err(|e| format!("bad params: {e}"))?;
            let mut f = FuncSummary::bottom(w[2], params);

            let flags = field(&mut lines, "flags")?;
            if flags != "-" {
                for fl in flags.split_whitespace() {
                    match fl {
                        "writes-unknown" => f.writes_unknown = true,
                        "reads-unknown" => f.reads_unknown = true,
                        "calls-extern" => f.calls_extern = true,
                        "calls-indirect" => f.calls_indirect = true,
                        "may-trap" => f.may_trap = true,
                        "may-not-terminate" => f.may_not_terminate = true,
                        "syntactic-effects" => f.syntactic_effects = true,
                        "leaks-frame" => f.leaks_frame = true,
                        other => return Err(format!("unknown flag `{other}`")),
                    }
                }
            }
            f.mod_globals = parse_ids(&field(&mut lines, "mod")?)?;
            f.ref_globals = parse_ids(&field(&mut lines, "ref")?)?;
            parse_bits(&field(&mut lines, "wparams")?, &mut f.writes_params)?;
            parse_bits(&field(&mut lines, "rparams")?, &mut f.reads_params)?;

            // Zero or more `escape` lines, then exactly one `ret`, then
            // `endfunc`.
            loop {
                let line = lines.next().ok_or("truncated inside func section")?;
                let w: Vec<&str> = line.split_whitespace().collect();
                match w.first().copied() {
                    Some("escape") => {
                        let i: usize = w
                            .get(1)
                            .ok_or("escape: missing index")?
                            .parse()
                            .map_err(|e| format!("bad escape index: {e}"))?;
                        let slot = f
                            .param_escapes
                            .get_mut(i)
                            .ok_or_else(|| format!("escape index {i} out of range"))?;
                        match w.get(2).copied() {
                            Some("direct") => *slot = ParamEscape::Direct,
                            Some("via") => {
                                let t: u32 = w
                                    .get(3)
                                    .ok_or("escape via: missing func")?
                                    .parse()
                                    .map_err(|e| format!("bad via func: {e}"))?;
                                let j: usize = w
                                    .get(4)
                                    .ok_or("escape via: missing param")?
                                    .parse()
                                    .map_err(|e| format!("bad via param: {e}"))?;
                                *slot = ParamEscape::Via(FuncId(t), j);
                            }
                            other => return Err(format!("bad escape kind {other:?}")),
                        }
                    }
                    Some("ret") => {
                        f.ret = match w.get(1).copied() {
                            Some("unknown") => RetInfo::Unknown,
                            Some("const") => RetInfo::Const(
                                w.get(2)
                                    .ok_or("ret const: missing value")?
                                    .parse()
                                    .map_err(|e| format!("bad ret const: {e}"))?,
                            ),
                            Some("range") => RetInfo::Range(
                                w.get(2)
                                    .ok_or("ret range: missing low")?
                                    .parse()
                                    .map_err(|e| format!("bad ret low: {e}"))?,
                                w.get(3)
                                    .ok_or("ret range: missing high")?
                                    .parse()
                                    .map_err(|e| format!("bad ret high: {e}"))?,
                            ),
                            other => return Err(format!("bad ret kind {other:?}")),
                        };
                        let end = lines.next().ok_or("truncated: missing endfunc")?;
                        if end != "endfunc" {
                            return Err(format!("expected `endfunc`, got `{end}`"));
                        }
                        break;
                    }
                    other => return Err(format!("unexpected line {other:?} in func section")),
                }
            }
            funcs.push(f);
        }
        match lines.next() {
            Some("end") => Ok(Summaries { funcs }),
            other => Err(format!("expected trailing `end`, got {other:?}")),
        }
    }
}

fn field<'a>(lines: &mut std::str::Lines<'a>, key: &str) -> Result<String, String> {
    let line = lines
        .next()
        .ok_or_else(|| format!("missing `{key}` line"))?;
    line.strip_prefix(key)
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| format!("expected `{key} ...`, got `{line}`"))
}

fn parse_ids(text: &str) -> Result<Vec<GlobalId>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split_whitespace()
        .map(|t| {
            t.strip_prefix('g')
                .ok_or_else(|| format!("bad global id `{t}`"))?
                .parse()
                .map(GlobalId)
                .map_err(|e| format!("bad global id `{t}`: {e}"))
        })
        .collect()
}

fn parse_bits(text: &str, bits: &mut [bool]) -> Result<(), String> {
    if text == "-" {
        return Ok(());
    }
    for t in text.split_whitespace() {
        let i: usize = t
            .parse()
            .map_err(|e| format!("bad param index `{t}`: {e}"))?;
        *bits
            .get_mut(i)
            .ok_or_else(|| format!("param index {i} out of range"))? = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summaries {
        let mut a = FuncSummary::bottom("alpha", 2);
        a.mod_globals = vec![GlobalId(0), GlobalId(3)];
        a.ref_globals = vec![GlobalId(1)];
        a.writes_params = vec![false, true];
        a.reads_params = vec![true, false];
        a.param_escapes = vec![ParamEscape::Direct, ParamEscape::Via(FuncId(1), 0)];
        a.calls_extern = true;
        a.may_trap = true;
        a.ret = RetInfo::Range(-3, 7);
        let mut b = FuncSummary::bottom("beta", 0);
        b.leaks_frame = true;
        b.may_not_terminate = true;
        b.syntactic_effects = true;
        b.ret = RetInfo::Const(42);
        Summaries { funcs: vec![a, b] }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let s = sample();
        let text = s.to_text();
        let back = Summaries::from_text(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn malformed_text_is_rejected_with_a_reason() {
        assert!(Summaries::from_text("").is_err());
        assert!(Summaries::from_text("ipa-summaries v2\nfuncs 0\nend\n").is_err());
        let mut text = sample().to_text();
        text = text.replace("ret const 42", "ret const forty-two");
        assert!(Summaries::from_text(&text).is_err());
        let truncated = sample().to_text().replace("\nend\n", "\n");
        assert!(Summaries::from_text(&truncated).is_err());
    }

    #[test]
    fn removable_rejects_each_blocking_fact() {
        let clean = FuncSummary::bottom("f", 1);
        assert!(clean.removable() && clean.syntactic_removable());
        let mut m = clean.clone();
        m.mod_globals = vec![GlobalId(0)];
        assert!(!m.removable());
        let mut m = clean.clone();
        m.writes_params = vec![true];
        assert!(!m.removable());
        let mut m = clean.clone();
        m.calls_extern = true;
        assert!(!m.removable() && !m.syntactic_removable());
        let mut m = clean.clone();
        m.calls_indirect = true;
        assert!(!m.removable() && !m.syntactic_removable());
        let mut m = clean.clone();
        m.may_trap = true;
        assert!(!m.removable());
        let mut m = clean.clone();
        m.may_not_terminate = true;
        assert!(!m.removable() && !m.syntactic_removable());
        let mut m = clean.clone();
        m.leaks_frame = true;
        assert!(!m.removable());
        // Reads never block removal: deleting a dead-result read is safe.
        let mut m = clean.clone();
        m.ref_globals = vec![GlobalId(2)];
        m.reads_unknown = true;
        m.reads_params = vec![true];
        assert!(m.removable());
        // A store, alloca or division the summary proves harmless still
        // fails the syntactic test.
        let mut m = clean.clone();
        m.syntactic_effects = true;
        assert!(m.removable());
        assert!(!m.syntactic_removable());
    }
}
