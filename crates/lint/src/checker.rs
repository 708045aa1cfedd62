//! The verify-each engine: pass-boundary checking with origin attribution.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use crate::diag::{Diagnostic, LintReport};
use crate::{full_diagnostics, lint_function, structural_diagnostics, LintOptions};
use hlo_ir::{Function, Program};

/// How much checking runs at every pass boundary of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckLevel {
    /// No pass-boundary checking (production default; zero overhead).
    #[default]
    Off,
    /// Structural verification only ([`hlo_ir::verify_program_all`]).
    Structural,
    /// Structural verification plus the full lint battery.
    Strict,
}

impl CheckLevel {
    /// True when any checking runs at all.
    pub fn is_enabled(self) -> bool {
        self != CheckLevel::Off
    }
}

impl std::str::FromStr for CheckLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CheckLevel::Off),
            "structural" => Ok(CheckLevel::Structural),
            "strict" => Ok(CheckLevel::Strict),
            other => Err(format!(
                "unknown check level `{other}` (expected off, structural, or strict)"
            )),
        }
    }
}

/// The name given to findings already present before any pass ran.
pub const INPUT_ORIGIN: &str = "input";

/// Runs the diagnostic battery after every pipeline step and attributes
/// each *new* finding to the pass that introduced it.
///
/// Usage: call [`Checker::baseline`] on the input program (pre-existing
/// defects get origin [`INPUT_ORIGIN`]), then [`Checker::check`] after each
/// transform with the pass name. A finding is "new" when its
/// [`Diagnostic::key`] was never seen before, so a defect carried
/// unchanged through ten passes is reported once, against the pass that
/// created it.
#[derive(Debug)]
pub struct Checker {
    level: CheckLevel,
    seen: HashSet<String>,
    diags: Vec<Diagnostic>,
    elapsed: Duration,
    checks_run: u32,
}

impl Checker {
    /// A checker at the given level.
    pub fn new(level: CheckLevel) -> Self {
        Checker {
            level,
            seen: HashSet::new(),
            diags: Vec::new(),
            elapsed: Duration::ZERO,
            checks_run: 0,
        }
    }

    /// A checker that does nothing (level [`CheckLevel::Off`]).
    pub fn disabled() -> Self {
        Checker::new(CheckLevel::Off)
    }

    /// The configured level.
    pub fn level(&self) -> CheckLevel {
        self.level
    }

    /// True when checks actually run.
    pub fn is_enabled(&self) -> bool {
        self.level.is_enabled()
    }

    /// Records the input program's pre-existing defects under origin
    /// [`INPUT_ORIGIN`], so later passes are not blamed for them.
    pub fn baseline(&mut self, p: &Program) {
        self.check(p, INPUT_ORIGIN);
    }

    /// Runs the battery on `p`; any finding not seen before is recorded
    /// with `pass` as its origin.
    pub fn check(&mut self, p: &Program, pass: &str) {
        if !self.is_enabled() {
            return;
        }
        let start = Instant::now();
        let found = match self.level {
            CheckLevel::Off => Vec::new(),
            CheckLevel::Structural => structural_diagnostics(p),
            CheckLevel::Strict => full_diagnostics(p, &LintOptions::default()),
        };
        for mut d in found {
            if self.seen.insert(d.key()) {
                d.pass_origin = Some(pass.to_string());
                self.diags.push(d);
            }
        }
        self.checks_run += 1;
        self.elapsed += start.elapsed();
    }

    /// Function-granular variant of [`Checker::check`], for sub-pass
    /// boundaries inside the scalar-optimization pipeline where only one
    /// function changed. Runs [`hlo_ir::verify_function_all`] plus the
    /// per-function lints (program-level call checks need the whole
    /// program and are covered by the surrounding [`Checker::check`]
    /// boundaries).
    pub fn check_function(&mut self, f: &Function, pass: &str) {
        if !self.is_enabled() {
            return;
        }
        let start = Instant::now();
        let mut found: Vec<Diagnostic> = hlo_ir::verify_function_all(f)
            .iter()
            .map(Diagnostic::from_verify)
            .collect();
        if self.level == CheckLevel::Strict {
            found.extend(lint_function(f, &LintOptions::default()));
        }
        for mut d in found {
            if self.seen.insert(d.key()) {
                d.pass_origin = Some(pass.to_string());
                self.diags.push(d);
            }
        }
        self.checks_run += 1;
        self.elapsed += start.elapsed();
    }

    /// All findings recorded so far, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Findings attributed to an actual pass (i.e. excluding input defects)
    /// — the pipeline is healthy iff this is empty.
    pub fn introduced(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.pass_origin.as_deref() != Some(INPUT_ORIGIN))
    }

    /// Total time spent inside check batteries.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// How many pass boundaries were checked.
    pub fn checks_run(&self) -> u32 {
        self.checks_run
    }

    /// Consumes the checker into a report.
    pub fn into_report(self) -> LintReport {
        LintReport::new(self.diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{BinOp, FunctionBuilder, Inst, Linkage, Operand, ProgramBuilder, Reg, Type};

    fn clean_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("f", m, 2);
        let e = f.entry_block();
        let r = f.bin(e, BinOp::Add, Operand::Reg(Reg(0)), Operand::Reg(Reg(1)));
        f.ret(e, Some(Operand::Reg(r)));
        let id = pb.add_function(f.finish(Linkage::Public, Type::I64));
        pb.finish(Some(id))
    }

    #[test]
    fn parses_levels() {
        assert_eq!("off".parse::<CheckLevel>().unwrap(), CheckLevel::Off);
        assert_eq!("strict".parse::<CheckLevel>().unwrap(), CheckLevel::Strict);
        assert!("bogus".parse::<CheckLevel>().is_err());
    }

    #[test]
    fn attributes_new_defect_to_the_introducing_pass() {
        let mut p = clean_program();
        let mut ck = Checker::new(CheckLevel::Strict);
        ck.baseline(&p);
        assert!(ck.diagnostics().is_empty(), "{:?}", ck.diagnostics());
        ck.check(&p, "constprop");
        assert!(ck.diagnostics().is_empty());

        // Simulate a buggy pass: make the add read a register nothing wrote.
        let bad = Reg(p.funcs[0].num_regs); // fresh, never defined
        p.funcs[0].num_regs += 1;
        if let Inst::Bin { a, .. } = &mut p.funcs[0].blocks[0].insts[0] {
            *a = Operand::Reg(bad);
        }
        ck.check(&p, "cse");
        let introduced: Vec<_> = ck.introduced().collect();
        assert_eq!(introduced.len(), 1, "{:?}", ck.diagnostics());
        assert_eq!(introduced[0].pass_origin.as_deref(), Some("cse"));
        assert!(introduced[0].message.contains("never initialized"));

        // The same defect is not re-reported at the next boundary.
        ck.check(&p, "dce");
        assert_eq!(ck.introduced().count(), 1);
        assert_eq!(ck.checks_run(), 4);
    }

    #[test]
    fn input_defects_are_not_blamed_on_passes() {
        let mut p = clean_program();
        let bad = Reg(p.funcs[0].num_regs);
        p.funcs[0].num_regs += 1;
        if let Inst::Bin { a, .. } = &mut p.funcs[0].blocks[0].insts[0] {
            *a = Operand::Reg(bad);
        }
        let mut ck = Checker::new(CheckLevel::Strict);
        ck.baseline(&p);
        ck.check(&p, "inline");
        assert_eq!(ck.introduced().count(), 0);
        assert_eq!(ck.diagnostics().len(), 1);
        assert_eq!(
            ck.diagnostics()[0].pass_origin.as_deref(),
            Some(INPUT_ORIGIN)
        );
    }

    #[test]
    fn disabled_checker_is_free() {
        let p = clean_program();
        let mut ck = Checker::disabled();
        ck.baseline(&p);
        ck.check(&p, "anything");
        assert_eq!(ck.checks_run(), 0);
        assert!(ck.diagnostics().is_empty());
    }

    #[test]
    fn structural_level_skips_lints_but_sees_broken_structure() {
        let mut p = clean_program();
        let mut ck = Checker::new(CheckLevel::Structural);
        ck.baseline(&p);
        // Drop the terminator: a structural defect.
        p.funcs[0].blocks[0].insts.pop();
        ck.check(&p, "straighten");
        assert_eq!(ck.introduced().count(), 1);
        assert_eq!(
            ck.introduced().next().unwrap().pass_origin.as_deref(),
            Some("straighten")
        );
    }

    #[test]
    fn strict_level_records_a_branch_to_a_missing_block() {
        // Two blocks, the entry jumping to b1; a buggy pass retargets the
        // jump to b7. Strict checking runs the lint battery on top of the
        // verifier, and must record the verifier's finding against the
        // pass (as the structural level does) instead of panicking.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut f = FunctionBuilder::new("f", m, 0);
        let e = f.entry_block();
        let x = f.new_block();
        f.jump(e, x);
        f.ret(x, Some(Operand::imm(0)));
        let id = pb.add_function(f.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(id));
        let mut found = Vec::new();
        for level in [CheckLevel::Structural, CheckLevel::Strict] {
            let mut ck = Checker::new(level);
            ck.baseline(&p);
            p.funcs[0].blocks[0].insts[0] = Inst::Jump {
                target: hlo_ir::BlockId(7),
            };
            ck.check(&p, "simplify_cfg");
            ck.check_function(&p.funcs[0], "cse");
            p.funcs[0].blocks[0].insts[0] = Inst::Jump { target: x };
            let introduced: Vec<_> = ck.introduced().cloned().collect();
            assert_eq!(introduced.len(), 1, "{level:?}: {introduced:?}");
            assert_eq!(introduced[0].pass_origin.as_deref(), Some("simplify_cfg"));
            assert_eq!(
                introduced[0].message,
                "function f: branch from b0 to missing block"
            );
            found.push(introduced);
        }
        assert_eq!(found[0], found[1]);
    }
}
