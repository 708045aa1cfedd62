#![warn(missing_docs)]
//! Static-analysis diagnostics over the HLO IR.
//!
//! Two consumers drive this crate's design:
//!
//! * **`hloc --lint`** — a standalone report over a compiled program:
//!   structural verification ([`hlo_ir::verify_program_all`]) plus a
//!   battery of dataflow lints, all findings collected (not
//!   first-error-only) and rendered with locations.
//! * **Verify-each** — the [`Checker`] runs the same battery after *every*
//!   inline/clone/opt step of the pipeline and attributes each new finding
//!   to the pass that introduced it, which turns "the optimized program
//!   misbehaves" into "pass `cse` introduced a read of an uninitialized
//!   register in `eval@b3`".
//!
//! The battery:
//!
//! | check | severity | gated by |
//! |---|---|---|
//! | use-before-def (must / may, forward dataflow) | Error / Warning | — |
//! | direct-call arity vs. callee `params` | Error | — |
//! | extern-call arity vs. declared signature | Warning | — |
//! | profile sanity (NaN, negative, length) | Error | — |
//! | profile flow consistency (block count vs. inflow) | Warning | — |
//! | unreachable blocks | Info | `pedantic` |
//! | dead stores (backward liveness) | Info | `pedantic` |
//! | frame-slot address escapes | Info | `pedantic` |
//! | call-through-escaped-frame (`hlo-ipa` chains) | Warning | standalone report |
//! | infeasible indirect-call target set | Warning | standalone report |
//!
//! Pedantic checks describe states that optimization *creates or removes*
//! routinely (dead stores before DCE, unreachable blocks before CFG
//! cleanup), so they are informational and off by default; the default
//! battery is invariant-preserving — a correct pipeline never introduces
//! any of its findings, which is exactly what the verify-each property
//! test asserts.
//!
//! # Example
//!
//! ```
//! let p = hlo_frontc::compile(&[("m", "fn main() { return 2 + 2; }")])?;
//! let report = hlo_lint::lint_report(&p, &hlo_lint::LintOptions::default());
//! assert!(report.diags.is_empty());
//! # Ok::<(), hlo_frontc::FrontError>(())
//! ```

mod checker;
mod checks;
mod diag;
mod interproc;

pub use checker::{CheckLevel, Checker, INPUT_ORIGIN};
pub use diag::{Diagnostic, LintReport, Severity};

use hlo_ir::{Function, Program};

/// Knobs for the lint battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintOptions {
    /// Also run the informational cleanliness lints (dead stores,
    /// unreachable blocks, frame-address escapes).
    pub pedantic: bool,
}

impl LintOptions {
    /// Options with the pedantic lints enabled.
    pub fn pedantic() -> Self {
        LintOptions { pedantic: true }
    }
}

/// Runs the per-function lints on one function.
pub fn lint_function(f: &Function, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    checks::lint_function_into(f, opts, &mut out);
    out
}

/// Runs the full lint battery (per-function lints plus program-level call
/// checks) on a program. Purely the lints — structural verification is
/// [`structural_diagnostics`]; [`full_diagnostics`] combines both.
pub fn lint_program(p: &Program, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &p.funcs {
        checks::lint_function_into(f, opts, &mut out);
    }
    checks::check_call_arity(p, &mut out);
    out
}

/// Structural verification as diagnostics: every defect
/// [`hlo_ir::verify_program_all`] finds, converted via
/// [`Diagnostic::from_verify`].
pub fn structural_diagnostics(p: &Program) -> Vec<Diagnostic> {
    hlo_ir::verify_program_all(p)
        .iter()
        .map(Diagnostic::from_verify)
        .collect()
}

/// Structural verification plus the lint battery, deduplicated: the
/// verifier's arity defects are dropped in favour of the lint's
/// instruction-granular version of the same finding.
pub fn full_diagnostics(p: &Program, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = hlo_ir::verify_program_all(p)
        .iter()
        .filter(|e| !matches!(e, hlo_ir::VerifyError::ArityMismatch { .. }))
        .map(Diagnostic::from_verify)
        .collect();
    out.extend(lint_program(p, opts));
    out
}

/// The interprocedural lints: whole-program checks driven by `hlo-ipa`
/// summaries over the call graph. Two checks today:
///
/// * **call-through-escaped-frame** — a frame-slot address is passed to a
///   callee whose summary says that parameter escapes; the diagnostic
///   names the full call chain down to the retaining function.
/// * **infeasible indirect-call target set** — an indirect call whose
///   argument count matches no address-taken function's arity (or a
///   program with indirect calls but no address-taken function at all).
///
/// These need a call graph and the summary fixpoint, so they run from the
/// standalone report ([`lint_report`], `hloc lint`) rather than at every
/// verify-each pass boundary.
pub fn interprocedural_diagnostics(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    interproc::interprocedural_into(p, &mut out);
    out
}

/// Convenience: [`full_diagnostics`] plus [`interprocedural_diagnostics`],
/// wrapped in a renderable report — the full standalone battery.
pub fn lint_report(p: &Program, opts: &LintOptions) -> LintReport {
    let mut diags = full_diagnostics(p, opts);
    diags.extend(interprocedural_diagnostics(p));
    LintReport::new(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{
        BlockId, FuncProfile, FunctionBuilder, Inst, Linkage, Operand, ProgramBuilder, Reg, Type,
    };

    fn compile(src: &str) -> Program {
        hlo_frontc::compile(&[("m", src)]).expect("test source compiles")
    }

    #[test]
    fn clean_source_lints_clean() {
        let p = compile(
            "fn add(a, b) { return a + b; }\n\
             fn main() { var s = 0; var i = 0; while (i < 4) { s = add(s, i); i = i + 1; } return s; }",
        );
        let report = lint_report(&p, &LintOptions::default());
        assert!(report.diags.is_empty(), "{report}");
    }

    #[test]
    fn must_uninit_read_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut fb = FunctionBuilder::new("f", m, 0);
        let e = fb.entry_block();
        fb.ret(e, Some(Operand::imm(0)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let ghost = Reg(f.num_regs);
        f.num_regs += 1;
        f.blocks[0].insts[0] = Inst::Ret {
            value: Some(Operand::Reg(ghost)),
        };
        let id = pb.add_function(f);
        let p = pb.finish(Some(id));
        let diags = lint_program(&p, &LintOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0].message.contains("never initialized"),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn one_armed_init_is_a_warning() {
        // r1 is written only on the then-path, then read at the join.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut fb = FunctionBuilder::new("f", m, 1);
        let entry = fb.entry_block();
        let then_ = fb.new_block();
        let join = fb.new_block();
        let r = fb.new_reg();
        fb.br(entry, Operand::Reg(Reg(0)), then_, join);
        fb.copy_to(then_, r, Operand::imm(7));
        fb.jump(then_, join);
        fb.ret(join, Some(Operand::Reg(r)));
        let id = pb.add_function(fb.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(id));
        let diags = lint_program(&p, &LintOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("may be read"), "{}", diags[0]);
        assert_eq!(diags[0].block, Some(join));
    }

    #[test]
    fn direct_call_arity_mismatch_is_an_error() {
        // MinC tolerates arity mismatches at parse time (they are the
        // paper's inlining-illegal sites), so this comes from source.
        let p = compile("fn f(a, b) { return a + b; } fn main() { return f(1); }");
        let diags = lint_program(&p, &LintOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0]
                .message
                .contains("passes 1 arguments, callee takes 2"),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn profile_nan_and_overflow_are_flagged() {
        let mut p = compile("fn main() { return 1; }");
        let nb = p.funcs[0].blocks.len();
        p.funcs[0].profile = Some(FuncProfile {
            entry: f64::NAN,
            blocks: vec![1.0; nb],
        });
        let diags = lint_program(&p, &LintOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("not a finite"), "{}", diags[0]);

        // Entry block claiming more executions than the entry count.
        p.funcs[0].profile = Some(FuncProfile {
            entry: 1.0,
            blocks: vec![50.0; nb],
        });
        let diags = lint_program(&p, &LintOptions::default());
        assert!(
            diags.iter().any(|d| d.message.contains("flow into it")),
            "{diags:?}"
        );
    }

    #[test]
    fn pedantic_finds_dead_store_and_unreachable_block() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut fb = FunctionBuilder::new("f", m, 0);
        let e = fb.entry_block();
        let dead = fb.new_block();
        let r = fb.new_reg();
        fb.copy_to(e, r, Operand::imm(3)); // never read
        fb.ret(e, Some(Operand::imm(0)));
        fb.ret(dead, None);
        let id = pb.add_function(fb.finish(Linkage::Public, Type::I64));
        let p = pb.finish(Some(id));
        assert!(lint_program(&p, &LintOptions::default()).is_empty());
        let diags = lint_program(&p, &LintOptions::pedantic());
        assert!(
            diags.iter().any(|d| d.message.contains("dead store")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("unreachable")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn pedantic_flags_frame_address_escaping_into_call() {
        let p = compile(
            "fn use_(p) { return p; }\n\
             fn main() { var a[4]; return use_(&a); }",
        );
        let diags = lint_program(&p, &LintOptions::pedantic());
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("escapes into a call")),
            "{diags:?}"
        );
    }

    #[test]
    fn full_diagnostics_merges_verifier_and_lints_without_arity_dupes() {
        let p = compile("fn f(a, b) { return a + b; } fn main() { return f(1); }");
        let full = full_diagnostics(&p, &LintOptions::default());
        let arity: Vec<_> = full
            .iter()
            .filter(|d| d.message.contains("passes 1 arguments"))
            .collect();
        assert_eq!(arity.len(), 1, "{full:?}");
        assert_eq!(arity[0].block, Some(BlockId(0)));
    }

    #[test]
    fn uninit_ignores_unreachable_blocks() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut fb = FunctionBuilder::new("f", m, 0);
        let e = fb.entry_block();
        let dead = fb.new_block();
        fb.ret(e, Some(Operand::imm(0)));
        let mut f = fb.finish(Linkage::Public, Type::I64);
        let ghost = Reg(f.num_regs);
        f.num_regs += 1;
        f.blocks[dead.index()].insts.push(Inst::Ret {
            value: Some(Operand::Reg(ghost)),
        });
        let id = pb.add_function(f);
        let p = pb.finish(Some(id));
        assert!(lint_program(&p, &LintOptions::default()).is_empty());
    }

    #[test]
    fn loop_carried_register_is_not_flagged() {
        // i is defined before the loop and redefined inside it; the back
        // edge must not make the analysis think it may be uninitialized.
        let p = compile("fn main() { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let diags = lint_program(&p, &LintOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
