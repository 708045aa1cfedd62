#![warn(missing_docs)]
//! **HLO** — the budgeted, multi-pass, cross-module inliner and cloner of
//! *Aggressive Inlining* (Ayers, Gottlieb & Schooler, PLDI 1997).
//!
//! The optimizer alternates cloning and inlining passes under a global
//! compile-time budget (paper Figure 2):
//!
//! * the **budget** models compile time as `Σ size(routine)²` (the HP back
//!   end has quadratic algorithms) and by default allows a 100% increase;
//!   it is *staged* so early passes cannot consume everything;
//! * a **cloning pass** (Figure 3) intersects caller-supplied constants
//!   with callee parameter usage into *clone specs*, greedily builds
//!   *clone groups* over compatible call sites, ranks groups by estimated
//!   run-time benefit, and materializes clones through a cross-pass
//!   *clone database*;
//! * an **inlining pass** (Figure 4) screens sites for legal, technical,
//!   pragmatic and user restrictions, ranks the survivors by profile
//!   frequency (with a penalty for sites colder than their caller's
//!   entry), schedules accepted inlines bottom-up over the call graph with
//!   cascaded cost accounting, and splices bodies;
//! * after each pass, routines made unreachable (fully inlined statics,
//!   fully replaced clonees) are **deleted**, and the scalar optimizer
//!   (crate `hlo-opt`) re-sharpens the code so the next pass sees new
//!   facts — this is what lets a cloned function-pointer argument become a
//!   direct call and then be inlined one pass later (§3.1).
//!
//! # Quick start
//!
//! ```
//! use hlo::{optimize, HloOptions, Scope};
//!
//! let mut program = hlo_frontc::compile(&[(
//!     "m",
//!     "fn sq(x) { return x * x; }
//!      fn main() { var s = 0;
//!          for (var i = 0; i < 100; i = i + 1) { s = s + sq(i); }
//!          return s; }",
//! )]).unwrap();
//! let report = optimize(&mut program, None, &HloOptions::default());
//! assert!(report.inlines >= 1);
//! # assert_eq!(
//! #     hlo_vm::run_program(&program, &[], &hlo_vm::ExecOptions::default()).unwrap().ret,
//! #     (0..100).map(|i| i * i).sum::<i64>());
//! ```

mod budget;
mod cloner;
mod delete;
mod driver;
pub mod fault;
mod inliner;
mod legality;
mod outline;
mod report;
mod transform;

pub use budget::Budget;
pub use cloner::{CloneDb, CloneSpec};
pub use delete::delete_unreachable;
pub use driver::{
    optimize, optimize_partial, optimize_traced, HloOptions, PartialOutcome, PartitionAction,
    ReusedPartition, Scope, CLONE_REF_BASE,
};
pub use hlo_analysis::CallGraphCache;
pub use hlo_ipa::SummaryCache;
pub use hlo_lint::{CheckLevel, Checker, Diagnostic, LintReport, Severity};
pub use hlo_trace::json as trace_json;
pub use hlo_trace::{
    chrome_trace_json, normalize_log, parse_exposition, parse_flight_dump, validate_chrome_trace,
    DecisionEvent, DecisionKind, Event, EventLevel, EventLog, FlightRecord, FlightRecorder,
    MetricsRegistry, QuantileSketch, TraceLevel, Tracer, Verdict, DRIFT_BUCKETS_MILLIS,
    LATENCY_BUCKETS_US, SKETCH_ERROR_PERCENT,
};
pub use inliner::inline_pass;
pub use legality::{clone_restriction, inline_restriction, Restriction};
pub use outline::{outline_cold_regions, outline_cold_regions_traced, OutlineOptions};
pub use report::{HloReport, PassReport, StageTiming};
pub use transform::{inline_call, make_clone, redirect_site_to_clone, InlineSplice};

/// Every stable reason code the optimizer can emit in decision provenance
/// ([`DecisionEvent::reason`]). The DESIGN.md §11 table documents each;
/// `cargo tier2` checks that no code listed here is missing from it, so
/// adding a reason without documenting it fails the gate.
pub fn all_reason_codes() -> &'static [&'static str] {
    &[
        // Verdicts of the ranking/selection machinery.
        "accepted",
        "budget-deferred",
        "budget-discarded",
        "db-reuse",
        "retires-clonee",
        "cold-region",
        // Pure-call deletion and the summary-driven scalar stage.
        "pure-call-removed",
        "ipa-pure-callee",
        "ipa-ret-const",
        // Interprocedural screening.
        "ipa-escape-blocked",
        // Legality/technical/pragmatic/user restrictions.
        "arity-mismatch",
        "type-mismatch",
        "varargs",
        "strict-fp-mix",
        "dyn-alloca",
        "user-noinline",
        "self-call",
        "out-of-scope",
        "entry-callee",
        "not-direct",
        // Continuous PGO: why the daemon rebuilt (or kept) a cached
        // server-mode result. Emitted by `hlo-pgo`'s drift reports.
        "pgo-cold-start",
        "pgo-drift-exceeded",
        "pgo-churn-exceeded",
        "pgo-profile-stable",
        // Function-grain incremental recompilation: per-partition cache
        // outcomes of a warm daemon build, and the whole-request fallback
        // to a full rebuild when a request is not partition-cacheable.
        "incr-partition-hit",
        "incr-partition-rebuild",
        "incr-fallback",
    ]
}
