#![warn(missing_docs)]
//! Bottom-up interprocedural summary analysis over the call graph.
//!
//! The optimizer's per-function passes forfeit cross-call facts that
//! whole-program visibility makes cheap: whether a callee writes any
//! global the caller cares about, whether a call with a dead result can
//! be deleted even though the callee fills a local scratch array, whether
//! a frame address handed down a call chain is retained somewhere, and
//! whether a routine always returns the same constant. This crate
//! computes one [`FuncSummary`] per function by a deterministic fixpoint
//! over the SCC condensation of the call graph ([`CallGraph::sccs`]
//! returns components callees-first, so a single sequential sweep with
//! iteration inside each component suffices) and hands the results to:
//!
//! * the inliner/cloner (legality: `ipa-escape-blocked`; benefit:
//!   `ipa-pure-callee`),
//! * the scalar passes (pure-call elimination, cross-call store-to-load
//!   forwarding, constant-return folding — `crates/opt`); the paper's
//!   syntactic side-effect test that `--no-ipa` builds delete by is the
//!   [`FuncSummary::syntactic_removable`] projection of the same
//!   summaries, so there is one purity source,
//! * the lint battery (call-through-escaped-frame, infeasible
//!   indirect-call target sets — `crates/lint`).
//!
//! [`Summaries::compute`] is the reference computation. The optimizer
//! reads the summaries through a [`SummaryCache`] instead, one per
//! partition build beside that partition's `CallGraphCache`: it keeps
//! every function's local scan, re-scans only the bodies the call-graph
//! cache re-scanned (their scan stamps moved) or that were appended, and
//! re-solves only the SCCs those edits reach, callees first. Both share
//! one per-SCC solve, so a read equals `compute` exactly; debug builds
//! check every read against a fresh `compute` and panic on a difference.
//! Names are refreshed on every read (static promotion renames a function
//! without invalidating it), and the planted [`fault`] is applied to what
//! each read returns.
//!
//! The analysis is sequential and allocation-order deterministic, so its
//! output is byte-identical on every run by construction; the
//! summaries serialize to a canonical text form ([`Summaries::to_text`] /
//! [`Summaries::from_text`]) that is diffable.
//!
//! Soundness notes (documented approximations, all conservative except
//! where stated):
//!
//! * Pointer classification is flow-insensitive; any register holding
//!   values of more than one class degrades to *unknown*, and stores
//!   through unknown or absolute addresses set `writes_unknown`.
//! * Frame-escape tracking follows frame addresses through copies and
//!   direct-call argument positions, but not through arithmetic or
//!   memory (the same laundering limitation as the intraprocedural
//!   frame-escape lint). Returning a parameter is not an escape.
//! * `may_not_terminate` is true for any function whose CFG has a cycle
//!   or that (transitively) participates in recursion — no termination
//!   proofs are attempted.

pub mod fault;

mod analyze;
mod cache;
mod summary;

pub use cache::SummaryCache;
pub use summary::{FuncSummary, ParamEscape, RetInfo, Summaries};
