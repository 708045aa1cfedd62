#![warn(missing_docs)]
//! Umbrella crate for the *Aggressive Inlining* (PLDI 1997) reproduction.
//!
//! This crate re-exports the whole workspace under stable module names so
//! that examples, integration tests and downstream users can depend on one
//! crate:
//!
//! * [`ir`] — the ucode-analogue intermediate representation.
//! * [`analysis`] — call graph, loops, call-site classification.
//! * [`ipa`] — bottom-up interprocedural summaries (MOD/REF, purity,
//!   frame escape, return constancy) feeding inlining, scalar opt, lint,
//!   and the daemon's cache keys; the one purity source.
//! * [`frontc`] — the MinC front end producing IR modules.
//! * [`opt`] — the scalar optimizer HLO interleaves with its passes.
//! * [`profile`] — profile database + collection (PBO substrate).
//! * [`pgo`] — continuous-PGO aggregation: the decayed per-program
//!   profile store and the drift metric behind the daemon's
//!   `profile-push` / `profile: server` loop.
//! * [`hlo`] — the paper's contribution: the budgeted, multi-pass,
//!   cross-module inliner and cloner.
//! * [`vm`] — the IR interpreter used for training runs and measurement.
//! * [`sim`] — the PA8000-style machine model behind Figure 7.
//! * [`suite`] — the 14 SPEC-shaped benchmark programs.
//! * [`serve`] — the persistent optimization daemon (`hlod`) and its
//!   content-addressed result cache.
//! * [`fuzz`] — the differential fuzzer: program generators, the VM
//!   translation-validation oracle, and the failure shrinker.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

pub use hlo;
pub use hlo_analysis as analysis;
pub use hlo_frontc as frontc;
pub use hlo_fuzz as fuzz;
pub use hlo_ipa as ipa;
pub use hlo_ir as ir;
pub use hlo_lint as lint;
pub use hlo_opt as opt;
pub use hlo_pgo as pgo;
pub use hlo_profile as profile;
pub use hlo_serve as serve;
pub use hlo_sim as sim;
pub use hlo_suite as suite;
pub use hlo_vm as vm;
