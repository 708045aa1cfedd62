//! Differential fuzzing for the `hlo` optimizer.
//!
//! `hlo-fuzz` closes the loop the rest of the workspace leaves open: the
//! optimizer is tested against hand-written programs and unit fixtures,
//! but nothing exercises it on *adversarial* input. This crate generates
//! random well-typed MinC programs (and raw IR programs), runs each one
//! on the VM before and after optimization under a whole matrix of
//! configurations, and treats any observable difference — output, return
//! value, extern-call trace, a panic, a verifier rejection, output that
//! changes when the same optimization runs again — as a bug. Failures are shrunk to small reproducers
//! and written to a corpus for permanent regression testing.
//!
//! The pieces:
//!
//! * [`gen`] — seeded generator of terminating, UB-free MinC programs;
//! * [`irgen`] — direct IR-level generator (shapes the front end never
//!   emits: unreachable blocks, cross-block register mutation, constant
//!   function pointers);
//! * [`mutate`] — small random edits to previously interesting programs;
//! * [`oracle`] — the translation-validation oracle and its config matrix;
//! * [`shrink`] — greedy structural minimizer for failing cases;
//! * [`corpus`] — self-contained reproducer files;
//! * [`campaign`] — the driver tying it all together, including a live
//!   `hlo-serve` daemon cross-check;
//! * [`rng`] — the SplitMix64 PRNG all of the above share.
//!
//! Entry points: `hloc fuzz` for interactive use and the `fuzzgate`
//! binary (`cargo fuzzgate`) for CI.

#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod irgen;
pub mod mutate;
pub mod oracle;
pub mod print;
pub mod rng;
pub mod shrink;
pub mod walk;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignConfig, CampaignReport, ShrunkFinding,
};
pub use corpus::{load_reproducer, write_reproducer, ReproBody, Reproducer};
pub use gen::{generate_modules, generate_sources, GenConfig};
pub use irgen::{generate_program, IrGenConfig};
pub use mutate::mutate;
pub use oracle::{
    check_program, check_program_with, check_sources, check_sources_with, observe, observe_both,
    CaseOutcome, Finding, FindingKind, OracleConfig, ORACLE_FUEL,
};
pub use rng::Rng;
pub use shrink::{shrink, ShrinkConfig, ShrinkOutcome, ShrinkStep};
