#![warn(missing_docs)]
//! Program analyses feeding the HLO inliner and cloner.
//!
//! Everything the paper's heuristics consume lives here:
//!
//! * [`CallGraph`] — direct/indirect/external call sites, address-taken
//!   functions, caller/callee edge indices, and Tarjan SCCs providing the
//!   bottom-up order the inline scheduler walks (paper §2.4).
//! * [`CallGraphCache`] — the same graph behind per-function
//!   invalidation: passes that edit a few functions re-scan only those
//!   bodies instead of the whole program.
//! * [`Dominators`] / [`LoopInfo`] — natural-loop nesting used for static
//!   block-frequency estimation when no profile is available ("without such
//!   data it uses heuristics to guess at the relative importance", §2.3).
//! * [`estimate_static_profile`] — the loop-depth heuristic itself.
//! * [`classify_sites`] — the call-site taxonomy of Figure 5 (external,
//!   indirect, cross-module, within-module, recursive).
//! * [`reachable_funcs`] — reachability from the entry and address-taken
//!   roots, used when deleting fully-inlined/cloned routines.
//! * [`Cfg`] / [`Liveness`] / [`BitSet`] — the block-level dataflow that
//!   `hlo-opt` and `hlo-lint` share: one function's successor and
//!   predecessor lists built once, block reachability, and backward
//!   register liveness in flat block-major word arrays, read through
//!   [`BitsView`]s. Constant propagation meets only live registers, DCE
//!   and pure-call removal delete by the live-out sets, and the lint's
//!   dead-store and uninitialized-register checks run on the same graph
//!   and bitsets.

mod callgraph;
mod cgcache;
mod classify;
mod dataflow;
mod dominators;
mod freq;
mod loops;
mod positioning;
mod reach;

pub use callgraph::{
    partition_index_map, scan_function, CallEdge, CallGraph, CallGraphPartition, CallSiteRef,
    FuncScan,
};
pub use cgcache::CallGraphCache;
pub use classify::{classify_sites, SiteClass, SiteCounts};
pub use dataflow::{BitSet, BitsView, Cfg, Liveness};
pub use dominators::Dominators;
pub use freq::estimate_static_profile;
pub use loops::LoopInfo;
pub use positioning::procedure_order;
pub use reach::reachable_funcs;
