#![warn(missing_docs)]
//! **hlo-pgo** — server-side continuous profile-guided optimization.
//!
//! The paper's premise is that inlining is only as good as the profile
//! driving it; in production that profile is never one offline training
//! run but a stream of deltas from many users that the build service
//! merges and tolerates going stale. This crate is the merge side of
//! that loop:
//!
//! * [`store`] — the [`ProfileStore`]: per-program aggregates of pushed
//!   [`ProfileDb`](hlo_profile::ProfileDb) deltas, exponentially decayed
//!   on a **generation counter** (never wall clock, so merges are
//!   deterministic and replayable), with saturating counter arithmetic,
//!   per-key resident-bytes accounting and a canonical `pgo-store v1`
//!   text form for crash-safe persistence and byte-identity tests.
//! * [`drift`] — how far the aggregate has moved since a cached
//!   optimization result was built: total-variation distance over
//!   entry/block frequencies plus hot-set churn, reported as a
//!   [`DriftReport`] naming the functions that moved. The daemon treats
//!   a cached result whose profile drifted past threshold as a miss and
//!   re-optimizes.
//!
//! Programs are identified by a [`program_key`]: the FNV-1a-64 hash of
//! the canonical `program_to_text` form, printed as 16 lowercase hex
//! digits. A client that compiles the same sources computes the same key
//! as the daemon without any coordination.

pub mod drift;
pub mod store;

pub use drift::{
    drift, DriftReport, FuncMove, DEFAULT_HOT_SET, DEFAULT_THRESHOLD_MILLIS, REASON_PGO_CHURN,
    REASON_PGO_COLD, REASON_PGO_DRIFT, REASON_PGO_STABLE,
};
pub use store::{Aggregate, ProfileStore, PushOutcome, StoreError, StoreStats};

/// The stable identity of a program in the store: FNV-1a-64 over the
/// canonical `program_to_text` form, as 16 lowercase hex digits.
pub fn program_key(p: &hlo_ir::Program) -> String {
    program_key_of_text(&hlo_ir::program_to_text(p))
}

/// [`program_key`] of the program whose canonical text is `canonical`,
/// for a caller that has already rendered it.
pub fn program_key_of_text(canonical: &str) -> String {
    format!("{:016x}", hlo_ir::fnv1a_64(canonical.as_bytes()))
}

/// True when `key` is syntactically a program key (exactly 16 lowercase
/// hex digits). The store rejects anything else before touching state.
pub fn is_valid_key(key: &str) -> bool {
    key.len() == 16
        && key
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_shape() {
        assert!(is_valid_key("0123456789abcdef"));
        assert!(!is_valid_key("0123456789ABCDEF"));
        assert!(!is_valid_key("0123456789abcde"));
        assert!(!is_valid_key("0123456789abcdef0"));
        assert!(!is_valid_key("0123456789abcdeg"));
        assert!(!is_valid_key(""));
    }

    #[test]
    fn program_key_is_stable_and_well_formed() {
        let p = hlo_ir::Program::default();
        let k = program_key(&p);
        assert!(is_valid_key(&k));
        assert_eq!(k, program_key(&p.clone()));
    }
}
