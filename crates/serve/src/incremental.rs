//! Function-grain incremental recompilation: partition eligibility and
//! partition keys.
//!
//! On a whole-program cache miss the daemon does not have to re-optimize
//! the world. The optimizer's plan is partition-pure: under the
//! hierarchical budget split, each cache partition's final bodies are a
//! pure function of its own members' cone hashes, the option
//! fingerprint, the profile slice, and its budget share — never of other
//! partitions' contents. So the daemon keys a store of finished partition
//! bodies ([`hlo::ReusedPartition`]) on exactly those inputs, probes it
//! per partition, and hands [`hlo::optimize_partial`] a plan that splices
//! every hit and re-optimizes only the partitions an edit's dependence
//! cone touched. The build hands back the stored form of each partition
//! it rebuilt ([`hlo::PartialOutcome::rebuilt`]), and those are what the
//! daemon inserts.
//!
//! Not every request is partition-cacheable. [`eligible_partitions`]
//! refuses (and the daemon falls back to a full rebuild, counted as
//! `incr-fallback`) when:
//!
//! * outlining is on (outline builds are whole-program by construction);
//! * `max_ops` is set (the operation cap is a global sequential counter,
//!   so one partition's spend changes another's plan);
//! * pass-boundary checking or tracing is requested (both compare or
//!   replay whole-program state a spliced build does not reproduce);
//! * an input function name contains `.` — clone names are dotted
//!   (`f.clone`, `f.clone.1`), so a dotted input could collide with a
//!   clone the rebuild mints;
//! * two partitions contain functions with the same bare name — clone
//!   naming scans the whole program for a free suffix, so same-named
//!   functions in different partitions could make a rebuilt partition's
//!   clone names depend on what another partition's cached entry spliced.

use crate::fault;
use hlo::{CallGraphCache, CheckLevel, HloOptions, TraceLevel};
use hlo_analysis::CallGraphPartition;
use hlo_ir::{Fnv64, Program};
use std::collections::HashMap;

/// Computes the request's cache partitions when it is partition-cacheable.
///
/// # Errors
/// A short stable reason when the request must fall back to a full,
/// non-incremental rebuild.
pub fn eligible_partitions(
    p: &Program,
    opts: &HloOptions,
    cg: &mut CallGraphCache,
) -> Result<Vec<CallGraphPartition>, &'static str> {
    if opts.enable_outline {
        return Err("outline builds are whole-program");
    }
    if opts.max_ops.is_some() {
        return Err("max-ops is a global sequential counter");
    }
    if opts.check != CheckLevel::Off {
        return Err("checked builds compare whole-program pass state");
    }
    if opts.trace != TraceLevel::Off {
        return Err("traced builds replay whole-program provenance");
    }
    for f in &p.funcs {
        if f.name.contains('.') {
            return Err("dotted input names collide with clone naming");
        }
    }
    let partitions = cg.graph(p).cache_partitions();
    let mut owner: HashMap<&str, usize> = HashMap::new();
    for (pi, part) in partitions.iter().enumerate() {
        for &fid in &part.funcs {
            let name = p.func(fid).name.as_str();
            if *owner.entry(name).or_insert(pi) != pi {
                return Err("duplicate function names across partitions");
            }
        }
    }
    Ok(partitions)
}

/// The content key of one cache partition: an FNV hash over the sorted
/// `(function id, cone key)` member pairs plus the partition's budget
/// share basis — its input compile cost (`Σ size²` over members), which
/// is what the hierarchical budget split turns into this partition's own
/// [`hlo::Budget`]. `func_keys` are the request's per-function
/// cone keys ([`crate::cache::RequestKey::funcs`]), which already fold in
/// the option fingerprint, profile hash, and program environment — so a
/// partition key changes exactly when one of its members' dependence
/// cones, its budget share, or the request configuration does.
///
/// Member ids are part of the key on purpose: stored bodies are spliced
/// back by id, so an edit that renumbers functions (adding or removing
/// one) must miss every partition whose ids shifted.
///
/// `profile_salt` is the hash of the profile text the optimizer will
/// actually be handed. For inline-text profiles it is redundant (the cone
/// keys already fold the profile in), but `profile: server` requests key
/// their cone hashes on a fixed marker so the *program* entry stays
/// addressable across drift — without this salt, a drift-triggered
/// rebuild would splice partition bodies built against the old aggregate.
///
/// With the [`crate::fault`] stale-key fault armed, the cone-key
/// component is dropped — the planted bug the incremental fuzz oracle
/// must catch.
pub fn partition_keys(
    p: &Program,
    partitions: &[CallGraphPartition],
    func_keys: &[u64],
    profile_salt: u64,
) -> Vec<u64> {
    let stale = fault::stale_partition_keys_armed();
    partitions
        .iter()
        .map(|part| {
            let cost: u64 = part
                .funcs
                .iter()
                .map(|&f| {
                    let s = p.func(f).size();
                    s * s
                })
                .sum();
            let mut pairs: Vec<(u32, u64)> = part
                .funcs
                .iter()
                .map(|&f| {
                    let cone = if stale { 0 } else { func_keys[f.index()] };
                    (f.0, cone)
                })
                .collect();
            pairs.sort_unstable();
            let mut h = Fnv64::new();
            h.write(b"hlo-serve partition v1")
                .write_u64(cost)
                .write_u64(profile_salt);
            for (id, cone) in pairs {
                h.write_u64(u64::from(id)).write_u64(cone);
            }
            h.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::request_key;

    fn compile(srcs: &[(&str, &str)]) -> Program {
        hlo_frontc::compile(srcs).unwrap()
    }

    const THREE_MODULES: &[(&str, &str)] = &[
        (
            "a",
            "static fn a_leaf(x) { return x * 2 + 1; }
             fn a_main() { return a_leaf(4); }",
        ),
        (
            "b",
            "static fn b_leaf(x) { return x + 7; }
             fn b_main() { return b_leaf(5); }",
        ),
        (
            "c",
            "static fn c_leaf(x) { return x * x; }
             fn c_main() { return c_leaf(6); }",
        ),
    ];

    fn module_opts() -> HloOptions {
        HloOptions {
            scope: hlo::Scope::WithinModule,
            ..HloOptions::default()
        }
    }

    #[test]
    fn eligibility_refuses_unsplittable_requests() {
        let p = compile(THREE_MODULES);
        let opts = module_opts();
        let mut cg = CallGraphCache::new();
        assert!(eligible_partitions(&p, &opts, &mut cg).is_ok());
        for bad in [
            HloOptions {
                enable_outline: true,
                ..opts.clone()
            },
            HloOptions {
                max_ops: Some(3),
                ..opts.clone()
            },
            HloOptions {
                check: CheckLevel::Strict,
                ..opts.clone()
            },
            HloOptions {
                trace: TraceLevel::Spans,
                ..opts.clone()
            },
        ] {
            assert!(eligible_partitions(&p, &bad, &mut CallGraphCache::new()).is_err());
        }
        // Same bare name in two modules: partitions are distinct, so clone
        // naming could couple them — refused.
        let dup = compile(&[
            (
                "a",
                "static fn leaf(x) { return x + 1; } fn a_main() { return leaf(1); }",
            ),
            (
                "b",
                "static fn leaf(x) { return x + 2; } fn b_main() { return leaf(2); }",
            ),
        ]);
        assert_eq!(
            eligible_partitions(&dup, &opts, &mut CallGraphCache::new()),
            Err("duplicate function names across partitions")
        );
    }

    #[test]
    fn edit_changes_exactly_the_edited_partitions_key() {
        let _window = crate::fault::exclusion();
        let opts = module_opts();
        let keys = |srcs: &[(&str, &str)]| {
            let p = compile(srcs);
            let mut cg = CallGraphCache::new();
            let rk = request_key(&p, &opts, "", &mut cg);
            let parts = eligible_partitions(&p, &opts, &mut cg).unwrap();
            partition_keys(&p, &parts, &rk.funcs, 0)
        };
        let base = keys(THREE_MODULES);
        let mut edited_srcs = THREE_MODULES.to_vec();
        edited_srcs[1] = (
            "b",
            "static fn b_leaf(x) { return x + 9; }
             fn b_main() { return b_leaf(5); }",
        );
        let edited = keys(&edited_srcs);
        assert_eq!(base.len(), edited.len());
        let changed: Vec<usize> = (0..base.len()).filter(|&i| base[i] != edited[i]).collect();
        assert_eq!(changed.len(), 1, "exactly one partition key must change");

        // A different profile salt (server-mode aggregate drift) re-keys
        // every partition.
        let p = compile(THREE_MODULES);
        let mut cg = CallGraphCache::new();
        let rk = request_key(&p, &opts, "", &mut cg);
        let parts = eligible_partitions(&p, &opts, &mut cg).unwrap();
        let salted = partition_keys(&p, &parts, &rk.funcs, 7);
        for (a, b) in base.iter().zip(&salted) {
            assert_ne!(a, b, "profile salt must re-key every partition");
        }
    }

    #[test]
    fn stale_key_fault_makes_edited_partition_collide() {
        let opts = module_opts();
        let _guard = crate::fault::FaultGuard::arm();
        let keys = |srcs: &[(&str, &str)]| {
            let p = compile(srcs);
            let mut cg = CallGraphCache::new();
            let rk = request_key(&p, &opts, "", &mut cg);
            let parts = eligible_partitions(&p, &opts, &mut cg).unwrap();
            partition_keys(&p, &parts, &rk.funcs, 0)
        };
        let base = keys(THREE_MODULES);
        let mut edited_srcs = THREE_MODULES.to_vec();
        edited_srcs[1] = (
            "b",
            "static fn b_leaf(x) { return x + 9; }
             fn b_main() { return b_leaf(5); }",
        );
        // Same shape, different body: under the fault the keys collide —
        // the stale-reuse bug the fuzz oracle must detect.
        assert_eq!(base, keys(&edited_srcs));
    }
}
