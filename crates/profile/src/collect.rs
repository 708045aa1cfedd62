//! Profile collection during training runs.

use crate::data::{FuncCounts, ProfileDb};
use hlo_ir::{BlockId, FuncId, Program};
use hlo_vm::{run_with_monitor, ExecMonitor, ExecOptions, ExecOutcome, Trap};

/// An [`ExecMonitor`] that counts block entries and CFG edges.
///
/// This models the paper's instrumented compile: the "probe" overhead is
/// accounted separately by the compile-time model (crate `hlo`), not by
/// perturbing the run itself.
#[derive(Debug, Clone)]
pub struct ProfileCollector {
    entries: Vec<u64>,
    blocks: Vec<Vec<u64>>,
    edges: Vec<std::collections::HashMap<(u32, u32), u64>>,
}

impl ProfileCollector {
    /// Creates a collector sized for `p`.
    pub fn new(p: &Program) -> Self {
        ProfileCollector {
            entries: vec![0; p.funcs.len()],
            blocks: p.funcs.iter().map(|f| vec![0; f.blocks.len()]).collect(),
            edges: vec![Default::default(); p.funcs.len()],
        }
    }

    /// Converts raw counts into a name-keyed [`ProfileDb`].
    pub fn finish(self, p: &Program) -> ProfileDb {
        let mut db = ProfileDb::new();
        for (fi, f) in p.funcs.iter().enumerate() {
            if self.entries[fi] == 0 && self.blocks[fi].iter().all(|&c| c == 0) {
                continue; // never executed; leave unprofiled
            }
            db.insert(
                p.module(f.module).name.clone(),
                f.name.clone(),
                FuncCounts {
                    entry: self.entries[fi],
                    blocks: self.blocks[fi].clone(),
                    edges: self.edges[fi].clone(),
                },
            );
        }
        db
    }
}

impl ExecMonitor for ProfileCollector {
    fn block(&mut self, func: FuncId, block: BlockId) {
        self.blocks[func.index()][block.index()] += 1;
        if block.index() == 0 {
            self.entries[func.index()] += 1;
        }
    }

    fn edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        *self.edges[func.index()].entry((from.0, to.0)).or_insert(0) += 1;
    }
}

/// Runs `p` on the training arguments and returns the collected profile
/// together with the run's outcome (whose retired-instruction count feeds
/// the compile-time model: a P-scope compile pays for the training run).
///
/// # Errors
/// Propagates any VM trap from the training run.
pub fn collect_profile(
    p: &Program,
    args: &[i64],
    opts: &ExecOptions,
) -> Result<(ProfileDb, ExecOutcome), Trap> {
    let mut c = ProfileCollector::new(p);
    let out = run_with_monitor(p, args, opts, &mut c)?;
    Ok((c.finish(p), out))
}

impl ProfileDb {
    /// Synthesizes a database from one instrumented VM execution of `p` —
    /// the training-run loop as a single call, for callers (the fuzzer,
    /// generated-program harnesses) that want *real* counts for an
    /// arbitrary program instead of a hand-written profile.
    ///
    /// Unlike [`collect_profile`] this tolerates trapping programs: a run
    /// that traps after executing some code still yields the counts
    /// gathered up to the fault (the training run "crashed", but the
    /// profile is genuine). Only a run that traps before entering `main`
    /// produces an empty database.
    pub fn from_vm_trace(p: &Program, args: &[i64], opts: &ExecOptions) -> ProfileDb {
        let mut c = ProfileCollector::new(p);
        let _ = run_with_monitor(p, args, opts, &mut c);
        c.finish(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn looping_program() -> Program {
        hlo_frontc::compile(&[(
            "m",
            r#"
            fn work(n) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) { s = s + i; }
                return s;
            }
            fn cold() { return 123; }
            fn main() { return work(25); }
            "#,
        )])
        .unwrap()
    }

    #[test]
    fn counts_blocks_and_entries() {
        let p = looping_program();
        let (db, out) = collect_profile(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, 300);
        let wc = db.get("m", "work").unwrap();
        assert_eq!(wc.entry, 1);
        // The loop body must be counted ~25 times.
        assert!(wc.blocks.contains(&25));
    }

    #[test]
    fn unexecuted_functions_are_absent() {
        let p = looping_program();
        let (db, _) = collect_profile(&p, &[], &ExecOptions::default()).unwrap();
        assert!(db.get("m", "cold").is_none());
        assert!(db.get("m", "main").is_some());
    }

    #[test]
    fn from_vm_trace_matches_collect_and_roundtrips_text() {
        let p = looping_program();
        let db = ProfileDb::from_vm_trace(&p, &[], &ExecOptions::default());
        let (collected, _) = collect_profile(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(db, collected);
        // Round-trip through the on-disk text form.
        let back = ProfileDb::from_text(&db.to_text()).unwrap();
        assert_eq!(db, back);
        assert!(back.get("m", "work").is_some());
    }

    #[test]
    fn from_vm_trace_keeps_counts_from_a_trapping_run() {
        let p = hlo_frontc::compile(&[(
            "m",
            r#"
            fn crash(n) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) { s = s + i; }
                return s / (n - n);
            }
            fn main() { return crash(10); }
            "#,
        )])
        .unwrap();
        let db = ProfileDb::from_vm_trace(&p, &[], &ExecOptions::default());
        let c = db.get("m", "crash").expect("crash ran before trapping");
        assert_eq!(c.entry, 1);
        assert!(c.blocks.iter().any(|&b| b >= 10), "{:?}", c.blocks);
    }

    #[test]
    fn edges_are_counted() {
        let p = looping_program();
        let (db, _) = collect_profile(&p, &[], &ExecOptions::default()).unwrap();
        let wc = db.get("m", "work").unwrap();
        let total_edges: u64 = wc.edges.values().sum();
        assert!(total_edges > 25);
    }
}
