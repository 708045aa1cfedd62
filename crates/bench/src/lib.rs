#![warn(missing_docs)]
//! Shared harness for regenerating the paper's tables and figures.
//!
//! Binaries (run with `cargo run --release -p hlo-bench --bin <name>`):
//!
//! * `figure5` — static call-site characteristics of the suite.
//! * `table1`  — inline/clone/replacement/deletion counts, compile time
//!   and run time at scopes {base, C, P, CP}.
//! * `figure6` — speedups of {inline+clone, inline, clone} over neither.
//! * `figure7` — machine-model metrics for the four configurations.
//! * `figure8` — incremental benefit of successive operations on 022.li
//!   at budgets {25, 100, 200, 1000}.
//! * `ablations` — budget staging, cold-site penalty, clone-database and
//!   outlining design knobs.
//! * `positioning` — Pettis–Hansen procedure positioning (the paper's
//!   reference \[12\]) against the default module-order layout.

use hlo::{HloOptions, HloReport, Scope};
use hlo_ir::Program;
use hlo_profile::{collect_profile, ProfileDb};
use hlo_sim::{simulate, MachineConfig, SimStats};
use hlo_suite::Benchmark;
use hlo_vm::{ExecOptions, Tier};

/// How the harness executes a program: every training run and every
/// simulation runs on the bytecode tier. The tree walker runs only
/// `vmbench`'s timed baseline here; it is the reference the tier-parity
/// tests and the fuzz oracle hold the bytecode tier to.
pub const EXEC: ExecOptions = ExecOptions {
    tier: Tier::Bytecode,
    ..ExecOptions::DEFAULT
};

/// The four compilation configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// Per-module inlining and cloning (the table's unmarked rows).
    Base,
    /// Cross-module ("c").
    Cross,
    /// Per-module with profile feedback ("p").
    Profile,
    /// Cross-module with profile feedback ("cp").
    CrossProfile,
}

impl BuildKind {
    /// All four, in Table 1 order.
    pub const ALL: [BuildKind; 4] = [
        BuildKind::Base,
        BuildKind::Cross,
        BuildKind::Profile,
        BuildKind::CrossProfile,
    ];

    /// The paper's row tag.
    pub fn tag(self) -> &'static str {
        match self {
            BuildKind::Base => "-",
            BuildKind::Cross => "c",
            BuildKind::Profile => "p",
            BuildKind::CrossProfile => "cp",
        }
    }

    fn scope(self) -> Scope {
        match self {
            BuildKind::Base | BuildKind::Profile => Scope::WithinModule,
            BuildKind::Cross | BuildKind::CrossProfile => Scope::CrossModule,
        }
    }

    fn uses_profile(self) -> bool {
        matches!(self, BuildKind::Profile | BuildKind::CrossProfile)
    }
}

/// A compiled-and-measured benchmark build.
#[derive(Debug, Clone)]
pub struct BuildResult {
    /// The optimized program.
    pub program: Program,
    /// HLO's report.
    pub report: HloReport,
    /// Modeled compile time in cost units, including the instrumented
    /// compile and training run for profile builds.
    pub compile_units: u64,
}

/// Divisor converting training-run retired instructions into compile-time
/// units (a training run is much cheaper per instruction than quadratic
/// optimizer work).
const TRAIN_COST_DIVISOR: u64 = 50;

/// Compiles `b` under `kind` with the given HLO option overrides.
///
/// # Panics
/// Panics if the embedded benchmark sources fail to compile or the
/// training run traps — both indicate suite bugs.
pub fn build(b: &Benchmark, kind: BuildKind, mut opts: HloOptions) -> BuildResult {
    opts.scope = kind.scope();
    let mut program = b.compile().expect("suite program compiles");
    let mut compile_units = 0u64;

    let profile: Option<ProfileDb> = if kind.uses_profile() {
        // The instrumented compile costs a (cheap, unoptimized) compile,
        // and the training run costs VM time (paper §3.2 includes both).
        compile_units += program.compile_cost();
        let (db, out) = collect_profile(&program, &[b.train_arg], &EXEC).expect("training run");
        compile_units += out.retired / TRAIN_COST_DIVISOR;
        Some(db)
    } else {
        None
    };

    let report = hlo::optimize(&mut program, profile.as_ref(), &opts);
    compile_units += report.compile_time_units();
    BuildResult {
        program,
        report,
        compile_units,
    }
}

/// Simulates the build on the ref input with the default machine.
///
/// # Panics
/// Panics if the run traps (a suite bug).
pub fn measure(b: &Benchmark, program: &Program) -> SimStats {
    measure_with(b, program, &MachineConfig::default())
}

/// Simulates the build on the ref input with a custom machine model.
///
/// # Panics
/// Panics if the run traps (a suite bug).
pub fn measure_with(b: &Benchmark, program: &Program, machine: &MachineConfig) -> SimStats {
    let (stats, _) = simulate(program, &[b.ref_arg], &EXEC, machine).expect("ref run");
    stats
}

/// The Figure 7 machine: caches scaled to the synthetic programs the way
/// the paper's simulator ran "modified versions of the SPEC integer
/// benchmarks, with simplified input sets". Programs here are ~1–2 KiB of
/// code, so capacity effects appear at a 1 KiB I-cache the way SPEC-sized
/// programs stress a 1 MB one.
pub fn figure7_machine() -> MachineConfig {
    MachineConfig {
        icache: hlo_sim::CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 2,
        },
        dcache: hlo_sim::CacheConfig {
            size_bytes: 2048,
            line_bytes: 32,
            ways: 2,
        },
        ..Default::default()
    }
}

/// Geometric mean of a slice (1.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a ratio column.
pub fn ratio(baseline: f64, value: f64) -> f64 {
    if value == 0.0 {
        1.0
    } else {
        baseline / value
    }
}

/// Prints a horizontal rule sized for `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// How many times `cargo servebench` and `cargo pgobench` repeat each
/// timed section: a single pass cannot tell a regression from host drift.
pub const REPEATS: usize = 5;

/// The median and the range of one timed section's repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    /// The middle sample (the mean of the two middle ones for an even
    /// count).
    pub median: u64,
    /// The smallest sample.
    pub min: u64,
    /// The largest sample.
    pub max: u64,
}

impl Spread {
    /// Summarizes `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(samples: &[u64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2
        };
        Spread {
            median,
            min: s[0],
            max: s[n - 1],
        }
    }

    /// The JSON object `{"median": m, "min": a, "max": b}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"median\": {}, \"min\": {}, \"max\": {}}}",
            self.median, self.min, self.max
        )
    }
}

impl std::fmt::Display for Spread {
    /// `median (min-max)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}-{})", self.median, self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn spread_takes_the_middle_and_the_ends() {
        let odd = Spread::of(&[9, 1, 5, 7, 3]);
        assert_eq!((odd.median, odd.min, odd.max), (5, 1, 9));
        assert_eq!(Spread::of(&[4, 1, 2, 8]).median, 3);
        assert_eq!(Spread::of(&[6]).to_string(), "6 (6-6)");
        assert_eq!(odd.json(), "{\"median\": 5, \"min\": 1, \"max\": 9}");
    }

    #[test]
    fn build_kind_metadata() {
        assert_eq!(BuildKind::ALL.len(), 4);
        assert_eq!(BuildKind::CrossProfile.tag(), "cp");
        assert!(BuildKind::CrossProfile.uses_profile());
        assert!(!BuildKind::Cross.uses_profile());
    }

    #[test]
    fn build_and_measure_smoke() {
        let b = hlo_suite::benchmark("023.eqntott").unwrap();
        let base = build(&b, BuildKind::Base, HloOptions::default());
        let cp = build(&b, BuildKind::CrossProfile, HloOptions::default());
        // Profile builds pay for instrumentation + training.
        assert!(cp.compile_units > 0);
        let sb = measure(&b, &base.program);
        let scp = measure(&b, &cp.program);
        assert!(sb.cycles > 0.0 && scp.cycles > 0.0);
    }
}
