//! `ipabench` — interprocedural-analysis gains harness (`cargo ipabench`).
//!
//! Builds every suite program twice at whole-program scope — once with
//! `ipa off` (the pre-summary pipeline) and once with `ipa on` — and
//! reports what the summary stage bought per benchmark:
//!
//! * additional unused-result calls deleted because the callee's summary
//!   proved it removable (sites the syntactic purity test cannot unlock),
//! * call results folded to constants via return-constancy,
//! * cross-call store forwards / dead global stores under summary alias
//!   screening,
//! * inline sites unlocked (total inlines with summaries minus without —
//!   summary-deleted calls free budget, and the purity bonus re-ranks
//!   sites),
//! * the wall-clock time of the `pure_calls` stage leaf at both settings
//!   (it holds the summary read both settings share, since the paper's
//!   syntactic side-effect test is a projection of the summaries), and
//! * the marginal wall-clock cost of `ipa on` (the `ipa` leaf: the
//!   summary re-read after a syntactic deletion, and the summary-driven
//!   transformations).
//!
//! Leaf times are summed over every optimization pass.
//!
//! Results go to stdout and `BENCH_ipa.json`. The gate: the suite total
//! of summary-unlocked transformations must be strictly positive —
//! otherwise the stage is dead weight and the process exits non-zero.

use hlo::{HloOptions, HloReport};
use hlo_bench::{build, BuildKind};
use std::fmt::Write as _;
use std::process::ExitCode;

/// One benchmark's summary-stage gains.
struct Row {
    name: &'static str,
    pure_calls: u64,
    const_folds: u64,
    store_forwards: u64,
    inlines_off: u64,
    inlines_on: u64,
    pure_calls_off_us: u64,
    pure_calls_on_us: u64,
    ipa_wall_us: u64,
}

impl Row {
    /// Transformations only the summary stage could perform.
    fn unlocked(&self) -> u64 {
        self.pure_calls
            + self.const_folds
            + self.store_forwards
            + self.inlines_on.saturating_sub(self.inlines_off)
    }

    /// Signed inline delta (summaries can also *shrink* the inline count
    /// when a call is deleted outright before the inliner sees it).
    fn inline_delta(&self) -> i64 {
        self.inlines_on as i64 - self.inlines_off as i64
    }
}

/// Wall time of one stage leaf, summed across passes.
fn leaf_wall_us(report: &HloReport, stage: &str) -> u64 {
    report
        .stage_timings
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.wall_us)
        .sum()
}

fn main() -> ExitCode {
    println!("ipabench: suite at ipa off vs ipa on (gate: unlocked transformations > 0)");
    println!(
        "{:<14} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "program",
        "pure",
        "consts",
        "forwards",
        "inl off",
        "inl on",
        "pc off(us)",
        "pc on(us)",
        "ipa(us)"
    );
    hlo_bench::rule(91);

    let opts = |ipa| HloOptions {
        ipa,
        ..Default::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    for b in hlo_suite::all_benchmarks() {
        let off = build(&b, BuildKind::CrossProfile, opts(false));
        let on = build(&b, BuildKind::CrossProfile, opts(true));
        assert_eq!(
            off.report.ipa_pure_calls + off.report.ipa_const_folds + off.report.ipa_store_forwards,
            0,
            "{}: ipa off must not report summary-stage work",
            b.name
        );
        let row = Row {
            name: b.name,
            pure_calls: on.report.ipa_pure_calls,
            const_folds: on.report.ipa_const_folds,
            store_forwards: on.report.ipa_store_forwards,
            inlines_off: off.report.inlines,
            inlines_on: on.report.inlines,
            pure_calls_off_us: leaf_wall_us(&off.report, "pure_calls"),
            pure_calls_on_us: leaf_wall_us(&on.report, "pure_calls"),
            ipa_wall_us: leaf_wall_us(&on.report, "ipa"),
        };
        println!(
            "{:<14} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
            row.name,
            row.pure_calls,
            row.const_folds,
            row.store_forwards,
            row.inlines_off,
            row.inlines_on,
            row.pure_calls_off_us,
            row.pure_calls_on_us,
            row.ipa_wall_us
        );
        rows.push(row);
    }
    hlo_bench::rule(91);

    let unlocked: u64 = rows.iter().map(Row::unlocked).sum();
    let pure: u64 = rows.iter().map(|r| r.pure_calls).sum();
    let consts: u64 = rows.iter().map(|r| r.const_folds).sum();
    let forwards: u64 = rows.iter().map(|r| r.store_forwards).sum();
    let wall: u64 = rows.iter().map(|r| r.ipa_wall_us).sum();
    let pc_off: u64 = rows.iter().map(|r| r.pure_calls_off_us).sum();
    let pc_on: u64 = rows.iter().map(|r| r.pure_calls_on_us).sum();
    println!(
        "total: {unlocked} unlocked ({pure} pure calls, {consts} const folds, \
         {forwards} forwards); pure_calls leaf {pc_off} us at ipa off, {pc_on} us at \
         ipa on; {wall} us marginal cost of ipa on"
    );

    let json = render_json(unlocked, wall, &rows);
    let path = "BENCH_ipa.json";
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("ipabench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if unlocked > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("ipabench: the summary stage unlocked NOTHING across the suite");
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON (no serde in the offline registry). Benchmark names
/// are `[0-9A-Za-z._]` so quoting is the only escaping needed.
fn render_json(unlocked: u64, wall_us: u64, rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"unlocked_total\": {unlocked},");
    let _ = writeln!(s, "  \"ipa_wall_us_total\": {wall_us},");
    let _ = writeln!(s, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"ipa_pure_calls\": {}, \"ipa_const_folds\": {}, \
             \"ipa_store_forwards\": {}, \"inlines_ipa_off\": {}, \"inlines_ipa_on\": {}, \
             \"inline_delta\": {}, \"pure_calls_wall_us_ipa_off\": {}, \
             \"pure_calls_wall_us_ipa_on\": {}, \"ipa_wall_us\": {}}}{}",
            r.name,
            r.pure_calls,
            r.const_folds,
            r.store_forwards,
            r.inlines_off,
            r.inlines_on,
            r.inline_delta(),
            r.pure_calls_off_us,
            r.pure_calls_on_us,
            r.ipa_wall_us,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}
