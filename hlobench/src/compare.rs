//! `--compare A.json B.json`: the regression gate between two run sets.
//!
//! A run set (what the set mode writes) holds, per workload, several
//! untraced runs and usually one traced run. For every end-to-end metric
//! × workload the gate compares B's median against A's and fails when B
//! is worse by more than the metric's `bound` in `BENCHMARK.json`. For
//! each regression it names the per-layer rows (from the traced runs)
//! that moved most, which is where to start looking.

use crate::stats::percentile;
use hlo::trace_json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The benchmark definition this build was made with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// `--seconds` says otherwise.
pub fn run_seconds() -> f64 {
    parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json names run_seconds")
}

/// An end-to-end metric's gate: which way is better, and by what share of
/// the baseline median it may worsen.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// One workload's runs in a run set.
#[derive(Debug, Default)]
pub struct Runs {
    /// Metric values of the correct runs: traced? → metric → values.
    pub modes: BTreeMap<bool, BTreeMap<String, Vec<f64>>>,
    /// Runs that were incorrect, exited non-zero or left no result.
    pub bad: usize,
}

impl Runs {
    fn untraced(&self) -> Option<&BTreeMap<String, Vec<f64>>> {
        self.modes.get(&false)
    }

    /// Correct untraced runs: the most values any end-to-end metric has.
    fn correct(&self) -> usize {
        self.untraced()
            .and_then(|m| m.values().map(Vec::len).max())
            .unwrap_or(0)
    }
}

/// A run set, by workload.
pub type Samples = BTreeMap<String, Runs>;

/// Reads a run set: `{"runs": [{"workload", "trace", "exit", "result"}]}`.
/// A run that was incorrect, exited non-zero or left no result (`null`)
/// is counted as bad and its metrics are left out.
pub fn load(text: &str, what: &str) -> Result<Samples, String> {
    let doc = parse(text).map_err(|e| format!("{what}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{what}: no `runs` list"))?;
    let mut out = Samples::new();
    for r in runs {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{what}: run without `workload`"))?;
        let traced = r.get("trace").and_then(Json::as_f64) == Some(1.0);
        let slot = out.entry(workload.to_string()).or_default();
        let exited_ok = r
            .get("exit")
            .and_then(Json::as_f64)
            .is_none_or(|e| e == 0.0);
        let result = r
            .get("result")
            .filter(|res| exited_ok && res.get("correct") == Some(&Json::Bool(true)));
        let Some(result) = result else {
            eprintln!("{what}: a {workload} run failed, was incorrect or left no result");
            slot.bad += 1;
            continue;
        };
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{what}: {workload} result without metrics"));
        };
        let values = slot.modes.entry(traced).or_default();
        for (name, v) in metrics {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Interquartile range over the median (the spread the bounds must
/// exceed), 0 for fewer than two values.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    match (percentile(xs, 0.25), percentile(xs, 0.75), median(xs)) {
        (Some(q1), Some(q3), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The verdict of one comparison.
#[derive(Debug, Default)]
pub struct Verdict {
    pub report: String,
    /// `(metric, workload)` pairs that regressed; `runs` names a workload
    /// whose runs in B failed, are missing or fewer than in A.
    pub regressions: Vec<(String, String)>,
}

/// Compares run set `b` against baseline `a`. Besides every end-to-end
/// metric worse than its bound, a regression is: a workload of A that B
/// lacks, any bad run of B, fewer correct untraced runs in B than in A,
/// and an end-to-end metric A has and B lacks.
pub fn compare(a: &Samples, b: &Samples, bounds: &[Bound]) -> Verdict {
    let mut v = Verdict::default();
    let empty = Runs::default();
    let no_values = BTreeMap::new();
    let _ = writeln!(
        v.report,
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    for (workload, ra) in a {
        let rb = b.get(workload).unwrap_or(&empty);
        let (na, nb) = (ra.correct(), rb.correct());
        if rb.bad > 0 || nb < na {
            let _ = writeln!(
                v.report,
                "{workload:<14} {:<16} {na:>12} {nb:>12} {:>8} {:>7} {:>7}  REGRESSED ({} bad run(s) in B)",
                "runs", "", "", "", rb.bad
            );
            v.regressions.push(("runs".to_string(), workload.clone()));
        }
        let a_m = ra.untraced().unwrap_or(&no_values);
        let b_m = rb.untraced().unwrap_or(&no_values);
        for bd in bounds {
            let Some(ma) = a_m.get(&bd.name).and_then(|xa| median(xa)) else {
                continue;
            };
            let Some(mb) = b_m.get(&bd.name).and_then(|xb| median(xb)) else {
                let _ = writeln!(
                    v.report,
                    "{workload:<14} {:<16} {ma:>12.4} {:>12}  REGRESSED (not in B)",
                    bd.name, "-"
                );
                v.regressions.push((bd.name.clone(), workload.clone()));
                continue;
            };
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = if bd.lower_is_better { change } else { -change };
            let regressed = worse > bd.bound;
            let _ = writeln!(
                v.report,
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>+7.2}% {:>6.2}% {:>6.2}%  {}",
                bd.name,
                100.0 * change,
                100.0 * bd.bound,
                100.0 * spread(&a_m[&bd.name]).max(spread(&b_m[&bd.name])),
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                v.regressions.push((bd.name.clone(), workload.clone()));
            }
        }
    }
    for (metric, workload) in &v.regressions {
        let _ = writeln!(
            v.report,
            "\n{metric} regressed on {workload}; per-layer rows that moved most:"
        );
        let layer = |s: &Samples| s.get(workload).and_then(|r| r.modes.get(&true)).cloned();
        match (layer(a), layer(b)) {
            (Some(la), Some(lb)) => {
                for (name, ma, mb, rel) in moved(&la, &lb).into_iter().take(5) {
                    let _ = writeln!(
                        v.report,
                        "  {name:<30} {ma:>12.4} -> {mb:>12.4} ({:+.1}%)",
                        100.0 * rel
                    );
                }
            }
            _ => {
                let _ = writeln!(
                    v.report,
                    "  (no correct traced runs of {workload} in both sets)"
                );
            }
        }
    }
    v
}

/// Per-layer rows of two traced run groups by relative change of their
/// medians, largest first.
fn moved(
    a: &BTreeMap<String, Vec<f64>>,
    b: &BTreeMap<String, Vec<f64>>,
) -> Vec<(String, f64, f64, f64)> {
    let mut rows: Vec<(String, f64, f64, f64)> = a
        .iter()
        .filter_map(|(name, xa)| {
            let ma = median(xa)?;
            let mb = median(b.get(name)?)?;
            (ma != mb).then(|| (name.clone(), ma, mb, (mb - ma) / ma.abs().max(1e-12)))
        })
        .collect();
    rows.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()).then_with(|| x.0.cmp(&y.0)));
    rows
}

/// Runs the gate on two run-set files and prints the table.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let a = load(&read(a_path)?, a_path)?;
    let b = load(&read(b_path)?, b_path)?;
    let v = compare(&a, &b, &bounds(BENCHMARK_JSON)?);
    print!("{}", v.report);
    if v.regressions.is_empty() {
        println!("\nno end-to-end metric regressed beyond its bound");
    } else {
        println!(
            "\n{} metric × workload pair(s) regressed beyond their bounds",
            v.regressions.len()
        );
    }
    Ok(v.regressions.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_set(latency: f64, inline_plan: f64, ipa: f64) -> String {
        let untraced = |seed: u32| {
            format!(
                "{{\"workload\": \"suite-linked\", \"seed\": {seed}, \"trace\": 0, \"result\": \
                 {{\"correct\": true, \"attempted\": 80, \"failed\": 0, \"metrics\": {{\
                 \"latency_ms_p50\": {{\"value\": {}, \"unit\": \"ms\"}}, \
                 \"code_size\": {{\"value\": 4002, \"unit\": \"count\"}}}}}}}}",
                latency + f64::from(seed) * 0.01
            )
        };
        let traced = format!(
            "{{\"workload\": \"suite-linked\", \"seed\": 1, \"trace\": 1, \"result\": \
             {{\"correct\": true, \"attempted\": 80, \"failed\": 0, \"metrics\": {{\
             \"core.inline.plan.wall_ms\": {{\"value\": {inline_plan}, \"unit\": \"ms\"}}, \
             \"ipa.summaries.wall_ms\": {{\"value\": {ipa}, \"unit\": \"ms\"}}, \
             \"core.inlines\": {{\"value\": 120, \"unit\": \"count\"}}}}}}}}"
        );
        format!(
            "{{\"runs\": [{}, {}, {}, {traced}]}}",
            untraced(1),
            untraced(2),
            untraced(3)
        )
    }

    #[test]
    fn a_planted_two_fold_inflation_is_caught_and_located() {
        let a = load(&run_set(110.0, 17.0, 20.0), "A").unwrap();
        let b = load(&run_set(220.0, 70.0, 21.0), "B").unwrap();
        let bounds = bounds(BENCHMARK_JSON).unwrap();
        let v = compare(&a, &b, &bounds);
        assert_eq!(
            v.regressions,
            vec![("latency_ms_p50".to_string(), "suite-linked".to_string())],
            "{}",
            v.report
        );
        // The row that moved most is named first; the unchanged count is not.
        let after = v
            .report
            .split("moved most:")
            .nth(1)
            .expect("locator section");
        let first = after.lines().nth(1).expect("a row");
        assert!(first.contains("core.inline.plan.wall_ms"), "{}", v.report);
        assert!(!after.contains("core.inlines"), "{}", v.report);
    }

    #[test]
    fn identical_sets_pass_and_improvements_are_not_regressions() {
        let a = load(&run_set(110.0, 17.0, 20.0), "A").unwrap();
        let bounds = bounds(BENCHMARK_JSON).unwrap();
        assert!(compare(&a, &a, &bounds).regressions.is_empty());
        let faster = load(&run_set(55.0, 8.0, 20.0), "B").unwrap();
        assert!(compare(&a, &faster, &bounds).regressions.is_empty());
    }

    /// `run_set` with the untraced run of `seed` rewritten by `f`.
    fn with_run(latency: f64, seed: u32, f: impl Fn(&str) -> String) -> String {
        let text = run_set(latency, 17.0, 20.0);
        let start = text
            .find(&format!("\"seed\": {seed}, \"trace\": 0"))
            .expect("the run");
        let start = text[..start].rfind('{').expect("run start");
        let end = start + text[start..].find("}}}}").expect("run end") + 4;
        format!("{}{}{}", &text[..start], f(&text[start..end]), &text[end..])
    }

    #[test]
    fn incorrect_runs_are_left_out_and_counted() {
        let text = with_run(110.0, 1, |r| {
            r.replace("\"correct\": true", "\"correct\": false")
        });
        let s = load(&text, "A").unwrap();
        assert_eq!(s["suite-linked"].modes[&false]["latency_ms_p50"].len(), 2);
        assert_eq!(s["suite-linked"].bad, 1);
    }

    #[test]
    fn a_set_whose_runs_all_fail_their_oracle_is_a_regression() {
        let a = load(&run_set(110.0, 17.0, 20.0), "A").unwrap();
        let text = run_set(110.0, 17.0, 20.0).replace("\"correct\": true", "\"correct\": false");
        let b = load(&text, "B").unwrap();
        let v = compare(&a, &b, &bounds(BENCHMARK_JSON).unwrap());
        assert!(
            v.regressions
                .contains(&("runs".to_string(), "suite-linked".to_string())),
            "{}",
            v.report
        );
        // Its metrics are gone too, and that is named per metric.
        assert!(
            v.regressions
                .contains(&("latency_ms_p50".to_string(), "suite-linked".to_string())),
            "{}",
            v.report
        );
    }

    #[test]
    fn a_crashed_run_or_a_missing_workload_or_metric_is_a_regression() {
        let a = load(&run_set(110.0, 17.0, 20.0), "A").unwrap();
        let bounds = bounds(BENCHMARK_JSON).unwrap();
        let crashed = with_run(110.0, 2, |r| {
            let head = &r[..r.find("\"result\"").expect("result")];
            format!("{head}\"exit\": 101, \"result\": null}}")
        });
        let v = compare(&a, &load(&crashed, "B").unwrap(), &bounds);
        assert_eq!(
            v.regressions,
            vec![("runs".to_string(), "suite-linked".to_string())],
            "{}",
            v.report
        );
        let empty = load("{\"runs\": []}", "B").unwrap();
        assert!(!compare(&a, &empty, &bounds).regressions.is_empty());
        let no_size = run_set(110.0, 17.0, 20.0).replace("\"code_size\"", "\"other\"");
        let v = compare(&a, &load(&no_size, "B").unwrap(), &bounds);
        assert_eq!(
            v.regressions,
            vec![("code_size".to_string(), "suite-linked".to_string())],
            "{}",
            v.report
        );
    }
}
