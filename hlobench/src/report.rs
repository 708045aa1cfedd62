//! The metric catalogue, one run's outcome, and its JSON result line.

use crate::host::HostClock;
use crate::stats::{normalized, pct_or_zero};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload's untraced run. The
/// latency of one *operation* is one program compiled, optimized and run
/// (`suite-cp`), one link-and-optimize build (`suite-linked`), or one
/// request from writing it to reading its answer (`serve-*`). The tail is
/// p90 on `suite-cp`, p75 on `suite-linked` (see `crate::suite`), p95 on
/// `serve-warm` and p98 on `serve-churn` (see `crate::serve`). Times are
/// wall clock normalized to the reference host (see `crate::host`).
/// `slo_met_frac` is the share of attempted operations that succeeded,
/// and for a daemon request within its class objective.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("latency_ms_p50", "ms", Lower),
    ("latency_ms_tail", "ms", Lower),
    ("slo_met_frac", "ratio", Higher),
    ("peak_rss_mb", "MB", Lower),
    ("code_size", "count", Lower),
    ("sim_kcycles", "kcycles", Lower),
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload never exercises reads 0. Optimizer stage times are means per
/// optimize call; front-end and request-path times are means per call;
/// counts and `sim.*` are exact over the workload's reference outputs.
/// Layer times are raw wall clock: read them with `bench.host_speed`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("core.optimize_ms", "ms", Lower),
    ("core.parallelism", "ratio", Higher),
    ("core.annotate.wall_ms", "ms", Lower),
    ("core.annotate.work_ms", "ms", Lower),
    ("core.clone.plan.wall_ms", "ms", Lower),
    ("core.clone.plan.work_ms", "ms", Lower),
    ("core.clone.apply.wall_ms", "ms", Lower),
    ("core.clone.apply.work_ms", "ms", Lower),
    ("core.inline.plan.wall_ms", "ms", Lower),
    ("core.inline.plan.work_ms", "ms", Lower),
    ("core.inline.apply.wall_ms", "ms", Lower),
    ("core.inline.apply.work_ms", "ms", Lower),
    ("core.delete.wall_ms", "ms", Lower),
    ("core.delete.work_ms", "ms", Lower),
    ("ipa.summaries.wall_ms", "ms", Lower),
    ("ipa.summaries.work_ms", "ms", Lower),
    ("opt.cleanup.wall_ms", "ms", Lower),
    ("opt.cleanup.work_ms", "ms", Lower),
    ("opt.pure_calls.wall_ms", "ms", Lower),
    ("opt.pure_calls.work_ms", "ms", Lower),
    ("opt.straighten.wall_ms", "ms", Lower),
    ("opt.straighten.work_ms", "ms", Lower),
    ("core.inlines", "count", Higher),
    ("core.clone_repls", "count", Higher),
    ("core.deletions", "count", Higher),
    ("core.passes", "count", Lower),
    ("core.compile_units", "count", Lower),
    ("core.ipa_unlocked", "count", Higher),
    ("core.inline_accept_ratio", "ratio", Higher),
    ("frontc.parse_us", "us", Lower),
    ("frontc.link_us", "us", Lower),
    ("ir.to_text_us", "us", Lower),
    ("profile.collect_ms", "ms", Lower),
    ("pgo.program_key_us", "us", Lower),
    ("pgo.push_ms.p50", "ms", Lower),
    ("serve.cache.request_key_us", "us", Lower),
    ("serve.cache.lookup_us", "us", Lower),
    ("serve.cache.insert_us", "us", Lower),
    ("serve.wire.encode_us", "us", Lower),
    ("serve.wire.decode_us", "us", Lower),
    ("serve.incremental.plan_us", "us", Lower),
    ("serve.splice_ratio", "ratio", Higher),
    ("serve.incr_fallbacks", "count", Lower),
    ("serve.queue_wait_us.p50", "us", Lower),
    ("serve.queue_wait_us.p99", "us", Lower),
    ("serve.cache_probe_us.p50", "us", Lower),
    ("serve.cache_probe_us.p99", "us", Lower),
    ("serve.optimize_us.p50", "us", Lower),
    ("serve.optimize_us.p99", "us", Lower),
    ("serve.reply_us.p50", "us", Lower),
    ("serve.reply_us.p99", "us", Lower),
    ("serve.hit_ratio", "ratio", Higher),
    ("serve.evictions", "count", Lower),
    ("serve.busy", "count", Lower),
    ("vm.bc_compile_us", "us", Lower),
    ("vm.exec_ms", "ms", Lower),
    ("vm.minst_per_s", "Minst/s", Higher),
    ("vm.dispatch_per_inst", "ratio", Lower),
    ("sim.cpi", "ratio", Lower),
    ("sim.icache_miss_pct", "%", Lower),
    ("sim.dcache_miss_pct", "%", Lower),
    ("sim.branch_mispredict_pct", "%", Lower),
    ("build_ms_p50", "ms", Lower),
    ("build_ms_p90", "ms", Lower),
    ("run_ms_p50", "ms", Lower),
    ("hit_ms_p50", "ms", Lower),
    ("hit_ms_p99", "ms", Lower),
    ("edit_ms_p50", "ms", Lower),
    ("edit_ms_p99", "ms", Lower),
    ("miss_ms_p50", "ms", Lower),
    ("miss_ms_p99", "ms", Lower),
    ("push_ms_p99", "ms", Lower),
    ("loadgen.achieved_rps", "1/s", Higher),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.host_speed", "ratio", Higher),
    ("bench.wall_latency_ms_p50", "ms", Lower),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub v: f64,
    pub n: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Oracle findings: every entry makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64, n: u64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        let v = if v.is_finite() { v } else { 0.0 };
        self.metrics.insert(name, Value { v, n });
    }

    /// Records an oracle failure (the run still completes, so every
    /// failure of a run is reported, not only the first).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            eprintln!("hlobench: WRONG: {what}");
        }
        self.wrong.push(what);
    }

    /// The metrics of one catalogue, in catalogue order. A per-layer
    /// metric the workload did not produce reads 0 (layer not exercised);
    /// a missing end-to-end metric is an error.
    pub fn select(
        &self,
        catalogue: &[(&'static str, &'static str, Better)],
        zero_missing: bool,
    ) -> Result<Vec<(&'static str, &'static str, Value)>, String> {
        catalogue
            .iter()
            .map(|&(name, unit, _)| match self.metrics.get(name) {
                Some(v) => Ok((name, unit, *v)),
                None if zero_missing => Ok((name, unit, Value { v: 0.0, n: 0 })),
                None => Err(format!("metric `{name}` was not produced")),
            })
            .collect()
    }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, &'static str, Value)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v.v)
        );
    }
    s.push_str("}}");
    s
}

/// A finite `f64` in JSON, with every digit Rust's shortest round-trip
/// form keeps.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Runs `make` [`SETUPS`] times, dropping each state before the next
/// set-up starts, and returns the median set-up time (normalized to the
/// reference host, see [`crate::host`]) with the last state.
pub fn repeat_setup<S>(
    clock: &mut HostClock,
    mut make: impl FnMut() -> Result<S, String>,
) -> Result<(f64, S), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (state, s) = clock.time_setup(&mut make);
        last = Some(state?);
        times.push(s);
    }
    let median = crate::stats::percentile(&times, 0.5).expect("SETUPS > 0");
    Ok((median, last.expect("SETUPS > 0")))
}

/// Writes the end-to-end timings, normalized to the reference host:
/// `setup_s` (the median set-up time) and the p50 and `tail` latencies of
/// the operations in `blocks`, each divided by its block's slowdown; and
/// the raw wall-clock p50 and the host's speed, which the traced run
/// reports and every run prints.
pub fn report_timings(
    out: &mut Outcome,
    setup_s: f64,
    blocks: &[Vec<f64>],
    clock: &HostClock,
    tail: f64,
) {
    let lat = normalized(blocks, &clock.slowdowns());
    out.set("setup_s", setup_s, SETUPS as u64);
    let n = lat.len() as u64;
    out.set("latency_ms_p50", pct_or_zero(&lat, 0.5), n);
    out.set("latency_ms_tail", pct_or_zero(&lat, tail), n);
    out.set(
        "bench.wall_latency_ms_p50",
        pct_or_zero(&blocks.concat(), 0.5),
        n,
    );
    out.set("bench.host_speed", clock.speed(), clock.probes());
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_every_digit() {
        let rows = [
            ("setup_s", "s", Value { v: 0.8127, n: 3 }),
            ("code_size", "count", Value { v: 3943.0, n: 1 }),
        ];
        let line = result_json(true, 10, 0, &rows);
        let doc = hlo::trace_json::parse(&line).expect("valid JSON");
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.8127)
        );
        assert!(line.contains("3943.0"));
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
