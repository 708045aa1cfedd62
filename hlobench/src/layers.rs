//! Per-layer accounting, the reference-output summary every workload
//! ends with, and the traced run's Chrome trace.
//!
//! The benchmark adds no spans inside the program. Its own spans wrap the
//! public calls it makes, and the optimizer's existing stage spans (and,
//! for daemon requests, the span tree `trace_fetch` returns) are grafted
//! under them into one [`Tracer`], which `hlo::chrome_trace_json` renders
//! and `hlo::validate_chrome_trace` checks.

use crate::report::{us_since, Outcome};
use hlo::{
    chrome_trace_json, validate_chrome_trace, DecisionKind, HloOptions, HloReport, TraceLevel,
    Tracer, Verdict,
};
use hlo_ir::Program;
use hlo_profile::ProfileDb;
use hlo_vm::ExecOptions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Optimizer stage (as `HloReport::stage_timings` names it) → the layer
/// metrics its wall and work times feed.
const STAGES: &[(&str, &str, &str)] = &[
    ("annotate", "core.annotate.wall_ms", "core.annotate.work_ms"),
    (
        "clone.plan",
        "core.clone.plan.wall_ms",
        "core.clone.plan.work_ms",
    ),
    (
        "clone.apply",
        "core.clone.apply.wall_ms",
        "core.clone.apply.work_ms",
    ),
    (
        "inline.plan",
        "core.inline.plan.wall_ms",
        "core.inline.plan.work_ms",
    ),
    (
        "inline.apply",
        "core.inline.apply.wall_ms",
        "core.inline.apply.work_ms",
    ),
    ("delete", "core.delete.wall_ms", "core.delete.work_ms"),
    ("ipa", "ipa.summaries.wall_ms", "ipa.summaries.work_ms"),
    ("cleanup", "opt.cleanup.wall_ms", "opt.cleanup.work_ms"),
    (
        "pure_calls",
        "opt.pure_calls.wall_ms",
        "opt.pure_calls.work_ms",
    ),
    (
        "straighten",
        "opt.straighten.wall_ms",
        "opt.straighten.work_ms",
    ),
];

/// Raw per-layer samples of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    stage_wall_us: u64,
    stage_work_us: u64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Records one optimize call's stage timings: every stage gets a
    /// sample (0 when the call skipped it), so means are per call.
    pub fn add_report(&mut self, r: &HloReport) {
        for &(stage, wall, work) in STAGES {
            let t = r.stage_timings.iter().find(|t| t.stage == stage);
            self.add(wall, t.map_or(0.0, |t| t.wall_us as f64 / 1e3));
            self.add(work, t.map_or(0.0, |t| t.work_us as f64 / 1e3));
        }
        for t in &r.stage_timings {
            self.stage_wall_us += t.wall_us;
            self.stage_work_us += t.work_us;
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Writes the mean of every recorded per-call layer metric, plus
    /// `core.parallelism` (Σ stage work / Σ stage wall).
    pub fn emit(&self, out: &mut Outcome) {
        for (&name, xs) in &self.samples {
            out.set(name, crate::stats::mean(xs), xs.len() as u64);
        }
        if self.stage_wall_us > 0 {
            out.set(
                "core.parallelism",
                self.stage_work_us as f64 / self.stage_wall_us as f64,
                self.samples("core.annotate.wall_ms").len() as u64,
            );
        }
    }
}

/// Runs `f`, returning its result and its duration in microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, us_since(t))
}

/// One reference output of a workload: the program it optimizes, how,
/// and the argument list its generated code is simulated on (`None`: not
/// runnable, sized only) with which VM settings.
pub struct Reference {
    pub name: String,
    pub input: Program,
    pub profile: Option<ProfileDb>,
    pub opts: HloOptions,
    pub sim_args: Option<Vec<i64>>,
    pub vm: ExecOptions,
    /// The optimized text the workload served or built; the reference
    /// build must reproduce it byte for byte.
    pub expect_ir: String,
}

/// Optimizes every reference once more and reports the exact,
/// deterministic metrics: `code_size`, `sim_kcycles`, and in traced runs
/// the `core.*` counts (from a Decisions-level tracer) and `sim.*` rates.
pub fn summarize_references(refs: &[Reference], traced: bool, out: &mut Outcome) {
    let (mut size, mut cycles, mut retired) = (0u64, 0.0f64, 0u64);
    let (mut ia, mut im, mut da, mut dm, mut br, mut mp) = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut counts = [0u64; 6];
    let (mut inl_ok, mut inl_all) = (0u64, 0u64);
    for r in refs {
        let mut p = r.input.clone();
        let mut tracer = Tracer::new(if traced {
            TraceLevel::Decisions
        } else {
            TraceLevel::Off
        });
        let rep = hlo::optimize_traced(&mut p, r.profile.as_ref(), &r.opts, &mut tracer);
        if hlo_ir::program_to_text(&p) != r.expect_ir {
            out.wrong(format!(
                "{}: reference build differs from the measured output",
                r.name
            ));
        }
        size += p.total_size();
        counts[0] += rep.inlines;
        counts[1] += rep.clone_replacements;
        counts[2] += rep.deletions;
        counts[3] += rep.passes.len() as u64;
        counts[4] += rep.compile_time_units();
        counts[5] += rep.ipa_pure_calls + rep.ipa_const_folds + rep.ipa_store_forwards;
        for d in tracer.decisions() {
            if d.kind == DecisionKind::Inline {
                inl_all += 1;
                inl_ok += u64::from(d.verdict == Verdict::Performed);
            }
        }
        if let Some(args) = &r.sim_args {
            match hlo_sim::simulate(&p, args, &r.vm, &hlo_sim::MachineConfig::default()) {
                Ok((st, _)) => {
                    cycles += st.cycles;
                    retired += st.retired;
                    ia += st.icache_accesses;
                    im += st.icache_misses;
                    da += st.dcache_accesses;
                    dm += st.dcache_misses;
                    br += st.branches;
                    mp += st.mispredicts;
                }
                Err(e) => out.wrong(format!("{}: simulation trapped: {e:?}", r.name)),
            }
        }
    }
    let n = refs.len() as u64;
    out.set("code_size", size as f64, n);
    out.set("sim_kcycles", cycles / 1e3, n);
    if traced {
        let names = [
            "core.inlines",
            "core.clone_repls",
            "core.deletions",
            "core.passes",
            "core.compile_units",
            "core.ipa_unlocked",
        ];
        for (name, c) in names.into_iter().zip(counts) {
            out.set(name, c as f64, n);
        }
        out.set(
            "core.inline_accept_ratio",
            ratio(inl_ok as f64, inl_all as f64),
            inl_all,
        );
        out.set("sim.cpi", ratio(cycles, retired as f64), n);
        out.set(
            "sim.icache_miss_pct",
            100.0 * ratio(im as f64, ia as f64),
            n,
        );
        out.set(
            "sim.dcache_miss_pct",
            100.0 * ratio(dm as f64, da as f64),
            n,
        );
        out.set(
            "sim.branch_mispredict_pct",
            100.0 * ratio(mp as f64, br as f64),
            n,
        );
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A span flattened to what grafting needs; a list is in creation order,
/// which for a tracer is pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatSpan {
    pub name: String,
    pub depth: u32,
    pub dur_us: u64,
    pub work_us: u64,
    pub stage: bool,
}

pub fn flatten(t: &Tracer) -> Vec<FlatSpan> {
    t.spans()
        .iter()
        .map(|s| FlatSpan {
            name: s.name.clone(),
            depth: s.depth,
            dur_us: s.dur_us,
            work_us: s.work_us,
            stage: s.stage,
        })
        .collect()
}

/// Rebuilds a daemon trace from `trace_fetch`'s indented span tree and
/// its Chrome JSON, whose complete events come in the same order.
pub fn flatten_daemon(spans_text: &str, chrome: &str) -> Result<Vec<FlatSpan>, String> {
    let doc = hlo::trace_json::parse(chrome)?;
    let events: Vec<&hlo::trace_json::Json> = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("daemon trace has no traceEvents")?
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    let lines: Vec<&str> = spans_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    if lines.len() != events.len() {
        return Err(format!(
            "daemon trace: {} tree lines, {} span events",
            lines.len(),
            events.len()
        ));
    }
    let mut out: Vec<FlatSpan> = lines
        .iter()
        .zip(events)
        .map(|(line, e)| {
            let trimmed = line.trim_start();
            let num = |v: Option<&hlo::trace_json::Json>| v.and_then(|v| v.as_f64()).unwrap_or(0.0);
            FlatSpan {
                name: trimmed.to_string(),
                depth: ((line.len() - trimmed.len()) / 2) as u32,
                dur_us: num(e.get("dur")) as u64,
                work_us: num(e.get("args").and_then(|a| a.get("work_us"))) as u64,
                stage: true,
            }
        })
        .collect();
    // A span with children is structural; the tree text does not say so.
    for i in 0..out.len() {
        if out.get(i + 1).is_some_and(|next| next.depth > out[i].depth) {
            out[i].stage = false;
        }
    }
    Ok(out)
}

/// Replays `spans` under `dst`'s currently open span, keeping names,
/// nesting, and measured durations.
pub fn graft(dst: &mut Tracer, spans: &[FlatSpan]) {
    let base = spans.iter().map(|s| s.depth).min().unwrap_or(0);
    let mut open = Vec::new();
    for s in spans {
        while open.len() > (s.depth - base) as usize {
            let (id, dur) = open.pop().expect("non-empty");
            dst.pop(id, Duration::from_micros(dur));
        }
        if s.stage {
            dst.leaf(
                &s.name,
                Duration::from_micros(s.dur_us),
                Duration::from_micros(s.work_us),
            );
        } else {
            open.push((dst.push(&s.name), s.dur_us));
        }
    }
    while let Some((id, dur)) = open.pop() {
        dst.pop(id, Duration::from_micros(dur));
    }
}

/// The traced run's trace: one root span named `title` over the measured
/// phase, with each kept operation's spans and decisions under it.
pub fn combine(
    title: &str,
    parts: &[(Vec<FlatSpan>, Vec<hlo::DecisionEvent>)],
    measured: Duration,
) -> Tracer {
    let mut t = Tracer::new(TraceLevel::Decisions);
    let root = t.push(title);
    for (spans, _) in parts {
        graft(&mut t, spans);
    }
    t.pop(root, measured);
    for (_, decisions) in parts {
        for d in decisions {
            t.decision(d.clone());
        }
    }
    t
}

/// How much slower traced operations ran than untraced ones of the same
/// class, in percent: the mean over traced operations of their latency
/// against the median untraced latency of their class. Samples are
/// `(class, latency, traced)`.
pub fn trace_overhead_pct(samples: &[(usize, f64, bool)]) -> f64 {
    let mut ratios = Vec::new();
    for &(class, lat, traced) in samples {
        if !traced {
            continue;
        }
        let untraced: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 == class && !s.2)
            .map(|s| s.1)
            .collect();
        if let Some(m) = crate::stats::percentile(&untraced, 0.5) {
            ratios.push(100.0 * (lat / m - 1.0));
        }
    }
    crate::stats::mean(&ratios)
}

/// Total self time (duration minus the children's) per span name, with
/// per-instance suffixes (`pass3`, `op:022.li`, `request:<id>`) folded.
pub fn self_times(t: &Tracer) -> Vec<(String, u64)> {
    let spans = t.spans();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.depth == 0 {
            continue; // the run's root: time outside every kept operation
        }
        let children: u64 = spans[i + 1..]
            .iter()
            .take_while(|c| c.depth > s.depth)
            .filter(|c| c.depth == s.depth + 1)
            .map(|c| c.dur_us)
            .sum();
        let mut key = s.name.split(':').next().unwrap_or_default().to_string();
        if key.starts_with("pass") && key[4..].chars().all(|c| c.is_ascii_digit()) {
            key.truncate(4);
        }
        *totals.entry(key).or_default() += s.dur_us.saturating_sub(children);
    }
    let mut v: Vec<(String, u64)> = totals.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// Renders and validates the Chrome trace, writes it to `path`, and
/// prints the heaviest spans by self time.
pub fn write_chrome(t: &Tracer, path: &std::path::Path, out: &mut Outcome) {
    let json = chrome_trace_json(t);
    match validate_chrome_trace(&json) {
        Ok(events) => {
            if let Err(e) = std::fs::write(path, &json) {
                out.wrong(format!("cannot write {}: {e}", path.display()));
                return;
            }
            println!("trace: {} ({events} events, validated)", path.display());
        }
        Err(e) => out.wrong(format!("Chrome trace fails validation: {e}")),
    }
    println!("self time by span (top 12):");
    for (name, us) in self_times(t).into_iter().take(12) {
        println!("  {name:<28} {:>10.3} ms", us as f64 / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graft_reproduces_the_tree_and_self_times() {
        let mut src = Tracer::new(TraceLevel::Spans);
        let root = src.push("op:x");
        src.leaf(
            "frontc.parse",
            Duration::from_micros(5),
            Duration::from_micros(5),
        );
        let opt = src.push("optimize");
        src.leaf("ipa", Duration::from_micros(7), Duration::from_micros(7));
        src.pop(opt, Duration::from_micros(10));
        src.pop(root, Duration::from_micros(20));

        let mut dst = Tracer::new(TraceLevel::Spans);
        let top = dst.push("workload");
        graft(&mut dst, &flatten(&src));
        dst.pop(top, Duration::from_micros(20));
        let tree: Vec<String> = dst.span_tree_text().lines().map(str::to_string).collect();
        assert_eq!(
            tree,
            [
                "workload",
                "  op:x",
                "    frontc.parse",
                "    optimize",
                "      ipa"
            ]
        );
        let selfs: BTreeMap<String, u64> = self_times(&dst).into_iter().collect();
        assert_eq!(selfs["op"], 20 - 5 - 10);
        assert_eq!(selfs["optimize"], 3);
        assert_eq!(selfs["ipa"], 7);
        assert!(validate_chrome_trace(&chrome_trace_json(&dst)).is_ok());
    }

    #[test]
    fn daemon_trace_round_trips_through_flatten() {
        let mut t = Tracer::new(TraceLevel::Spans);
        let root = t.push("request:00ab34cd56ef7890");
        t.leaf(
            "queue_wait",
            Duration::from_micros(3),
            Duration::from_micros(3),
        );
        let opt = t.push("optimize");
        t.leaf(
            "cleanup",
            Duration::from_micros(4),
            Duration::from_micros(6),
        );
        t.pop(opt, Duration::from_micros(4));
        t.pop(root, Duration::from_micros(7));
        let flat = flatten_daemon(&t.span_tree_text(), &chrome_trace_json(&t)).unwrap();
        assert_eq!(flat, flatten(&t));
    }
}
