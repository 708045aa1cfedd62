//! Hierarchical spans and the [`Tracer`] that records them.
//!
//! The tracer never reads a clock. Callers measure durations themselves
//! (they already do, for `HloReport::stage_timings`) and stamp spans when
//! closing them; the tracer lays spans onto a synthetic timeline by
//! advancing a cursor. Same work ⇒ same tree, regardless of scheduling —
//! only the stamped durations vary run to run, and those are exactly what
//! [`Tracer::span_tree_text`] normalizes away.

use crate::decision::DecisionEvent;
use crate::metrics::MetricsRegistry;
use crate::TraceLevel;
use std::time::Duration;

/// Index of a span within its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name (`optimize`, `pass0`, `inline.plan`, …).
    pub name: String,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Nesting depth (root spans are 0).
    pub depth: u32,
    /// Start offset on the synthetic timeline, microseconds.
    pub start_us: u64,
    /// Caller-supplied wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Cumulative busy time, microseconds: the caller-supplied work of a
    /// leaf (the optimizer's stages all pass `work == wall`), the sum of
    /// the children's for a structural span.
    pub work_us: u64,
    /// Whether this is a *stage* span (a timed leaf that contributes to
    /// `HloReport::stage_timings`) rather than a structural grouping span.
    pub stage: bool,
}

/// Records spans, decision events and metrics for one traced activity.
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    cursor_us: u64,
    decisions: Vec<DecisionEvent>,
    metrics: MetricsRegistry,
}

impl Tracer {
    /// Creates a tracer recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Tracer {
            level,
            spans: Vec::new(),
            stack: Vec::new(),
            cursor_us: 0,
            decisions: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A tracer that records spans but no decisions — the throwaway used
    /// by untraced entry points.
    pub fn disabled() -> Self {
        Tracer::new(TraceLevel::Off)
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// True when decision provenance is being collected. Passes check this
    /// before building event strings, so `Off`/`Spans` runs pay nothing.
    pub fn decisions_enabled(&self) -> bool {
        self.level == TraceLevel::Decisions
    }

    /// Opens a structural span at the current timeline cursor. Close it
    /// with [`Tracer::pop`].
    pub fn push(&mut self, name: &str) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            depth: self.stack.len() as u32,
            start_us: self.cursor_us,
            dur_us: 0,
            work_us: 0,
            stage: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes a structural span with its measured wall duration. The
    /// span's work is the sum of its children's work (a structural span
    /// does no work of its own).
    pub fn pop(&mut self, id: SpanId, wall: Duration) {
        debug_assert_eq!(self.stack.last(), Some(&id), "span stack discipline");
        self.stack.pop();
        let dur_us = wall.as_micros() as u64;
        let work_us: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.work_us)
            .sum();
        let span = &mut self.spans[id.0 as usize];
        span.dur_us = dur_us;
        span.work_us = work_us;
        // Siblings must not overlap: the cursor moves past both the span's
        // own duration and whatever its children consumed.
        self.cursor_us = self.cursor_us.max(span.start_us + dur_us);
    }

    /// Records a closed *stage* span (a timed leaf) with caller-supplied
    /// wall and cumulative-work durations.
    pub fn leaf(&mut self, name: &str, wall: Duration, work: Duration) {
        let dur_us = wall.as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            depth: self.stack.len() as u32,
            start_us: self.cursor_us,
            dur_us,
            work_us: work.as_micros() as u64,
            stage: true,
        });
        self.cursor_us += dur_us;
    }

    /// Records a sequential stage span (`work == wall`).
    pub fn leaf_seq(&mut self, name: &str, wall: Duration) {
        self.leaf(name, wall, wall);
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far (a resume point for
    /// [`Tracer::stage_totals_since`]).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records a decision event (no-op unless the level collects
    /// decisions). Every event also bumps the
    /// `decisions_total{kind,verdict,reason}` counter, so metric content
    /// stays a pure function of the decisions taken.
    pub fn decision(&mut self, e: DecisionEvent) {
        if !self.decisions_enabled() {
            return;
        }
        self.metrics.add(
            &format!(
                "decisions_total{{kind=\"{}\",verdict=\"{}\",reason=\"{}\"}}",
                e.kind, e.verdict, e.reason
            ),
            1,
        );
        self.decisions.push(e);
    }

    /// All recorded decision events, in emission order.
    pub fn decisions(&self) -> &[DecisionEvent] {
        &self.decisions
    }

    /// Aggregates stage (leaf) spans recorded since `start` by name, in
    /// first-seen order, summing wall and work — the exact shape of
    /// `HloReport::stage_timings`.
    pub fn stage_totals_since(&self, start: usize) -> Vec<(String, u64, u64)> {
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for s in &self.spans[start.min(self.spans.len())..] {
            if !s.stage {
                continue;
            }
            if let Some(t) = totals.iter_mut().find(|t| t.0 == s.name) {
                t.1 += s.dur_us;
                t.2 += s.work_us;
            } else {
                totals.push((s.name.clone(), s.dur_us, s.work_us));
            }
        }
        totals
    }

    /// The span tree with timestamps normalized away: one indented line
    /// per span, in creation order. Two runs of the same work produce the
    /// same text regardless of scheduling.
    pub fn span_tree_text(&self) -> String {
        let mut s = String::new();
        for span in &self.spans {
            for _ in 0..span.depth {
                s.push_str("  ");
            }
            s.push_str(&span.name);
            s.push('\n');
        }
        s
    }

    /// The decision events as a sorted text report, one event per line,
    /// optionally filtered by `fn` or `fn:bN.iM` (matches the caller side
    /// of the site, or the callee name).
    pub fn decision_report(&self, filter: Option<&str>) -> String {
        let mut lines: Vec<String> = self
            .decisions
            .iter()
            .filter(|e| match filter {
                None => true,
                Some(f) => match f.split_once(':') {
                    Some((name, coord)) => e.site == format!("{name}@{coord}"),
                    None => e.callee == f || e.site.split('@').next() == Some(f),
                },
            })
            .map(|e| e.line())
            .collect();
        lines.sort();
        lines.join("\n") + if lines.is_empty() { "" } else { "\n" }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionKind, Verdict};

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn spans_nest_and_lay_out_without_overlap() {
        let mut t = Tracer::disabled();
        let root = t.push("optimize");
        t.leaf("annotate", us(10), us(30));
        let p0 = t.push("pass0");
        t.leaf("inline.plan", us(5), us(5));
        t.leaf("inline.apply", us(7), us(7));
        t.pop(p0, us(12));
        t.pop(root, us(25));
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].name, "optimize");
        assert_eq!(spans[0].dur_us, 25);
        assert_eq!(spans[0].work_us, 30 + 12); // annotate + pass0
        assert_eq!(spans[2].parent, Some(SpanId(0)));
        assert_eq!(spans[3].parent, Some(SpanId(2)));
        // inline.apply starts after inline.plan ends
        assert_eq!(spans[4].start_us, spans[3].start_us + spans[3].dur_us);
    }

    #[test]
    fn stage_totals_aggregate_by_name_in_first_seen_order() {
        let mut t = Tracer::disabled();
        let root = t.push("optimize");
        t.leaf("inline.plan", us(10), us(30));
        t.leaf("delete", us(7), us(7));
        t.leaf("inline.plan", us(5), us(15));
        t.pop(root, us(22));
        let totals = t.stage_totals_since(0);
        assert_eq!(
            totals,
            vec![
                ("inline.plan".to_string(), 15, 45),
                ("delete".to_string(), 7, 7)
            ]
        );
        // Structural spans never appear in the totals.
        assert!(totals.iter().all(|t| t.0 != "optimize"));
    }

    #[test]
    fn tree_text_is_indented_and_time_free() {
        let mut t = Tracer::disabled();
        let root = t.push("optimize");
        t.leaf("annotate", us(1234), us(5678));
        t.pop(root, us(9999));
        assert_eq!(t.span_tree_text(), "optimize\n  annotate\n");
    }

    fn event(site: &str, callee: &str, verdict: Verdict, reason: &'static str) -> DecisionEvent {
        DecisionEvent {
            pass: 0,
            kind: DecisionKind::Inline,
            site: site.to_string(),
            callee: callee.to_string(),
            verdict,
            reason,
            benefit: 1.0,
            cost: 2,
            budget_before: 10,
            budget_after: 8,
            profile_weight: 1.0,
        }
    }

    #[test]
    fn decisions_respect_level_and_feed_metrics() {
        let mut off = Tracer::new(TraceLevel::Spans);
        off.decision(event("main@b0.i0", "f", Verdict::Performed, "accepted"));
        assert!(off.decisions().is_empty());

        let mut on = Tracer::new(TraceLevel::Decisions);
        on.decision(event("main@b0.i0", "f", Verdict::Performed, "accepted"));
        on.decision(event(
            "main@b0.i1",
            "g",
            Verdict::Deferred,
            "budget-deferred",
        ));
        assert_eq!(on.decisions().len(), 2);
        let exposed = on.metrics().expose();
        assert!(
            exposed.contains(
                "decisions_total{kind=\"inline\",verdict=\"performed\",reason=\"accepted\"} 1"
            ),
            "{exposed}"
        );
    }

    #[test]
    fn decision_report_sorts_and_filters() {
        let mut t = Tracer::new(TraceLevel::Decisions);
        t.decision(event(
            "zeta@b1.i0",
            "g",
            Verdict::Deferred,
            "budget-deferred",
        ));
        t.decision(event("main@b0.i0", "f", Verdict::Performed, "accepted"));
        let all = t.decision_report(None);
        let first = all.lines().next().unwrap();
        assert!(first.contains("main@b0.i0"), "{all}");
        // Filter by callee name, caller name, and exact site.
        assert_eq!(t.decision_report(Some("g")).lines().count(), 1);
        assert_eq!(t.decision_report(Some("zeta")).lines().count(), 1);
        assert_eq!(t.decision_report(Some("main:b0.i0")).lines().count(), 1);
        assert_eq!(t.decision_report(Some("main:b9.i9")).lines().count(), 0);
        assert_eq!(t.decision_report(Some("nosuch")), "");
    }
}
