#![warn(missing_docs)]
//! **hlo-trace** — the structured observability layer of the Aggressive
//! Inlining reproduction.
//!
//! The paper's entire evaluation is an observability exercise: Table 1
//! counts inlines, clones and deletions; Figure 7 attributes cycles. This
//! crate is the substrate that makes those numbers drill-downable:
//!
//! * [`Tracer`] — hierarchical spans (program → pass → stage) stamped with
//!   *caller-supplied* durations, so the recorded tree is a pure function
//!   of the work performed and replays deterministically;
//! * [`MetricsRegistry`] — a lock-sharded registry of counters, gauges and
//!   fixed-bucket histograms, safe to update from the daemon's worker
//!   threads (all updates commute, so totals do not depend on scheduling);
//! * [`DecisionEvent`] — provenance for every inline/clone/outline/
//!   pure-call decision: site, callee, verdict, reason code, benefit,
//!   cost, and budget state, queryable as a sorted text report;
//! * [`EventLog`] — a leveled, structured `key=value` event log with a
//!   canonical one-line text encoding and a strict parser, the daemon's
//!   operational record (request lifecycle, evictions, drains, errors);
//! * [`FlightRecorder`] — an always-on, lock-sharded ring of the last N
//!   request summaries, dumped on demand or when something goes wrong;
//! * [`QuantileSketch`] — a deterministic streaming quantile sketch
//!   (integer bucket bounds, documented error bound) behind the daemon's
//!   rolling p50/p95/p99 phase latencies;
//! * exporters — Chrome `trace_event` JSON ([`chrome_trace_json`],
//!   loadable in Perfetto, validated by [`validate_chrome_trace`]) and a
//!   Prometheus-style text exposition ([`MetricsRegistry::expose`],
//!   re-read strictly by [`parse_exposition`]).
//!
//! The crate is dependency-free (std only) and never reads a clock: every
//! duration is supplied by the caller, which is what keeps trace *content*
//! byte-identical across runs once timestamps are normalized.

mod chrome;
mod decision;
mod event;
mod flight;
pub mod json;
mod metrics;
mod span;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use decision::{DecisionEvent, DecisionKind, Verdict};
pub use event::{normalize_log, Event, EventLevel, EventLog};
pub use flight::{parse_flight_dump, FlightRecord, FlightRecorder};
pub use metrics::{
    parse_exposition, ExpositionSeries, MetricsRegistry, QuantileSketch, DRIFT_BUCKETS_MILLIS,
    LATENCY_BUCKETS_US, SKETCH_ERROR_PERCENT,
};
pub use span::{Span, SpanId, Tracer};

/// How much the optimizer records into its [`Tracer`].
///
/// The level is a pure observability knob: it never changes the produced
/// program, so it is normalized out of option fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record only the stage spans the report's timings are built from.
    #[default]
    Off,
    /// Same spans, flagged for export (`hloc build --trace out.json`).
    Spans,
    /// Spans plus per-site decision provenance (`hloc build --explain`).
    Decisions,
}

impl TraceLevel {
    /// The wire spelling used by `HloOptions::to_text`.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Spans => "spans",
            TraceLevel::Decisions => "decisions",
        }
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TraceLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "spans" => Ok(TraceLevel::Spans),
            "decisions" => Ok(TraceLevel::Decisions),
            other => Err(format!("bad trace level `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_level_round_trips() {
        for l in [TraceLevel::Off, TraceLevel::Spans, TraceLevel::Decisions] {
            assert_eq!(l.as_str().parse::<TraceLevel>().unwrap(), l);
        }
        assert!("loud".parse::<TraceLevel>().is_err());
    }
}
