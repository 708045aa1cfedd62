#![warn(missing_docs)]
//! **hlo-serve** — the persistent optimization service.
//!
//! The batch `hloc` driver re-optimizes the world on every invocation;
//! build services don't. This crate turns the optimizer into a long-lived
//! daemon (`hlod`) that answers framed requests over TCP and never
//! re-optimizes a function it has already seen:
//!
//! * [`wire`] — the length-prefixed, versioned frame protocol (std-only).
//! * [`cache`] — the content-addressed result cache: whole-program hits
//!   are pure lookups; per-function *cone keys* (function hash + option
//!   fingerprint + inline-reachable callee hashes via
//!   [`hlo::CallGraphCache`]) make invalidation exactly as big as the
//!   dependence cone of an edit, a partition store keeps finished
//!   per-partition bodies for function-grain reuse, and a module store
//!   keeps parsed MinC modules, so an edit parses only what it changed.
//! * [`incremental`] — function-grain incremental recompilation: on a
//!   whole-program miss, probe the partition store per call-graph
//!   partition and re-optimize only the partitions an edit touched,
//!   splicing every other partition's bodies byte-for-byte through
//!   [`hlo::optimize_partial`].
//! * [`server`] — the daemon: every request answered on the thread of
//!   its connection, behind a first-come-first-served admission gate
//!   with bounded slots and a bounded line, per-request deadlines,
//!   `Busy` backpressure and graceful drain-on-shutdown.
//! * [`client`] — the blocking client `hloc remote` uses to talk to
//!   `hlod`.
//! * [`fault`] — the planted stale-cone-key fault `cargo fuzzgate` uses
//!   to prove the incremental edit oracle can catch stale reuse.
//!
//! A request carries MinC sources or IR text plus [`HloOptions`]; the
//! response carries optimized IR text, the [`HloReport`] and the cache
//! outcome. Warm responses are byte-identical to cold ones and to an
//! in-process [`hlo::optimize`] call — proved suite-wide by
//! `cargo servebench` (see `crates/bench/src/bin/serve_bench.rs`).

pub mod cache;
pub mod client;
pub mod fault;
pub mod incremental;
pub mod server;
pub mod wire;

pub use cache::{CacheOutcome, CachedResult, RequestKey, ResultCache};
pub use client::{mint_trace_id, Client, ServeError, ServeStats};
pub use server::{ServeConfig, Server};

use hlo::{HloOptions, HloReport};
use wire::Sections;

/// What an optimize request carries to be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceKind {
    /// MinC sources as `(module name, source)` pairs — the `build` path.
    Minc(Vec<(String, String)>),
    /// Already-dumped IR text — the isom-style `opt` path.
    Ir(String),
}

/// Where an optimize request's profile comes from.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ProfileSpec {
    /// Optimize profile-free.
    #[default]
    None,
    /// Profile database text shipped inline with the request
    /// ([`hlo_profile::ProfileDb::to_text`]).
    Text(String),
    /// Continuous PGO: resolve the daemon's merged per-program aggregate
    /// when the request runs. A cached result whose build profile has since
    /// drifted past the daemon's threshold is treated as a miss and
    /// re-optimized.
    Server,
}

impl ProfileSpec {
    /// True for [`ProfileSpec::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, ProfileSpec::None)
    }
}

/// One optimize request.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Optimizer options (serialized as [`HloOptions::to_text`]).
    pub options: HloOptions,
    /// What to optimize.
    pub source: SourceKind,
    /// Profile source for this request.
    pub profile: ProfileSpec,
    /// Per-request deadline in milliseconds, measured from receipt. A
    /// request whose deadline has passed when it takes its slot is
    /// answered with an error instead of being optimized.
    pub deadline_ms: Option<u64>,
    /// Execute the optimized program once with this argument on the
    /// daemon's bytecode tier after optimizing. The outcome lands in the
    /// response's `train` line and the run feeds the daemon's per-tier VM
    /// metrics (`hloc remote metrics`). A trapping run is reported, never
    /// an error.
    pub train_arg: Option<i64>,
    /// Request-scoped trace id: 16 lowercase hex digits minted by the
    /// client. When present, the daemon threads a real [`hlo::Tracer`]
    /// through the request's phases and stores the rendered span tree /
    /// decision report for a later `trace-fetch`. `None` keeps tracing
    /// off for this request.
    pub trace_id: Option<String>,
}

/// True for a well-formed trace id: exactly 16 lowercase hex digits.
pub fn valid_trace_id(s: &str) -> bool {
    s.len() == 16
        && s.chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

impl OptimizeRequest {
    /// A request with default options and no profile or deadline.
    pub fn from_minc(sources: Vec<(String, String)>) -> Self {
        OptimizeRequest {
            options: HloOptions::default(),
            source: SourceKind::Minc(sources),
            profile: ProfileSpec::None,
            deadline_ms: None,
            train_arg: None,
            trace_id: None,
        }
    }

    /// Encodes to wire sections.
    pub fn to_sections(&self) -> Sections {
        let mut s = Sections::new();
        s.push("options", self.options.to_text());
        match &self.source {
            SourceKind::Minc(mods) => {
                for (name, src) in mods {
                    s.push(&format!("minc:{name}"), src.as_str());
                }
            }
            SourceKind::Ir(text) => {
                s.push("ir", text.as_str());
            }
        }
        match &self.profile {
            ProfileSpec::None => {}
            ProfileSpec::Text(p) => {
                s.push("profile", p.as_str());
            }
            ProfileSpec::Server => {
                s.push("profile-mode", "server");
            }
        }
        if let Some(d) = self.deadline_ms {
            s.push("deadline_ms", d.to_string());
        }
        if let Some(t) = self.train_arg {
            s.push("train", t.to_string());
        }
        if let Some(id) = &self.trace_id {
            s.push("trace-id", id.as_str());
        }
        s
    }

    /// Decodes from wire sections.
    ///
    /// # Errors
    /// Describes missing/duplicate sources or malformed options.
    pub fn from_sections(s: &Sections) -> Result<Self, String> {
        let options = HloOptions::from_text(s.text("options")?)?;
        let mut minc: Vec<(String, String)> = Vec::new();
        for (name, body) in s.iter() {
            if let Some(module) = name.strip_prefix("minc:") {
                let src = std::str::from_utf8(body)
                    .map_err(|_| format!("module `{module}` is not UTF-8"))?;
                minc.push((module.to_string(), src.to_string()));
            }
        }
        let source = match (minc.is_empty(), s.get("ir")) {
            (false, None) => SourceKind::Minc(minc),
            (true, Some(_)) => SourceKind::Ir(s.text("ir")?.to_string()),
            (true, None) => return Err("request has neither `minc:*` nor `ir` sections".into()),
            (false, Some(_)) => return Err("request has both `minc:*` and `ir` sections".into()),
        };
        let profile = match (s.get("profile"), s.get("profile-mode")) {
            (Some(_), Some(_)) => {
                return Err("request has both `profile` and `profile-mode` sections".into())
            }
            (Some(_), None) => ProfileSpec::Text(s.text("profile")?.to_string()),
            (None, Some(_)) => match s.text("profile-mode")?.trim() {
                "server" => ProfileSpec::Server,
                other => return Err(format!("unknown profile-mode `{other}`")),
            },
            (None, None) => ProfileSpec::None,
        };
        let deadline_ms = match s.get("deadline_ms") {
            Some(_) => Some(
                s.text("deadline_ms")?
                    .trim()
                    .parse()
                    .map_err(|_| "bad deadline_ms".to_string())?,
            ),
            None => None,
        };
        let train_arg = match s.get("train") {
            Some(_) => Some(
                s.text("train")?
                    .trim()
                    .parse()
                    .map_err(|_| "bad train arg".to_string())?,
            ),
            None => None,
        };
        let trace_id = match s.get("trace-id") {
            Some(_) => {
                let id = s.text("trace-id")?.trim().to_string();
                if !valid_trace_id(&id) {
                    return Err(format!("bad trace id `{id}` (want 16 lowercase hex)"));
                }
                Some(id)
            }
            None => None,
        };
        Ok(OptimizeRequest {
            options,
            source,
            profile,
            deadline_ms,
            train_arg,
            trace_id,
        })
    }
}

/// A successful optimize response.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResponse {
    /// Optimized program text — byte-identical whether it came from the
    /// cache or a fresh run.
    pub ir_text: String,
    /// The (possibly cached) optimization report. Diagnostics are elided
    /// in transit; see [`HloReport::to_text`].
    pub report: HloReport,
    /// What the cache did with this request.
    pub outcome: CacheOutcome,
    /// Outcome of the request's training run (`train_arg`): a one-line
    /// summary of the bytecode-tier execution, or the trap it hit.
    /// `None` when the request asked for no training run.
    pub train: Option<String>,
    /// Continuous-PGO provenance (`profile: server` requests that found a
    /// cached entry): the drift report summary explaining why the entry
    /// was served or rebuilt. `None` otherwise.
    pub pgo: Option<String>,
    /// Echo of the request's trace id, confirming the daemon recorded a
    /// trace retrievable via `trace-fetch`. `None` for untraced requests.
    pub trace_id: Option<String>,
}

impl OptimizeResponse {
    /// Encodes to wire sections.
    pub fn to_sections(&self) -> Sections {
        let mut s = Sections::new();
        s.push("ir", self.ir_text.as_str());
        s.push("report", self.report.to_text());
        s.push("cache", self.outcome.to_text());
        if let Some(t) = &self.train {
            s.push("train", t.as_str());
        }
        if let Some(p) = &self.pgo {
            s.push("pgo", p.as_str());
        }
        if let Some(id) = &self.trace_id {
            s.push("trace-id", id.as_str());
        }
        s
    }

    /// Decodes from wire sections.
    ///
    /// # Errors
    /// Describes the first missing or malformed section.
    pub fn from_sections(s: &Sections) -> Result<Self, String> {
        let ir_text = s.text("ir")?.to_string();
        let report = HloReport::from_text(s.text("report")?)?;
        let outcome = CacheOutcome::from_text(s.text("cache")?)?;
        let train = match s.get("train") {
            Some(_) => Some(s.text("train")?.to_string()),
            None => None,
        };
        let pgo = match s.get("pgo") {
            Some(_) => Some(s.text("pgo")?.to_string()),
            None => None,
        };
        let trace_id = match s.get("trace-id") {
            Some(_) => Some(s.text("trace-id")?.trim().to_string()),
            None => None,
        };
        Ok(OptimizeResponse {
            ir_text,
            report,
            outcome,
            train,
            pgo,
            trace_id,
        })
    }
}

/// Reply to a `trace-fetch` request: the rendered artifacts the daemon
/// stored for one traced request. All fields are *content* — rendered
/// from caller-supplied durations, never from a clock — so two daemons
/// doing the same work reply byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFetchReply {
    /// The trace id the artifacts belong to.
    pub trace_id: String,
    /// Indented span-tree text ([`hlo::Tracer::span_tree_text`]).
    pub spans: String,
    /// Sorted decision report ([`hlo::Tracer::decision_report`]).
    pub decisions: String,
    /// Chrome trace-event JSON, valid per [`hlo::validate_chrome_trace`].
    pub chrome: String,
    /// The request's cache outcome ([`CacheOutcome::to_text`]).
    pub cache: String,
    /// Total request wall time in microseconds — by construction the sum
    /// of the phase durations below.
    pub wall_us: u64,
    /// Measured `(phase, microseconds)` pairs in phase order.
    pub phases: Vec<(String, u64)>,
}

impl TraceFetchReply {
    /// Encodes to wire sections.
    pub fn to_sections(&self) -> Sections {
        let mut s = Sections::new();
        s.push("trace-id", self.trace_id.as_str());
        s.push("spans", self.spans.as_str());
        s.push("decisions", self.decisions.as_str());
        s.push("chrome", self.chrome.as_str());
        s.push("cache", self.cache.as_str());
        s.push("wall_us", self.wall_us.to_string());
        let mut phases = String::new();
        for (name, us) in &self.phases {
            phases.push_str(&format!("{name} {us}\n"));
        }
        s.push("phases", phases);
        s
    }

    /// Decodes from wire sections.
    ///
    /// # Errors
    /// Describes the first missing or malformed section.
    pub fn from_sections(s: &Sections) -> Result<Self, String> {
        let mut phases = Vec::new();
        for line in s.text("phases")?.lines() {
            let (name, us) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad phase line `{line}`"))?;
            phases.push((
                name.to_string(),
                us.parse().map_err(|_| format!("bad phase line `{line}`"))?,
            ));
        }
        Ok(TraceFetchReply {
            trace_id: s.text("trace-id")?.trim().to_string(),
            spans: s.text("spans")?.to_string(),
            decisions: s.text("decisions")?.to_string(),
            chrome: s.text("chrome")?.to_string(),
            cache: s.text("cache")?.to_string(),
            wall_us: s
                .text("wall_us")?
                .trim()
                .parse()
                .map_err(|_| "bad wall_us".to_string())?,
            phases,
        })
    }
}

/// One `profile-push` request: a client streams one [`ProfileDb`
/// text](hlo_profile::ProfileDb::to_text) delta (typically straight out
/// of `ProfileDb::from_vm_trace`) into the daemon's aggregate for
/// `program`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilePushRequest {
    /// Program key: 16 lowercase hex digits of `hlo_pgo::program_key`.
    /// The daemon refuses pushes for programs it has never optimized.
    pub program: String,
    /// The profile delta, in `ProfileDb::to_text` form.
    pub delta: String,
    /// Decay generations to advance **before** merging the delta (`0` =
    /// merge into the current generation). Advancing halves every
    /// resident count per step, so this delta outweighs the past.
    pub advance: u64,
}

impl ProfilePushRequest {
    /// Encodes to wire sections.
    pub fn to_sections(&self) -> Sections {
        let mut s = Sections::new();
        s.push("program", self.program.as_str());
        s.push("delta", self.delta.as_str());
        if self.advance > 0 {
            s.push("advance", self.advance.to_string());
        }
        s
    }

    /// Decodes from wire sections.
    ///
    /// # Errors
    /// Describes the missing or malformed section.
    pub fn from_sections(s: &Sections) -> Result<Self, String> {
        let program = s.text("program")?.trim().to_string();
        let delta = s.text("delta")?.to_string();
        let advance = match s.get("advance") {
            Some(_) => s
                .text("advance")?
                .trim()
                .parse()
                .map_err(|_| "bad advance count".to_string())?,
            None => 0,
        };
        Ok(ProfilePushRequest {
            program,
            delta,
            advance,
        })
    }
}

/// What an accepted `profile-push` did to the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilePushOutcome {
    /// Generation the delta landed in.
    pub generation: u64,
    /// Total pushes into this program's aggregate, including this one.
    pub pushes: u64,
    /// Functions in the merged aggregate.
    pub functions: u64,
    /// Estimated resident bytes of the aggregate.
    pub resident_bytes: u64,
}

impl ProfilePushOutcome {
    /// The `ack` section body.
    pub fn to_text(&self) -> String {
        format!(
            "generation {}\npushes {}\nfunctions {}\nbytes {}\n",
            self.generation, self.pushes, self.functions, self.resident_bytes
        )
    }

    /// Parses an `ack` section body (unknown lines are ignored for
    /// forward compatibility).
    ///
    /// # Errors
    /// Describes the malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut out = ProfilePushOutcome::default();
        for line in text.lines() {
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            let parse = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad ack line `{line}`"))
            };
            match key {
                "generation" => out.generation = parse(val)?,
                "pushes" => out.pushes = parse(val)?,
                "functions" => out.functions = parse(val)?,
                "bytes" => out.resident_bytes = parse(val)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Reply to a `profile-stats` request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileStatsReply {
    /// Store counters, one `key value` per line: `programs`, `bytes`,
    /// `pushes`, `evictions`, plus one
    /// `program <key> <generation> <pushes> <functions> <bytes>` line per
    /// resident aggregate (sorted by key).
    pub text: String,
    /// When the request named a program: its merged aggregate in
    /// canonical `ProfileDb::to_text` form (empty string when the
    /// aggregate holds no pushes yet).
    pub profile: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sections_roundtrip() {
        let req = OptimizeRequest {
            options: HloOptions {
                budget_percent: 50,
                ..Default::default()
            },
            source: SourceKind::Minc(vec![
                ("a".to_string(), "fn main() { return util(); }".to_string()),
                ("b".to_string(), "fn util() { return 7; }".to_string()),
            ]),
            profile: ProfileSpec::Text("func a main 1\nblocks 1\nend\n".to_string()),
            deadline_ms: Some(250),
            train_arg: Some(12),
            trace_id: Some("00ab34cd56ef7890".to_string()),
        };
        let back = OptimizeRequest::from_sections(&req.to_sections()).unwrap();
        assert_eq!(req, back);

        let ir_req = OptimizeRequest {
            options: HloOptions::default(),
            source: SourceKind::Ir("hlo-ir v1\nentry 0\n".to_string()),
            profile: ProfileSpec::None,
            deadline_ms: None,
            train_arg: None,
            trace_id: None,
        };
        let back = OptimizeRequest::from_sections(&ir_req.to_sections()).unwrap();
        assert_eq!(ir_req, back);
    }

    #[test]
    fn server_profile_mode_roundtrips() {
        let req = OptimizeRequest {
            profile: ProfileSpec::Server,
            ..OptimizeRequest::from_minc(vec![(
                "m".to_string(),
                "fn main() { return 0; }".to_string(),
            )])
        };
        let s = req.to_sections();
        assert_eq!(s.text("profile-mode").unwrap(), "server");
        assert_eq!(OptimizeRequest::from_sections(&s).unwrap(), req);

        // Unknown modes and profile+mode conflicts are rejected.
        let mut bad = req.to_sections();
        bad.push("profile", "func m f 1\nblocks 1\nend\n");
        assert!(OptimizeRequest::from_sections(&bad).is_err());
        let mut s = OptimizeRequest::from_minc(vec![(
            "m".to_string(),
            "fn main() { return 0; }".to_string(),
        )])
        .to_sections();
        s.push("profile-mode", "client");
        assert!(OptimizeRequest::from_sections(&s).is_err());
    }

    #[test]
    fn push_request_and_ack_roundtrip() {
        let req = ProfilePushRequest {
            program: "00000000000000aa".to_string(),
            delta: "func m f 1\nblocks 1\nend\n".to_string(),
            advance: 3,
        };
        let back = ProfilePushRequest::from_sections(&req.to_sections()).unwrap();
        assert_eq!(req, back);
        let no_advance = ProfilePushRequest {
            advance: 0,
            ..req.clone()
        };
        assert!(no_advance.to_sections().get("advance").is_none());
        assert_eq!(
            ProfilePushRequest::from_sections(&no_advance.to_sections()).unwrap(),
            no_advance
        );

        let ack = ProfilePushOutcome {
            generation: 2,
            pushes: 7,
            functions: 3,
            resident_bytes: 512,
        };
        assert_eq!(ProfilePushOutcome::from_text(&ack.to_text()).unwrap(), ack);
        assert!(ProfilePushOutcome::from_text("pushes seven\n").is_err());
    }

    #[test]
    fn request_without_source_is_rejected() {
        let mut s = Sections::new();
        s.push("options", HloOptions::default().to_text());
        assert!(OptimizeRequest::from_sections(&s).is_err());
        s.push("ir", "hlo-ir v1\n");
        s.push("minc:m", "fn main() { return 0; }");
        assert!(OptimizeRequest::from_sections(&s).is_err());
    }

    #[test]
    fn response_sections_roundtrip() {
        let resp = OptimizeResponse {
            ir_text: "hlo-ir v1\nentry 0\n".to_string(),
            report: HloReport {
                inlines: 3,
                ..Default::default()
            },
            outcome: CacheOutcome {
                hit: true,
                func_hits: 5,
                func_misses: 2,
                stale: false,
                drift_millis: 40,
                partition_hits: 2,
                partition_rebuilds: 1,
                incr_fallback: false,
            },
            train: Some("ret 3 retired 42 output 1 checksum 0x9".to_string()),
            pgo: Some("pgo-profile-stable score 40 (l1 40 churn 0 threshold 250)".to_string()),
            trace_id: Some("00ab34cd56ef7890".to_string()),
        };
        let back = OptimizeResponse::from_sections(&resp.to_sections()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn malformed_trace_ids_are_rejected() {
        assert!(valid_trace_id("00ab34cd56ef7890"));
        for bad in [
            "",
            "short",
            "00AB34CD56EF7890",
            "00ab34cd56ef789g",
            "00ab34cd56ef78901",
        ] {
            assert!(!valid_trace_id(bad), "{bad:?} should be invalid");
        }
        let mut s = OptimizeRequest::from_minc(vec![(
            "m".to_string(),
            "fn main() { return 0; }".to_string(),
        )])
        .to_sections();
        s.push("trace-id", "not-hex");
        assert!(OptimizeRequest::from_sections(&s).is_err());
    }

    #[test]
    fn trace_fetch_reply_roundtrips() {
        let reply = TraceFetchReply {
            trace_id: "00ab34cd56ef7890".to_string(),
            spans: "request:00ab34cd56ef7890\n  optimize\n".to_string(),
            decisions: "decision inline main@b0.i0 -> f: performed (accepted)\n".to_string(),
            chrome: "{\"traceEvents\":[]}\n".to_string(),
            cache: "hit 0\n".to_string(),
            wall_us: 4524,
            phases: vec![
                ("queue_wait".to_string(), 12),
                ("cache_probe".to_string(), 3),
                ("optimize".to_string(), 4500),
                ("reply".to_string(), 9),
            ],
        };
        let back = TraceFetchReply::from_sections(&reply.to_sections()).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.phases.iter().map(|(_, us)| us).sum::<u64>(), 4524);
    }
}
