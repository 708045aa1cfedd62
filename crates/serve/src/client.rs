//! Blocking client for the daemon (`hlod`) — what `hloc remote` and the
//! serve benchmark speak.

use crate::wire::{Frame, FrameError, Kind, Sections, DEFAULT_MAX_PAYLOAD};
use crate::{
    OptimizeRequest, OptimizeResponse, ProfilePushOutcome, ProfilePushRequest, ProfileStatsReply,
    TraceFetchReply,
};
use std::net::{TcpStream, ToSocketAddrs};

/// Mints a request trace id: 16 lowercase hex digits, unique enough for a
/// single client session. Seeded from the wall clock and process id, then
/// mixed through FNV-1a so consecutive calls differ in every nibble. The
/// id is client-owned — the daemon only echoes and indexes it.
pub fn mint_trace_id() -> String {
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let uniq = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let seed = [
        nanos.to_le_bytes(),
        (std::process::id() as u64).to_le_bytes(),
        uniq.to_le_bytes(),
    ]
    .concat();
    format!("{:016x}", hlo_ir::fnv1a_64(&seed))
}

/// Anything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// A frame that could not be decoded.
    Frame(FrameError),
    /// The daemon answered with an error frame; the payload message.
    Remote(String),
    /// The daemon's request queue is full; retry later.
    Busy,
    /// A structurally valid frame of an unexpected kind or shape.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Frame(e) => write!(f, "frame error: {e}"),
            ServeError::Remote(msg) => write!(f, "daemon error: {msg}"),
            ServeError::Busy => write!(f, "daemon is busy (queue full)"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ServeError::Io(io),
            other => ServeError::Frame(other),
        }
    }
}

/// Daemon-side counters, as returned by [`Client::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Optimize requests admitted: each took a ticket at the daemon's
    /// admission gate.
    pub requests: u64,
    /// Requests turned away with `Busy`.
    pub busy: u64,
    /// Requests that failed (bad input, compile error, …).
    pub errors: u64,
    /// Requests whose deadline had expired when they took their slot.
    pub deadline_missed: u64,
    /// Whole-program cache hits (pure lookups).
    pub hits: u64,
    /// Whole-program cache misses (full optimizations).
    pub misses: u64,
    /// Cache hits reclassified stale because the server-side profile
    /// aggregate drifted past threshold since the entry was built.
    pub stale_hits: u64,
    /// Requests whose raw inputs were in the source index, so their
    /// compile phase skipped the front end.
    pub source_hits: u64,
    /// Modules a front end took parsed from the daemon's module store
    /// instead of parsing them.
    pub module_hits: u64,
    /// Programs evicted by the LRU bound.
    pub evictions: u64,
    /// Function cone keys already known at lookup time.
    pub func_hits: u64,
    /// Function cone keys first seen at lookup time.
    pub func_misses: u64,
    /// Programs currently cached.
    pub entries: u64,
    /// Bytes of cached payload currently resident (IR + report text).
    pub cache_bytes: u64,
    /// Partition bodies spliced by incremental builds.
    pub partition_hits: u64,
    /// Partitions re-optimized by incremental builds.
    pub partition_rebuilds: u64,
    /// Requests that fell back from incremental to a full rebuild.
    pub incr_fallbacks: u64,
    /// Partition bodies currently resident in the partition store.
    pub partition_entries: u64,
    /// Profile deltas accepted via `profile-push`.
    pub pgo_pushes: u64,
    /// Drift-triggered re-optimizations of cached server-mode results.
    pub reoptimizations: u64,
    /// Programs with a resident profile aggregate.
    pub pgo_programs: u64,
    /// Bytes resident in the profile store.
    pub pgo_bytes: u64,
    /// Requests whose wall time exceeded the daemon's `--slow-ms` bound.
    pub slow_requests: u64,
    /// Request summaries currently resident in the flight recorder.
    pub flight_records: u64,
    /// Request traces currently resident in the trace ring.
    pub traces_stored: u64,
    /// Structured events emitted since the daemon started.
    pub events_emitted: u64,
    /// Aggregate `(stage, wall_us)` over all non-cached runs.
    pub stages: Vec<(String, u64)>,
    /// Per-phase request latency `(phase, count, sum_us)`, in the order
    /// the daemon reports them (queue wait, compile, cache probe, optimize,
    /// reply).
    pub latencies: Vec<(String, u64, u64)>,
    /// Per-phase latency quantiles `(phase, p50_us, p95_us, p99_us)` from
    /// the daemon's streaming sketches, in reporting order.
    pub quantiles: Vec<(String, u64, u64, u64)>,
}

impl ServeStats {
    /// Parses a `stats` reply body ([`crate::server::stats_text`]);
    /// unknown lines are ignored so old clients keep working against
    /// newer daemons.
    ///
    /// # Errors
    /// Describes the first malformed line.
    pub fn from_text(text: &str) -> Result<ServeStats, String> {
        fn num(parts: &mut std::str::SplitWhitespace, line: &str) -> Result<u64, String> {
            parts
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("bad stats line `{line}`"))
        }
        let mut st = ServeStats::default();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match parts.next().unwrap_or("") {
                "" => {}
                "uptime_ms" => st.uptime_ms = num(&mut parts, line)?,
                "requests" => st.requests = num(&mut parts, line)?,
                "busy" => st.busy = num(&mut parts, line)?,
                "errors" => st.errors = num(&mut parts, line)?,
                "deadline_missed" => st.deadline_missed = num(&mut parts, line)?,
                "hits" => st.hits = num(&mut parts, line)?,
                "misses" => st.misses = num(&mut parts, line)?,
                "stale_hits" => st.stale_hits = num(&mut parts, line)?,
                "source_hits" => st.source_hits = num(&mut parts, line)?,
                "module_hits" => st.module_hits = num(&mut parts, line)?,
                "evictions" => st.evictions = num(&mut parts, line)?,
                "func_hits" => st.func_hits = num(&mut parts, line)?,
                "func_misses" => st.func_misses = num(&mut parts, line)?,
                "entries" => st.entries = num(&mut parts, line)?,
                "cache_bytes" => st.cache_bytes = num(&mut parts, line)?,
                "partition_hits" => st.partition_hits = num(&mut parts, line)?,
                "partition_rebuilds" => st.partition_rebuilds = num(&mut parts, line)?,
                "incr_fallbacks" => st.incr_fallbacks = num(&mut parts, line)?,
                "partition_entries" => st.partition_entries = num(&mut parts, line)?,
                "pgo_pushes" => st.pgo_pushes = num(&mut parts, line)?,
                "reoptimizations" => st.reoptimizations = num(&mut parts, line)?,
                "pgo_programs" => st.pgo_programs = num(&mut parts, line)?,
                "pgo_bytes" => st.pgo_bytes = num(&mut parts, line)?,
                "slow_requests" => st.slow_requests = num(&mut parts, line)?,
                "flight_records" => st.flight_records = num(&mut parts, line)?,
                "traces_stored" => st.traces_stored = num(&mut parts, line)?,
                "events_emitted" => st.events_emitted = num(&mut parts, line)?,
                "stage" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("bad stats line `{line}`"))?
                        .to_string();
                    let wall = num(&mut parts, line)?;
                    st.stages.push((name, wall));
                }
                "latency" => {
                    let phase = parts
                        .next()
                        .ok_or_else(|| format!("bad stats line `{line}`"))?
                        .to_string();
                    let count = num(&mut parts, line)?;
                    let sum = num(&mut parts, line)?;
                    st.latencies.push((phase, count, sum));
                }
                "quantile" => {
                    let phase = parts
                        .next()
                        .ok_or_else(|| format!("bad stats line `{line}`"))?
                        .to_string();
                    let p50 = num(&mut parts, line)?;
                    let p95 = num(&mut parts, line)?;
                    let p99 = num(&mut parts, line)?;
                    st.quantiles.push((phase, p50, p95, p99));
                }
                _ => {} // forward compatibility: ignore unknown counters
            }
        }
        Ok(st)
    }
}

/// A blocking connection to a running `hlod`. One request is in flight at
/// a time per client; open several clients for concurrency. Replies over
/// [`DEFAULT_MAX_PAYLOAD`] bytes are refused.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr`.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, ServeError> {
        frame.write_to(&mut self.stream)?;
        Ok(Frame::read_from(&mut self.stream, DEFAULT_MAX_PAYLOAD)?)
    }

    fn remote_error(frame: &Frame) -> ServeError {
        let msg = Sections::decode(&frame.payload)
            .ok()
            .and_then(|s| s.text("message").ok().map(str::to_string))
            .unwrap_or_else(|| "unspecified daemon error".to_string());
        ServeError::Remote(msg)
    }

    /// Submits one optimize request and blocks for the response.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the daemon queue is full,
    /// [`ServeError::Remote`] for request-level failures.
    pub fn optimize(&mut self, req: &OptimizeRequest) -> Result<OptimizeResponse, ServeError> {
        let reply = self.roundtrip(&Frame::new(Kind::Optimize, &req.to_sections()))?;
        match reply.kind {
            Kind::Result => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                OptimizeResponse::from_sections(&s).map_err(ServeError::Protocol)
            }
            Kind::Busy => Err(ServeError::Busy),
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches daemon counters.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Stats))?;
        match reply.kind {
            Kind::StatsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                ServeStats::from_text(s.text("stats").map_err(ServeError::Protocol)?)
                    .map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches the full Prometheus-style metrics exposition text.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Metrics))?;
        match reply.kind {
            Kind::MetricsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                Ok(s.text("metrics").map_err(ServeError::Protocol)?.to_string())
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Pushes a profile delta into the daemon's aggregate for a program.
    ///
    /// # Errors
    /// [`ServeError::Remote`] when the program key is unknown or the
    /// delta malformed (daemon state is unchanged), plus the usual I/O,
    /// frame and protocol failures.
    pub fn profile_push(
        &mut self,
        req: &ProfilePushRequest,
    ) -> Result<ProfilePushOutcome, ServeError> {
        let reply = self.roundtrip(&Frame::new(Kind::ProfilePush, &req.to_sections()))?;
        match reply.kind {
            Kind::ProfilePushAck => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                ProfilePushOutcome::from_text(s.text("ack").map_err(ServeError::Protocol)?)
                    .map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches profile-store statistics; with `program` set, also the
    /// merged (decayed) aggregate profile text for that program.
    ///
    /// # Errors
    /// [`ServeError::Remote`] for unknown program keys, plus the usual
    /// I/O, frame and protocol failures.
    pub fn profile_stats(
        &mut self,
        program: Option<&str>,
    ) -> Result<ProfileStatsReply, ServeError> {
        let mut s = Sections::new();
        if let Some(key) = program {
            s.push("program", key.to_string());
        }
        let reply = self.roundtrip(&Frame::new(Kind::ProfileStats, &s))?;
        match reply.kind {
            Kind::ProfileStatsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                Ok(ProfileStatsReply {
                    text: s.text("stats").map_err(ServeError::Protocol)?.to_string(),
                    profile: s.text("profile").ok().map(str::to_string),
                })
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches the stored trace for a request previously submitted with
    /// `trace_id` set.
    ///
    /// # Errors
    /// [`ServeError::Remote`] when the id is malformed or the trace has
    /// aged out of the daemon's ring, plus the usual I/O, frame and
    /// protocol failures.
    pub fn trace_fetch(&mut self, trace_id: &str) -> Result<TraceFetchReply, ServeError> {
        let mut s = Sections::new();
        s.push("trace-id", trace_id.to_string());
        let reply = self.roundtrip(&Frame::new(Kind::TraceFetch, &s))?;
        match reply.kind {
            Kind::TraceReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                TraceFetchReply::from_sections(&s).map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Dumps the daemon's flight recorder: one event-formatted line per
    /// recent request, plus the count of requests admitted since start
    /// (records beyond the ring capacity have been overwritten).
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn flight_dump(&mut self) -> Result<(String, u64), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::FlightDump))?;
        match reply.kind {
            Kind::FlightReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                let dump = s.text("flight").map_err(ServeError::Protocol)?.to_string();
                let admitted = s
                    .text("admitted")
                    .map_err(ServeError::Protocol)?
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Protocol("bad admitted count".to_string()))?;
                Ok((dump, admitted))
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Ping))?;
        match reply.kind {
            Kind::Pong => Ok(()),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Asks the daemon to drain and exit. Returns once the daemon has
    /// acknowledged; in-flight work still completes server-side.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Shutdown))?;
        match reply.kind {
            Kind::ShutdownAck => Ok(()),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_text_parses() {
        let text = "uptime_ms 1234\nrequests 10\nbusy 1\nerrors 2\ndeadline_missed 0\n\
                    hits 6\nmisses 4\nevictions 0\nfunc_hits 40\nfunc_misses 9\nentries 4\n\
                    cache_bytes 2048\npgo_pushes 3\nreoptimizations 1\nstale_hits 1\n\
                    partition_hits 5\npartition_rebuilds 2\nincr_fallbacks 1\n\
                    partition_entries 12\npgo_programs 2\npgo_bytes 128\n\
                    slow_requests 2\nflight_records 8\ntraces_stored 3\nevents_emitted 40\n\
                    stage inline 500\nstage clone 80\n\
                    latency queue_wait 10 90\nlatency optimize 4 44000\n\
                    quantile queue_wait 9 80 88\nfuture_counter 7\n";
        let st = ServeStats::from_text(text).unwrap();
        assert_eq!(st.uptime_ms, 1234);
        assert_eq!(st.requests, 10);
        assert_eq!(st.hits, 6);
        assert_eq!(st.entries, 4);
        assert_eq!(st.cache_bytes, 2048);
        assert_eq!(st.pgo_pushes, 3);
        assert_eq!(st.reoptimizations, 1);
        assert_eq!(st.stale_hits, 1);
        assert_eq!(st.pgo_programs, 2);
        assert_eq!(st.pgo_bytes, 128);
        assert_eq!(st.partition_hits, 5);
        assert_eq!(st.partition_rebuilds, 2);
        assert_eq!(st.incr_fallbacks, 1);
        assert_eq!(st.partition_entries, 12);
        assert_eq!(
            st.stages,
            vec![("inline".to_string(), 500), ("clone".to_string(), 80)]
        );
        assert_eq!(
            st.latencies,
            vec![
                ("queue_wait".to_string(), 10, 90),
                ("optimize".to_string(), 4, 44000)
            ]
        );
        assert_eq!(st.slow_requests, 2);
        assert_eq!(st.flight_records, 8);
        assert_eq!(st.traces_stored, 3);
        assert_eq!(st.events_emitted, 40);
        assert_eq!(st.quantiles, vec![("queue_wait".to_string(), 9, 80, 88)]);
    }

    #[test]
    fn malformed_stats_line_is_an_error() {
        assert!(ServeStats::from_text("requests ten\n").is_err());
        assert!(ServeStats::from_text("stage inline\n").is_err());
        assert!(ServeStats::from_text("quantile queue_wait 9 80\n").is_err());
    }

    #[test]
    fn minted_trace_ids_are_valid_and_distinct() {
        let a = crate::mint_trace_id();
        let b = crate::mint_trace_id();
        assert!(crate::valid_trace_id(&a), "{a}");
        assert!(crate::valid_trace_id(&b), "{b}");
        assert_ne!(a, b);
    }
}
