//! The daemon: accept loop, admission gate, drain.
//!
//! One thread per connection reads frames and answers each itself. An
//! `optimize` request takes a ticket at the **admission gate** and runs
//! once its ticket heads the line and fewer than `workers` requests run;
//! one that finds `queue_cap` tickets waiting is answered
//! [`wire::Kind::Busy`] at once, and one whose deadline passed before its
//! slot is shed. It runs [`hlo::optimize`] — or, on a miss of a
//! partition-cacheable request, [`hlo::optimize_partial`] with a plan
//! that splices cached partition bodies (see [`crate::incremental`]). A
//! request that panics is answered with an error and frees its slot.
//!
//! Shutdown is graceful: draining stops the accept loop and makes new
//! optimize requests fail fast, but every request already admitted is
//! finished and its response written before [`Server::wait`] returns.

use crate::cache::{
    module_digest, request_key_of, source_digest, CacheOutcome, CachedResult, RequestKey,
    ResultCache, SourceEntry,
};
use crate::incremental;
use crate::wire::{Frame, FrameError, Kind, Sections, DEFAULT_MAX_PAYLOAD};
use crate::{
    OptimizeRequest, ProfilePushOutcome, ProfilePushRequest, ProfileSpec, SourceKind,
    TraceFetchReply,
};
use hlo::{
    chrome_trace_json, parse_exposition, CallGraphCache, Event, EventLevel, EventLog, FlightRecord,
    FlightRecorder, HloOptions, MetricsRegistry, PartitionAction, TraceLevel, Tracer,
    DRIFT_BUCKETS_MILLIS, LATENCY_BUCKETS_US,
};
use hlo_frontc::FrontError;
use hlo_ir::{Program, ProgramText};
use hlo_pgo::ProfileStore;
use hlo_profile::ProfileDb;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Resolves a requested slot count: `0` means "use all available
/// hardware parallelism", anything else is taken literally.
fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Optimize requests run at once (`0` = all hardware parallelism).
    pub workers: usize,
    /// Optimize requests that may wait for a slot; one more is `Busy`.
    pub queue_cap: usize,
    /// Program results kept in the cache (LRU past this).
    pub cache_cap: usize,
    /// Largest accepted frame payload, bytes.
    pub max_payload: u32,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Drift score (thousandths) past which a cached `profile: server`
    /// result is re-optimized instead of served.
    pub pgo_threshold_millis: u64,
    /// Program aggregates kept in the profile store (LRU past this;
    /// `0` = unbounded).
    pub pgo_cap: usize,
    /// When set, the profile store is loaded from this path at startup
    /// and persisted (write-temp-then-rename) after every mutation, so
    /// aggregates survive restarts.
    pub pgo_store_path: Option<PathBuf>,
    /// Structured event log file (`hlod --log PATH`): crash-safe append,
    /// one event per line. `None` = no file sink.
    pub event_log_path: Option<PathBuf>,
    /// Also write structured events to stderr (`hlod --log-stderr`).
    pub log_stderr: bool,
    /// Slow-request threshold (`hlod --slow-ms N`): a request whose wall
    /// time exceeds this is counted, warned about in the event log, and
    /// triggers a flight-recorder auto-dump. `None` disables the check.
    pub slow_ms: Option<u64>,
    /// Flight-recorder capacity: the last N request summaries kept
    /// (always on; `hloc remote flight` dumps them).
    pub flight_cap: usize,
    /// Traced-request artifacts kept for `trace-fetch` (LRU past this).
    pub trace_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 64,
            cache_cap: 128,
            max_payload: DEFAULT_MAX_PAYLOAD,
            default_deadline_ms: None,
            pgo_threshold_millis: hlo_pgo::DEFAULT_THRESHOLD_MILLIS,
            pgo_cap: hlo_pgo::store::DEFAULT_CAP,
            pgo_store_path: None,
            event_log_path: None,
            log_stderr: false,
            slow_ms: None,
            flight_cap: 256,
            trace_cap: 64,
        }
    }
}

/// Names of the per-request phase latency histograms, in request order:
/// from ticket to slot at the admission gate, compiling (the source-index
/// probe and, on an index miss, the front end, the canonical rendering,
/// the program key and the profile), probing the cache, optimizing
/// (misses only, with the late front end of an index hit the cache could
/// not answer, and up to the rendered output and report entering the
/// cache), and writing the reply. Each is a `request_<phase>_us`
/// histogram over [`LATENCY_BUCKETS_US`].
pub const REQUEST_PHASES: &[&str] = &["queue_wait", "compile", "cache_probe", "optimize", "reply"];

fn phase_metric(phase: &str) -> String {
    format!("request_{phase}_us")
}

/// Records one measured phase duration. The histogram's buckets feed the
/// `metrics` exposition and its sketch the p50/p95/p99 gauges.
fn observe_phase(shared: &Shared, phase: &str, us: u64) {
    shared
        .metrics
        .observe(&phase_metric(phase), LATENCY_BUCKETS_US, us);
}

/// Microseconds since daemon start — the `ts` field on emitted events
/// (stripped by normalization, so event *content* stays comparable
/// across runs).
fn event_ts(shared: &Shared) -> u64 {
    shared.started.elapsed().as_micros() as u64
}

/// The `id` field spelling for an optional trace id.
fn id_field(trace_id: &str) -> &str {
    if trace_id.is_empty() {
        "-"
    } else {
        trace_id
    }
}

/// Dumps the flight recorder into the event log — the incident record
/// written whenever a request traps, is refused, or runs slow.
fn auto_dump(shared: &Shared, trigger: &str) {
    if !shared.events.enabled() {
        return;
    }
    shared.events.emit(
        &Event::new(EventLevel::Warn, "flight.dump")
            .field("ts", event_ts(shared))
            .field("trigger", trigger)
            .field("records", shared.flight.len()),
    );
    for rec in shared.flight.dump() {
        if let Ok(e) = Event::parse(&rec.to_line()) {
            shared.events.emit(&e);
        }
    }
}

/// Finishes a failed optimize request: narrates it in the event log,
/// records it in the flight recorder, and builds the error reply. The
/// caller bumps whichever counter classifies the failure.
fn job_failed(
    shared: &Shared,
    trace_id: &str,
    reason: &str,
    msg: &str,
    queue_us: u64,
    req_bytes: u64,
) -> Frame {
    shared.events.emit(
        &Event::new(EventLevel::Error, "request.finish")
            .field("ts", event_ts(shared))
            .field("id", id_field(trace_id))
            .field("kind", "optimize")
            .field("outcome", "error")
            .field("reason", reason)
            .field("error", msg),
    );
    shared.flight.record(FlightRecord {
        trace_id: trace_id.to_string(),
        kind: "optimize".to_string(),
        outcome: "error".to_string(),
        reason: reason.to_string(),
        req_bytes,
        phases: vec![("queue_wait".to_string(), queue_us)],
        ..Default::default()
    });
    error_frame(msg)
}

/// The admission gate: tickets are dealt in arrival order, and the head
/// ticket takes a slot once fewer than `slots` requests hold one.
struct Gate {
    line: Mutex<Line>,
    turn: Condvar,
    slots: usize,
}

/// Tickets dealt, tickets admitted (the head ticket's number), slots held.
#[derive(Default)]
struct Line {
    dealt: u64,
    admitted: u64,
    running: usize,
}

impl Line {
    fn waiting(&self) -> u64 {
        self.dealt - self.admitted
    }
}

impl Gate {
    /// Locks the line. A poisoned lock is taken as it stands: every update
    /// of the counters is whole, and a slot must be freed while unwinding.
    fn lock(&self) -> MutexGuard<'_, Line> {
        self.line.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits, under the lock `ticket` was dealt in, until the ticket heads
    /// the line and a slot is free, and takes the slot.
    fn take_slot<'g>(&'g self, mut line: MutexGuard<'g, Line>, ticket: u64) -> Slot<'g> {
        while line.admitted != ticket || line.running >= self.slots {
            line = self.turn.wait(line).unwrap_or_else(PoisonError::into_inner);
        }
        line.admitted += 1;
        line.running += 1;
        // The new head may take a slot that is still free.
        if line.waiting() > 0 && line.running < self.slots {
            self.turn.notify_all();
        }
        Slot(self)
    }
}

/// A slot held at the [`Gate`]. Dropping it frees the slot on every exit
/// path of a request, unwinding included.
struct Slot<'g>(&'g Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut line = self.0.lock();
        line.running -= 1;
        if line.waiting() > 0 {
            self.0.turn.notify_all();
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    gate: Gate,
    draining: AtomicBool,
    /// Optimize requests read off a connection whose response has not been
    /// written to the client yet; drain waits for this to reach zero.
    in_flight: AtomicU64,
    cache: Mutex<ResultCache>,
    /// Per-program profile aggregates (continuous PGO). Mutated by
    /// `profile-push` and read by `profile: server` requests when they
    /// take their slot.
    pgo: Mutex<ProfileStore>,
    /// The daemon's only counter and latency store: `metrics` exposes it
    /// and `stats` renders that exposition ([`stats_text`]).
    metrics: MetricsRegistry,
    /// The structured event log (file and/or stderr sinks per config).
    events: EventLog,
    /// Always-on ring of the last N request summaries.
    flight: FlightRecorder,
    /// Rendered artifacts of traced requests, newest at the back, served
    /// by `trace-fetch`. Rendered text is stored (not the tracer itself)
    /// so a fetch is a pure copy.
    traces: Mutex<std::collections::VecDeque<TraceFetchReply>>,
    started: Instant,
    addr: SocketAddr,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send a `shutdown` frame) then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7457"`, port 0 for ephemeral) and
    /// spawns the accept loop.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Warm the profile store from its persisted snapshot, if any: a
        // restarted daemon answers `profile: server` with the same
        // aggregate it drained with.
        let pgo = match &cfg.pgo_store_path {
            Some(path) => ProfileStore::load(path, cfg.pgo_cap)?,
            None => ProfileStore::new(cfg.pgo_cap),
        };
        let events = EventLog::new(cfg.event_log_path.as_deref(), cfg.log_stderr)?;
        let shared = Arc::new(Shared {
            gate: Gate {
                line: Mutex::new(Line::default()),
                turn: Condvar::new(),
                slots: effective_jobs(cfg.workers),
            },
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
            pgo: Mutex::new(pgo),
            metrics: MetricsRegistry::new(),
            events,
            flight: FlightRecorder::new(cfg.flight_cap),
            traces: Mutex::new(std::collections::VecDeque::new()),
            started: Instant::now(),
            addr: local,
            cfg,
        });
        let accept = {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&sh, listener))
        };
        Ok(Server { shared, accept })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts draining: stop accepting, finish every admitted request.
    /// Idempotent; returns immediately — pair with [`Server::wait`].
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until the daemon has drained: the accept loop has stopped and
    /// every admitted request has been answered.
    pub fn wait(self) {
        let _ = self.accept.join();
        // Draining is set, so the gate admits nothing more; wait for the
        // connection threads to answer what it admitted.
        while self.shared.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn begin_drain(shared: &Arc<Shared>) {
    // Flip the flag while holding the gate lock: `submit` checks it under
    // the same lock, so a request either holds a ticket, and counts in
    // `in_flight`, before draining is visible, or is refused.
    {
        let _line = shared.gate.lock();
        if shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
    }
    shared
        .events
        .emit(&Event::new(EventLevel::Info, "daemon.drain").field("ts", event_ts(shared)));
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let sh = Arc::clone(shared);
        // Connection threads are detached: they die with the process (or
        // sit in `read` until the client goes away). Drain correctness is
        // carried by the gate and `in_flight`, not by joining them.
        std::thread::spawn(move || connection_loop(&sh, stream));
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let frame = match Frame::read_from(&mut stream, shared.cfg.max_payload) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => return, // disconnect / EOF
            Err(e) => {
                // Malformed or oversized: tell the client why, then hang
                // up — the stream position is unrecoverable.
                let _ = error_frame(&e.to_string()).write_to(&mut stream);
                return;
            }
        };
        let reply = match frame.kind {
            Kind::Ping => Frame::bare(Kind::Pong),
            Kind::Stats => stats_frame(shared),
            Kind::Metrics => metrics_frame(shared),
            Kind::ProfilePush => profile_push_frame(shared, &frame),
            Kind::ProfileStats => profile_stats_frame(shared, &frame),
            Kind::TraceFetch => trace_fetch_frame(shared, &frame),
            Kind::FlightDump => flight_dump_frame(shared),
            Kind::Shutdown => {
                begin_drain(shared);
                Frame::bare(Kind::ShutdownAck)
            }
            Kind::Optimize => submit(shared, &frame),
            _ => error_frame(&format!("unexpected frame kind {:?}", frame.kind)),
        };
        let is_optimize = frame.kind == Kind::Optimize;
        let write_res = reply.write_to(&mut stream);
        if is_optimize {
            // The `reply` phase (response-frame construction) is measured
            // inside `run_job`, where its duration can feed the request's
            // trace; the socket write is excluded so phase sums equal the
            // reported wall time. Counted up in `submit`; the response is
            // on the wire (or the client is gone) — flight over.
            shared.in_flight.fetch_sub(1, Ordering::Release);
        }
        if write_res.is_err() {
            return; // client went away mid-response
        }
    }
}

/// Answers one optimize request on the thread that read it: parses it,
/// takes a ticket unless draining or `queue_cap` tickets wait, and runs it
/// in its slot. Whatever the outcome, `in_flight` has been incremented
/// exactly once (the connection loop decrements after writing the reply).
fn submit(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    shared.in_flight.fetch_add(1, Ordering::Acquire);
    let req_bytes = frame.payload.len() as u64;
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => {
            shared.metrics.inc("errors_total");
            return job_failed(
                shared,
                "",
                "payload",
                &format!("bad request payload: {e}"),
                0,
                req_bytes,
            );
        }
    };
    let req = match OptimizeRequest::from_sections(&sections) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.inc("errors_total");
            return job_failed(
                shared,
                "",
                "request",
                &format!("bad request: {e}"),
                0,
                req_bytes,
            );
        }
    };
    let trace_id = req.trace_id.clone().unwrap_or_default();
    // A refused request never takes a ticket; it is still narrated and
    // flight-recorded here, and a refusal is one of the flight recorder's
    // auto-dump triggers.
    let refuse = |reason: &str| {
        shared.events.emit(
            &Event::new(EventLevel::Warn, "request.refused")
                .field("ts", event_ts(shared))
                .field("id", id_field(&trace_id))
                .field("kind", "optimize")
                .field("reason", reason),
        );
        shared.flight.record(FlightRecord {
            trace_id: trace_id.clone(),
            kind: "optimize".to_string(),
            outcome: "refused".to_string(),
            reason: reason.to_string(),
            req_bytes,
            ..Default::default()
        });
        auto_dump(shared, "refused");
    };
    let deadline_ms = req.deadline_ms.or(shared.cfg.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut line = shared.gate.lock();
    // Checked under the gate lock — see `begin_drain`.
    if shared.draining.load(Ordering::SeqCst) {
        drop(line);
        refuse("draining");
        return error_frame("daemon is draining");
    }
    if line.waiting() >= shared.cfg.queue_cap as u64 {
        shared.metrics.inc("busy_total");
        drop(line);
        refuse("busy");
        return Frame::bare(Kind::Busy);
    }
    let ticket = line.dealt;
    line.dealt += 1;
    shared.metrics.inc("requests_total");
    let ticketed = Instant::now();
    let _slot = shared.gate.take_slot(line, ticket);
    let queue_us = ticketed.elapsed().as_micros() as u64;
    observe_phase(shared, "queue_wait", queue_us);
    // A panic is answered, narrated and counted like a failed request and
    // dumps the flight recorder; `_slot` frees the slot as the stack
    // unwinds.
    catch_unwind(AssertUnwindSafe(|| {
        run_job(shared, &req, deadline, req_bytes, queue_us)
    }))
    .unwrap_or_else(|_| {
        shared.metrics.inc("errors_total");
        let reply = job_failed(
            shared,
            &trace_id,
            "panic",
            "worker dropped the request",
            queue_us,
            req_bytes,
        );
        auto_dump(shared, "panic");
        reply
    })
}

/// Executes one optimize request: deadline check, compile, cache lookup,
/// optimize on miss, cache fill — narrating the request into the event
/// log and flight recorder, and (for traced requests) recording a span
/// tree whose phase leaves carry the measured durations, so the stored
/// trace's phases sum exactly to the reported wall time.
fn run_job(
    shared: &Arc<Shared>,
    req: &OptimizeRequest,
    deadline: Option<Instant>,
    req_bytes: u64,
    queue_us: u64,
) -> Frame {
    let trace_id = req.trace_id.clone().unwrap_or_default();
    shared.events.emit(
        &Event::new(EventLevel::Info, "request.start")
            .field("ts", event_ts(shared))
            .field("id", id_field(&trace_id))
            .field("kind", "optimize"),
    );
    if let Some(d) = deadline {
        if Instant::now() > d {
            shared.metrics.inc("deadline_missed_total");
            return job_failed(
                shared,
                &trace_id,
                "deadline",
                "deadline exceeded while queued",
                queue_us,
                req_bytes,
            );
        }
    }
    // The request tracer. Untraced requests get a disabled tracer the
    // optimizer still threads its spans through (and ignores); traced
    // requests record at `Decisions` so the stored report carries full
    // per-site provenance. The tracer never reads a clock — every
    // duration below is measured here and handed to it, which is what
    // keeps trace content byte-identical across runs and slot counts.
    let traced = !trace_id.is_empty();
    let mut tracer = if traced {
        Tracer::new(TraceLevel::Decisions)
    } else {
        Tracer::disabled()
    };
    let root = traced.then(|| tracer.push(&format!("request:{trace_id}")));
    let mut phases: Vec<(String, u64)> = vec![("queue_wait".to_string(), queue_us)];
    if traced {
        tracer.leaf_seq("queue_wait", Duration::from_micros(queue_us));
    }
    let fail = |reason: &str, msg: &str| -> Frame {
        shared.metrics.inc("errors_total");
        job_failed(shared, &trace_id, reason, msg, queue_us, req_bytes)
    };
    // The compile phase. On a source-index miss it runs the front end,
    // renders the program once (every key comes from that text), takes the
    // program key and parses and renders an inline profile. A source-index
    // hit holds the keys that rendering gave when the request was indexed,
    // so it skips all of that; it compiles only if the result cache cannot
    // answer it.
    let compile_t = Instant::now();
    let digest = source_digest(req);
    let entry = shared.cache.lock().unwrap().source(digest);
    let (program_key, front) = match entry {
        Some(entry) => {
            shared.metrics.inc("cache_source_hits_total");
            #[cfg(debug_assertions)]
            check_indexed_keys(req, &entry);
            (entry.program_key, Front::Indexed(entry.key))
        }
        None => {
            let program = match front_end(shared, &req.source) {
                Ok(p) => p,
                Err((reason, msg)) => return fail(reason, &msg),
            };
            let rendered = ProgramText::render(&program);
            let pkey = hlo_pgo::program_key_of_text(rendered.as_str());
            (pkey, Front::Compiled(program, rendered))
        }
    };
    let indexed = matches!(front, Front::Indexed(_));
    // Every optimized program registers with the pgo store, whatever
    // profile mode built it: pushes are accepted for any program the
    // daemon has seen, so a fleet can start streaming profiles before
    // the first `profile: server` rebuild.
    {
        let mut store = shared.pgo.lock().unwrap();
        let created = store
            .register(&program_key)
            .expect("program keys are well-formed");
        if created {
            persist_store(shared, &store);
        }
    }
    // Resolve the request's profile. `server` mode consults the pgo store
    // *when the request runs* — the whole point of continuous PGO is that
    // the profile a request optimizes with is whatever the fleet has pushed
    // by now, not whatever the client last saw. An indexed inline profile
    // parsed when it was indexed, so only a late compile parses it again.
    let server_mode = matches!(req.profile, ProfileSpec::Server);
    let profile = if server_mode {
        shared.pgo.lock().unwrap().merged(&program_key)
    } else if indexed {
        None
    } else {
        match inline_profile(&req.profile) {
            Ok(db) => db,
            Err(msg) => return fail("profile", &msg),
        }
    };
    // On an index miss the profile is rendered once: that text is the
    // cached entry's build profile and the partition-key salt, and, but
    // for `server` mode, what the request key hashes.
    let profile_text = if indexed {
        String::new()
    } else {
        profile.as_ref().map(ProfileDb::to_text).unwrap_or_default()
    };
    let compile_us = compile_t.elapsed().as_micros() as u64;
    observe_phase(shared, "compile", compile_us);
    phases.push(("compile".to_string(), compile_us));
    if traced {
        tracer.leaf_seq("compile", Duration::from_micros(compile_us));
    }

    let probe_t = Instant::now();
    let mut cg = CallGraphCache::new();
    let (key, compiled) = match front {
        Front::Indexed(key) => (key, None),
        Front::Compiled(program, rendered) => {
            let key_profile = key_profile_text(server_mode, &profile_text);
            let key = request_key_of(&program, &rendered, &req.options, key_profile, &mut cg);
            (key, Some(program))
        }
    };
    let (cached, mut outcome) = {
        let mut cache = shared.cache.lock().unwrap();
        if !indexed {
            // The request compiled, so its keys enter the index.
            cache.insert_source(
                digest,
                SourceEntry {
                    key: key.clone(),
                    program_key,
                },
            );
        }
        cache.lookup(&key)
    };

    // Continuous PGO: a resident entry is only servable while the
    // aggregate is still within threshold of the profile it was built
    // with. Past threshold it is a *stale hit*: re-optimize with the
    // current aggregate and replace the entry.
    let mut pgo_line = None;
    let cached = match cached {
        Some(c) if server_mode => {
            let built_with = ProfileDb::from_text(&c.profile_text).unwrap_or_default();
            let current = profile.clone().unwrap_or_default();
            let report = hlo_pgo::drift(&built_with, &current, hlo_pgo::DEFAULT_HOT_SET);
            let threshold = shared.cfg.pgo_threshold_millis;
            outcome.drift_millis = report.score_millis();
            shared.metrics.observe(
                "pgo_drift_millis",
                DRIFT_BUCKETS_MILLIS,
                report.score_millis(),
            );
            pgo_line = Some(report.summary(threshold));
            if report.exceeds(threshold) {
                shared.events.emit(
                    &Event::new(EventLevel::Warn, "pgo.reoptimize")
                        .field("ts", event_ts(shared))
                        .field("id", id_field(&trace_id))
                        .field("drift_millis", report.score_millis())
                        .field("threshold_millis", threshold),
                );
                outcome.hit = false;
                outcome.stale = true;
                None
            } else {
                Some(c)
            }
        }
        other => other,
    };
    let probe_us = probe_t.elapsed().as_micros() as u64;
    observe_phase(shared, "cache_probe", probe_us);
    phases.push(("cache_probe".to_string(), probe_us));
    if traced {
        tracer.leaf_seq("cache_probe", Duration::from_micros(probe_us));
    }
    // Each lookup is counted once, as what the probe decided: a stale hit
    // is neither a hit nor a miss, and its one count backs both the
    // `stale_hits` and the `reoptimizations` line of `stats`.
    let (outcome_str, lookup_counter) = if outcome.stale {
        ("stale", "pgo_reoptimize_total")
    } else if outcome.hit {
        ("hit", "cache_hits_total")
    } else {
        ("miss", "cache_misses_total")
    };
    shared.metrics.inc(lookup_counter);
    shared
        .metrics
        .add("cache_func_hits_total", outcome.func_hits);
    shared
        .metrics
        .add("cache_func_misses_total", outcome.func_misses);

    let (ir_text, report_text) = match cached {
        Some(c) => (c.ir_text, c.report_text),
        None => {
            let opt_t = Instant::now();
            // An index hit whose entry was evicted or went stale compiles
            // here, late, so its front end counts under `optimize`.
            let (mut program, profile, profile_text) = match compiled {
                Some(program) => (program, profile, profile_text),
                None => match late_compile(shared, req, profile) {
                    Ok(c) => c,
                    Err((reason, msg)) => return fail(reason, &msg),
                },
            };
            let report = optimize_miss(
                shared,
                &mut program,
                profile.as_ref(),
                &req.options,
                &key,
                hlo_ir::fnv1a_64(profile_text.as_bytes()),
                &mut cg,
                &mut outcome,
                &mut tracer,
                &trace_id,
            );
            let ir_text = hlo_ir::program_to_text(&program);
            let report_text = report.to_text();
            for t in &report.stage_timings {
                let stage = &t.stage;
                shared.metrics.add(
                    &format!("stage_wall_us_total{{stage=\"{stage}\"}}"),
                    t.wall_us,
                );
            }
            let evicted = shared.cache.lock().unwrap().insert(
                &key,
                CachedResult {
                    ir_text: ir_text.clone(),
                    report_text: report_text.clone(),
                    profile_text,
                },
            );
            shared.metrics.add("cache_evictions", evicted);
            if evicted > 0 {
                shared.events.emit(
                    &Event::new(EventLevel::Info, "cache.evict")
                        .field("ts", event_ts(shared))
                        .field("count", evicted),
                );
            }
            // The phase ends once the result is rendered and cached.
            let opt_us = opt_t.elapsed().as_micros() as u64;
            observe_phase(shared, "optimize", opt_us);
            phases.push(("optimize".to_string(), opt_us));
            (ir_text, report_text)
        }
    };
    // Tag leaves: zero-duration stage spans naming the cache outcome and
    // partition reuse counts, so a span tree is self-describing.
    if traced {
        tracer.leaf_seq(&format!("outcome.{outcome_str}"), Duration::ZERO);
        tracer.leaf_seq(
            &format!("partitions.hit.{}", outcome.partition_hits),
            Duration::ZERO,
        );
        tracer.leaf_seq(
            &format!("partitions.rebuild.{}", outcome.partition_rebuilds),
            Duration::ZERO,
        );
    }
    let train = req
        .train_arg
        .map(|arg| train_run(&ir_text, arg, &shared.metrics));
    let trapped = train.as_deref().is_some_and(|t| t.starts_with("trap:"));

    // The reply phase is the response-frame construction (the socket
    // write happens on the connection thread and is excluded, so the
    // phase list sums exactly to the wall time reported with the trace).
    let reply_t = Instant::now();
    let mut s = Sections::new();
    s.push("ir", ir_text);
    s.push("report", report_text);
    s.push("cache", outcome.to_text());
    if let Some(p) = pgo_line {
        s.push("pgo", p);
    }
    if let Some(t) = train {
        s.push("train", t);
    }
    if traced {
        s.push("trace-id", trace_id.as_str());
    }
    let frame = Frame::new(Kind::Result, &s);
    let reply_us = reply_t.elapsed().as_micros() as u64;
    observe_phase(shared, "reply", reply_us);
    phases.push(("reply".to_string(), reply_us));
    let wall_us: u64 = phases.iter().map(|(_, us)| us).sum();

    if let Some(root) = root {
        tracer.leaf_seq("reply", Duration::from_micros(reply_us));
        tracer.pop(root, Duration::from_micros(wall_us));
        let stored = TraceFetchReply {
            trace_id: trace_id.clone(),
            spans: tracer.span_tree_text(),
            decisions: tracer.decision_report(None),
            chrome: chrome_trace_json(&tracer),
            cache: outcome.to_text(),
            wall_us,
            phases: phases.clone(),
        };
        let mut traces = shared.traces.lock().unwrap();
        traces.push_back(stored);
        while traces.len() > shared.cfg.trace_cap.max(1) {
            traces.pop_front();
        }
    }

    let reason = if trapped { "trap" } else { "ok" };
    shared.flight.record(FlightRecord {
        seq: 0,
        trace_id: trace_id.clone(),
        kind: "optimize".to_string(),
        outcome: outcome_str.to_string(),
        reason: reason.to_string(),
        req_bytes,
        resp_bytes: frame.payload.len() as u64,
        phases,
    });
    shared.events.emit(
        &Event::new(
            if trapped {
                EventLevel::Warn
            } else {
                EventLevel::Info
            },
            "request.finish",
        )
        .field("ts", event_ts(shared))
        .field("id", id_field(&trace_id))
        .field("kind", "optimize")
        .field("outcome", outcome_str)
        .field("reason", reason)
        .field("req_bytes", req_bytes)
        .field("resp_bytes", frame.payload.len())
        .field("partition_hits", outcome.partition_hits)
        .field("partition_rebuilds", outcome.partition_rebuilds)
        .field("wall_us", wall_us),
    );
    if trapped {
        auto_dump(shared, "trap");
    }
    if let Some(slow_ms) = shared.cfg.slow_ms {
        if wall_us > slow_ms.saturating_mul(1000) {
            shared.metrics.inc("slow_requests_total");
            shared.events.emit(
                &Event::new(EventLevel::Warn, "request.slow")
                    .field("ts", event_ts(shared))
                    .field("id", id_field(&trace_id))
                    .field("wall_us", wall_us)
                    .field("threshold_ms", slow_ms),
            );
            auto_dump(shared, "slow");
        }
    }
    frame
}

/// Where the compile phase leaves a request for the cache probe.
enum Front {
    /// A source-index hit: the request key its one canonical rendering
    /// gave when the request was indexed.
    Indexed(RequestKey),
    /// A source-index miss: the program through the front end, and its
    /// one canonical rendering.
    Compiled(Program, ProgramText),
}

/// Runs the front end over a request's source: MinC through the
/// parsed-module store ([`parse_and_link`]), IR text through the parser
/// and the verifier ([`ir_program`]). A failure names its `errors_total`
/// reason and its message.
fn front_end(shared: &Shared, source: &SourceKind) -> Result<Program, (&'static str, String)> {
    match source {
        SourceKind::Minc(mods) => parse_and_link(shared, mods).map_err(compile_failed),
        SourceKind::Ir(text) => ir_program(text),
    }
}

/// The failure of a MinC request's front end.
fn compile_failed(e: FrontError) -> (&'static str, String) {
    ("compile", format!("compile failed: {e}"))
}

/// Parses IR text and verifies it.
fn ir_program(text: &str) -> Result<Program, (&'static str, String)> {
    let p = hlo_ir::parse_program_text(text).map_err(|e| ("parse", format!("bad IR text: {e}")))?;
    hlo_ir::verify_program(&p).map_err(|e| ("verify", format!("invalid IR: {e}")))?;
    Ok(p)
}

/// The MinC front end over the parsed-module store: takes the stored
/// modules under one lock, parses the rest in module order outside it,
/// links, and records what it parsed once the link has succeeded, so a
/// failing request stores nothing. The errors are
/// [`hlo_frontc::compile`]'s: a stored module once parsed without error,
/// so the first parse error in module order is the same, and the link
/// reads the same ASTs.
fn parse_and_link(shared: &Shared, mods: &[(String, String)]) -> Result<Program, FrontError> {
    let digests: Vec<u64> = mods.iter().map(|(n, s)| module_digest(n, s)).collect();
    let stored = shared.cache.lock().unwrap().stored_modules(&digests);
    shared.metrics.add(
        "cache_module_hits_total",
        stored.iter().flatten().count() as u64,
    );
    #[cfg(debug_assertions)]
    check_stored_modules(mods, &stored);
    let mut parsed = Vec::new();
    let mut asts = Vec::with_capacity(mods.len());
    for (((name, src), &digest), stored) in mods.iter().zip(&digests).zip(stored) {
        let ast = match stored {
            Some(ast) => ast,
            None => {
                let ast = Arc::new(hlo_frontc::parse_module(name, src)?);
                parsed.push((digest, Arc::clone(&ast)));
                ast
            }
        };
        asts.push(ast);
    }
    let program = hlo_frontc::link(&asts)?;
    shared.cache.lock().unwrap().record_modules(parsed);
    Ok(program)
}

/// The debug oracle of the module store: every AST it hands out must
/// equal a fresh parse of its module. A mismatch means the digest left
/// out an input the parse depends on.
#[cfg(debug_assertions)]
fn check_stored_modules(mods: &[(String, String)], stored: &[Option<Arc<hlo_frontc::ModuleAst>>]) {
    for ((name, src), ast) in mods.iter().zip(stored) {
        if let Some(ast) = ast {
            match hlo_frontc::parse_module(name, src) {
                Ok(fresh) if fresh == **ast => {}
                _ => panic!("parsed-module store is stale for `{name}`"),
            }
        }
    }
}

/// Parses a request's inline profile; `None` for a `none` or `server`
/// request.
fn inline_profile(spec: &ProfileSpec) -> Result<Option<ProfileDb>, String> {
    match spec {
        ProfileSpec::Text(text) => ProfileDb::from_text(text)
            .map(Some)
            .map_err(|e| format!("bad profile: {e}")),
        ProfileSpec::None | ProfileSpec::Server => Ok(None),
    }
}

/// Compiles a source-index hit that the result cache could not answer:
/// the front end and, for an inline profile, its parse. A `server`
/// request keeps the aggregate `profile` its compile phase resolved.
/// Returns the program, the profile and the profile's canonical text.
fn late_compile(
    shared: &Shared,
    req: &OptimizeRequest,
    profile: Option<ProfileDb>,
) -> Result<(Program, Option<ProfileDb>, String), (&'static str, String)> {
    let program = front_end(shared, &req.source)?;
    let profile = match req.profile {
        ProfileSpec::Server => profile,
        _ => inline_profile(&req.profile).map_err(|msg| ("profile", msg))?,
    };
    let profile_text = profile.as_ref().map(ProfileDb::to_text).unwrap_or_default();
    Ok((program, profile, profile_text))
}

/// The profile text a request key hashes. Equivalent profile texts key
/// on their one canonical rendering, so they address the same result. A
/// `server` request keys on a fixed marker instead of the aggregate: the
/// entry must be *found* across profile drift so the drift check can
/// decide hit vs stale, and it must never collide with a profile-free
/// request.
fn key_profile_text(server_mode: bool, profile_text: &str) -> &str {
    if server_mode {
        SERVER_PROFILE_MARKER
    } else {
        profile_text
    }
}

/// The debug oracle: the keys a source-index hit reads must equal the
/// ones a fresh compile of the same request derives. A mismatch means the
/// digest left out an input the keys depend on. The compile bypasses the
/// module store, so the oracle does not trust it.
#[cfg(debug_assertions)]
fn check_indexed_keys(req: &OptimizeRequest, entry: &SourceEntry) {
    let program = match &req.source {
        SourceKind::Minc(mods) => {
            let refs: Vec<(&str, &str)> =
                mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
            hlo_frontc::compile(&refs).map_err(compile_failed)
        }
        SourceKind::Ir(text) => ir_program(text),
    }
    .unwrap_or_else(|(_, msg)| panic!("source index holds a request that fails: {msg}"));
    let rendered = ProgramText::render(&program);
    let profile = inline_profile(&req.profile).expect("an indexed profile parses");
    let profile_text = profile.as_ref().map(ProfileDb::to_text).unwrap_or_default();
    let server_mode = matches!(req.profile, ProfileSpec::Server);
    let key = request_key_of(
        &program,
        &rendered,
        &req.options,
        key_profile_text(server_mode, &profile_text),
        &mut CallGraphCache::new(),
    );
    let program_key = hlo_pgo::program_key_of_text(rendered.as_str());
    if program_key != entry.program_key
        || key.program != entry.key.program
        || key.funcs != entry.key.funcs
    {
        panic!(
            "source index is stale: it holds program key {} and request key {:016x}, \
             but a fresh compile gives {} and {:016x}",
            entry.program_key, entry.key.program, program_key, key.program
        );
    }
}

/// Optimizes a program the cache could not serve whole: probe the
/// partition store per call-graph partition and hand
/// [`hlo::optimize_partial`] a plan that splices every hit byte-for-byte;
/// only invalidated partitions run the pipeline. The rebuilt partitions
/// the build hands back go into the store under their keys, so the next
/// edit's unchanged partitions keep hitting; spliced ones are already
/// there. Any refusal — the request is not partition-cacheable, or the
/// spliced result fails IR verification — falls back to a plain full
/// [`hlo::optimize`] and is counted (`incr_fallback`).
#[allow(clippy::too_many_arguments)] // the request's full context
fn optimize_miss(
    shared: &Arc<Shared>,
    program: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    key: &RequestKey,
    profile_salt: u64,
    cg: &mut CallGraphCache,
    outcome: &mut CacheOutcome,
    tracer: &mut Tracer,
    trace_id: &str,
) -> hlo::HloReport {
    let note_fallback = |shared: &Arc<Shared>, reason: &str| {
        shared.metrics.inc("incr_fallback_total");
        shared.events.emit(
            &Event::new(EventLevel::Warn, "incr.fallback")
                .field("ts", event_ts(shared))
                .field("id", id_field(trace_id))
                .field("reason", reason),
        );
    };
    match incremental::eligible_partitions(program, opts, cg) {
        Ok(partitions) => {
            let pkeys = incremental::partition_keys(program, &partitions, &key.funcs, profile_salt);
            let plan: Vec<PartitionAction> = {
                let mut cache = shared.cache.lock().unwrap();
                pkeys
                    .iter()
                    .map(|&k| match cache.probe_partition(k) {
                        Some(stored) => PartitionAction::Reuse(stored),
                        None => PartitionAction::Rebuild,
                    })
                    .collect()
            };
            let hits = plan
                .iter()
                .filter(|a| matches!(a, PartitionAction::Reuse(_)))
                .count() as u64;
            let rebuilds = pkeys.len() as u64 - hits;
            // Splicing stored bodies is the only step that can go
            // wrong at request time; keep the input around so a
            // verification failure can rebuild from scratch. A plan
            // with no hits *is* a from-scratch build — nothing to
            // verify or restore.
            let backup = (hits > 0).then(|| program.clone());
            let out = hlo::optimize_partial(program, profile, opts, Some(plan), tracer);
            if hits == 0 || hlo_ir::verify_program(program).is_ok() {
                outcome.partition_hits = hits;
                outcome.partition_rebuilds = rebuilds;
                // A build that renamed globals mutated state outside its
                // partitions' bodies — its outputs are not pure functions
                // of their partitions, so they must not seed future
                // splices.
                if !out.globals_mutated {
                    let mut cache = shared.cache.lock().unwrap();
                    for (&k, stored) in pkeys.iter().zip(out.rebuilt) {
                        if let Some(stored) = stored {
                            cache.insert_partition(k, stored);
                        }
                    }
                }
                shared.metrics.add("incr_partition_hits_total", hits);
                shared
                    .metrics
                    .add("incr_partition_rebuilds_total", rebuilds);
                return out.report;
            }
            *program = backup.expect("hits > 0 implies a backup was taken");
            outcome.incr_fallback = true;
            note_fallback(shared, "verify");
        }
        Err(_reason) => {
            outcome.incr_fallback = true;
            note_fallback(shared, "ineligible");
        }
    }
    hlo::optimize_traced(program, profile, opts, tracer)
}

/// The fixed profile component of a `profile: server` cache key. The
/// entry must stay addressable while the aggregate drifts (staleness is
/// decided by the drift check, not by key mismatch), and the marker can
/// never equal a canonical profile text, so server-mode and inline-text
/// requests cannot collide.
const SERVER_PROFILE_MARKER: &str = "profile-mode server\n";

/// Executes the optimized program once on the bytecode tier with `arg`
/// and summarizes the outcome on one line. The run feeds the daemon's
/// per-tier VM metrics; a trap (or unparsable IR, which cannot happen for
/// text the daemon just produced) is reported in the summary, never as a
/// request failure.
fn train_run(ir_text: &str, arg: i64, metrics: &MetricsRegistry) -> String {
    let program = match hlo_ir::parse_program_text(ir_text) {
        Ok(p) => p,
        Err(e) => return format!("error: bad optimized IR: {e}"),
    };
    let opts = hlo_vm::ExecOptions {
        tier: hlo_vm::Tier::Bytecode,
        ..Default::default()
    };
    let mut monitor = hlo_vm::NullMonitor;
    match hlo_vm::run_with_monitor_metrics(&program, &[arg], &opts, &mut monitor, metrics) {
        Ok(out) => format!(
            "ret {} retired {} output {} checksum {:#x}",
            out.ret,
            out.retired,
            out.output.len(),
            out.checksum
        ),
        Err(t) => format!("trap: {t}"),
    }
}

fn error_frame(msg: &str) -> Frame {
    let mut s = Sections::new();
    s.push("message", msg);
    Frame::new(Kind::Error, &s)
}

/// Persists the store snapshot when the daemon was given a path. Called
/// with the store lock held so snapshots hit the disk in mutation order;
/// an I/O failure is counted, not fatal — the in-memory aggregate stays
/// authoritative.
fn persist_store(shared: &Arc<Shared>, store: &ProfileStore) {
    if let Some(path) = &shared.cfg.pgo_store_path {
        if let Err(e) = store.save(path) {
            shared.metrics.inc("pgo_persist_errors_total");
            shared.events.emit(
                &Event::new(EventLevel::Error, "pgo.save-error")
                    .field("ts", event_ts(shared))
                    .field("path", path.display())
                    .field("error", e),
            );
        }
    }
}

/// Handles one `profile-push`: parse, validate, merge into the program's
/// aggregate, persist. Every refusal leaves the store untouched.
fn profile_push_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    let fail = |msg: String| {
        shared.metrics.inc("errors_total");
        error_frame(&msg)
    };
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return fail(format!("bad push payload: {e}")),
    };
    let req = match ProfilePushRequest::from_sections(&sections) {
        Ok(r) => r,
        Err(e) => return fail(format!("bad push request: {e}")),
    };
    let delta = match ProfileDb::from_text(&req.delta) {
        Ok(d) => d,
        Err(e) => return fail(format!("bad profile delta: {e}")),
    };
    let mut store = shared.pgo.lock().unwrap();
    if req.advance > 0 {
        // Validates the key and that the program is known; the merge
        // below can no longer fail after this succeeds.
        if let Err(e) = store.advance(&req.program, req.advance) {
            drop(store);
            return fail(format!("push refused: {e}"));
        }
    }
    let outcome = match store.push(&req.program, &delta) {
        Ok(o) => o,
        Err(e) => {
            drop(store);
            return fail(format!("push refused: {e}"));
        }
    };
    persist_store(shared, &store);
    drop(store);
    shared.metrics.inc("pgo_push_total");
    let out = ProfilePushOutcome {
        generation: outcome.generation,
        pushes: outcome.pushes,
        functions: outcome.functions,
        resident_bytes: outcome.resident_bytes,
    };
    let mut s = Sections::new();
    s.push("ack", out.to_text());
    Frame::new(Kind::ProfilePushAck, &s)
}

/// Handles one `profile-stats`: store-wide counters plus, when the
/// request names a program, that program's merged aggregate text.
fn profile_stats_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    use std::fmt::Write as _;
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return error_frame(&format!("bad stats payload: {e}")),
    };
    let store = shared.pgo.lock().unwrap();
    let mut s = Sections::new();
    if let Some(raw) = sections.get("program") {
        let key = match std::str::from_utf8(raw) {
            Ok(k) => k.trim(),
            Err(_) => return error_frame("program key is not UTF-8"),
        };
        match store.aggregate(key) {
            Some(agg) => {
                s.push("profile", agg.db().to_text());
            }
            None => {
                return error_frame(&if hlo_pgo::is_valid_key(key) {
                    format!("unknown program key `{key}`")
                } else {
                    format!("bad program key `{key}` (want 16 lowercase hex)")
                })
            }
        }
    }
    let st = store.stats();
    let mut text = String::new();
    let _ = writeln!(text, "programs {}", st.programs);
    let _ = writeln!(text, "bytes {}", st.resident_bytes);
    let _ = writeln!(text, "pushes {}", st.pushes);
    let _ = writeln!(text, "evictions {}", st.evictions);
    for key in store.keys() {
        let agg = store.aggregate(&key).expect("listed key is resident");
        let _ = writeln!(
            text,
            "program {key} {} {} {} {}",
            agg.generation,
            agg.pushes,
            agg.db().len(),
            agg.resident_bytes()
        );
    }
    drop(store);
    s.push("stats", text);
    Frame::new(Kind::ProfileStatsReply, &s)
}

/// Handles one `trace-fetch`: look up a previously stored request trace
/// by its client-minted id and reply with the rendered span tree,
/// decision report, Chrome JSON, cache outcome, and per-phase timings.
/// Traces live in a bounded in-memory ring, so a sufficiently old id is
/// simply gone — that is an error reply, not a crash.
fn trace_fetch_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return error_frame(&format!("bad trace-fetch payload: {e}")),
    };
    let id = match sections.get("trace-id").map(std::str::from_utf8) {
        Some(Ok(id)) => id.trim().to_string(),
        Some(Err(_)) => return error_frame("trace id is not UTF-8"),
        None => return error_frame("trace-fetch needs a `trace-id` section"),
    };
    if !crate::valid_trace_id(&id) {
        return error_frame(&format!("bad trace id `{id}` (want 16 lowercase hex)"));
    }
    let traces = shared.traces.lock().unwrap();
    // Newest first: if the same id was (unwisely) reused, the most
    // recent request wins.
    match traces.iter().rev().find(|t| t.trace_id == id) {
        Some(t) => Frame::new(Kind::TraceReply, &t.to_sections()),
        None => error_frame(&format!(
            "no stored trace for id `{id}` (daemon keeps the last {})",
            shared.cfg.trace_cap.max(1)
        )),
    }
}

/// Handles one `flight-dump`: serialize the flight recorder's ring of
/// recent request summaries. Always answerable — the recorder is always
/// on — so an empty dump means the daemon genuinely served nothing yet.
fn flight_dump_frame(shared: &Arc<Shared>) -> Frame {
    let mut s = Sections::new();
    s.push("flight", shared.flight.dump_text());
    s.push("admitted", format!("{}\n", shared.flight.admitted()));
    Frame::new(Kind::FlightReply, &s)
}

/// Publishes as gauges the numbers other structures own — cache,
/// partition-store and profile-store occupancy, the flight recorder and
/// trace ring lengths, the event count, and each request phase's
/// p50/p95/p99 from its histogram's sketch — then returns the metrics
/// exposition. `stats` and `metrics` both answer from it.
fn exposition(shared: &Shared) -> String {
    let metrics = &shared.metrics;
    let gauge = |name: &str, value: u64| metrics.set_gauge(name, value as i64);
    {
        let cache = shared.cache.lock().unwrap();
        gauge("cache_entries", cache.entries());
        gauge("cache_resident_bytes", cache.resident_bytes());
        gauge("partition_entries", cache.partition_entries());
    }
    let pgo = shared.pgo.lock().unwrap().stats();
    gauge("pgo_programs", pgo.programs);
    gauge("pgo_resident_bytes", pgo.resident_bytes);
    gauge("flight_records", shared.flight.len() as u64);
    gauge("traces_stored", shared.traces.lock().unwrap().len() as u64);
    gauge("events_emitted", shared.events.emitted());
    for phase in REQUEST_PHASES {
        for (suffix, permille) in [("p50", 500), ("p95", 950), ("p99", 990)] {
            gauge(
                &format!("request_{phase}_{suffix}_us"),
                metrics.quantile(&phase_metric(phase), permille),
            );
        }
    }
    metrics.expose()
}

/// The `stats` reply as a rendering of the metrics exposition: one
/// `(stats line, series)` pair per printed value, in reply order.
/// Consecutive pairs that share a line name print on one line, their
/// values in table order; a `<stage>` series prints one line per stage
/// label in the exposition, sorted by stage name, and a `<phase>` series
/// one line per [`REQUEST_PHASES`] entry. An absent series reads 0.
/// DESIGN.md §16 documents every pair.
pub const STATS_SERIES: &[(&str, &str)] = &[
    ("requests", "requests_total"),
    ("busy", "busy_total"),
    ("errors", "errors_total"),
    ("deadline_missed", "deadline_missed_total"),
    ("hits", "cache_hits_total"),
    ("misses", "cache_misses_total"),
    ("stale_hits", "pgo_reoptimize_total"),
    ("source_hits", "cache_source_hits_total"),
    ("module_hits", "cache_module_hits_total"),
    ("evictions", "cache_evictions"),
    ("func_hits", "cache_func_hits_total"),
    ("func_misses", "cache_func_misses_total"),
    ("entries", "cache_entries"),
    ("cache_bytes", "cache_resident_bytes"),
    ("partition_hits", "incr_partition_hits_total"),
    ("partition_rebuilds", "incr_partition_rebuilds_total"),
    ("incr_fallbacks", "incr_fallback_total"),
    ("partition_entries", "partition_entries"),
    ("pgo_pushes", "pgo_push_total"),
    ("reoptimizations", "pgo_reoptimize_total"),
    ("slow_requests", "slow_requests_total"),
    ("flight_records", "flight_records"),
    ("traces_stored", "traces_stored"),
    ("events_emitted", "events_emitted"),
    ("pgo_programs", "pgo_programs"),
    ("pgo_bytes", "pgo_resident_bytes"),
    ("stage", "stage_wall_us_total{stage=\"<stage>\"}"),
    ("latency", "request_<phase>_us_count"),
    ("latency", "request_<phase>_us_sum"),
    ("quantile", "request_<phase>_p50_us"),
    ("quantile", "request_<phase>_p95_us"),
    ("quantile", "request_<phase>_p99_us"),
];

/// Renders the `stats` text from a metrics exposition through
/// [`STATS_SERIES`], after an `uptime_ms` line. A pure function, so
/// `stats` cannot disagree with a `metrics` scrape of the same moment.
///
/// # Errors
/// The exposition does not parse ([`parse_exposition`]).
pub fn stats_text(exposition: &str, uptime_ms: u64) -> Result<String, String> {
    use std::fmt::Write as _;
    let series: HashMap<String, i128> = parse_exposition(exposition)?.into_iter().collect();
    let mut text = format!("uptime_ms {uptime_ms}\n");
    for pairs in STATS_SERIES.chunk_by(|a, b| a.0 == b.0) {
        let (line, first) = pairs[0];
        let keys: Vec<&str> = if first.contains("<phase>") {
            REQUEST_PHASES.to_vec()
        } else if let Some((before, after)) = first.split_once("<stage>") {
            let mut stages: Vec<&str> = series
                .keys()
                .filter_map(|name| name.strip_prefix(before)?.strip_suffix(after))
                .collect();
            stages.sort_unstable();
            stages
        } else {
            vec![""]
        };
        for key in keys {
            text.push_str(line);
            if !key.is_empty() {
                let _ = write!(text, " {key}");
            }
            for (_, template) in pairs {
                let name = template.replace("<phase>", key).replace("<stage>", key);
                let _ = write!(text, " {}", series.get(&name).copied().unwrap_or(0));
            }
            text.push('\n');
        }
    }
    Ok(text)
}

fn stats_frame(shared: &Arc<Shared>) -> Frame {
    let uptime_ms = shared.started.elapsed().as_millis() as u64;
    match stats_text(&exposition(shared), uptime_ms) {
        Ok(text) => {
            let mut s = Sections::new();
            s.push("stats", text);
            Frame::new(Kind::StatsReply, &s)
        }
        Err(e) => error_frame(&format!("stats: {e}")),
    }
}

/// Answers a `metrics` request with the full Prometheus-style text
/// exposition.
fn metrics_frame(shared: &Arc<Shared>) -> Frame {
    let mut s = Sections::new();
    s.push("metrics", exposition(shared));
    Frame::new(Kind::MetricsReply, &s)
}

/// Flush helper for `hlod`'s startup banner; kept here so the binary
/// stays a thin argument parser.
pub fn banner(addr: SocketAddr, cfg: &ServeConfig) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "hlod listening on {addr} ({} requests at once, {} may wait, cache {} programs)",
        effective_jobs(cfg.workers),
        cfg.queue_cap,
        cfg.cache_cap
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeStats;

    #[test]
    fn effective_jobs_zero_means_hardware() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    const GATE_SOURCES: &[(&str, &str)] = &[(
        "m",
        "static fn sq(x) { return x * x; }
         fn main(n) { return sq(n) + 1; }",
    )];

    fn gate_request() -> OptimizeRequest {
        OptimizeRequest::from_minc(
            GATE_SOURCES
                .iter()
                .map(|(n, s)| (n.to_string(), s.to_string()))
                .collect(),
        )
    }

    /// A daemon with one slot and room for three waiting tickets.
    fn spawn_one_slot() -> Server {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 3,
            ..ServeConfig::default()
        };
        Server::spawn("127.0.0.1:0", cfg).unwrap()
    }

    /// Takes a slot through the gate as a request does: a ticket, then
    /// the wait for the head of the line and a free slot.
    fn hold_slot(gate: &Gate) -> Slot<'_> {
        let mut line = gate.lock();
        let ticket = line.dealt;
        line.dealt += 1;
        gate.take_slot(line, ticket)
    }

    /// Spins until `n` tickets wait at `gate`; a minute without that fails.
    fn await_waiting(gate: &Gate, n: u64) {
        let give_up = Instant::now() + Duration::from_secs(60);
        while gate.lock().waiting() < n {
            assert!(Instant::now() < give_up, "{n} tickets never waited");
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_gate_runs_requests_in_arrival_order() {
        let server = spawn_one_slot();
        let addr = server.local_addr();
        let gate = &server.shared.gate;
        let held = hold_slot(gate);
        let ids = ["00000000000000b1", "00000000000000b2", "00000000000000b3"];
        let senders: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let req = OptimizeRequest {
                    trace_id: Some(id.to_string()),
                    ..gate_request()
                };
                let sender =
                    std::thread::spawn(move || crate::Client::connect(addr)?.optimize(&req));
                await_waiting(gate, i as u64 + 1);
                sender
            })
            .collect();
        // The line is full, so the next arrival is refused at once; one
        // let in would wait for the held slot, so the read is bounded.
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Frame::new(Kind::Optimize, &gate_request().to_sections())
            .write_to(&mut extra)
            .unwrap();
        let refusal = Frame::read_from(&mut extra, DEFAULT_MAX_PAYLOAD).expect("a prompt answer");
        assert_eq!(refusal.kind, Kind::Busy);
        drop(held);
        for sender in senders {
            sender.join().unwrap().unwrap();
        }
        let order: Vec<String> = server
            .shared
            .flight
            .dump()
            .into_iter()
            .filter(|r| r.outcome != "refused")
            .map(|r| r.trace_id)
            .collect();
        assert_eq!(order, ids);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn a_slot_is_freed_when_its_holder_unwinds() {
        let server = spawn_one_slot();
        let shared = Arc::clone(&server.shared);
        let holder = std::thread::spawn(move || {
            let _slot = hold_slot(&shared.gate);
            // Unwind with the gate's lock held too, so the slot is freed
            // through a poisoned lock.
            let _line = shared.gate.lock();
            panic!("planted panic while holding a slot");
        });
        assert!(holder.join().is_err());
        assert!(server.shared.gate.line.is_poisoned());
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        assert!(!client.optimize(&gate_request()).unwrap().ir_text.is_empty());
        client.shutdown().unwrap();
        server.wait();
    }

    /// Debug builds check every source-index hit against a fresh compile,
    /// so an entry planted with keys no compile gives makes the request
    /// panic partway through.
    #[cfg(debug_assertions)]
    #[test]
    fn a_request_that_panics_is_answered_and_frees_its_slot() {
        let server = spawn_one_slot();
        let req = gate_request();
        server.shared.cache.lock().unwrap().insert_source(
            source_digest(&req),
            SourceEntry {
                key: RequestKey {
                    program: 0,
                    funcs: Vec::new(),
                },
                program_key: "0000000000000000".to_string(),
            },
        );
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        match client.optimize(&req) {
            Err(crate::ServeError::Remote(msg)) => assert_eq!(msg, "worker dropped the request"),
            other => panic!("expected the panic's error reply, got {other:?}"),
        }
        assert_eq!(server.shared.gate.lock().running, 0);
        // The panic is counted and flight-recorded as a failed request.
        let st = client.stats().unwrap();
        assert_eq!((st.requests, st.errors), (1, 1));
        let records = server.shared.flight.dump();
        assert_eq!(records.len(), 1);
        assert_eq!(
            (records[0].outcome.as_str(), records[0].reason.as_str()),
            ("error", "panic")
        );
        let other = OptimizeRequest::from_minc(vec![(
            "m".to_string(),
            "fn main(n) { return n + 2; }".to_string(),
        )]);
        assert!(!client.optimize(&other).unwrap().ir_text.is_empty());
        client.shutdown().unwrap();
        server.wait();
    }

    /// Debug builds re-parse every module the store hands out, so a wrong
    /// AST planted under a module's digest makes the request panic; the
    /// panic is answered like any other.
    #[cfg(debug_assertions)]
    #[test]
    fn a_stale_module_store_entry_panics_only_its_request() {
        let server = spawn_one_slot();
        let (name, src) = GATE_SOURCES[0];
        let wrong = Arc::new(hlo_frontc::parse_module(name, "fn main(n) { return n; }").unwrap());
        let digest = module_digest(name, src);
        for _ in 0..2 {
            let mut cache = server.shared.cache.lock().unwrap();
            cache.record_modules([(digest, Arc::clone(&wrong))]);
        }
        let mods = [(name.to_string(), src.to_string())];
        let payload = catch_unwind(AssertUnwindSafe(|| parse_and_link(&server.shared, &mods)))
            .expect_err("the oracle catches the planted AST");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("parsed-module store is stale for `m`")
        );

        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        match client.optimize(&gate_request()) {
            Err(crate::ServeError::Remote(msg)) => assert_eq!(msg, "worker dropped the request"),
            other => panic!("expected the panic's error reply, got {other:?}"),
        }
        let other = OptimizeRequest::from_minc(vec![(
            "n".to_string(),
            "fn main(n) { return n + 2; }".to_string(),
        )]);
        assert!(!client.optimize(&other).unwrap().ir_text.is_empty());
        let st = client.stats().unwrap();
        assert_eq!((st.requests, st.errors, st.module_hits), (2, 1, 2));
        client.shutdown().unwrap();
        server.wait();
    }

    /// An index entry whose result was evicted. One client cannot leave
    /// this state: each result insert comes with an index insert or hit,
    /// and the index is bounded like the results. It takes a second request
    /// running at the same time, whose miss lands between this request's
    /// index insert and its result insert, so the test plants that
    /// request's insert directly.
    #[test]
    fn an_index_hit_whose_result_was_evicted_compiles_late() {
        let srcs = [(
            "m",
            "static fn sq(x) { return x * x; }
             static fn pick(x) { if (x % 3 == 0) { return sq(x); } return x + 1; }
             fn main(n) { var s = 0;
                 for (var i = 0; i < n; i = i + 1) { s = s + pick(i); }
                 return s; }",
        )];
        let program = hlo_frontc::compile(&srcs).unwrap();
        let opts = hlo_vm::ExecOptions::default();
        let (profile, _) = hlo_profile::collect_profile(&program, &[30], &opts).unwrap();
        let optimized = |profile| {
            let mut p = program.clone();
            hlo::optimize(&mut p, profile, &HloOptions::default());
            hlo_ir::program_to_text(&p)
        };
        let expect = optimized(Some(&profile));
        assert_ne!(
            expect,
            optimized(None),
            "the late compile must keep the profile"
        );
        let cfg = ServeConfig {
            workers: 1,
            cache_cap: 1,
            ..ServeConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", cfg).unwrap();
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        let sources = srcs.map(|(n, s)| (n.to_string(), s.to_string())).to_vec();
        let mut req = OptimizeRequest {
            profile: ProfileSpec::Text(profile.to_text()),
            ..OptimizeRequest::from_minc(sources)
        };
        client.optimize(&req).unwrap();
        let evicted = server.shared.cache.lock().unwrap().insert(
            &RequestKey {
                program: 0,
                funcs: Vec::new(),
            },
            CachedResult {
                ir_text: String::new(),
                report_text: String::new(),
                profile_text: String::new(),
            },
        );
        assert_eq!(evicted, 1);

        let id = crate::mint_trace_id();
        req.trace_id = Some(id.clone());
        let late = client.optimize(&req).unwrap();
        assert!(!late.outcome.hit && !late.outcome.stale);
        assert_eq!(
            late.ir_text, expect,
            "a late compile gives the in-process bytes"
        );
        let st = client.stats().unwrap();
        assert_eq!((st.hits, st.misses, st.source_hits), (0, 2, 1));
        // The late front end counts under `optimize`, so the phases still
        // sum to the wall time.
        let trace = client.trace_fetch(&id).unwrap();
        let names: Vec<&str> = trace.phases.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(names, REQUEST_PHASES);
        assert_eq!(
            trace.phases.iter().map(|(_, us)| us).sum::<u64>(),
            trace.wall_us
        );

        // The result is back, under the same index entry.
        let again = client.optimize(&req).unwrap();
        assert!(again.outcome.hit);
        assert_eq!(again.ir_text, expect);
        assert_eq!(client.stats().unwrap().source_hits, 2);
        client.shutdown().unwrap();
        server.wait();
    }

    #[test]
    fn stats_text_renders_the_exposition_through_the_table() {
        // An empty exposition: every scalar line in reply order reading 0,
        // no stage line, and one latency and one quantile line per phase.
        let empty = stats_text("", 7).unwrap();
        let names: Vec<&str> = empty
            .lines()
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "uptime_ms",
                "requests",
                "busy",
                "errors",
                "deadline_missed",
                "hits",
                "misses",
                "stale_hits",
                "source_hits",
                "module_hits",
                "evictions",
                "func_hits",
                "func_misses",
                "entries",
                "cache_bytes",
                "partition_hits",
                "partition_rebuilds",
                "incr_fallbacks",
                "partition_entries",
                "pgo_pushes",
                "reoptimizations",
                "slow_requests",
                "flight_records",
                "traces_stored",
                "events_emitted",
                "pgo_programs",
                "pgo_bytes",
                "latency",
                "latency",
                "latency",
                "latency",
                "latency",
                "quantile",
                "quantile",
                "quantile",
                "quantile",
                "quantile",
            ]
        );
        assert!(empty.starts_with("uptime_ms 7\nrequests 0\n"), "{empty}");
        assert!(empty.lines().skip(1).all(|l| l.ends_with(" 0")), "{empty}");
        assert!(empty
            .contains("latency queue_wait 0 0\nlatency compile 0 0\nlatency cache_probe 0 0\n"));
        assert!(empty.contains("quantile reply 0 0 0\n"));

        // Labeled stage series come out sorted by stage name, and one
        // reoptimization count backs two lines.
        let m = MetricsRegistry::new();
        m.add("stage_wall_us_total{stage=\"inline.plan\"}", 30);
        m.add("stage_wall_us_total{stage=\"annotate\"}", 5);
        m.inc("pgo_reoptimize_total");
        m.observe("request_optimize_us", LATENCY_BUCKETS_US, 900);
        m.set_gauge("request_optimize_p99_us", 1000);
        let text = stats_text(&m.expose(), 0).unwrap();
        assert!(text.contains("stale_hits 1\n"), "{text}");
        assert!(text.contains("reoptimizations 1\n"), "{text}");
        assert!(text.contains("latency optimize 1 900\n"), "{text}");
        assert!(text.contains("quantile optimize 0 0 1000\n"), "{text}");
        let st = ServeStats::from_text(&text).unwrap();
        assert_eq!(
            st.stages,
            vec![("annotate".to_string(), 5), ("inline.plan".to_string(), 30)]
        );
        assert_eq!((st.hits, st.misses), (0, 0));

        assert!(stats_text("not an exposition\n", 0).is_err());
    }
}
