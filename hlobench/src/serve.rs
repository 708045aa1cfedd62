//! The daemon workloads: `serve-warm` and `serve-churn`.
//!
//! Both drive an in-process `hlo-serve` daemon (one worker) from one
//! client connection in a closed loop: the client sends its next request
//! once the previous answer is in, as a build tool waiting on its build
//! does. A request's latency runs from writing it to reading its answer.
//! On the 2-vCPU guest the benchmark was built on, any idle time in the
//! loop made the latencies measure the host instead of the daemon. An
//! open loop (Poisson arrivals over two connections to two workers)
//! queued requests behind each other whenever the host slowed: across ten
//! seeds its p50 spread 18–24% (interquartile range over median). One
//! connection paced to a fixed rate let the vCPUs go idle between
//! requests, and its p99 then measured how long they took to wake: it
//! spread 78%.

use crate::host::{sliced, HostClock};
use crate::layers::{
    combine, flatten_daemon, summarize_references, timed, trace_overhead_pct, FlatSpan, Layers,
    Reference,
};
use crate::report::{ms_since, peak_rss_mb, repeat_setup, report_timings, us_since, Outcome};
use crate::stats::{pct_or_zero, Deck, Rng, BLOCKS};
use crate::{Run, RunCfg, TRACE_EVERY};
use hlo::{CallGraphCache, HloOptions, Scope, Tracer};
use hlo_ir::Program;
use hlo_profile::{collect_profile, ProfileDb};
use hlo_serve::cache::request_key;
use hlo_serve::wire::Sections;
use hlo_serve::{
    incremental, CachedResult, Client, OptimizeRequest, OptimizeResponse, ProfilePushRequest,
    ProfileSpec, ResultCache, ServeConfig, ServeStats, Server, SourceKind,
};
use hlo_vm::ExecOptions;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Modules of the edit program; an edit touches one, so the daemon
/// splices the other 23 partitions and rebuilds one.
const EDIT_MODULES: usize = 24;
/// Tail quantiles. `serve-warm`'s p95 is its edits' upper quartile;
/// above it, the tail spread 22–43% across seeds in a noisy hour of the
/// host, where p95 spread 6–7%. `serve-churn`'s p98 spread 2–5%.
const WARM_TAIL: f64 = 0.95;
const CHURN_TAIL: f64 = 0.98;
/// Requests per second of the measured phase after which `peak_rss_mb`
/// is read. The daemon's partition store keeps growing through a run
/// (to 8192 entries), so peak memory read at the end followed how many
/// requests the host's speed let a run send; read after a fixed count,
/// it spreads under 1.5% across seeds. The slowest baseline runs sent 193
/// (`serve-churn`) and 718 (`serve-warm`) requests per second.
const RSS_RATE: f64 = 100.0;
/// Request mixes, dealt from shuffled decks of ten: `serve-warm` repeats
/// a warmed suite request 8 times in 10 (the rest edit the edit program);
/// `serve-churn` sends a unique program 7 times in 10 (the rest push
/// profiles).
const WARM_MIX: [usize; 2] = [8, 2];
const CHURN_MIX: [usize; 2] = [7, 3];
/// Every n-th edit or miss is rebuilt in-process after timing and must
/// match the daemon's answer byte for byte.
const DEFERRED_EVERY: usize = 10;
/// Daemon traces grafted into the Chrome trace; further traced requests
/// still feed the layer timings, keeping the file small.
const MAX_TRACE_PARTS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Edit,
    Miss,
    Push,
}

impl Class {
    /// Latency objective, ms.
    fn slo_ms(self) -> f64 {
        match self {
            Class::Hit => 5.0,
            Class::Edit | Class::Push => 25.0,
            Class::Miss => 100.0,
        }
    }
}

/// What a request sends. Edits and misses are built when sent, so the
/// record of thousands of requests holds no sources.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// The warmed request of suite program `i`.
    Hit(usize),
    /// The edit program with module `module`'s leaf constant set to `k`.
    Edit { module: usize, k: i64 },
    /// Suite program `program` with `global hlobench_k = k;` appended to
    /// its `main` module.
    Miss { program: usize, k: i64 },
    /// A trained profile delta for suite program `program`: for its miss
    /// with constant `miss_k`, or, with `None`, for the program as set-up
    /// optimized it.
    Push { program: usize, miss_k: Option<i64> },
}

impl Payload {
    fn class(self) -> Class {
        match self {
            Payload::Hit(_) => Class::Hit,
            Payload::Edit { .. } => Class::Edit,
            Payload::Miss { .. } => Class::Miss,
            Payload::Push { .. } => Class::Push,
        }
    }
}

struct Planned {
    payload: Payload,
    /// Re-optimized in-process after timing and compared.
    deferred: bool,
    trace_id: Option<String>,
}

/// Everything a planned request refers to.
struct Traffic<'a> {
    suite: &'a [SuiteEntry],
    /// Each suite program's module that defines `main` (misses only).
    main_module: &'a [usize],
}

impl<'a> Traffic<'a> {
    /// The optimize request `p` sends (`None` for a push).
    fn request(&self, p: &Planned) -> Option<Cow<'a, OptimizeRequest>> {
        let mut req = match p.payload {
            Payload::Push { .. } => return None,
            Payload::Hit(i) => Cow::Borrowed(&self.suite[i].request),
            Payload::Edit { module, k } => {
                Cow::Owned(edit_request(edit_sources(Some((module, k)))))
            }
            Payload::Miss { program, k } => Cow::Owned(self.miss(program, k)),
        };
        if let Some(id) = &p.trace_id {
            req.to_mut().trace_id = Some(id.clone());
        }
        Some(req)
    }

    /// Suite program `program` with `global hlobench_k = k;` appended to
    /// its `main` module.
    fn miss(&self, program: usize, k: i64) -> OptimizeRequest {
        let base = &self.suite[program].request;
        let mut sources = own(&self.suite[program].bench.sources);
        sources[self.main_module[program]]
            .1
            .push_str(&format!("\nglobal hlobench_k = {k};\n"));
        OptimizeRequest {
            options: base.options.clone(),
            source: SourceKind::Minc(sources),
            profile: base.profile.clone(),
            deadline_ms: None,
            train_arg: None,
            trace_id: None,
        }
    }

    /// The profile push `program` and `miss_k` of a [`Payload::Push`]
    /// send: the program's trained profile, keyed by the program it
    /// profiles.
    fn push(&self, program: usize, miss_k: Option<i64>) -> Result<ProfilePushRequest, String> {
        let e = &self.suite[program];
        let key = match miss_k {
            None => hlo_pgo::program_key(&e.input),
            Some(k) => hlo_pgo::program_key(&compile_request(&self.miss(program, k))?.0),
        };
        Ok(ProfilePushRequest {
            program: key,
            delta: e.profile.to_text(),
            advance: 0,
        })
    }
}

/// One completed request.
struct Done {
    index: usize,
    /// The block of the measured phase it ran in.
    block: usize,
    /// From writing the request to reading its answer.
    answer_ms: f64,
    error: Option<String>,
    ir_hash: u64,
    /// Kept in traced runs for non-hit answers (their stage timings) and
    /// traced requests (their replay).
    response: Option<Box<OptimizeResponse>>,
}

/// A suite program as both serve workloads send it: CrossModule, default
/// options, its trained profile shipped as text.
struct SuiteEntry {
    bench: hlo_suite::Benchmark,
    input: Program,
    profile: ProfileDb,
    request: OptimizeRequest,
    truth: String,
}

impl SuiteEntry {
    fn reference(&self) -> Reference {
        Reference {
            name: self.bench.name.to_string(),
            input: self.input.clone(),
            profile: Some(self.profile.clone()),
            opts: HloOptions::default(),
            sim_args: Some(vec![self.bench.train_arg]),
            vm: ExecOptions::default(),
            expect_ir: self.truth.clone(),
        }
    }
}

fn suite_entries(collect_ms: &mut f64) -> Result<Vec<SuiteEntry>, String> {
    *collect_ms = 0.0;
    hlo_suite::all_benchmarks()
        .into_iter()
        .map(|bench| {
            let input = bench
                .compile()
                .map_err(|e| format!("{}: {e}", bench.name))?;
            let t = Instant::now();
            let (profile, _) = collect_profile(&input, &[bench.train_arg], &ExecOptions::default())
                .map_err(|e| format!("{}: training run trapped: {e:?}", bench.name))?;
            *collect_ms += ms_since(t);
            let mut p = input.clone();
            let _ = hlo::optimize(&mut p, Some(&profile), &HloOptions::default());
            let request = OptimizeRequest {
                profile: ProfileSpec::Text(profile.to_text()),
                ..OptimizeRequest::from_minc(own(&bench.sources))
            };
            Ok(SuiteEntry {
                truth: hlo_ir::program_to_text(&p),
                bench,
                input,
                profile,
                request,
            })
        })
        .collect()
}

fn own(sources: &[(&str, &str)]) -> Vec<(String, String)> {
    sources
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

/// The edit program: independent modules (one cache partition each) of a
/// leaf, a loop over it and an entry. `edit` replaces one module's leaf
/// constant.
fn edit_sources(edit: Option<(usize, i64)>) -> Vec<(String, String)> {
    (0..EDIT_MODULES)
        .map(|m| {
            let k = match edit {
                Some((e, k)) if e == m => k,
                _ => 7,
            };
            let src = format!(
                "static fn m{m}_leaf(x) {{ return x * 2 + {k}; }}
                 static fn m{m}_mid(x) {{ var s = 0;
                     for (var i = 0; i < 8; i = i + 1) {{ s = s + m{m}_leaf(x + i); }}
                     return s; }}
                 fn m{m}_entry(n) {{ return m{m}_mid(n) + m{m}_leaf(n); }}"
            );
            (format!("m{m}"), src)
        })
        .collect()
}

fn edit_request(sources: Vec<(String, String)>) -> OptimizeRequest {
    OptimizeRequest {
        options: HloOptions {
            scope: Scope::WithinModule,
            ..HloOptions::default()
        },
        ..OptimizeRequest::from_minc(sources)
    }
}

fn compile_request(req: &OptimizeRequest) -> Result<(Program, Option<ProfileDb>), String> {
    let SourceKind::Minc(mods) = &req.source else {
        return Err("the benchmark sends MinC sources only".to_string());
    };
    let refs: Vec<(&str, &str)> = mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let p = hlo_frontc::compile(&refs).map_err(|e| e.to_string())?;
    let profile = match &req.profile {
        ProfileSpec::Text(t) => Some(ProfileDb::from_text(t).map_err(|e| e.to_string())?),
        _ => None,
    };
    Ok((p, profile))
}

/// The optimized text an in-process build of `req` produces.
fn in_process(req: &OptimizeRequest) -> Result<String, String> {
    let (mut p, profile) = compile_request(req)?;
    let _ = hlo::optimize(&mut p, profile.as_ref(), &req.options);
    Ok(hlo_ir::program_to_text(&p))
}

/// An in-process daemon; dropping it drains it and waits for it, on
/// every path out of a run. Its profile store stays in memory: persisted
/// to the guest's disk, which it shares with its neighbours, every
/// registration and push waited on the disk (0.8 ms of `serve-churn`'s
/// 4.2 ms p50), and in one of two sets of ten runs that workload's p98
/// spread 36% across seeds.
struct Daemon {
    /// `Some` until dropped.
    server: Option<Server>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
    }
}

impl Daemon {
    fn spawn(cfg: &RunCfg) -> Result<Daemon, String> {
        let sc = ServeConfig {
            // One client sends one request at a time.
            workers: 1,
            // Every traced request's span tree must still be held when it
            // is fetched after timing.
            trace_cap: if cfg.traced { 1 << 14 } else { 64 },
            ..ServeConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", sc).map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon {
            server: Some(server),
        })
    }

    fn client(&self) -> Result<Client, String> {
        let server = self.server.as_ref().expect("a live daemon");
        Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))
    }
}

/// Sends a set-up request and checks it was a cold build matching `truth`.
fn warm_up(
    client: &mut Client,
    req: &OptimizeRequest,
    truth: &str,
    what: &str,
) -> Result<(), String> {
    let r = client
        .optimize(req)
        .map_err(|e| format!("{what}: set-up request failed: {e}"))?;
    if r.outcome.hit || r.ir_text != truth {
        return Err(format!("{what}: set-up answer is not the in-process build"));
    }
    Ok(())
}

/// A distinct constant per edit or miss of one run (so no request repeats
/// an earlier one and hits), offset by the seed.
fn constants(mut rng: Rng) -> impl FnMut() -> i64 {
    let mut next = 1000 + rng.below(1 << 20) as i64;
    move || {
        next += 1;
        next
    }
}

struct WarmState {
    daemon: Daemon,
    suite: Vec<SuiteEntry>,
    edit_truth: String,
    collect_ms: f64,
}

fn warm_setup(cfg: &RunCfg) -> Result<WarmState, String> {
    let mut collect_ms = 0.0;
    let suite = suite_entries(&mut collect_ms)?;
    let daemon = Daemon::spawn(cfg)?;
    let mut client = daemon.client()?;
    for e in &suite {
        warm_up(&mut client, &e.request, &e.truth, e.bench.name)?;
    }
    let base = edit_request(edit_sources(None));
    let edit_truth = in_process(&base)?;
    warm_up(&mut client, &base, &edit_truth, "edit program")?;
    Ok(WarmState {
        daemon,
        suite,
        edit_truth,
        collect_ms,
    })
}

/// `serve-warm`: read-heavy daemon traffic. 80% of requests repeat a
/// warmed suite request: whole-program hits. 20% edit one constant in
/// one module of the 24-module edit program (WithinModule): each splices
/// 23 cached partitions and rebuilds one.
pub fn serve_warm(cfg: &RunCfg, clock: &mut HostClock) -> Result<Run, String> {
    let (setup_s, st) = repeat_setup(clock, || warm_setup(cfg))?;
    let root = Rng::new(cfg.seed);
    let mut mix = Deck::new(root.fork(3), &WARM_MIX);
    let mut programs = Deck::of(root.fork(4), st.suite.len());
    let mut modules = Deck::of(root.fork(7), EDIT_MODULES);
    let mut next_k = constants(root.fork(6));
    let mut edits = 0usize;
    let next = || {
        if mix.draw() == 0 {
            return (Payload::Hit(programs.draw()), false);
        }
        edits += 1;
        let edit = Payload::Edit {
            module: modules.draw(),
            k: next_k(),
        };
        (edit, (edits - 1).is_multiple_of(DEFERRED_EVERY))
    };
    let suite = &st.suite;
    let check = |p: &Planned, r: &OptimizeResponse| -> Result<(), String> {
        let o = &r.outcome;
        match p.payload {
            Payload::Hit(i) if !o.hit || r.ir_text != suite[i].truth => Err(format!(
                "hit {}: answer is not the in-process truth",
                suite[i].bench.name
            )),
            Payload::Edit { .. }
                if o.hit
                    || o.partition_hits != EDIT_MODULES as u64 - 1
                    || o.partition_rebuilds != 1 =>
            {
                Err(format!(
                    "edit: hit {} partition_hits {} partition_rebuilds {}",
                    o.hit, o.partition_hits, o.partition_rebuilds
                ))
            }
            _ => Ok(()),
        }
    };
    let traffic = Traffic {
        suite,
        main_module: &[],
    };
    let m = drive(cfg, &st.daemon, clock, &traffic, &check, next)?;
    let mut out = Outcome::default();
    finish(&traffic, &m, clock, setup_s, WARM_TAIL, &mut out);
    let mut refs: Vec<Reference> = suite.iter().map(SuiteEntry::reference).collect();
    let base = edit_request(edit_sources(None));
    refs.push(Reference {
        name: "edit program".to_string(),
        input: compile_request(&base)?.0,
        profile: None,
        opts: base.options,
        sim_args: None,
        vm: ExecOptions::default(),
        expect_ir: st.edit_truth.clone(),
    });
    summarize_references(&refs, cfg.traced, &mut out);
    let trace = if cfg.traced {
        Some(layer_pass(
            &st.daemon,
            &traffic,
            &m,
            st.collect_ms,
            &mut out,
        )?)
    } else {
        None
    };
    Ok(Run { out, trace })
}

struct ChurnState {
    daemon: Daemon,
    suite: Vec<SuiteEntry>,
    /// Each program's module that defines `main`.
    main_module: Vec<usize>,
    collect_ms: f64,
}

fn churn_setup(cfg: &RunCfg) -> Result<ChurnState, String> {
    let mut collect_ms = 0.0;
    let suite = suite_entries(&mut collect_ms)?;
    let daemon = Daemon::spawn(cfg)?;
    let mut client = daemon.client()?;
    // Optimizing each program once registers it with the profile store,
    // which only accepts pushes for programs it has seen.
    for e in &suite {
        warm_up(&mut client, &e.request, &e.truth, e.bench.name)?;
    }
    let main_module = suite
        .iter()
        .map(|e| {
            e.bench
                .sources
                .iter()
                .position(|(_, s)| s.contains("fn main("))
                .ok_or_else(|| format!("{}: no module defines main", e.bench.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChurnState {
        daemon,
        suite,
        main_module,
        collect_ms,
    })
}

/// `serve-churn`: write-heavy traffic over the same cache and profile
/// layers. 70% of requests are suite programs whose `main` module gains a
/// fresh `global hlobench_k = <unique>;`, changing every key: each is a
/// full cold build that inserts into (and past capacity evicts from) the
/// result cache and registers a new program with the profile store (the
/// daemon's default cap of 64 programs, least recently used evicted).
/// 30% push a trained profile delta for the
/// program the latest miss registered (before the first, a suite program
/// set-up registered). Pushes to the fourteen suite programs instead
/// would find most of them evicted by the misses since their last push
/// and be refused.
pub fn serve_churn(cfg: &RunCfg, clock: &mut HostClock) -> Result<Run, String> {
    let (setup_s, st) = repeat_setup(clock, || churn_setup(cfg))?;
    let root = Rng::new(cfg.seed);
    let mut mix = Deck::new(root.fork(3), &CHURN_MIX);
    let mut programs = Deck::of(root.fork(4), st.suite.len());
    let mut pushed = Deck::of(root.fork(7), st.suite.len());
    let mut next_k = constants(root.fork(6));
    // The latest miss (program, constant), and how many have been sent.
    let mut latest: Option<(usize, i64)> = None;
    let mut misses = 0usize;
    let next = || {
        if mix.draw() == 1 {
            let push = match latest {
                Some((program, k)) => Payload::Push {
                    program,
                    miss_k: Some(k),
                },
                None => Payload::Push {
                    program: pushed.draw(),
                    miss_k: None,
                },
            };
            return (push, false);
        }
        let (program, k) = (programs.draw(), next_k());
        latest = Some((program, k));
        misses += 1;
        (
            Payload::Miss { program, k },
            (misses - 1).is_multiple_of(DEFERRED_EVERY),
        )
    };
    let check = |p: &Planned, r: &OptimizeResponse| -> Result<(), String> {
        if r.outcome.hit {
            return Err(format!("{:?}: a unique program hit the cache", p.payload));
        }
        Ok(())
    };
    let traffic = Traffic {
        suite: &st.suite,
        main_module: &st.main_module,
    };
    let m = drive(cfg, &st.daemon, clock, &traffic, &check, next)?;
    let mut out = Outcome::default();
    finish(&traffic, &m, clock, setup_s, CHURN_TAIL, &mut out);
    let refs: Vec<Reference> = st.suite.iter().map(SuiteEntry::reference).collect();
    summarize_references(&refs, cfg.traced, &mut out);
    let trace = if cfg.traced {
        Some(layer_pass(
            &st.daemon,
            &traffic,
            &m,
            st.collect_ms,
            &mut out,
        )?)
    } else {
        None
    };
    Ok(Run { out, trace })
}

/// The measured phase's raw results.
struct Measured {
    /// Every request sent, in order.
    plan: Vec<Planned>,
    /// Every answer, in the same order.
    done: Vec<Done>,
    /// The measured phase's duration.
    wall: Duration,
    /// Peak memory when the phase's first `RSS_RATE × seconds` requests
    /// were answered (at its end, if fewer were).
    peak_rss_mb: f64,
    before: ServeStats,
    after: ServeStats,
}

type Check<'a> = &'a dyn Fn(&Planned, &OptimizeResponse) -> Result<(), String>;

/// Sends requests in a closed loop over one connection until the
/// measured phase is over: `next` gives each request's payload and
/// whether it is deferred, and in traced runs every [`TRACE_EVERY`]-th
/// optimize request carries a trace id. The host is probed between
/// requests, while the daemon is idle.
fn drive(
    cfg: &RunCfg,
    daemon: &Daemon,
    clock: &mut HostClock,
    traffic: &Traffic<'_>,
    check: Check<'_>,
    mut next: impl FnMut() -> (Payload, bool),
) -> Result<Measured, String> {
    let mut client = daemon.client()?;
    let before = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut ids = Rng::new(cfg.seed).fork(5);
    let mut plan = Vec::new();
    let mut done = Vec::new();
    let rss_at = (RSS_RATE * cfg.seconds) as usize;
    let mut peak_rss = None;
    let wall = sliced(cfg.seconds, clock, |block, clock| {
        clock.tick();
        let index = plan.len();
        let (payload, deferred) = next();
        let traced =
            cfg.traced && index.is_multiple_of(TRACE_EVERY) && payload.class() != Class::Push;
        let p = Planned {
            payload,
            deferred,
            trace_id: traced.then(|| format!("{:016x}", ids.next_u64())),
        };
        let req = traffic.request(&p);
        let push = match p.payload {
            Payload::Push { program, miss_k } => Some(traffic.push(program, miss_k)),
            _ => None,
        };
        let sent = Instant::now();
        let answer = match (&req, push) {
            (Some(req), _) => client.optimize(req).map(Some).map_err(|e| e.to_string()),
            (None, Some(Ok(push))) => client
                .profile_push(&push)
                .map(|_| None)
                .map_err(|e| e.to_string()),
            (None, Some(Err(e))) => Err(e),
            (None, None) => unreachable!("only pushes carry no request"),
        };
        let mut d = Done {
            index,
            block,
            answer_ms: ms_since(sent),
            error: None,
            ir_hash: 0,
            response: None,
        };
        match answer {
            Err(e) => d.error = Some(format!("{:?}: {e}", p.payload)),
            Ok(None) => {}
            Ok(Some(r)) => {
                d.error = check(&p, &r).err();
                if p.deferred {
                    d.ir_hash = hlo_ir::fnv1a_64(r.ir_text.as_bytes());
                }
                if cfg.traced && (!r.outcome.hit || p.trace_id.is_some()) {
                    d.response = Some(Box::new(r));
                }
            }
        }
        plan.push(p);
        done.push(d);
        if done.len() == rss_at {
            peak_rss = Some(peak_rss_mb());
        }
    });
    let after = client.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(Measured {
        plan,
        done,
        wall,
        peak_rss_mb: peak_rss.unwrap_or_else(peak_rss_mb),
        before,
        after,
    })
}

/// End-to-end metrics and the output oracle of a serve run.
fn finish(
    traffic: &Traffic<'_>,
    m: &Measured,
    clock: &HostClock,
    setup_s: f64,
    tail: f64,
    out: &mut Outcome,
) {
    out.attempted = m.plan.len() as u64;
    // The deferred in-process builds are independent; split them over
    // the guest's two vCPUs.
    let checked: Vec<&Done> = m
        .done
        .iter()
        .filter(|d| d.error.is_none() && m.plan[d.index].deferred)
        .collect();
    let verdicts: HashMap<usize, Option<String>> = std::thread::scope(|s| {
        let halves: Vec<_> = checked
            .chunks(checked.len().div_ceil(2).max(1))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|d| {
                            let p = &m.plan[d.index];
                            (d.index, deferred_check(p, traffic, d.ir_hash))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let slowdowns = clock.slowdowns();
    let mut blocks = vec![Vec::new(); BLOCKS];
    let mut slow = 0u64;
    for d in &m.done {
        let p = &m.plan[d.index];
        let error = d
            .error
            .clone()
            .or_else(|| verdicts.get(&d.index).cloned().flatten());
        if let Some(e) = error {
            out.failed += 1;
            out.wrong(e);
            continue;
        }
        blocks[d.block].push(d.answer_ms);
        if d.answer_ms / slowdowns[d.block] > p.payload.class().slo_ms() {
            slow += 1;
        }
    }
    let met = out.attempted.saturating_sub(out.failed + slow) as f64;
    out.set(
        "slo_met_frac",
        met / out.attempted.max(1) as f64,
        out.attempted,
    );
    println!(
        "load: {} requests, {:.1} req/s",
        m.done.len(),
        achieved_rps(m)
    );
    out.set("peak_rss_mb", m.peak_rss_mb, 1);
    report_timings(out, setup_s, &blocks, clock, tail);
}

/// Rebuilds a deferred request in-process; `Some` describes a mismatch.
fn deferred_check(p: &Planned, traffic: &Traffic<'_>, answer_hash: u64) -> Option<String> {
    let req = traffic.request(p)?;
    match in_process(&req) {
        Ok(text) if hlo_ir::fnv1a_64(text.as_bytes()) == answer_hash => None,
        Ok(_) => Some(format!(
            "{:?}: daemon answer differs from an in-process build",
            p.payload
        )),
        Err(e) => Some(e),
    }
}

/// Completed requests per second of the measured phase.
fn achieved_rps(m: &Measured) -> f64 {
    crate::layers::ratio(m.done.len() as f64, m.wall.as_secs_f64())
}

/// The traced run's per-layer metrics: per-class latencies, achieved
/// rate, daemon counters and phase quantiles, stage timings of every
/// non-hit answer, and an in-process replay of every traced request
/// through the public calls the daemon makes for it, in order.
fn layer_pass(
    daemon: &Daemon,
    traffic: &Traffic<'_>,
    m: &Measured,
    collect_ms: f64,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let (suite, plan) = (traffic.suite, &m.plan);
    let ok: Vec<&Done> = m.done.iter().filter(|d| d.error.is_none()).collect();
    let class_lat = |c: Class| -> Vec<f64> {
        ok.iter()
            .filter(|d| plan[d.index].payload.class() == c)
            .map(|d| d.answer_ms)
            .collect()
    };
    for (c, p50, p99) in [
        (Class::Hit, "hit_ms_p50", "hit_ms_p99"),
        (Class::Edit, "edit_ms_p50", "edit_ms_p99"),
        (Class::Miss, "miss_ms_p50", "miss_ms_p99"),
    ] {
        let xs = class_lat(c);
        out.set(p50, pct_or_zero(&xs, 0.5), xs.len() as u64);
        out.set(p99, pct_or_zero(&xs, 0.99), xs.len() as u64);
    }
    let push = class_lat(Class::Push);
    out.set("push_ms_p99", pct_or_zero(&push, 0.99), push.len() as u64);
    out.set(
        "pgo.push_ms.p50",
        pct_or_zero(&push, 0.5),
        push.len() as u64,
    );
    out.set("loadgen.achieved_rps", achieved_rps(m), m.done.len() as u64);
    out.set("profile.collect_ms", collect_ms, suite.len() as u64);

    let (a, b) = (&m.after, &m.before);
    let hits = a.hits - b.hits;
    let lookups = hits + (a.misses - b.misses) + (a.stale_hits - b.stale_hits);
    out.set(
        "serve.hit_ratio",
        crate::layers::ratio(hits as f64, lookups as f64),
        lookups,
    );
    out.set(
        "serve.evictions",
        (a.evictions - b.evictions) as f64,
        lookups,
    );
    out.set("serve.busy", (a.busy - b.busy) as f64, lookups);
    let spliced = a.partition_hits - b.partition_hits;
    let rebuilt = a.partition_rebuilds - b.partition_rebuilds;
    out.set(
        "serve.splice_ratio",
        crate::layers::ratio(spliced as f64, (spliced + rebuilt) as f64),
        spliced + rebuilt,
    );
    out.set(
        "serve.incr_fallbacks",
        (a.incr_fallbacks - b.incr_fallbacks) as f64,
        lookups,
    );
    for (phase, count, sum) in &a.latencies {
        if phase == "optimize" {
            let (c0, s0) = b
                .latencies
                .iter()
                .find(|l| l.0 == *phase)
                .map_or((0, 0), |l| (l.1, l.2));
            let c = count - c0;
            out.set(
                "core.optimize_ms",
                crate::layers::ratio((sum - s0) as f64 / 1e3, c as f64),
                c,
            );
        }
    }
    for (phase, p50, _, p99) in &a.quantiles {
        let names = match phase.as_str() {
            "queue_wait" => ("serve.queue_wait_us.p50", "serve.queue_wait_us.p99"),
            "cache_probe" => ("serve.cache_probe_us.p50", "serve.cache_probe_us.p99"),
            "optimize" => ("serve.optimize_us.p50", "serve.optimize_us.p99"),
            "reply" => ("serve.reply_us.p50", "serve.reply_us.p99"),
            _ => continue,
        };
        out.set(names.0, *p50 as f64, lookups);
        out.set(names.1, *p99 as f64, lookups);
    }

    let mut layers = Layers::default();
    for d in &ok {
        if let Some(r) = d.response.as_ref().filter(|r| !r.outcome.hit) {
            layers.add_report(&r.report);
        }
    }
    // The replay's cache holds the warmed suite results, as the daemon's
    // did, so replayed hits hit.
    let mut cache = ResultCache::new(ServeConfig::default().cache_cap);
    for e in suite {
        let profile_text = e.profile.to_text();
        let key = request_key(
            &e.input,
            &e.request.options,
            &profile_text,
            &mut CallGraphCache::new(),
        );
        cache.insert(
            &key,
            CachedResult {
                ir_text: e.truth.clone(),
                report_text: String::new(),
                profile_text,
            },
        );
    }
    let mut client = daemon.client()?;
    let mut parts = Vec::new();
    let mut by_class = Vec::new();
    for d in &m.done {
        let p = &plan[d.index];
        by_class.push((
            p.payload.class() as usize,
            d.answer_ms,
            p.trace_id.is_some(),
        ));
        let (Some(id), Some(resp), None, Some(req)) =
            (&p.trace_id, &d.response, &d.error, traffic.request(p))
        else {
            continue;
        };
        let fetched = client
            .trace_fetch(id)
            .map_err(|e| format!("trace fetch {id}: {e}"))?;
        let replayed = replay(id, &req, resp, &mut cache, &mut layers)?;
        if parts.len() < 2 * MAX_TRACE_PARTS {
            parts.push((flatten_daemon(&fetched.spans, &fetched.chrome)?, Vec::new()));
            parts.push((replayed, Vec::new()));
        }
    }
    layers.emit(out);
    let traced = by_class.iter().filter(|s| s.2).count() as u64;
    out.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&by_class),
        traced,
    );
    Ok(combine("hlobench:serve", &parts, m.wall))
}

/// Replays one traced request in-process through the public calls the
/// daemon's request path makes, in order, timing each: request decode,
/// front end, program key, request key, cache probe, and for a miss the
/// incremental plan, optimize, IR text and cache insert; then the
/// response encode and the client's decode.
fn replay(
    id: &str,
    req: &OptimizeRequest,
    resp: &OptimizeResponse,
    cache: &mut ResultCache,
    layers: &mut Layers,
) -> Result<Vec<FlatSpan>, String> {
    let t0 = Instant::now();
    let mut spans = vec![FlatSpan {
        name: format!("replay:{id}"),
        depth: 0,
        dur_us: 0,
        work_us: 0,
        stage: false,
    }];
    let mut step = |name: &str, us: f64| {
        spans.push(FlatSpan {
            name: name.to_string(),
            depth: 1,
            dur_us: us as u64,
            work_us: us as u64,
            stage: true,
        });
        us
    };
    let (bytes, enc_req) = timed(|| req.to_sections().encode());
    step("serve.wire.encode", enc_req);
    let (decoded, dec_req) =
        timed(|| Sections::decode(&bytes).and_then(|s| OptimizeRequest::from_sections(&s)));
    let req = decoded?;
    step("serve.wire.decode", dec_req);
    let SourceKind::Minc(mods) = &req.source else {
        return Err("the benchmark sends MinC sources only".to_string());
    };
    let (parsed, parse_us) = timed(|| {
        mods.iter()
            .map(|(n, s)| hlo_frontc::parse_module(n, s))
            .collect::<Result<Vec<_>, _>>()
    });
    layers.add("frontc.parse_us", step("frontc.parse", parse_us));
    let (linked, link_us) = timed(|| parsed.and_then(|m| hlo_frontc::link(&m)));
    layers.add("frontc.link_us", step("frontc.link", link_us));
    let mut p = linked.map_err(|e| e.to_string())?;
    let (_, key_us) = timed(|| hlo_pgo::program_key(&p));
    layers.add("pgo.program_key_us", step("pgo.program_key", key_us));
    let profile = match &req.profile {
        ProfileSpec::Text(t) => Some(ProfileDb::from_text(t).map_err(|e| e.to_string())?),
        _ => None,
    };
    let profile_text = profile.as_ref().map(ProfileDb::to_text).unwrap_or_default();
    let mut cg = CallGraphCache::new();
    let (key, rk_us) = timed(|| request_key(&p, &req.options, &profile_text, &mut cg));
    layers.add(
        "serve.cache.request_key_us",
        step("serve.cache.request_key", rk_us),
    );
    let ((cached, _), lookup_us) = timed(|| cache.lookup(&key));
    layers.add(
        "serve.cache.lookup_us",
        step("serve.cache.lookup", lookup_us),
    );
    if cached.is_none() {
        let (_, plan_us) = timed(|| {
            incremental::eligible_partitions(&p, &req.options, &mut cg).map(|parts| {
                incremental::partition_keys(
                    &p,
                    &parts,
                    &key.funcs,
                    hlo_ir::fnv1a_64(profile_text.as_bytes()),
                )
            })
        });
        layers.add(
            "serve.incremental.plan_us",
            step("serve.incremental.plan", plan_us),
        );
        let (report, opt_us) = timed(|| hlo::optimize(&mut p, profile.as_ref(), &req.options));
        step("optimize", opt_us);
        let (ir_text, text_us) = timed(|| hlo_ir::program_to_text(&p));
        layers.add("ir.to_text_us", step("ir.to_text", text_us));
        let result = CachedResult {
            ir_text,
            report_text: report.to_text(),
            profile_text,
        };
        let (_, insert_us) = timed(|| cache.insert(&key, result));
        layers.add(
            "serve.cache.insert_us",
            step("serve.cache.insert", insert_us),
        );
    }
    let (rbytes, enc_resp) = timed(|| resp.to_sections().encode());
    step("serve.wire.encode", enc_resp);
    let (back, dec_resp) =
        timed(|| Sections::decode(&rbytes).and_then(|s| OptimizeResponse::from_sections(&s)));
    back?;
    step("serve.wire.decode", dec_resp);
    layers.add("serve.wire.encode_us", enc_req + enc_resp);
    layers.add("serve.wire.decode_us", dec_req + dec_resp);
    let total = us_since(t0) as u64;
    spans[0].dur_us = total;
    Ok(spans)
}
