//! The content-addressed result cache.
//!
//! Two layers share one lock in the daemon:
//!
//! * the **program cache** maps a *request key* — a stable hash of the
//!   canonical input program text, the option fingerprint and the profile
//!   text — to the optimized IR text and report. A warm request for an
//!   unchanged program is a pure lookup; the optimizer never runs.
//! * the **function store** is a content-addressed set of per-function
//!   *cone keys*: the FNV hash of the function's record in the canonical
//!   program text combined (via [`hlo_analysis::CallGraph::cone_hashes`])
//!   with the hashes of every inline-reachable callee, plus the option
//!   fingerprint, profile hash and the program environment (globals,
//!   externs, entry). Keys are derived from content alone, the same way
//!   for every option set: a function's `hlo-ipa` summary is computed
//!   only from its cone's bodies and the environment, so the key already
//!   changes whenever the summary can. Editing one function changes the
//!   cone keys of exactly that function and its transitive callers — its
//!   *dependence cone* — so the store's hit/miss split on the next request
//!   reports precisely which functions an edit invalidated. Functions
//!   outside the cone keep hitting.
//!
//! A third layer rides on the same lock: the **partition store**, keyed
//! by [`crate::incremental::partition_keys`]. The optimizer's hierarchical
//! budget split makes each call-graph partition's final bodies a pure
//! function of its members' cone keys and its budget share, so on a
//! program-cache miss the daemon can splice stored partition bodies
//! ([`hlo::ReusedPartition`]) byte-for-byte through
//! [`hlo::optimize_partial`] and re-optimize only the partitions an edit
//! invalidated. Entries are the rebuilt partitions that build hands
//! back; a spliced partition is not re-inserted. Warm responses stay
//! byte-identical to a cold in-process `optimize` call — verified per
//! request, with a full rebuild as the fallback when verification or
//! eligibility fails.
//!
//! A fourth map, the **source index**, sits in front of the other three.
//! It maps `source_digest` — a hash of a request's raw inputs, taken
//! before the front end runs — to the request key and the PGO program key
//! that request's one canonical rendering produced. A byte-identical
//! repeat finds its keys there and skips the front end, the rendering,
//! the profile parse and the call graph; an edited source, a renamed or
//! reordered module, other options or another profile text digest
//! differently and compile as before.
//!
//! A fifth map, the **module store**, serves the front end of the
//! requests the source index cannot answer. It maps [`module_digest`] — a
//! hash of one module's name and source — to that module's parsed AST,
//! which is a pure function of the two. An edit changes one module, so
//! its request parses that module and links the stored rest. A module is
//! admitted on its second sighting: one seen once is only remembered in a
//! bounded set of digests, so a module sent once never takes a slot.

use crate::{OptimizeRequest, ProfileSpec, SourceKind};
use hlo::{CallGraphCache, HloOptions, ReusedPartition};
use hlo_frontc::ModuleAst;
use hlo_ir::{Fnv64, Program, ProgramText};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The two-level key of one optimize request.
#[derive(Debug, Clone)]
pub struct RequestKey {
    /// Whole-request key: program text + options fingerprint + profile.
    pub program: u64,
    /// Per-function cone keys, indexed like `Program::funcs`.
    pub funcs: Vec<u64>,
}

/// Computes the request key for a canonicalized input program.
///
/// `profile_text` must be the exact profile the optimizer will be handed
/// (its serialized form), or empty when optimizing profile-free. Renders
/// `p` once; the daemon, which renders it for the program key anyway,
/// calls [`request_key_of`] with that rendering instead.
pub fn request_key(
    p: &Program,
    opts: &HloOptions,
    profile_text: &str,
    cg: &mut CallGraphCache,
) -> RequestKey {
    request_key_of(p, &ProgramText::render(p), opts, profile_text, cg)
}

/// [`request_key`] over `rendered`, which must be
/// `ProgramText::render(p)`: the whole-request key hashes its text, and
/// each function's content hash is its record's, so nothing renders again.
pub fn request_key_of(
    p: &Program,
    rendered: &ProgramText,
    opts: &HloOptions,
    profile_text: &str,
    cg: &mut CallGraphCache,
) -> RequestKey {
    let opts_fp = opts.fingerprint();
    let profile_hash = hlo_ir::fnv1a_64(profile_text.as_bytes());

    let mut program = Fnv64::new();
    program
        .write(b"hlo-serve request v1")
        .write_u64(opts_fp)
        .write_u64(profile_hash)
        .write(rendered.as_str().as_bytes());

    // The program environment a function's optimization can observe
    // beyond its call cone: externs, module list, globals, entry. That is
    // the canonical text minus the function records.
    let (head, tail) = rendered.environment();
    let mut env = Fnv64::new();
    env.write(head.as_bytes()).write(tail.as_bytes());
    let env = env.finish();

    let funcs = cg
        .graph(p)
        .cone_hashes(&rendered.function_hashes())
        .into_iter()
        .map(|cone| {
            let mut h = Fnv64::new();
            h.write_u64(cone)
                .write_u64(opts_fp)
                .write_u64(profile_hash)
                .write_u64(env);
            h.finish()
        })
        .collect();

    RequestKey {
        program: program.finish(),
        funcs,
    }
}

/// The source-index digest of a request: a tagged FNV over its raw
/// inputs, before any of them is parsed. It covers the options
/// fingerprint, the source kind with each module's name and source in
/// order (or the IR text), and the profile spec with its raw text. Every
/// variable-length field is length-prefixed, so no two requests that
/// differ in a field share an encoding. Deadline, training argument and
/// trace id are not inputs to the keys, so they are not digested.
pub(crate) fn source_digest(req: &OptimizeRequest) -> u64 {
    fn field(h: &mut Fnv64, bytes: &[u8]) {
        h.write_u64(bytes.len() as u64).write(bytes);
    }
    let mut h = Fnv64::new();
    h.write(b"hlo-serve source v1")
        .write_u64(req.options.fingerprint());
    match &req.source {
        SourceKind::Minc(mods) => {
            h.write(b"m").write_u64(mods.len() as u64);
            for (name, src) in mods {
                field(&mut h, name.as_bytes());
                field(&mut h, src.as_bytes());
            }
        }
        SourceKind::Ir(text) => {
            h.write(b"i");
            field(&mut h, text.as_bytes());
        }
    }
    match &req.profile {
        ProfileSpec::None => {
            h.write(b"n");
        }
        ProfileSpec::Text(text) => {
            h.write(b"t");
            field(&mut h, text.as_bytes());
        }
        ProfileSpec::Server => {
            h.write(b"s");
        }
    }
    h.finish()
}

/// The module-store digest of one MinC module: a tagged FNV over its
/// name and source, each length-prefixed as in [`source_digest`]. The
/// name is digested because it is part of the AST (it names the module's
/// positions in front-end errors).
pub(crate) fn module_digest(name: &str, source: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"hlo-serve module v1")
        .write_u64(name.len() as u64)
        .write(name.as_bytes())
        .write_u64(source.len() as u64)
        .write(source.as_bytes());
    h.finish()
}

/// What the source index holds for one digest: the keys the request's
/// one canonical rendering produced.
#[derive(Debug, Clone)]
pub(crate) struct SourceEntry {
    /// The request key ([`request_key_of`]).
    pub(crate) key: RequestKey,
    /// The PGO program key ([`hlo_pgo::program_key_of_text`]).
    pub(crate) program_key: String,
}

/// A cached optimization result.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Optimized program text (byte-identical to what a cold run emits).
    pub ir_text: String,
    /// The cold run's report, wire-serialized.
    pub report_text: String,
    /// Canonical text of the profile this result was optimized with
    /// (empty for profile-free runs). For `profile: server` requests the
    /// daemon compares this against the current aggregate: drift past
    /// threshold turns a would-be hit into a stale hit.
    pub profile_text: String,
}

impl CachedResult {
    fn payload_bytes(&self) -> u64 {
        (self.ir_text.len() + self.report_text.len() + self.profile_text.len()) as u64
    }
}

/// What the cache had to say about one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whole-program hit: the response was a pure lookup.
    pub hit: bool,
    /// Functions whose cone keys were already in the function store.
    pub func_hits: u64,
    /// Functions whose cone keys were new — the dependence cone of
    /// whatever changed since the daemon last saw this program.
    pub func_misses: u64,
    /// The entry was resident but its build profile had drifted past the
    /// daemon's threshold, so the request re-optimized (`hit` is false).
    pub stale: bool,
    /// Drift score (thousandths) between the cached entry's build
    /// profile and the current server aggregate; `0` for requests that
    /// never consulted the profile store.
    pub drift_millis: u64,
    /// Partitions whose stored bodies were spliced instead of rebuilt
    /// (function-grain incremental recompilation). `0` on program hits
    /// and full rebuilds.
    pub partition_hits: u64,
    /// Partitions the incremental path re-optimized. On a cold build that
    /// populated the store this equals the partition count.
    pub partition_rebuilds: u64,
    /// The request was not partition-cacheable (or an incremental build
    /// failed byte verification) and fell back to a full rebuild.
    pub incr_fallback: bool,
}

impl CacheOutcome {
    /// The wire `cache` section body.
    pub fn to_text(&self) -> String {
        format!(
            "hit {}\nfunc_hits {}\nfunc_misses {}\nstale {}\ndrift {}\n\
             partition_hits {}\npartition_rebuilds {}\nincr_fallback {}\n",
            self.hit as u8,
            self.func_hits,
            self.func_misses,
            self.stale as u8,
            self.drift_millis,
            self.partition_hits,
            self.partition_rebuilds,
            self.incr_fallback as u8
        )
    }

    /// Parses a `cache` section body; unknown lines are ignored so old
    /// clients keep working against newer daemons and vice versa.
    ///
    /// # Errors
    /// Describes the malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut outcome = CacheOutcome::default();
        for line in text.lines() {
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "hit" => outcome.hit = val == "1",
                "stale" => outcome.stale = val == "1",
                "func_hits" => {
                    outcome.func_hits = val.parse().map_err(|_| "bad func_hits")?;
                }
                "func_misses" => {
                    outcome.func_misses = val.parse().map_err(|_| "bad func_misses")?;
                }
                "drift" => {
                    outcome.drift_millis = val.parse().map_err(|_| "bad drift")?;
                }
                "partition_hits" => {
                    outcome.partition_hits = val.parse().map_err(|_| "bad partition_hits")?;
                }
                "partition_rebuilds" => {
                    outcome.partition_rebuilds =
                        val.parse().map_err(|_| "bad partition_rebuilds")?;
                }
                "incr_fallback" => outcome.incr_fallback = val == "1",
                _ => {}
            }
        }
        Ok(outcome)
    }
}

/// Bounded program cache + function store. Not internally synchronized —
/// the daemon wraps it in its shared-state lock. It keeps no counters:
/// each [`ResultCache::lookup`] reports through its [`CacheOutcome`] and
/// each [`ResultCache::insert`] returns its eviction count, and the
/// daemon counts both in its metrics registry.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    /// Program results, touched on hit and insert.
    entries: LruMap<CachedResult>,
    /// Bytes of cached payload over every resident entry.
    resident_bytes: u64,
    /// Content-addressed cone-key set; bounded at `16 × cap` keys (a
    /// program is tens of functions, so the store outlives its programs
    /// slightly — enough for cone accounting across edits). Evicted in
    /// insertion order.
    func_keys: FifoSet,
    /// Partition store: finished per-partition bodies keyed by
    /// [`crate::incremental::partition_keys`]; bounded at `64 × cap`
    /// entries (a program is a handful of partitions, so the store keeps
    /// several generations of edits warm). Touched on probe hits.
    parts: LruMap<ReusedPartition>,
    /// Source index: [`source_digest`] to the request's keys; bounded at
    /// `cap` entries. Touched on hits.
    sources: LruMap<SourceEntry>,
    /// Module store: [`module_digest`] to the module's parsed AST; bounded
    /// at `cap` entries. Touched on hits.
    modules: LruMap<Arc<ModuleAst>>,
    /// Digests of the modules parsed, stored or not; bounded at `16 × cap`
    /// digests, evicted in insertion order. A parse whose digest is here
    /// stores its AST.
    seen_modules: FifoSet,
}

impl ResultCache {
    /// A cache holding at most `cap` program results (`cap == 0` disables
    /// program caching but keeps function-store accounting).
    pub fn new(cap: usize) -> Self {
        ResultCache {
            cap,
            entries: LruMap::default(),
            resident_bytes: 0,
            func_keys: FifoSet::default(),
            parts: LruMap::default(),
            sources: LruMap::default(),
            modules: LruMap::default(),
            seen_modules: FifoSet::default(),
        }
    }

    /// Looks up a request: returns the cached result on a program hit,
    /// and the outcome either way. Function-store accounting runs on hits
    /// too (a hit means every cone key hits).
    pub fn lookup(&mut self, key: &RequestKey) -> (Option<CachedResult>, CacheOutcome) {
        let mut outcome = CacheOutcome::default();
        for &fk in &key.funcs {
            if self.func_keys.contains(fk) {
                outcome.func_hits += 1;
            } else {
                outcome.func_misses += 1;
            }
        }
        let hit = self.entries.get(key.program).cloned();
        outcome.hit = hit.is_some();
        (hit, outcome)
    }

    /// Inserts a freshly computed result and registers its cone keys.
    /// Evicts the least-recently-used program past capacity; returns how
    /// many programs were evicted so the daemon can narrate each one in
    /// its event log.
    pub fn insert(&mut self, key: &RequestKey, result: CachedResult) -> u64 {
        let mut evicted = 0;
        if self.cap > 0 {
            self.resident_bytes += result.payload_bytes();
            if let Some(old) = self.entries.insert(key.program, result) {
                self.resident_bytes -= old.payload_bytes();
                // A replaced program result counts as used.
                self.entries.get(key.program);
            }
            while self.entries.len() > self.cap {
                let Some(old) = self.entries.pop_coldest() else {
                    break;
                };
                self.resident_bytes -= old.payload_bytes();
                evicted += 1;
            }
        }
        for &fk in &key.funcs {
            self.func_keys.insert(fk);
        }
        self.func_keys.trim(self.cap.max(1) * 16);
        evicted
    }

    /// Program entries currently resident.
    pub fn entries(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Bytes of cached payload currently resident (IR text + report text
    /// + build profile over every entry).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Partition bodies currently resident in the partition store.
    pub fn partition_entries(&self) -> u64 {
        self.parts.len() as u64
    }

    /// The keys the source index holds for `digest`, touching its LRU
    /// slot. The result cache may no longer hold the program they
    /// address.
    pub(crate) fn source(&mut self, digest: u64) -> Option<SourceEntry> {
        self.sources.get(digest).cloned()
    }

    /// Indexes the keys of a request that compiled, evicting the coldest
    /// entry past `cap` (`cap == 0` indexes nothing).
    pub(crate) fn insert_source(&mut self, digest: u64, entry: SourceEntry) {
        self.sources.insert(digest, entry);
        while self.sources.len() > self.cap {
            if self.sources.pop_coldest().is_none() {
                break;
            }
        }
    }

    /// The stored AST under each digest, in order (`None` where the store
    /// has none), touching each hit's LRU slot.
    pub(crate) fn stored_modules(&mut self, digests: &[u64]) -> Vec<Option<Arc<ModuleAst>>> {
        digests
            .iter()
            .map(|&d| self.modules.get(d).cloned())
            .collect()
    }

    /// Records modules a request parsed and linked. A digest already seen
    /// once is stored, evicting the coldest AST past `cap`; a new one is
    /// only remembered, forgetting the oldest past `16 × cap`.
    pub(crate) fn record_modules(
        &mut self,
        parsed: impl IntoIterator<Item = (u64, Arc<ModuleAst>)>,
    ) {
        for (digest, ast) in parsed {
            if self.seen_modules.contains(digest) {
                self.modules.insert(digest, ast);
            } else {
                self.seen_modules.insert(digest);
            }
        }
        while self.modules.len() > self.cap {
            if self.modules.pop_coldest().is_none() {
                break;
            }
        }
        self.seen_modules.trim(16 * self.cap);
    }

    /// Looks up one partition's stored bodies, touching its LRU slot.
    /// Returns a clone — the caller hands it to [`hlo::optimize_partial`],
    /// which moves the bodies into the program at splice time.
    pub fn probe_partition(&mut self, key: u64) -> Option<ReusedPartition> {
        self.parts.get(key).cloned()
    }

    /// Stores one partition's finished bodies (a rebuilt entry of
    /// [`hlo::PartialOutcome::rebuilt`]), evicting the coldest entries
    /// past capacity.
    pub fn insert_partition(&mut self, key: u64, stored: ReusedPartition) {
        self.parts.insert(key, stored);
        let part_cap = self.cap.max(1) * 64;
        while self.parts.len() > part_cap {
            if self.parts.pop_coldest().is_none() {
                break;
            }
        }
    }
}

/// A set of keys that forgets the oldest first: `order` lists the keys in
/// insertion order.
#[derive(Debug, Default)]
struct FifoSet {
    keys: HashSet<u64>,
    order: VecDeque<u64>,
}

impl FifoSet {
    fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Adds `key` as the newest, unless it is already present.
    fn insert(&mut self, key: u64) {
        if self.keys.insert(key) {
            self.order.push_back(key);
        }
    }

    /// Forgets the oldest keys past `cap`.
    fn trim(&mut self, cap: usize) {
        while self.keys.len() > cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.keys.remove(&old);
        }
    }
}

/// A map from keys to values in exact least-recently-used order, with
/// logarithmic touches: each entry holds the stamp of its last use, and
/// `by_stamp` lists the resident keys by stamp, coldest first.
#[derive(Debug)]
struct LruMap<V> {
    map: HashMap<u64, (V, u64)>,
    by_stamp: BTreeMap<u64, u64>,
    clock: u64,
}

impl<V> Default for LruMap<V> {
    fn default() -> Self {
        LruMap {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<V> LruMap<V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// The value under `key`, made the most recently used.
    fn get(&mut self, key: u64) -> Option<&V> {
        let (value, stamp) = self.map.get_mut(&key)?;
        self.by_stamp.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.by_stamp.insert(self.clock, key);
        Some(value)
    }

    /// Stores `value` under `key`. A new key enters as the most recently
    /// used; a replaced one keeps its place. Returns the replaced value.
    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.map.entry(key) {
            MapEntry::Occupied(mut e) => Some(std::mem::replace(&mut e.get_mut().0, value)),
            MapEntry::Vacant(e) => {
                self.clock += 1;
                e.insert((value, self.clock));
                self.by_stamp.insert(self.clock, key);
                None
            }
        }
    }

    /// Removes and returns the least recently used value.
    fn pop_coldest(&mut self) -> Option<V> {
        let (_, key) = self.by_stamp.pop_first()?;
        self.map.remove(&key).map(|(value, _)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo::HloOptions;

    fn compile(srcs: &[(&str, &str)]) -> Program {
        hlo_frontc::compile(srcs).unwrap()
    }

    fn key_of(p: &Program) -> RequestKey {
        request_key(p, &HloOptions::default(), "", &mut CallGraphCache::new())
    }

    const TWO_CHAINS: &[(&str, &str)] = &[(
        "m",
        "static fn leaf_a(x) { return x + 1; }
         static fn mid_a(x) { return leaf_a(x) * 2; }
         static fn leaf_b(x) { return x - 1; }
         static fn mid_b(x) { return leaf_b(x) * 3; }
         fn main() { return mid_a(4) + mid_b(5); }",
    )];

    #[test]
    fn identical_programs_share_keys() {
        let a = key_of(&compile(TWO_CHAINS));
        let b = key_of(&compile(TWO_CHAINS));
        assert_eq!(a.program, b.program);
        assert_eq!(a.funcs, b.funcs);
    }

    #[test]
    fn edit_invalidates_exactly_the_dependence_cone() {
        let base = key_of(&compile(TWO_CHAINS));
        // Edit leaf_a: its own key, mid_a's and main's must change;
        // leaf_b and mid_b must not (they are outside the cone).
        let edited = key_of(&compile(&[(
            "m",
            "static fn leaf_a(x) { return x + 2; }
             static fn mid_a(x) { return leaf_a(x) * 2; }
             static fn leaf_b(x) { return x - 1; }
             static fn mid_b(x) { return leaf_b(x) * 3; }
             fn main() { return mid_a(4) + mid_b(5); }",
        )]));
        assert_ne!(base.program, edited.program);
        // Function order follows source order: leaf_a, mid_a, leaf_b,
        // mid_b, main.
        assert_ne!(base.funcs[0], edited.funcs[0], "leaf_a changed");
        assert_ne!(base.funcs[1], edited.funcs[1], "mid_a calls leaf_a");
        assert_eq!(base.funcs[2], edited.funcs[2], "leaf_b untouched");
        assert_eq!(base.funcs[3], edited.funcs[3], "mid_b untouched");
        assert_ne!(base.funcs[4], edited.funcs[4], "main reaches leaf_a");
    }

    #[test]
    fn summary_changing_edit_re_keys_exactly_the_dependence_cone() {
        // The global exists in both versions (so the program environment
        // hash is identical); the edit turns leaf_a from pure into a
        // global writer — a *summary* change that the bottom-up analysis
        // propagates to mid_a and main, and to nothing else.
        let base = key_of(&compile(&[(
            "m",
            "global acc;
             static fn leaf_a(x) { return x + 1; }
             static fn mid_a(x) { return leaf_a(x) * 2; }
             static fn leaf_b(x) { return x - 1; }
             static fn mid_b(x) { return leaf_b(x) * 3; }
             fn main() { return mid_a(4) + mid_b(5); }",
        )]));
        let edited = key_of(&compile(&[(
            "m",
            "global acc;
             static fn leaf_a(x) { acc = acc + x; return x + 1; }
             static fn mid_a(x) { return leaf_a(x) * 2; }
             static fn leaf_b(x) { return x - 1; }
             static fn mid_b(x) { return leaf_b(x) * 3; }
             fn main() { return mid_a(4) + mid_b(5); }",
        )]));
        assert_ne!(base.program, edited.program);
        assert_ne!(base.funcs[0], edited.funcs[0], "leaf_a changed");
        assert_ne!(base.funcs[1], edited.funcs[1], "mid_a absorbs leaf_a");
        assert_eq!(base.funcs[2], edited.funcs[2], "leaf_b untouched");
        assert_eq!(base.funcs[3], edited.funcs[3], "mid_b untouched");
        assert_ne!(base.funcs[4], edited.funcs[4], "main reaches leaf_a");
    }

    #[test]
    fn options_and_profile_change_every_key() {
        let p = compile(TWO_CHAINS);
        let base = key_of(&p);
        let tight = request_key(
            &p,
            &HloOptions {
                budget_percent: 25,
                ..Default::default()
            },
            "",
            &mut CallGraphCache::new(),
        );
        assert_ne!(base.program, tight.program);
        for (a, b) in base.funcs.iter().zip(&tight.funcs) {
            assert_ne!(a, b);
        }
        let with_profile = request_key(
            &p,
            &HloOptions::default(),
            "func m main 1\nblocks 1\nend\n",
            &mut CallGraphCache::new(),
        );
        assert_ne!(base.program, with_profile.program);
    }

    #[test]
    fn check_does_not_change_keys() {
        let p = compile(TWO_CHAINS);
        let base = key_of(&p);
        let checked = request_key(
            &p,
            &HloOptions {
                check: hlo::CheckLevel::Strict,
                ..Default::default()
            },
            "",
            &mut CallGraphCache::new(),
        );
        assert_eq!(base.program, checked.program);
        assert_eq!(base.funcs, checked.funcs);
    }

    #[test]
    fn lru_eviction_and_counters() {
        let mut cache = ResultCache::new(2);
        let k = |n: u64| RequestKey {
            program: n,
            funcs: vec![n * 10, n * 10 + 1],
        };
        let r = |n: u64| CachedResult {
            ir_text: format!("ir{n}"),
            report_text: String::new(),
            profile_text: String::new(),
        };
        assert!(!cache.lookup(&k(1)).1.hit);
        assert_eq!(cache.insert(&k(1), r(1)), 0);
        assert_eq!(cache.insert(&k(2), r(2)), 0);
        let (got, out) = cache.lookup(&k(1));
        assert_eq!(got.unwrap().ir_text, "ir1");
        assert!(out.hit);
        assert_eq!(out.func_hits, 2);
        // Insert a third: 2 is now LRU and gets evicted.
        assert_eq!(cache.insert(&k(3), r(3)), 1);
        assert!(!cache.lookup(&k(2)).1.hit);
        assert!(cache.lookup(&k(1)).1.hit);
        assert!(cache.lookup(&k(3)).1.hit);
        assert_eq!(cache.entries(), 2);
        // Two resident entries, "ir1" and "ir3": 3 bytes each.
        assert_eq!(cache.resident_bytes(), 6);
    }

    #[test]
    fn outcome_text_roundtrips_and_hits_carry_the_build_profile() {
        let out = CacheOutcome {
            hit: false,
            func_hits: 4,
            func_misses: 1,
            stale: true,
            drift_millis: 512,
            partition_hits: 3,
            partition_rebuilds: 1,
            incr_fallback: true,
        };
        assert_eq!(CacheOutcome::from_text(&out.to_text()).unwrap(), out);
        // Old payloads without the new lines still parse.
        let old = CacheOutcome::from_text("hit 1\nfunc_hits 2\nfunc_misses 0\n").unwrap();
        assert!(old.hit && !old.stale && old.drift_millis == 0);

        let mut cache = ResultCache::new(2);
        let k = RequestKey {
            program: 9,
            funcs: vec![],
        };
        cache.insert(
            &k,
            CachedResult {
                ir_text: "ir".to_string(),
                report_text: String::new(),
                profile_text: "func m f 1\nblocks 1\nend\n".to_string(),
            },
        );
        // The lookup reports a plain hit with the build profile attached:
        // deciding that the entry is stale is the daemon's drift check.
        let (got, out) = cache.lookup(&k);
        assert_eq!(got.unwrap().profile_text, "func m f 1\nblocks 1\nend\n");
        assert!(out.hit && !out.stale);
    }

    #[test]
    fn source_digest_keeps_fields_apart() {
        let minc = |mods: &[(&str, &str)]| {
            OptimizeRequest::from_minc(
                mods.iter()
                    .map(|(n, s)| (n.to_string(), s.to_string()))
                    .collect(),
            )
        };
        let base = minc(&[("ab", "c")]);
        let digests = [
            source_digest(&base),
            source_digest(&minc(&[("a", "bc")])),
            source_digest(&minc(&[("ab", ""), ("c", "")])),
            source_digest(&OptimizeRequest {
                source: SourceKind::Ir("c".to_string()),
                ..base.clone()
            }),
            source_digest(&OptimizeRequest {
                profile: ProfileSpec::Text(String::new()),
                ..base.clone()
            }),
            source_digest(&OptimizeRequest {
                profile: ProfileSpec::Server,
                ..base.clone()
            }),
        ];
        let distinct: HashSet<u64> = digests.iter().copied().collect();
        assert_eq!(distinct.len(), digests.len(), "{digests:x?}");
        // What the keys do not read leaves the digest alone.
        let unkeyed = OptimizeRequest {
            deadline_ms: Some(5),
            train_arg: Some(1),
            trace_id: Some("0123456789abcdef".to_string()),
            ..base.clone()
        };
        assert_eq!(source_digest(&unkeyed), digests[0]);
    }

    #[test]
    fn source_index_is_an_lru_bounded_by_the_cap() {
        let entry = |n: u64| SourceEntry {
            key: RequestKey {
                program: n,
                funcs: vec![n],
            },
            program_key: format!("{n:016x}"),
        };
        let mut cache = ResultCache::new(2);
        cache.insert_source(1, entry(1));
        cache.insert_source(2, entry(2));
        assert_eq!(cache.source(1).unwrap().key.program, 1);
        cache.insert_source(3, entry(3));
        assert!(cache.source(2).is_none(), "the coldest digest goes");
        assert!(cache.source(1).is_some() && cache.source(3).is_some());
        assert_eq!(cache.sources.len(), 2);
        // Evicting a result leaves its index entry, which then addresses a
        // program the cache no longer holds.
        let result = CachedResult {
            ir_text: String::new(),
            report_text: String::new(),
            profile_text: String::new(),
        };
        cache.insert(&entry(1).key, result.clone());
        cache.insert(&entry(3).key, result.clone());
        cache.insert(&entry(4).key, result);
        let kept = cache.source(1).expect("an index entry outlives its result");
        assert!(cache.lookup(&kept.key).0.is_none());

        let mut off = ResultCache::new(0);
        off.insert_source(1, entry(1));
        assert!(off.source(1).is_none(), "cap 0 indexes nothing");
    }

    /// A parsed module that reads apart from its digest in a test.
    fn module(tag: u64) -> Arc<ModuleAst> {
        let src = format!("fn f{tag}() {{ return {tag}; }}");
        Arc::new(hlo_frontc::parse_module("m", &src).unwrap())
    }

    /// Records `digest` the way a linked request does.
    fn sight(cache: &mut ResultCache, digest: u64) {
        cache.record_modules([(digest, module(digest))]);
    }

    fn stored(cache: &mut ResultCache, digest: u64) -> bool {
        cache.stored_modules(&[digest])[0].is_some()
    }

    #[test]
    fn module_digest_keeps_name_and_source_apart() {
        let digests = [
            module_digest("ab", "c"),
            module_digest("a", "bc"),
            module_digest("", "abc"),
            module_digest("abc", ""),
        ];
        let distinct: HashSet<u64> = digests.iter().copied().collect();
        assert_eq!(distinct.len(), digests.len(), "{digests:x?}");
        assert_eq!(module_digest("ab", "c"), digests[0]);
    }

    #[test]
    fn a_module_is_stored_on_its_second_sighting() {
        let mut cache = ResultCache::new(4);
        sight(&mut cache, 1);
        assert!(!stored(&mut cache, 1), "a first sighting takes no slot");
        sight(&mut cache, 1);
        let got = cache.stored_modules(&[2, 1]);
        assert!(got[0].is_none());
        assert_eq!(got[1].as_deref(), Some(&*module(1)));
        assert_eq!(cache.modules.len(), 1);

        let mut off = ResultCache::new(0);
        sight(&mut off, 1);
        sight(&mut off, 1);
        assert!(!stored(&mut off, 1), "cap 0 stores nothing");
    }

    #[test]
    fn the_module_store_is_an_lru_bounded_by_the_cap() {
        let mut cache = ResultCache::new(2);
        for d in [1, 2, 1, 2] {
            sight(&mut cache, d);
        }
        assert!(stored(&mut cache, 1), "touch 1, so 2 is the coldest");
        sight(&mut cache, 3);
        sight(&mut cache, 3);
        assert_eq!(cache.modules.len(), 2);
        assert!(!stored(&mut cache, 2), "the coldest module goes");
        assert!(stored(&mut cache, 1) && stored(&mut cache, 3));
        // An evicted module's digest is still remembered, so its next
        // sighting stores it again.
        sight(&mut cache, 2);
        assert!(stored(&mut cache, 2));
    }

    #[test]
    fn first_sightings_are_bounded_at_sixteen_times_the_cap() {
        let mut cache = ResultCache::new(1);
        for d in 0..16 {
            sight(&mut cache, d);
        }
        assert_eq!(cache.seen_modules.keys.len(), 16);
        sight(&mut cache, 16);
        assert_eq!(cache.seen_modules.keys.len(), 16);
        assert_eq!(cache.seen_modules.order.len(), 16);
        // The oldest first sighting is forgotten: its next sighting is a
        // first one again. A recent one is stored.
        sight(&mut cache, 0);
        assert!(!stored(&mut cache, 0));
        sight(&mut cache, 16);
        assert!(stored(&mut cache, 16));
        assert_eq!(cache.modules.len(), 1);
    }

    #[test]
    fn partition_store_probes_touch_and_evict_lru() {
        let mut cache = ResultCache::new(1); // partition cap = 64
        let stored = || ReusedPartition {
            members: Vec::new(),
            clones: Vec::new(),
        };
        for i in 0..64u64 {
            cache.insert_partition(i, stored());
        }
        assert_eq!(cache.partition_entries(), 64);
        // Touch key 0 so it is no longer coldest, then overflow by one.
        assert!(cache.probe_partition(0).is_some());
        cache.insert_partition(64, stored());
        assert_eq!(cache.partition_entries(), 64);
        assert!(cache.probe_partition(0).is_some(), "touched key survives");
        assert!(cache.probe_partition(1).is_none(), "coldest key evicted");
    }

    #[test]
    fn resident_bytes_track_replacement_and_eviction() {
        let mut cache = ResultCache::new(1);
        let k = RequestKey {
            program: 1,
            funcs: vec![],
        };
        cache.insert(
            &k,
            CachedResult {
                ir_text: "abcd".to_string(),
                report_text: "xy".to_string(),
                profile_text: String::new(),
            },
        );
        assert_eq!(cache.resident_bytes(), 6);
        // Replacing the same key swaps the bytes, not adds them.
        cache.insert(
            &k,
            CachedResult {
                ir_text: "ab".to_string(),
                report_text: String::new(),
                profile_text: String::new(),
            },
        );
        assert_eq!(cache.resident_bytes(), 2);
        // Evicting releases them.
        let k2 = RequestKey {
            program: 2,
            funcs: vec![],
        };
        let evicted = cache.insert(
            &k2,
            CachedResult {
                ir_text: "wxyz".to_string(),
                report_text: String::new(),
                profile_text: String::new(),
            },
        );
        assert_eq!(evicted, 1);
        assert_eq!(cache.resident_bytes(), 4);
    }
}
