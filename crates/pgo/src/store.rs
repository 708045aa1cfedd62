//! The per-program profile store.
//!
//! One [`Aggregate`] per program key holds the merged sum of every
//! pushed [`ProfileDb`] delta. Aging is modelled with a **generation
//! counter**: within a generation, merging is plain saturating addition
//! — commutative and associative, so the aggregate's canonical text is
//! byte-identical no matter what order deltas arrive in (the serve
//! benchmark gates on exactly that). Advancing the generation halves
//! every resident count (integer floor) once per step; pushes that
//! arrive afterwards therefore outweigh the decayed past by 2× per
//! generation. Nothing reads the wall clock, so any push/advance
//! sequence is deterministic and replayable.
//!
//! The whole store serializes to a canonical `pgo-store v1` text form
//! (sorted by key, embedding [`ProfileDb::to_text`] per program) used
//! both for byte-identity tests and for crash-safe persistence:
//! [`ProfileStore::save`] writes and syncs a temp file, renames it over
//! the target and syncs the directory, so a crash mid-write leaves the
//! previous snapshot intact and a crash after the rename leaves the new
//! one.

use crate::is_valid_key;
use hlo_profile::{FuncCounts, ProfileDb};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::Path;

/// Default bound on resident program aggregates.
pub const DEFAULT_CAP: usize = 64;

/// One program's aggregated profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregate {
    /// Decay epoch. Counts pushed `g` generations ago have been halved
    /// `g` times.
    pub generation: u64,
    /// Deltas merged into this aggregate since it was created (survives
    /// generation advances; saturating).
    pub pushes: u64,
    db: ProfileDb,
    resident_bytes: u64,
}

impl Aggregate {
    /// The merged profile.
    pub fn db(&self) -> &ProfileDb {
        &self.db
    }

    /// Estimated resident size of the merged profile, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

/// Why a store operation was refused. State is never modified on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The key is not 16 lowercase hex digits.
    BadKey(String),
    /// The key is well-formed but the daemon has never optimized that
    /// program, so there is nothing to aggregate into. Keys enter the
    /// store when an optimize request for the program is dequeued.
    UnknownProgram(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadKey(k) => write!(f, "bad program key `{k}` (want 16 lowercase hex)"),
            StoreError::UnknownProgram(k) => write!(f, "unknown program key `{k}`"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What one accepted push did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// Generation the delta landed in.
    pub generation: u64,
    /// Total pushes into this aggregate, including this one.
    pub pushes: u64,
    /// Functions in the merged aggregate after the push.
    pub functions: u64,
    /// Resident bytes of the aggregate after the push.
    pub resident_bytes: u64,
}

/// Store-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Program aggregates currently resident.
    pub programs: u64,
    /// Total estimated resident bytes across aggregates.
    pub resident_bytes: u64,
    /// Cumulative accepted pushes (survives eviction).
    pub pushes: u64,
    /// Aggregates evicted by the capacity bound.
    pub evictions: u64,
}

/// Parse failure for the `pgo-store v1` text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreParseError {
    /// 1-based line of the malformed record.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for StoreParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pgo-store line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for StoreParseError {}

/// Bounded map from program key to [`Aggregate`]. Not internally
/// synchronized — the daemon wraps it in its shared-state lock.
#[derive(Debug)]
pub struct ProfileStore {
    cap: usize,
    programs: HashMap<String, Aggregate>,
    /// LRU order, front = coldest. Touched by register, push, advance
    /// and merged-profile reads.
    order: VecDeque<String>,
    stats: StoreStats,
}

impl ProfileStore {
    /// A store holding at most `cap` program aggregates (`0` =
    /// unbounded).
    pub fn new(cap: usize) -> Self {
        ProfileStore {
            cap,
            programs: HashMap::new(),
            order: VecDeque::new(),
            stats: StoreStats::default(),
        }
    }

    /// Makes `key` eligible for pushes, creating an empty aggregate if
    /// the program is new. The daemon calls this when it dequeues an
    /// optimize request for the program; pushes for keys never optimized
    /// here are refused ([`StoreError::UnknownProgram`]). Returns `true`
    /// when the aggregate was created.
    ///
    /// # Errors
    /// [`StoreError::BadKey`] on a malformed key.
    pub fn register(&mut self, key: &str) -> Result<bool, StoreError> {
        self.check_key(key)?;
        let created = if self.programs.contains_key(key) {
            false
        } else {
            self.programs.insert(key.to_string(), Aggregate::default());
            self.order.push_back(key.to_string());
            self.evict();
            true
        };
        self.touch(key);
        self.refresh_totals();
        Ok(created)
    }

    /// Merges one pushed delta into the program's aggregate (saturating
    /// sums; the delta lands in the current generation).
    ///
    /// # Errors
    /// [`StoreError::BadKey`] / [`StoreError::UnknownProgram`]; the
    /// store is unchanged on error.
    pub fn push(&mut self, key: &str, delta: &ProfileDb) -> Result<PushOutcome, StoreError> {
        self.check_key(key)?;
        let agg = self
            .programs
            .get_mut(key)
            .ok_or_else(|| StoreError::UnknownProgram(key.to_string()))?;
        agg.db.merge(delta);
        agg.pushes = agg.pushes.saturating_add(1);
        agg.resident_bytes = db_resident_bytes(&agg.db);
        let out = PushOutcome {
            generation: agg.generation,
            pushes: agg.pushes,
            functions: agg.db.len() as u64,
            resident_bytes: agg.resident_bytes,
        };
        self.stats.pushes = self.stats.pushes.saturating_add(1);
        self.touch(key);
        self.refresh_totals();
        Ok(out)
    }

    /// Advances the program's decay epoch by `generations`, halving
    /// every resident count once per step (integer floor; a shift of 64+
    /// clears the count). Deltas pushed after the advance consequently
    /// weigh 2× per generation more than the decayed past.
    ///
    /// # Errors
    /// [`StoreError::BadKey`] / [`StoreError::UnknownProgram`].
    pub fn advance(&mut self, key: &str, generations: u64) -> Result<u64, StoreError> {
        self.check_key(key)?;
        let agg = self
            .programs
            .get_mut(key)
            .ok_or_else(|| StoreError::UnknownProgram(key.to_string()))?;
        if generations > 0 {
            agg.db = decay_db(&agg.db, generations);
            agg.generation = agg.generation.saturating_add(generations);
            agg.resident_bytes = db_resident_bytes(&agg.db);
        }
        let generation = agg.generation;
        self.touch(key);
        self.refresh_totals();
        Ok(generation)
    }

    /// The program's aggregate, if resident. Does not touch LRU order.
    pub fn aggregate(&self, key: &str) -> Option<&Aggregate> {
        self.programs.get(key)
    }

    /// A clone of the merged profile for an optimize run, touching LRU
    /// order. `None` when the key is unknown **or** the aggregate is
    /// still empty (no pushes yet) — an empty profile must behave like
    /// no profile at all.
    pub fn merged(&mut self, key: &str) -> Option<ProfileDb> {
        let agg = self.programs.get(key)?;
        if agg.db.is_empty() {
            return None;
        }
        let db = agg.db.clone();
        self.touch(key);
        Some(db)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Program keys in canonical (sorted) order.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<_> = self.programs.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Canonical `pgo-store v1` text. Programs are sorted by key; each
    /// embeds its profile in the canonical [`ProfileDb::to_text`] form,
    /// so two stores holding the same aggregates serialize to identical
    /// bytes regardless of push arrival order.
    pub fn to_text(&self) -> String {
        let mut out = String::from("pgo-store v1\n");
        for key in self.keys() {
            let agg = &self.programs[&key];
            out.push_str(&format!(
                "program {key} {} {}\n",
                agg.generation, agg.pushes
            ));
            out.push_str(&agg.db.to_text());
            out.push_str("endprogram\n");
        }
        out
    }

    /// Parses the text form produced by [`ProfileStore::to_text`] into a
    /// store bounded at `cap`. LRU order after a load is the canonical
    /// key order (the text form does not carry access recency).
    ///
    /// # Errors
    /// Positioned error for version/record problems; profile-record
    /// errors keep their inner position.
    pub fn from_text(text: &str, cap: usize) -> Result<ProfileStore, StoreParseError> {
        let err = |line: usize, msg: String| StoreParseError { line, msg };
        let mut store = ProfileStore::new(cap);
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "pgo-store v1")) => {}
            other => {
                return Err(err(
                    1,
                    format!(
                        "expected `pgo-store v1` header, got `{}`",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                ))
            }
        }
        // (key, generation, pushes, header line, profile text lines)
        let mut cur: Option<(String, u64, u64, usize, String)> = None;
        for (ln, line) in lines {
            if let Some(rest) = line.strip_prefix("program ") {
                if cur.is_some() {
                    return Err(err(ln + 1, "nested `program` record".to_string()));
                }
                let mut parts = rest.split_whitespace();
                let key = parts
                    .next()
                    .ok_or_else(|| err(ln + 1, "missing program key".to_string()))?;
                if !is_valid_key(key) {
                    return Err(err(ln + 1, format!("bad program key `{key}`")));
                }
                if store.programs.contains_key(key) {
                    return Err(err(ln + 1, format!("duplicate program `{key}`")));
                }
                let generation: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln + 1, "bad generation".to_string()))?;
                let pushes: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln + 1, "bad push count".to_string()))?;
                cur = Some((key.to_string(), generation, pushes, ln + 1, String::new()));
            } else if line == "endprogram" {
                let (key, generation, pushes, header_ln, profile) = cur
                    .take()
                    .ok_or_else(|| err(ln + 1, "`endprogram` outside program".to_string()))?;
                let db =
                    ProfileDb::from_text(&profile).map_err(|e| err(header_ln + e.line, e.msg))?;
                let resident_bytes = db_resident_bytes(&db);
                store.order.push_back(key.clone());
                store.programs.insert(
                    key,
                    Aggregate {
                        generation,
                        pushes,
                        db,
                        resident_bytes,
                    },
                );
            } else if let Some(c) = cur.as_mut() {
                c.4.push_str(line);
                c.4.push('\n');
            } else if !line.trim().is_empty() {
                return Err(err(ln + 1, format!("unexpected line `{line}`")));
            }
        }
        if let Some((key, _, _, header_ln, _)) = cur {
            return Err(err(header_ln, format!("unterminated program `{key}`")));
        }
        // Rebuild the cumulative push counter from the resident records,
        // so a reloaded store's stats read identically to the snapshot's
        // (the serve benchmark's restart-warmth probe gates on this).
        store.stats.pushes = store
            .programs
            .values()
            .fold(0u64, |acc, a| acc.saturating_add(a.pushes));
        store.evict();
        store.refresh_totals();
        Ok(store)
    }

    /// Crash-safe persistence: writes the canonical text to `path` via a
    /// sibling temp file + rename, so readers only ever see a complete
    /// snapshot. The temp file is synced before the rename and the
    /// directory after it, so a crash cannot leave an empty or partial
    /// store behind the new name.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_text().as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }

    /// Loads a snapshot written by [`ProfileStore::save`]. A missing
    /// file is an empty store (first boot), a malformed one is
    /// `InvalidData`.
    ///
    /// # Errors
    /// Propagates filesystem errors; parse failures map to
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path, cap: usize) -> std::io::Result<ProfileStore> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(ProfileStore::new(cap))
            }
            Err(e) => return Err(e),
        };
        ProfileStore::from_text(&text, cap)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    fn check_key(&self, key: &str) -> Result<(), StoreError> {
        if is_valid_key(key) {
            Ok(())
        } else {
            Err(StoreError::BadKey(key.to_string()))
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some(i) = self.order.iter().position(|k| k == key) {
            self.order.remove(i);
        }
        self.order.push_back(key.to_string());
    }

    fn evict(&mut self) {
        if self.cap == 0 {
            return;
        }
        while self.programs.len() > self.cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.programs.remove(&old);
            self.stats.evictions += 1;
        }
    }

    fn refresh_totals(&mut self) {
        self.stats.programs = self.programs.len() as u64;
        self.stats.resident_bytes = self.programs.values().map(|a| a.resident_bytes).sum();
    }
}

/// Halves every count `generations` times (shift with floor; 64+ clears).
fn decay_db(db: &ProfileDb, generations: u64) -> ProfileDb {
    let shift = |c: u64| {
        if generations >= 64 {
            0
        } else {
            c >> generations
        }
    };
    let mut out = ProfileDb::new();
    for ((m, f), c) in db.iter() {
        let counts = FuncCounts {
            entry: shift(c.entry),
            blocks: c.blocks.iter().map(|&b| shift(b)).collect(),
            edges: c.edges.iter().map(|(&e, &n)| (e, shift(n))).collect(),
        };
        out.insert(m.clone(), f.clone(), counts);
    }
    out
}

/// Estimated resident footprint of a profile: names plus 8 bytes per
/// counter plus map overhead per edge.
fn db_resident_bytes(db: &ProfileDb) -> u64 {
    db.iter()
        .map(|((m, f), c)| (m.len() + f.len() + 8 + 8 * c.blocks.len() + 24 * c.edges.len()) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "00000000000000aa";
    const KEY2: &str = "00000000000000bb";

    fn delta(entry: u64) -> ProfileDb {
        let mut db = ProfileDb::new();
        db.insert(
            "m",
            "f",
            FuncCounts {
                entry,
                blocks: vec![entry, entry / 2],
                edges: [((0, 1), entry / 2)].into_iter().collect(),
            },
        );
        db
    }

    #[test]
    fn push_requires_registration() {
        let mut s = ProfileStore::new(0);
        assert_eq!(
            s.push(KEY, &delta(4)),
            Err(StoreError::UnknownProgram(KEY.to_string()))
        );
        assert!(s.register(KEY).unwrap());
        assert!(!s.register(KEY).unwrap());
        let out = s.push(KEY, &delta(4)).unwrap();
        assert_eq!(out.pushes, 1);
        assert_eq!(out.functions, 1);
        assert_eq!(out.generation, 0);
    }

    #[test]
    fn bad_keys_are_refused_without_state_change() {
        let mut s = ProfileStore::new(0);
        for k in ["short", "0123456789ABCDEF", "0123456789abcdez"] {
            assert!(matches!(s.push(k, &delta(1)), Err(StoreError::BadKey(_))));
            assert!(matches!(s.register(k), Err(StoreError::BadKey(_))));
            assert!(matches!(s.advance(k, 1), Err(StoreError::BadKey(_))));
        }
        assert_eq!(s.stats(), StoreStats::default());
    }

    #[test]
    fn within_generation_merge_is_order_independent() {
        let deltas = [delta(3), delta(100), delta(7), delta(41)];
        let mut a = ProfileStore::new(0);
        let mut b = ProfileStore::new(0);
        a.register(KEY).unwrap();
        b.register(KEY).unwrap();
        for d in &deltas {
            a.push(KEY, d).unwrap();
        }
        for d in deltas.iter().rev() {
            b.push(KEY, d).unwrap();
        }
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn advance_halves_counts_and_bumps_generation() {
        let mut s = ProfileStore::new(0);
        s.register(KEY).unwrap();
        s.push(KEY, &delta(8)).unwrap();
        assert_eq!(s.advance(KEY, 1).unwrap(), 1);
        let agg = s.aggregate(KEY).unwrap();
        let c = agg.db().get("m", "f").unwrap();
        assert_eq!(c.entry, 4);
        assert_eq!(c.blocks, vec![4, 2]);
        assert_eq!(c.edges[&(0, 1)], 2);
        // A huge advance clears everything rather than shifting by >= 64.
        s.advance(KEY, 1000).unwrap();
        assert_eq!(
            s.aggregate(KEY).unwrap().db().get("m", "f").unwrap().entry,
            0
        );
        assert_eq!(s.aggregate(KEY).unwrap().generation, 1001);
    }

    #[test]
    fn merged_is_none_for_empty_aggregates() {
        let mut s = ProfileStore::new(0);
        s.register(KEY).unwrap();
        assert!(
            s.merged(KEY).is_none(),
            "empty aggregate acts like no profile"
        );
        s.push(KEY, &delta(2)).unwrap();
        assert_eq!(s.merged(KEY).unwrap(), delta(2));
        assert!(s.merged(KEY2).is_none());
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let mut s = ProfileStore::new(0);
        s.register(KEY).unwrap();
        s.register(KEY2).unwrap();
        s.push(KEY, &delta(9)).unwrap();
        s.advance(KEY, 2).unwrap();
        s.push(KEY, &delta(5)).unwrap();
        s.push(KEY2, &delta(1)).unwrap();
        let text = s.to_text();
        let back = ProfileStore::from_text(&text, 0).unwrap();
        assert_eq!(back.to_text(), text);
        assert_eq!(back.aggregate(KEY).unwrap().generation, 2);
        assert_eq!(back.aggregate(KEY).unwrap().pushes, 2);
        assert_eq!(back.stats().programs, 2);
    }

    #[test]
    fn malformed_store_text_is_rejected() {
        assert!(ProfileStore::from_text("", 0).is_err());
        assert!(ProfileStore::from_text("pgo-store v2\n", 0).is_err());
        assert!(ProfileStore::from_text("pgo-store v1\nbogus\n", 0).is_err());
        assert!(
            ProfileStore::from_text(&format!("pgo-store v1\nprogram {KEY} 0 0\n"), 0).is_err(),
            "unterminated program"
        );
        assert!(
            ProfileStore::from_text(
                &format!("pgo-store v1\nprogram {KEY} 0 0\nbogus 1\nendprogram\n"),
                0
            )
            .is_err(),
            "embedded profile text must parse"
        );
        assert!(
            ProfileStore::from_text("pgo-store v1\nprogram nothex 0 0\nendprogram\n", 0).is_err()
        );
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut s = ProfileStore::new(2);
        s.register(KEY).unwrap();
        s.register(KEY2).unwrap();
        s.push(KEY, &delta(1)).unwrap(); // KEY is now warmer than KEY2
        s.register("00000000000000cc").unwrap();
        assert!(s.aggregate(KEY2).is_none(), "coldest evicted");
        assert!(s.aggregate(KEY).is_some());
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.stats().programs, 2);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hlo-pgo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pgo");
        let mut s = ProfileStore::new(0);
        s.register(KEY).unwrap();
        s.push(KEY, &delta(6)).unwrap();
        s.save(&path).unwrap();
        let back = ProfileStore::load(&path, 0).unwrap();
        assert_eq!(back.to_text(), s.to_text());
        // Missing file = empty store; garbage = InvalidData.
        let missing = ProfileStore::load(&dir.join("absent.pgo"), 0).unwrap();
        assert_eq!(missing.stats().programs, 0);
        std::fs::write(&path, "not a store").unwrap();
        let err = ProfileStore::load(&path, 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
