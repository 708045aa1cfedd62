//! The profile database.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Counts for one function from a training run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncCounts {
    /// Times the function was entered.
    pub entry: u64,
    /// Times each block was entered (indexed by block id at collection
    /// time).
    pub blocks: Vec<u64>,
    /// Times each CFG edge `(from, to)` was followed.
    pub edges: HashMap<(u32, u32), u64>,
}

/// A profile database: counts per `(module name, function name)`.
///
/// Keys are names rather than ids so a database collected from one compile
/// can be applied to another, as with the paper's separate instrumenting
/// and optimizing compiles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileDb {
    funcs: HashMap<(String, String), FuncCounts>,
}

/// Error from [`ProfileDb::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParseError {
    /// 1-based line of the malformed record.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ProfileParseError {}

impl ProfileDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ProfileDb::default()
    }

    /// Number of profiled functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True when no functions are profiled.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Inserts (or replaces) counts for a function.
    pub fn insert(&mut self, module: impl Into<String>, func: impl Into<String>, c: FuncCounts) {
        self.funcs.insert((module.into(), func.into()), c);
    }

    /// Looks up counts for `(module, func)`.
    pub fn get(&self, module: &str, func: &str) -> Option<&FuncCounts> {
        self.funcs.get(&(module.to_string(), func.to_string()))
    }

    /// Merges another database into this one, summing counts. Profiles
    /// from several training runs combine this way ("incorporating profile
    /// information from a variety of sources" is the paper's future work).
    ///
    /// Sums **saturate** at `u64::MAX`: the daemon merges pushed deltas
    /// from long-lived (or hostile) clients forever, and an overflowing
    /// counter must clamp, not panic.
    pub fn merge(&mut self, other: &ProfileDb) {
        for (k, v) in &other.funcs {
            let e = self.funcs.entry(k.clone()).or_default();
            merge_counts(e, v);
        }
    }

    /// Visits every `((module, func), counts)` pair, in arbitrary order.
    /// (Use [`ProfileDb::to_text`] when a canonical order matters.)
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &FuncCounts)> {
        self.funcs.iter()
    }

    /// Serializes to the line-oriented text form: one record per
    /// function in `(module, function)` order, its edges sorted.
    pub fn to_text(&self) -> String {
        let mut funcs: Vec<_> = self.funcs.iter().collect();
        funcs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut out = String::new();
        let mut edges = Vec::new();
        for ((module, func), c) in funcs {
            let _ = writeln!(out, "func {module} {func} {}", c.entry);
            out.push_str("blocks");
            for b in &c.blocks {
                let _ = write!(out, " {b}");
            }
            out.push('\n');
            edges.clear();
            edges.extend(c.edges.iter().map(|(&(f, t), &n)| (f, t, n)));
            edges.sort_unstable();
            for &(f, t, n) in &edges {
                let _ = writeln!(out, "edge {f} {t} {n}");
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses the text form produced by [`ProfileDb::to_text`].
    ///
    /// Duplicates are **merged, never silently overwritten**: a second
    /// `func` record for the same `(module, function)` sums into the
    /// first (as [`ProfileDb::merge`] would), and a repeated `edge f t`
    /// line inside one record sums into the earlier line. Concatenating
    /// two profile texts is therefore equivalent to parsing each and
    /// merging the databases; the canonical one-record-per-function form
    /// emitted by `to_text` stays a serialization fixpoint.
    ///
    /// # Errors
    /// Returns a positioned error for unknown records or malformed counts.
    pub fn from_text(text: &str) -> Result<Self, ProfileParseError> {
        let mut db = ProfileDb::new();
        let mut cur: Option<((String, String), FuncCounts)> = None;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts.next().expect("non-empty line");
            let err = |msg: &str| ProfileParseError {
                line: ln + 1,
                msg: msg.to_string(),
            };
            match tag {
                "func" => {
                    if cur.is_some() {
                        return Err(err("nested `func` record"));
                    }
                    let module = parts.next().ok_or_else(|| err("missing module"))?;
                    let func = parts.next().ok_or_else(|| err("missing function"))?;
                    let entry = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("missing entry count"))?;
                    cur = Some((
                        (module.to_string(), func.to_string()),
                        FuncCounts {
                            entry,
                            ..Default::default()
                        },
                    ));
                }
                "blocks" => {
                    let c = cur.as_mut().ok_or_else(|| err("`blocks` outside func"))?;
                    for p in parts {
                        c.1.blocks
                            .push(p.parse().map_err(|_| err("bad block count"))?);
                    }
                }
                "edge" => {
                    let c = cur.as_mut().ok_or_else(|| err("`edge` outside func"))?;
                    let f: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad edge"))?;
                    let t: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad edge"))?;
                    let n: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad edge count"))?;
                    let slot = c.1.edges.entry((f, t)).or_insert(0);
                    *slot = slot.saturating_add(n);
                }
                "end" => {
                    let (k, v) = cur.take().ok_or_else(|| err("`end` outside func"))?;
                    match db.funcs.entry(k) {
                        Entry::Vacant(slot) => {
                            slot.insert(v);
                        }
                        Entry::Occupied(mut slot) => merge_counts(slot.get_mut(), &v),
                    }
                }
                other => return Err(err(&format!("unknown record `{other}`"))),
            }
        }
        if cur.is_some() {
            return Err(ProfileParseError {
                line: text.lines().count(),
                msg: "unterminated func record".to_string(),
            });
        }
        Ok(db)
    }
}

/// Saturating element-wise sum of `src` into `dst` — the one merge rule
/// shared by [`ProfileDb::merge`] and duplicate records in
/// [`ProfileDb::from_text`].
fn merge_counts(dst: &mut FuncCounts, src: &FuncCounts) {
    dst.entry = dst.entry.saturating_add(src.entry);
    if dst.blocks.len() < src.blocks.len() {
        dst.blocks.resize(src.blocks.len(), 0);
    }
    for (i, c) in src.blocks.iter().enumerate() {
        dst.blocks[i] = dst.blocks[i].saturating_add(*c);
    }
    for (edge, c) in &src.edges {
        let slot = dst.edges.entry(*edge).or_insert(0);
        *slot = slot.saturating_add(*c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileDb {
        let mut db = ProfileDb::new();
        db.insert(
            "m",
            "f",
            FuncCounts {
                entry: 10,
                blocks: vec![10, 90, 10],
                edges: [((0, 1), 90), ((1, 2), 10)].into_iter().collect(),
            },
        );
        db
    }

    #[test]
    fn text_roundtrip() {
        let db = sample();
        let text = db.to_text();
        let back = ProfileDb::from_text(&text).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        let c = a.get("m", "f").unwrap();
        assert_eq!(c.entry, 20);
        assert_eq!(c.blocks, vec![20, 180, 20]);
        assert_eq!(c.edges[&(0, 1)], 180);
    }

    #[test]
    fn merge_into_empty() {
        let mut a = ProfileDb::new();
        a.merge(&sample());
        assert_eq!(a, sample());
    }

    #[test]
    fn merge_saturates_instead_of_panicking() {
        let near = u64::MAX - 5;
        let mut a = ProfileDb::new();
        a.insert(
            "m",
            "f",
            FuncCounts {
                entry: near,
                blocks: vec![near],
                edges: [((0, 1), near)].into_iter().collect(),
            },
        );
        let b = a.clone();
        a.merge(&b);
        let c = a.get("m", "f").unwrap();
        assert_eq!(c.entry, u64::MAX);
        assert_eq!(c.blocks, vec![u64::MAX]);
        assert_eq!(c.edges[&(0, 1)], u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ProfileDb::from_text("bogus 1 2 3").is_err());
        assert!(ProfileDb::from_text("blocks 1 2").is_err());
        assert!(ProfileDb::from_text("func m f 1\nblocks 1").is_err()); // no end
    }

    #[test]
    fn lookup_miss_is_none() {
        let db = sample();
        assert!(db.get("m", "zzz").is_none());
        assert!(db.get("other", "f").is_none());
    }
}
