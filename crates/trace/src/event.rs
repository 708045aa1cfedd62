//! The structured event log: leveled, key=value events with a canonical
//! one-line text encoding and a strict parser.
//!
//! The daemon narrates its lifecycle here — request start/finish/refusal,
//! cache evictions, PGO re-optimizations, incremental fallbacks, drain,
//! persisted-store save errors — one [`Event`] per occurrence. Encoding is
//! dependency-free and lossless: every event renders to exactly one line
//! (`<level> <name> key=value key=value …`), values escape whitespace and
//! backslashes, and [`Event::parse`] rejects anything the encoder could
//! not have produced. [`Event::normalized`] strips the time-valued fields
//! (`ts` and any `*_us`/`*_ms` key), which is what lets the determinism
//! gate compare event-log *content* across runs and daemon worker counts.
//!
//! Sinks are deliberately boring: an append-mode file written one
//! `write + flush` per line (crash-safe — a torn write loses at most the
//! final line), and/or stderr. The log itself never reads a clock;
//! callers supply timestamps as ordinary fields.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event severity. Ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum EventLevel {
    /// Chatty diagnostics.
    Debug,
    /// Normal lifecycle events.
    #[default]
    Info,
    /// Something degraded but handled (fallback, refusal, slow request).
    Warn,
    /// Something failed (save error, trap).
    Error,
}

impl EventLevel {
    /// The canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

impl std::fmt::Display for EventLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for EventLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "debug" => Ok(EventLevel::Debug),
            "info" => Ok(EventLevel::Info),
            "warn" => Ok(EventLevel::Warn),
            "error" => Ok(EventLevel::Error),
            other => Err(format!("bad event level `{other}`")),
        }
    }
}

/// True for the identifier charset event names and field keys share:
/// lowercase alphanumerics plus `_`, `.` and `-`, non-empty.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.-".contains(c))
}

/// Escapes a field value for the one-line encoding: `\\` for backslash,
/// `\s` for space, `\n`/`\r`/`\t` for the control whitespace. Everything
/// else (including `=`, quotes and non-ASCII) passes through literally.
fn escape_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Strictly reverses [`escape_value`]: a backslash must introduce one of
/// the five defined escapes, and no raw whitespace may appear.
fn unescape_value(v: &str) -> Result<String, String> {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') => out.push('\\'),
                Some('s') => out.push(' '),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
            },
            ' ' | '\n' | '\r' | '\t' => return Err("raw whitespace in value".to_string()),
            c => out.push(c),
        }
    }
    Ok(out)
}

/// One structured event: a level, a name, and ordered key=value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Severity.
    pub level: EventLevel,
    /// Event name (`request.finish`, `cache.evict`, …): a lowercase
    /// `[a-z0-9_.-]+` token.
    pub name: String,
    /// Ordered fields. Keys share the name's token charset; values are
    /// arbitrary text (escaped on the wire).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// An event with no fields yet. `name` must be a valid token
    /// (debug-asserted; [`Event::to_line`] output would otherwise not
    /// re-parse).
    pub fn new(level: EventLevel, name: &str) -> Event {
        debug_assert!(is_token(name), "bad event name `{name}`");
        Event {
            level,
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder-style).
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Event {
        debug_assert!(is_token(key), "bad field key `{key}`");
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The canonical one-line encoding (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = format!("{} {}", self.level, self.name);
        for (k, v) in &self.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(&escape_value(v));
        }
        s
    }

    /// Strictly parses one encoded line: the level must be a known
    /// spelling, name and keys must be valid tokens, every field must
    /// carry `=`, and values may use only the defined escapes.
    ///
    /// # Errors
    /// Describes the first malformed token.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut parts = line.split(' ');
        let level: EventLevel = parts.next().unwrap_or("").parse()?;
        let name = parts.next().ok_or("missing event name")?;
        if !is_token(name) {
            return Err(format!("bad event name `{name}`"));
        }
        let mut fields = Vec::new();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("field `{part}` has no `=`"))?;
            if !is_token(k) {
                return Err(format!("bad field key `{k}`"));
            }
            fields.push((k.to_string(), unescape_value(v)?));
        }
        Ok(Event {
            level,
            name: name.to_string(),
            fields,
        })
    }

    /// The event with measured fields removed: `ts`, and any key ending
    /// in `_us`, `_ms`, or `_bytes` (payload sizes embed rendered wall
    /// times, so they are measured too). Two runs doing the same work
    /// produce the same normalized events regardless of scheduling — the
    /// form the determinism gate compares.
    pub fn normalized(&self) -> Event {
        Event {
            level: self.level,
            name: self.name.clone(),
            fields: self
                .fields
                .iter()
                .filter(|(k, _)| {
                    k != "ts"
                        && !k.ends_with("_us")
                        && !k.ends_with("_ms")
                        && !k.ends_with("_bytes")
                })
                .cloned()
                .collect(),
        }
    }
}

/// Normalizes a whole event-log text: parses each line, drops time-valued
/// fields (see [`Event::normalized`]), re-encodes. Unparsable lines are
/// kept verbatim so the comparison still fails loudly on garbage.
pub fn normalize_log(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match Event::parse(line) {
            Ok(e) => out.push_str(&e.normalized().to_line()),
            Err(_) => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

enum Sink {
    File(File),
    Stderr,
    Memory(Vec<String>),
}

/// A leveled event log fanning out to any combination of sinks. Emission
/// is one formatted line per event, written and flushed atomically per
/// sink under one lock — crash-safe append for the file sink.
pub struct EventLog {
    sinks: Mutex<Vec<Sink>>,
    min_level: EventLevel,
    emitted: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("min_level", &self.min_level)
            .field("emitted", &self.emitted.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLog {
    /// A log with no sinks: emissions count but go nowhere.
    pub fn disabled() -> EventLog {
        EventLog {
            sinks: Mutex::new(Vec::new()),
            min_level: EventLevel::Debug,
            emitted: AtomicU64::new(0),
        }
    }

    /// Builds a log from the daemon's knobs: an append-mode file when
    /// `path` is given, stderr when `stderr` is set (both may be active).
    ///
    /// # Errors
    /// Propagates the file open failure.
    pub fn new(path: Option<&Path>, stderr: bool) -> std::io::Result<EventLog> {
        let mut sinks = Vec::new();
        if let Some(p) = path {
            sinks.push(Sink::File(
                OpenOptions::new().create(true).append(true).open(p)?,
            ));
        }
        if stderr {
            sinks.push(Sink::Stderr);
        }
        Ok(EventLog {
            sinks: Mutex::new(sinks),
            min_level: EventLevel::Debug,
            emitted: AtomicU64::new(0),
        })
    }

    /// A log capturing lines in memory — for tests.
    pub fn in_memory() -> EventLog {
        EventLog {
            sinks: Mutex::new(vec![Sink::Memory(Vec::new())]),
            min_level: EventLevel::Debug,
            emitted: AtomicU64::new(0),
        }
    }

    /// True when at least one sink is attached — lets callers skip
    /// building events nobody will see.
    pub fn enabled(&self) -> bool {
        !self
            .sinks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Events emitted so far (counted whether or not any sink is
    /// attached).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Emits one event to every sink.
    pub fn emit(&self, event: &Event) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if event.level < self.min_level {
            return;
        }
        let mut sinks = self.sinks.lock().unwrap_or_else(|e| e.into_inner());
        if sinks.is_empty() {
            return;
        }
        let mut line = event.to_line();
        line.push('\n');
        for sink in sinks.iter_mut() {
            match sink {
                Sink::File(f) => {
                    // One write + flush per line: a crash tears at most
                    // the final line, never reorders earlier ones.
                    let _ = f.write_all(line.as_bytes());
                    let _ = f.flush();
                }
                Sink::Stderr => {
                    let _ = std::io::stderr().lock().write_all(line.as_bytes());
                }
                Sink::Memory(lines) => lines.push(event.to_line()),
            }
        }
    }

    /// Lines captured by the in-memory sink (empty for other sinks).
    pub fn memory_lines(&self) -> Vec<String> {
        let sinks = self.sinks.lock().unwrap_or_else(|e| e.into_inner());
        for s in sinks.iter() {
            if let Sink::Memory(lines) = s {
                return lines.clone();
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_roundtrips_with_escapes() {
        let e = Event::new(EventLevel::Warn, "request.finish")
            .field("id", "00ab34cd56ef7890")
            .field("msg", "bad profile: line `f g`\nsecond\tline \\ end")
            .field("wall_us", 1234u64);
        let line = e.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Event::parse(&line).unwrap(), e);
    }

    #[test]
    fn empty_values_and_no_fields_roundtrip() {
        let bare = Event::new(EventLevel::Info, "daemon.drain");
        assert_eq!(Event::parse(&bare.to_line()).unwrap(), bare);
        let empty = Event::new(EventLevel::Info, "x").field("k", "");
        assert_eq!(Event::parse(&empty.to_line()).unwrap(), empty);
    }

    #[test]
    fn parser_is_strict() {
        assert!(Event::parse("").is_err());
        assert!(Event::parse("loud name").is_err()); // bad level
        assert!(Event::parse("info").is_err()); // no name
        assert!(Event::parse("info Bad.Name").is_err()); // uppercase name
        assert!(Event::parse("info ok novalue").is_err()); // field without =
        assert!(Event::parse("info ok K=v").is_err()); // bad key charset
        assert!(Event::parse("info ok k=\\q").is_err()); // unknown escape
        assert!(Event::parse("info ok k=\\").is_err()); // dangling backslash
    }

    #[test]
    fn normalized_strips_measured_fields_only() {
        let e = Event::new(EventLevel::Info, "request.finish")
            .field("id", "aa")
            .field("outcome", "miss")
            .field("ts", "123456")
            .field("wall_us", 88u64)
            .field("uptime_ms", 9u64)
            .field("resp_bytes", 400u64);
        let n = e.normalized();
        assert_eq!(
            n.fields,
            vec![
                ("id".to_string(), "aa".to_string()),
                ("outcome".to_string(), "miss".to_string())
            ]
        );
        let text = format!("{}\n", e.to_line());
        assert_eq!(normalize_log(&text), format!("{}\n", n.to_line()));
    }

    #[test]
    fn levels_order_and_roundtrip() {
        assert!(EventLevel::Debug < EventLevel::Info);
        assert!(EventLevel::Warn < EventLevel::Error);
        for l in [
            EventLevel::Debug,
            EventLevel::Info,
            EventLevel::Warn,
            EventLevel::Error,
        ] {
            assert_eq!(l.as_str().parse::<EventLevel>().unwrap(), l);
        }
    }

    #[test]
    fn file_sink_appends_and_memory_sink_captures() {
        let dir = std::env::temp_dir().join(format!("hlo-event-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::new(Some(&path), false).unwrap();
            assert!(log.enabled());
            log.emit(&Event::new(EventLevel::Info, "a").field("n", 1));
        }
        {
            // Re-opening appends rather than truncating.
            let log = EventLog::new(Some(&path), false).unwrap();
            log.emit(&Event::new(EventLevel::Info, "b").field("n", 2));
            assert_eq!(log.emitted(), 1);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "info a n=1\ninfo b n=2\n");
        std::fs::remove_file(&path).unwrap();

        let mem = EventLog::in_memory();
        mem.emit(&Event::new(EventLevel::Error, "oops"));
        assert_eq!(mem.memory_lines(), vec!["error oops".to_string()]);

        let off = EventLog::disabled();
        assert!(!off.enabled());
        off.emit(&Event::new(EventLevel::Info, "nowhere"));
        assert_eq!(off.emitted(), 1);
        assert!(off.memory_lines().is_empty());
    }
}
