//! `cargo tier2` — the repository's second-tier quality gate: clippy with
//! warnings denied across every target of every workspace member (lib
//! test targets included), then `rustfmt` in check mode.
//!
//! A second mode, `tier2 trace-schema <file.json>`, validates a trace file
//! written by `hloc build --trace PATH` against the Chrome trace-event
//! shape (CI runs a traced build and feeds the output through this).
//!
//! The default gate also checks that every decision reason code the
//! pipeline can emit (`hlo::all_reason_codes()`) is documented in the
//! DESIGN.md §11 table, and that every `(stats line, series)` pair the
//! daemon's `stats` reply renders (`serve::server::STATS_SERIES`) has a
//! row in the §16 Accounting table, so neither can ship undocumented.

use aggressive_inlining::{hlo, serve};
use std::process::{Command, ExitCode};

fn run(args: &[&str]) -> bool {
    eprintln!("tier2: cargo {}", args.join(" "));
    Command::new(env!("CARGO"))
        .args(args)
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Checks that `text` is valid JSON shaped like a Chrome trace-event
/// document. The actual schema lives next to the exporter
/// ([`hlo::validate_chrome_trace`]) so daemon-side trace replies and this
/// gate enforce the same contract; this is a thin delegation.
fn check_trace_schema(text: &str) -> Result<usize, String> {
    hlo::validate_chrome_trace(text)
}

/// Every reason code the pipeline can emit must appear (backtick-quoted)
/// in `design`; returns the codes that do not.
fn undocumented_reason_codes(design: &str) -> Vec<&'static str> {
    hlo::all_reason_codes()
        .iter()
        .copied()
        .filter(|code| !design.contains(&format!("`{code}`")))
        .collect()
}

/// Every `(stats line, series)` pair of the `stats` reply must share one
/// table row of `design`, both backtick-quoted; returns the pairs that do
/// not.
fn undocumented_stats_series(design: &str) -> Vec<(&'static str, &'static str)> {
    serve::server::STATS_SERIES
        .iter()
        .copied()
        .filter(|(line, series)| {
            !design.lines().any(|row| {
                row.starts_with('|')
                    && row.contains(&format!("`{line}`"))
                    && row.contains(&format!("`{series}`"))
            })
        })
        .collect()
}

fn check_design_tables() -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let design = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tier2: cannot read {path}: {e}");
            return false;
        }
    };
    let codes = undocumented_reason_codes(&design);
    if codes.is_empty() {
        eprintln!(
            "tier2: all {} reason codes documented in DESIGN.md",
            hlo::all_reason_codes().len()
        );
    } else {
        eprintln!("tier2: reason codes missing from the DESIGN.md table: {codes:?}");
    }
    let series = undocumented_stats_series(&design);
    if series.is_empty() {
        eprintln!(
            "tier2: all {} stats series documented in DESIGN.md",
            serve::server::STATS_SERIES.len()
        );
    } else {
        eprintln!("tier2: stats series missing from the DESIGN.md Accounting table: {series:?}");
    }
    codes.is_empty() && series.is_empty()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-schema") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: tier2 trace-schema <file.json>");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tier2: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check_trace_schema(&text) {
            Ok(n) => {
                eprintln!("tier2: {path} is a valid Chrome trace ({n} events)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tier2: {path} is not a valid Chrome trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let clippy = run(&[
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ]);
    let fmt = run(&["fmt", "--all", "--check"]);
    let tables = check_design_tables();
    if clippy && fmt && tables {
        eprintln!("tier2: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tier2: FAILED ({}{}{})",
            if clippy { "" } else { "clippy " },
            if fmt { "" } else { "fmt " },
            if tables { "" } else { "design-tables" }
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{check_trace_schema, undocumented_reason_codes, undocumented_stats_series};
    use aggressive_inlining::hlo;

    #[test]
    fn shipped_design_documents_every_reason_code() {
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"));
        assert_eq!(undocumented_reason_codes(design), Vec::<&str>::new());
    }

    #[test]
    fn missing_codes_are_reported() {
        let partial = "only `accepted` and `pure-call-removed` are here";
        let missing = undocumented_reason_codes(partial);
        assert!(missing.contains(&"ipa-pure-callee"));
        assert!(!missing.contains(&"accepted"));
    }

    #[test]
    fn shipped_design_documents_every_stats_series() {
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"));
        assert_eq!(undocumented_stats_series(design), Vec::new());
    }

    #[test]
    fn missing_stats_series_are_reported() {
        let partial = "| `hits` | `cache_hits_total` |\n\
                       `misses` and `cache_misses_total`, but not in a table row\n\
                       | `stale_hits` | `cache_hits_total` |\n";
        let missing = undocumented_stats_series(partial);
        assert!(!missing.contains(&("hits", "cache_hits_total")));
        assert!(missing.contains(&("misses", "cache_misses_total")));
        assert!(missing.contains(&("stale_hits", "pgo_reoptimize_total")));
    }

    #[test]
    fn real_exporter_output_passes_the_schema_check() {
        let mut t = hlo::Tracer::new(hlo::TraceLevel::Spans);
        let root = t.push("optimize");
        t.leaf(
            "annotate",
            std::time::Duration::from_micros(5),
            std::time::Duration::from_micros(5),
        );
        t.pop(root, std::time::Duration::from_micros(5));
        let n = check_trace_schema(&hlo::chrome_trace_json(&t)).unwrap();
        assert_eq!(n, 3); // metadata + 2 spans
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(check_trace_schema("not json").is_err());
        assert!(check_trace_schema("{\"traceEvents\": 3}").is_err());
        // Parses, but has no complete span events.
        assert!(
            check_trace_schema("{\"traceEvents\":[{\"name\":\"m\",\"ph\":\"M\",\"ts\":0}]}")
                .is_err()
        );
    }
}
