//! A lock-sharded metrics registry: counters, gauges and fixed-bucket
//! histograms with a Prometheus-style text exposition. Each histogram
//! keeps a [`QuantileSketch`] beside its buckets, so one observation
//! feeds both the exposed buckets and [`MetricsRegistry::quantile`].
//!
//! Updates take `&self` and are safe from the daemon's worker threads.
//! Every update commutes (counters add, histograms add per bucket, gauges
//! are last-write-wins and reserved for daemon-side occupancy numbers), so
//! for the optimizer's deterministic counters the exposed text is
//! byte-identical on every run. The exposition sorts series by name,
//! which removes the only other ordering freedom.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Bucket upper bounds (microseconds) used for request/phase latency
/// histograms: 100 µs to 10 s in half-decade steps.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
];

/// Bucket upper bounds for profile-drift scores, in thousandths of the
/// maximum drift (a score of 1000 means total divergence). The top
/// bound equals the maximum, so the `+Inf` bucket stays empty.
pub const DRIFT_BUCKETS_MILLIS: &[u64] = &[10, 25, 50, 100, 250, 500, 750, 1000];

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram {
        bounds: Vec<u64>,
        /// One count per bound, plus the trailing `+Inf` bucket.
        counts: Vec<u64>,
        /// The same observations; holds the histogram's count and sum.
        sketch: QuantileSketch,
    },
}

const SHARD_COUNT: usize = 8;

/// The registry. Series names may carry Prometheus-style labels inline
/// (`requests_total{kind="optimize"}`); the exposition groups series by
/// base name.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<HashMap<String, Metric>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

fn shard_of(name: &str) -> usize {
    // FNV-1a, reduced to a shard index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARD_COUNT as u64) as usize
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn with_shard<R>(&self, name: &str, f: impl FnOnce(&mut HashMap<String, Metric>) -> R) -> R {
        let mut guard = self.shards[shard_of(name)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// Applies `update` to the series `name`, creating it from `init`
    /// first when absent. An existing series is found without allocating
    /// its name.
    fn update(&self, name: &str, init: impl FnOnce() -> Metric, update: impl FnOnce(&mut Metric)) {
        self.with_shard(name, |m| match m.get_mut(name) {
            Some(metric) => update(metric),
            None => {
                let mut metric = init();
                update(&mut metric);
                m.insert(name.to_string(), metric);
            }
        });
    }

    /// Adds `delta` to the counter `name`, creating it at zero.
    pub fn add(&self, name: &str, delta: u64) {
        self.update(
            name,
            || Metric::Counter(0),
            |metric| match metric {
                Metric::Counter(c) => *c += delta,
                _ => debug_assert!(false, "metric `{name}` is not a counter"),
            },
        );
    }

    /// Increments the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` (last write wins — not deterministic under
    /// concurrency; use only for occupancy-style values).
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.update(name, || Metric::Gauge(value), |m| *m = Metric::Gauge(value));
    }

    /// Records `value` into the fixed-bucket histogram `name` and its
    /// quantile sketch. The first observation fixes the bucket bounds;
    /// later calls may pass the same bounds (or any slice — only the
    /// first registration counts).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        let init = || Metric::Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sketch: QuantileSketch::new(),
        };
        self.update(name, init, |metric| match metric {
            Metric::Histogram {
                bounds,
                counts,
                sketch,
            } => {
                let idx = bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(bounds.len());
                counts[idx] += 1;
                sketch.record(value);
            }
            _ => debug_assert!(false, "metric `{name}` is not a histogram"),
        });
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_shard(name, |m| match m.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        })
    }

    /// Reads a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.with_shard(name, |m| match m.get(name) {
            Some(Metric::Gauge(g)) => *g,
            _ => 0,
        })
    }

    /// Reads a histogram's `(count, sum)` (zeros when absent).
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.with_shard(name, |m| match m.get(name) {
            Some(Metric::Histogram { sketch, .. }) => (sketch.count(), sketch.sum()),
            _ => (0, 0),
        })
    }

    /// Reads the histogram `name`'s quantile at `permille` from the sketch
    /// kept beside its buckets (0 when absent), within the error bound of
    /// [`QuantileSketch::quantile`].
    pub fn quantile(&self, name: &str, permille: u64) -> u64 {
        self.with_shard(name, |m| match m.get(name) {
            Some(Metric::Histogram { sketch, .. }) => sketch.quantile(permille),
            _ => 0,
        })
    }

    /// Renders every series as Prometheus-style text exposition, sorted by
    /// series name. Counter and gauge series print as `name value`;
    /// histograms expand to `_bucket{le=…}`, `_sum` and `_count` lines,
    /// the suffix going on the base name and a labeled histogram's labels
    /// onto each line (`lat_us{k="v"}` gives `lat_us_bucket{k="v",le=…}`
    /// and `lat_us_sum{k="v"}`). One `# TYPE` comment precedes each base
    /// name.
    pub fn expose(&self) -> String {
        let mut all: Vec<(String, Metric)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (k, v) in guard.iter() {
                all.push((k.clone(), v.clone()));
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in &all {
            let base = name.split('{').next().unwrap_or(name);
            if base != last_base {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram { .. } => "histogram",
                };
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                Metric::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                Metric::Histogram {
                    bounds,
                    counts,
                    sketch,
                } => {
                    // `{k="v",…}`, or empty for an unlabeled histogram.
                    let labels = &name[base.len()..];
                    let bucket = match labels.strip_suffix('}') {
                        Some(open) => format!("{base}_bucket{open},"),
                        None => format!("{base}_bucket{{"),
                    };
                    let mut cum = 0u64;
                    for (i, b) in bounds.iter().enumerate() {
                        cum += counts[i];
                        out.push_str(&format!("{bucket}le=\"{b}\"}} {cum}\n"));
                    }
                    cum += counts[bounds.len()];
                    out.push_str(&format!("{bucket}le=\"+Inf\"}} {cum}\n"));
                    out.push_str(&format!("{base}_sum{labels} {}\n", sketch.sum()));
                    out.push_str(&format!("{base}_count{labels} {}\n", sketch.count()));
                }
            }
        }
        out
    }
}

/// One parsed exposition series: `(series name with labels, value)`.
/// Histogram expansions appear as their individual `_bucket`/`_sum`/
/// `_count` series.
pub type ExpositionSeries = (String, i128);

/// Strictly parses a [`MetricsRegistry::expose`] document back into its
/// series. Accepted lines are exactly the two shapes the encoder emits:
/// `# TYPE <base> counter|gauge|histogram` comments and
/// `<series> <integer>` samples (series = identifier, optionally with a
/// `{key="value",…}` label block). Anything else is an error — this is
/// the "strict reader" contract the exposition promises scrapers.
///
/// # Errors
/// Describes the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpositionSeries>, String> {
    fn valid_series(name: &str) -> bool {
        let (base, labels) = match name.split_once('{') {
            Some((b, l)) => (b, Some(l)),
            None => (name, None),
        };
        let base_ok = !base.is_empty()
            && base
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        let labels_ok = match labels {
            None => true,
            // `key="value",key="value"` with a closing brace; values may
            // hold anything except a raw quote.
            Some(l) => match l.strip_suffix('}') {
                None => false,
                Some(body) => body.split(',').all(|pair| {
                    pair.split_once('=').is_some_and(|(k, v)| {
                        !k.is_empty()
                            && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                            && v.len() >= 2
                            && v.starts_with('"')
                            && v.ends_with('"')
                            && !v[1..v.len() - 1].contains('"')
                    })
                }),
            },
        };
        base_ok && labels_ok
    }
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# TYPE ") {
            let mut parts = comment.split(' ');
            let (base, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !valid_series(base) || parts.next().is_some() {
                return Err(format!("bad TYPE comment `{line}`"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("bad metric kind in `{line}`"));
            }
            continue;
        }
        // Labels may contain spaces inside quoted values, so split at the
        // *last* space: everything before is the series name.
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad exposition line `{line}`"))?;
        if !valid_series(name) {
            return Err(format!("bad series name `{name}`"));
        }
        let value: i128 = value
            .parse()
            .map_err(|_| format!("bad sample value in `{line}`"))?;
        out.push((name.to_string(), value));
    }
    Ok(out)
}

/// Bucket upper bounds of the [`QuantileSketch`]: `0, 1, 2, …` growing by
/// `max(1, b/4)` per step — at most 25% relative spacing — until the last
/// bound, `u64::MAX`. Computed once; identical in every process.
fn sketch_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = vec![0u64];
        let mut v = 0u64;
        while v < u64::MAX {
            // Step by ≤ 25% all the way to saturation, so the top bucket
            // honours the same relative bound as the rest of the range.
            v = v.saturating_add((v / 4).max(1));
            b.push(v);
        }
        b
    })
}

/// The documented relative error bound of [`QuantileSketch::quantile`],
/// in percent: a reported quantile `q` satisfies `v ≤ q ≤ v·1.25` for the
/// true order statistic `v` (exact for `v ≤ 4`, where buckets are
/// single-valued).
pub const SKETCH_ERROR_PERCENT: u64 = 25;

/// A deterministic streaming quantile sketch: fixed-size geometric
/// buckets, integer-only.
///
/// Values land in buckets whose upper bounds grow by at most 25% per
/// step ([`sketch_bounds`]); a quantile query returns the upper bound of
/// the bucket holding the requested rank, so the answer overshoots the
/// true order statistic by at most [`SKETCH_ERROR_PERCENT`] percent and
/// never undershoots. No clocks, no floats: the same observations give
/// the same sketch, whatever their order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            counts: vec![0; sketch_bounds().len()],
            count: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = sketch_bounds().partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The quantile at `permille` (e.g. 500 = p50, 990 = p99): the upper
    /// bound of the bucket holding that rank. Returns 0 on an empty
    /// sketch; `permille` is clamped to 1000.
    pub fn quantile(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(permille/1000 · count), at least rank 1.
        let rank = (self.count.saturating_mul(permille.min(1000)))
            .div_ceil(1000)
            .max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return sketch_bounds()[i];
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_expose_sorted() {
        let m = MetricsRegistry::new();
        m.inc("zeta_total");
        m.add("alpha_total", 41);
        m.inc("alpha_total");
        assert_eq!(m.counter("alpha_total"), 42);
        assert_eq!(m.counter("absent"), 0);
        let text = m.expose();
        let alpha = text.find("alpha_total 42").unwrap();
        let zeta = text.find("zeta_total 1").unwrap();
        assert!(alpha < zeta, "{text}");
        assert!(text.contains("# TYPE alpha_total counter"));
    }

    #[test]
    fn labeled_series_share_one_type_comment() {
        let m = MetricsRegistry::new();
        m.inc("req_total{kind=\"a\"}");
        m.inc("req_total{kind=\"b\"}");
        let text = m.expose();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{kind=\"a\"} 1"));
        assert!(text.contains("req_total{kind=\"b\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = MetricsRegistry::new();
        for v in [50, 150, 150, 5_000_000_000] {
            m.observe("lat_us", &[100, 1000], v);
        }
        let (count, sum) = m.histogram("lat_us");
        assert_eq!(count, 4);
        assert_eq!(sum, 50 + 150 + 150 + 5_000_000_000);
        let text = m.expose();
        assert!(text.contains("lat_us_bucket{le=\"100\"} 1"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"1000\"} 3"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_us_count 4"), "{text}");
        // The sketch beside the buckets saw the same observations.
        let mut same = QuantileSketch::new();
        for v in [50, 150, 150, 5_000_000_000] {
            same.record(v);
        }
        for permille in [500, 950, 990] {
            assert_eq!(m.quantile("lat_us", permille), same.quantile(permille));
        }
        assert_eq!(m.quantile("absent", 500), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("entries", 3);
        m.set_gauge("entries", 7);
        assert_eq!(m.gauge("entries"), 7);
        assert!(m.expose().contains("# TYPE entries gauge"));
    }

    #[test]
    fn exposition_reparses_strictly() {
        let m = MetricsRegistry::new();
        m.inc("req_total{kind=\"a b\"}");
        m.set_gauge("entries", -3);
        m.observe("lat_us", &[100, 1000], 150);
        let series = parse_exposition(&m.expose()).unwrap();
        assert!(series.contains(&("req_total{kind=\"a b\"}".to_string(), 1)));
        assert!(series.contains(&("entries".to_string(), -3)));
        assert!(series.contains(&("lat_us_bucket{le=\"+Inf\"}".to_string(), 1)));
        assert!(series.contains(&("lat_us_count".to_string(), 1)));

        // A labeled histogram: suffixes on the base name, labels merged.
        let labeled = MetricsRegistry::new();
        labeled.observe("exec_us{tier=\"bytecode\"}", &[100], 150);
        let series = parse_exposition(&labeled.expose()).unwrap();
        let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "exec_us_bucket{tier=\"bytecode\",le=\"100\"}",
                "exec_us_bucket{tier=\"bytecode\",le=\"+Inf\"}",
                "exec_us_sum{tier=\"bytecode\"}",
                "exec_us_count{tier=\"bytecode\"}",
            ]
        );
        assert_eq!(series[1].1, 1);
        assert_eq!(series[2].1, 150);

        assert!(parse_exposition("name\n").is_err()); // no value
        assert!(parse_exposition("name x\n").is_err()); // non-integer
        assert!(parse_exposition("bad name 1\n").is_err()); // space in name
        assert!(parse_exposition("name{k=v} 1\n").is_err()); // unquoted label
        assert!(parse_exposition("# TYPE t welp\n").is_err()); // bad kind
        assert!(parse_exposition("# TYPE t\n").is_err()); // missing kind
    }

    #[test]
    fn sketch_bounds_are_error_bounded_and_cover_u64() {
        let b = sketch_bounds();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), u64::MAX);
        for w in b.windows(2) {
            assert!(w[1] > w[0]);
            // ≤ 25% spacing past the unit-step region, everywhere.
            assert!(w[1] - w[0] <= (w[0] / 4).max(1), "{} -> {}", w[0], w[1]);
        }
        assert!(b.len() < 300, "sketch stays small: {} buckets", b.len());
    }

    #[test]
    fn sketch_quantiles_stay_within_the_documented_bound() {
        // A known synthetic distribution: 1..=1000 once each.
        let mut s = QuantileSketch::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        for (permille, truth) in [(500u64, 500u64), (950, 950), (990, 990), (1000, 1000)] {
            let q = s.quantile(permille);
            assert!(q >= truth, "p{permille}: {q} < {truth}");
            assert!(
                q <= truth + truth * SKETCH_ERROR_PERCENT / 100,
                "p{permille}: {q} overshoots {truth}"
            );
        }
        assert_eq!(QuantileSketch::new().quantile(500), 0);
        // Small values are exact (unit-width buckets).
        let mut small = QuantileSketch::new();
        for v in [1u64, 2, 3, 4] {
            small.record(v);
        }
        assert_eq!(small.quantile(500), 2);
        assert_eq!(small.quantile(1000), 4);
    }

    #[test]
    fn concurrent_updates_total_deterministically() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        m.inc("spins_total");
                        m.observe("spin_us", LATENCY_BUCKETS_US, i);
                    }
                });
            }
        });
        assert_eq!(m.counter("spins_total"), 8000);
        assert_eq!(m.histogram("spin_us").0, 8000);
    }
}
