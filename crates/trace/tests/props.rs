//! Property tests for the observability formats: event-log lines, the
//! quantile sketch's error bound, and the metrics exposition contract.

use hlo_trace::{
    parse_exposition, Event, EventLevel, MetricsRegistry, QuantileSketch, SKETCH_ERROR_PERCENT,
};
use proptest::prelude::*;

fn level_strategy() -> impl Strategy<Value = EventLevel> {
    prop_oneof![
        Just(EventLevel::Debug),
        Just(EventLevel::Info),
        Just(EventLevel::Warn),
        Just(EventLevel::Error),
    ]
}

/// Arbitrary field values: printable ASCII plus, half the time, a tail of
/// every character the escaper special-cases.
fn value_strategy() -> impl Strategy<Value = String> {
    ("[ -~]{0,12}", any::<bool>()).prop_map(|(mut s, spice)| {
        if spice {
            s.push_str(" \\\n\r\tend");
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_lines_roundtrip(
        level in level_strategy(),
        name in "[a-z]{1,10}",
        fields in prop::collection::vec(("[a-z]{1,8}", value_strategy()), 0..6),
    ) {
        let mut e = Event::new(level, &name);
        for (k, v) in &fields {
            e = e.field(k, v);
        }
        let line = e.to_line();
        prop_assert!(!line.contains('\n'), "encoding is one line: {line:?}");
        prop_assert_eq!(Event::parse(&line).unwrap(), e);
    }

    #[test]
    fn sketch_honours_its_error_bound(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.record(v);
        }
        prop_assert_eq!(sketch.count(), values.len() as u64);

        // Never undershoots; overshoots by at most the documented bound.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for permille in [500u64, 950, 990, 1000] {
            let rank = (permille * sorted.len() as u64).div_ceil(1000).max(1);
            let truth = sorted[rank as usize - 1];
            let q = sketch.quantile(permille);
            prop_assert!(q >= truth, "p{} undershoot: {} < {}", permille, q, truth);
            // `truth / (100 / pct)` instead of `truth * pct / 100`: same
            // bound, no overflow near u64::MAX.
            prop_assert!(
                q <= truth.saturating_add(truth / (100 / SKETCH_ERROR_PERCENT)),
                "p{} overshoot: {} vs {}",
                permille,
                q,
                truth
            );
        }
    }

    #[test]
    fn exposition_is_sorted_unique_and_reparseable(
        counters in prop::collection::vec(("[a-z]{1,8}", 0u64..100), 1..8),
        gauges in prop::collection::vec(("[f-m]{2,8}", any::<i64>()), 0..6),
        observations in prop::collection::vec(0u64..5_000, 0..20),
    ) {
        let m = MetricsRegistry::new();
        let mut expect_counter = std::collections::BTreeMap::new();
        for (name, n) in &counters {
            m.add(name, *n);
            *expect_counter.entry(name.clone()).or_insert(0u64) += n;
        }
        for (name, g) in &gauges {
            // Suffix keeps gauge names from colliding with counters.
            m.set_gauge(&format!("{name}_g"), *g);
        }
        for &v in &observations {
            m.observe("lat_us", &[100, 1000], v);
        }
        let text = m.expose();
        let series = parse_exposition(&text).unwrap();

        // Series names are unique.
        let names: Vec<&String> = series.iter().map(|(n, _)| n).collect();
        let unique: std::collections::BTreeSet<&&String> = names.iter().collect();
        prop_assert!(unique.len() == names.len(), "duplicate series in:\n{}", text);

        // `# TYPE` groups appear in sorted base-name order.
        let bases: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        let mut sorted_bases = bases.clone();
        sorted_bases.sort_unstable();
        prop_assert_eq!(&bases, &sorted_bases);

        // Counter values survive the re-parse.
        for (name, total) in &expect_counter {
            let got = series.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            prop_assert_eq!(got, Some(*total as i128));
        }
        if !observations.is_empty() {
            let inf = series
                .iter()
                .find(|(n, _)| n == "lat_us_bucket{le=\"+Inf\"}")
                .map(|(_, v)| *v);
            prop_assert_eq!(inf, Some(observations.len() as i128));
        }
    }
}
