//! Wire-format guarantees for the optimization report.
//!
//! hlo-serve ships reports back with cached results as `to_text`, and a
//! client build may be older or newer than the daemon. Two properties
//! keep that safe: `from_text(to_text(r)) == r` for any report the
//! current build can produce, and lines the parser does not recognize
//! are counted into `unknown_keys` instead of aborting the parse.

use hlo::{HloReport, PassReport, StageTiming};
use proptest::prelude::*;

fn pass_strategy() -> impl Strategy<Value = PassReport> {
    (
        0usize..16,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                pass,
                inlines,
                clones_created,
                clones_reused,
                clone_replacements,
                deletions,
                cost,
            )| {
                PassReport {
                    pass,
                    inlines,
                    clones_created,
                    clones_reused,
                    clone_replacements,
                    deletions,
                    cost_after: cost,
                }
            },
        )
}

fn stage_strategy() -> impl Strategy<Value = StageTiming> {
    // Stage names are single tokens on the wire (split_whitespace), so
    // draw from the identifier-ish shapes the driver actually emits.
    ("[a-z]{1,12}", any::<u64>(), any::<u64>()).prop_map(|(stage, wall_us, work_us)| StageTiming {
        stage: if stage.is_empty() {
            "s".to_string()
        } else {
            stage
        },
        wall_us,
        work_us,
    })
}

fn report_strategy() -> impl Strategy<Value = HloReport> {
    // Diagnostics are elided on the wire by design, and `unknown_keys`
    // is a parse-side tally — both stay at their defaults; every other
    // field is exercised.
    let counts = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    );
    let costs = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    );
    let ipa = (any::<u64>(), any::<u64>(), any::<u64>());
    let work = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    );
    let lists = (
        prop::collection::vec(pass_strategy(), 0..6),
        prop::collection::vec(stage_strategy(), 0..6),
    );
    (counts, costs, ipa, work, lists).prop_map(|(counts, costs, ipa, work, lists)| {
        let (inlines, clones, clone_replacements, deletions, pure_calls, outlines, straightened) =
            counts;
        let (initial_cost, final_cost, budget_limit, checks_run, lint_time_us, annotations) = costs;
        let (ipa_pure_calls, ipa_const_folds, ipa_store_forwards) = ipa;
        let (
            summary_scans,
            summary_solves,
            opt_runs,
            opt_rounds,
            liveness_solves,
            inline_evals,
            graph_scans,
            graph_assemblies,
        ) = work;
        let (passes, stage_timings) = lists;
        HloReport {
            inlines,
            clones,
            clone_replacements,
            deletions,
            pure_calls_removed: pure_calls,
            ipa_pure_calls,
            ipa_const_folds,
            ipa_store_forwards,
            outlines,
            straightened,
            initial_cost,
            final_cost,
            budget_limit,
            checks_run,
            lint_time_us,
            profile_annotations: annotations,
            summary_scans,
            summary_solves,
            opt_runs,
            opt_rounds,
            liveness_solves,
            inline_evals,
            graph_scans,
            graph_assemblies,
            passes,
            stage_timings,
            diagnostics: Vec::new(),
            unknown_keys: 0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn report_text_roundtrip_is_identity(r in report_strategy()) {
        let text = r.to_text();
        let back = HloReport::from_text(&text).expect("to_text output parses");
        prop_assert_eq!(&r, &back);
        // Canonical form is a fixpoint (the serve cache stores the bytes).
        prop_assert_eq!(text, back.to_text());
    }

    #[test]
    fn unknown_lines_are_tallied_not_fatal(extra in prop::collection::vec("[a-z]{1,10}", 1..5)) {
        let r = HloReport { inlines: 7, ..Default::default() };
        let mut text = r.to_text();
        // Splice unknown lines in before the trailer.
        let body = text.trim_end_matches("end\n").to_string();
        text = body;
        for (i, key) in extra.iter().enumerate() {
            text.push_str(&format!("x_{key} {i}\n"));
        }
        text.push_str("end\n");
        let back = HloReport::from_text(&text).expect("unknown keys are skipped");
        prop_assert_eq!(back.inlines, 7);
        prop_assert_eq!(back.unknown_keys, extra.len() as u64);
    }
}
