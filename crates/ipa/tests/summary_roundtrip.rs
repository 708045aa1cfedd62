//! Wire-format guarantees for `ipa-summaries v1`.
//!
//! The canonical text must be a fixpoint: `from_text(to_text(s)) == s`
//! and re-serializing reproduces the bytes exactly for any summary set
//! the analysis can produce.

use hlo_ipa::{FuncSummary, ParamEscape, RetInfo, Summaries};
use hlo_ir::{FuncId, GlobalId};
use proptest::prelude::*;

fn escape_strategy() -> impl Strategy<Value = ParamEscape> {
    prop_oneof![
        Just(ParamEscape::No),
        Just(ParamEscape::Direct),
        (0u32..8, 0usize..4).prop_map(|(f, j)| ParamEscape::Via(FuncId(f), j)),
    ]
}

fn ret_strategy() -> impl Strategy<Value = RetInfo> {
    prop_oneof![
        Just(RetInfo::Unknown),
        any::<i64>().prop_map(RetInfo::Const),
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| RetInfo::Range(a.min(b), a.max(b))),
    ]
}

fn summary_strategy() -> impl Strategy<Value = FuncSummary> {
    const MAX_PARAMS: usize = 4;
    let flags = prop::collection::vec(any::<bool>(), 8);
    let globals = (
        prop::collection::vec(0u32..16, 0..4),
        prop::collection::vec(0u32..16, 0..4),
    );
    let per_param = (
        0usize..=MAX_PARAMS,
        prop::collection::vec(any::<bool>(), MAX_PARAMS),
        prop::collection::vec(any::<bool>(), MAX_PARAMS),
        prop::collection::vec(escape_strategy(), MAX_PARAMS),
    );
    ("[a-z]{1,8}", flags, globals, per_param, ret_strategy()).prop_map(
        |(name, flags, (mods, refs), (params, mut w, mut r, mut esc), ret)| {
            let sorted = |ids: Vec<u32>| {
                let mut v: Vec<GlobalId> = ids.into_iter().map(GlobalId).collect();
                v.sort();
                v.dedup();
                v
            };
            w.truncate(params);
            r.truncate(params);
            esc.truncate(params);
            FuncSummary {
                name,
                params: params as u32,
                mod_globals: sorted(mods),
                ref_globals: sorted(refs),
                writes_unknown: flags[0],
                reads_unknown: flags[1],
                writes_params: w,
                reads_params: r,
                param_escapes: esc,
                calls_extern: flags[2],
                calls_indirect: flags[3],
                may_trap: flags[4],
                may_not_terminate: flags[5],
                syntactic_effects: flags[6],
                leaks_frame: flags[7],
                ret,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn summaries_text_roundtrip_is_identity(funcs in prop::collection::vec(summary_strategy(), 0..6)) {
        let s = Summaries { funcs };
        let text = s.to_text();
        let back = Summaries::from_text(&text).expect("canonical text parses");
        prop_assert_eq!(&s, &back);
        // Canonical form is a fixpoint (fingerprints hash these bytes).
        prop_assert_eq!(text, back.to_text());
    }
}
