//! Golden outputs for the benchmark suite.
//!
//! The suite is the evaluation's ground truth: if a benchmark's behaviour
//! drifts (an accidental edit, a VM semantics change, a front-end
//! regression), every figure silently changes. These pinned values catch
//! that. They are also what the optimizer's output is compared against —
//! `retired` is intentionally NOT pinned for optimized builds, only for
//! the unoptimized baseline.

use aggressive_inlining::{frontc, fuzz, hlo, ir, lint, profile, suite, vm};

/// (name, train-run return value, train-run checksum, train-run retired).
const GOLDEN: &[(&str, i64, u64, u64)] = &[
    ("008.espresso", 799, 0xcf24e9f44979458b, 1886311),
    ("022.li", 39199600, 0x2538f58cb89b2830, 2917317),
    ("023.eqntott", 2100, 0xdf1285a82f01dc44, 690364),
    ("026.compress", 71647440, 0x461e79bf1d7ecc2c, 599961),
    ("072.sc", 25332, 0x9790787d67e4e04, 212802),
    ("085.gcc", 4214793681, 0x6d20cf6fa960d625, 497747),
    ("099.go", 7947, 0x841fb1627d39dfe7, 1880300),
    ("124.m88ksim", 3445483525, 0x20b75f66e1887469, 1162981),
    ("126.gcc", 3475849690, 0x34ae5bb5199ffee2, 725120),
    ("129.compress", 2116471223, 0x9fea1fce638fb50c, 950031),
    ("130.li", 387660, 0xe5b2de04bf1083c, 823925),
    ("132.ijpeg", 71317, 0x2aff41b40cdc3855, 1210941),
    ("134.perl", 3155157329, 0x2ce2b50e6edab7a5, 214947),
    ("147.vortex", 2427650897, 0x2a48970fb8b481a5, 547107),
];

#[test]
fn train_runs_match_golden_values() {
    for &(name, ret, checksum, retired) in GOLDEN {
        let b = suite::benchmark(name).unwrap_or_else(|| panic!("missing {name}"));
        let p = b.compile().unwrap();
        let o = vm::run_program(&p, &[b.train_arg], &vm::ExecOptions::default()).unwrap();
        assert_eq!(o.ret, ret, "{name} return value drifted");
        assert_eq!(o.checksum, checksum, "{name} checksum drifted");
        assert_eq!(
            o.retired, retired,
            "{name} baseline instruction count drifted"
        );
    }
}

#[test]
fn golden_table_covers_the_whole_suite() {
    assert_eq!(GOLDEN.len(), suite::all_benchmarks().len());
}

/// One pinned optimizer build: (program, configuration, FNV-1a-64 of the
/// optimized program's IR text, the report's counters as rendered by
/// [`build_counters`]). Programs are those of [`pinned_programs`];
/// configurations are listed in [`configurations`]. This table pins the
/// optimizer's output across refactors of the driver: any change to it is
/// a change of behaviour, never a formatting update.
const BUILDS: &[(&str, &str, u64, &str)] = &[
    ("008.espresso", "default", 0xd5bfd357411259f7, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9692 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso", "module", 0x8846be087df07d86, "inl 7 cl 0 repl 0 del 4 out 0 pure 0 ipa 0/0/0 cost 8581->15163 limit 17162 str 5 p0:4/0/0/0/2/9699 p1:1/0/0/0/1/11736 p2:1/0/0/0/0/12184 p3:1/0/0/0/1/15163"),
    ("008.espresso", "no-ipa", 0xd5bfd357411259f7, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9692 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso", "budget400", 0x8ce85e001563e962, "inl 11 cl 0 repl 0 del 13 out 0 pure 0 ipa 0/0/0 cost 8570->31623 limit 42850 str 2 p0:6/0/0/0/6/13264 p1:3/0/0/0/3/20015 p2:2/0/0/0/2/31623 p3:0/0/0/0/0/31623"),
    ("008.espresso", "max-ops8", 0x8efce88d60fea6c9, "inl 8 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 8570->12710 limit 17140 str 5 p0:6/0/0/0/6/9690 p1:1/0/0/0/1/11191 p2:1/0/0/0/1/12708"),
    ("008.espresso", "strict", 0xd5bfd357411259f7, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9692 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso+train", "default", 0xae8dbce32f4df9e1, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9215 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso+train", "module", 0x376d395db694ac49, "inl 7 cl 0 repl 0 del 4 out 0 pure 0 ipa 0/0/0 cost 8581->15163 limit 17162 str 5 p0:4/0/0/0/1/9162 p1:1/0/0/0/1/10679 p2:1/0/0/0/1/13112 p3:1/0/0/0/1/15163"),
    ("008.espresso+train", "no-ipa", 0xae8dbce32f4df9e1, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9215 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso+train", "budget400", 0x01656d45c2a701ba, "inl 11 cl 0 repl 0 del 13 out 0 pure 0 ipa 0/0/0 cost 8570->31958 limit 42850 str 2 p0:8/0/0/0/8/12710 p1:1/0/0/0/1/20262 p2:1/0/0/0/1/25383 p3:1/0/0/0/1/31958"),
    ("008.espresso+train", "max-ops8", 0x4756166e819b2a9f, "inl 8 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 8570->12710 limit 17140 str 5 p0:6/0/0/0/6/9213 p1:1/0/0/0/1/11191 p2:1/0/0/0/1/12708"),
    ("008.espresso+train", "outline", 0xae8dbce32f4df9e1, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9215 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("008.espresso+train", "strict", 0xae8dbce32f4df9e1, "inl 9 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 8570->15143 limit 17140 str 4 p0:6/0/0/0/6/9215 p1:1/0/0/0/1/11193 p2:1/0/0/0/1/12710 p3:1/0/0/0/1/15143"),
    ("022.li", "default", 0x3a2bfe9cca9aee72, "inl 14 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 2 p0:6/0/0/0/6/3569 p1:3/1/0/1/1/4552 p2:3/1/0/6/0/5484 p3:2/1/0/6/0/6424"),
    ("022.li", "module", 0xa357f3f33a83c6ec, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 3471->6199 limit 6942 str 3 p0:5/0/0/0/4/3771 p1:1/0/0/0/0/5514 p2:1/0/0/0/0/5858 p3:1/0/0/0/1/6199"),
    ("022.li", "no-ipa", 0x3a2bfe9cca9aee72, "inl 14 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 2 p0:6/0/0/0/6/3569 p1:3/1/0/1/1/4552 p2:3/1/0/6/0/5484 p3:2/1/0/6/0/6424"),
    ("022.li", "budget400", 0xbaf33fc0c4ecc460, "inl 23 cl 4 repl 19 del 6 out 0 pure 0 ipa 0/0/0 cost 3471->14729 limit 17355 str 2 p0:3/1/0/1/2/7105 p1:7/1/0/6/2/8498 p2:5/1/0/6/0/12930 p3:8/1/0/6/2/14729"),
    ("022.li", "max-ops8", 0x98ca0e2d91c855c2, "inl 7 cl 1 repl 1 del 6 out 0 pure 0 ipa 0/0/0 cost 3471->4420 limit 6942 str 2 p0:6/0/0/0/6/3569 p1:1/1/0/1/0/4420"),
    ("022.li", "strict", 0x3a2bfe9cca9aee72, "inl 14 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 2 p0:6/0/0/0/6/3569 p1:3/1/0/1/1/4552 p2:3/1/0/6/0/5484 p3:2/1/0/6/0/6424"),
    ("022.li+train", "default", 0x175ee1ef33e74b75, "inl 15 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 7 p0:4/0/0/0/2/3717 p1:5/1/0/1/4/4555 p2:3/1/0/6/0/5487 p3:3/1/0/6/1/6424"),
    ("022.li+train", "module", 0xb2fc1eb5b7912cee, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 3471->6199 limit 6942 str 3 p0:5/0/0/0/4/3771 p1:1/0/0/0/0/5514 p2:1/0/0/0/0/5858 p3:1/0/0/0/1/6199"),
    ("022.li+train", "no-ipa", 0x175ee1ef33e74b75, "inl 15 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 7 p0:4/0/0/0/2/3717 p1:5/1/0/1/4/4555 p2:3/1/0/6/0/5487 p3:3/1/0/6/1/6424"),
    ("022.li+train", "budget400", 0x3da12b162f981135, "inl 29 cl 4 repl 19 del 10 out 0 pure 0 ipa 0/0/2 cost 3471->15785 limit 17355 str 7 p0:13/1/0/1/7/4700 p1:9/1/0/6/3/8617 p2:5/1/0/6/0/12345 p3:2/1/0/6/0/15785"),
    ("022.li+train", "max-ops8", 0x80d2b3b9c836a69c, "inl 7 cl 1 repl 1 del 4 out 0 pure 0 ipa 0/0/0 cost 3471->4561 limit 6942 str 5 p0:4/0/0/0/2/3717 p1:3/1/0/1/2/4561"),
    ("022.li+train", "outline", 0x175ee1ef33e74b75, "inl 15 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 7 p0:4/0/0/0/2/3717 p1:5/1/0/1/4/4555 p2:3/1/0/6/0/5487 p3:3/1/0/6/1/6424"),
    ("022.li+train", "strict", 0x175ee1ef33e74b75, "inl 15 cl 3 repl 13 del 7 out 0 pure 0 ipa 0/0/0 cost 3471->6424 limit 6942 str 7 p0:4/0/0/0/2/3717 p1:5/1/0/1/4/4555 p2:3/1/0/6/0/5487 p3:3/1/0/6/1/6424"),
    ("023.eqntott", "default", 0xed58c202c4389312, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 3 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott", "module", 0x4ed5181cf9e9410c, "inl 4 cl 0 repl 0 del 2 out 0 pure 0 ipa 0/0/0 cost 3025->5425 limit 6050 str 3 p0:1/0/0/0/0/3450 p1:1/0/0/0/0/4773 p2:1/0/0/0/1/4858 p3:1/0/0/0/1/5425"),
    ("023.eqntott", "no-ipa", 0xed58c202c4389312, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 3 p0:1/0/0/0/1/3402 p1:1/0/0/0/1/3487 p2:1/0/0/0/0/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott", "budget400", 0x7a3ffb86d06d67c9, "inl 7 cl 2 repl 5 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->14518 limit 15125 str 4 p0:2/1/0/1/1/5954 p1:1/1/1/2/1/8121 p2:2/0/1/2/1/11562 p3:2/0/0/0/0/14518"),
    ("023.eqntott", "max-ops8", 0xed58c202c4389312, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 3 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott", "strict", 0xed58c202c4389312, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 3 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott+train", "default", 0xc8b4403e74ef585b, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 4 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott+train", "module", 0xc1e9af41fea3ef91, "inl 4 cl 0 repl 0 del 2 out 0 pure 0 ipa 0/0/0 cost 3025->5425 limit 6050 str 4 p0:1/0/0/0/0/3450 p1:1/0/0/0/0/4773 p2:1/0/0/0/1/4858 p3:1/0/0/0/1/5425"),
    ("023.eqntott+train", "no-ipa", 0xc8b4403e74ef585b, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 4 p0:1/0/0/0/1/3402 p1:1/0/0/0/1/3487 p2:1/0/0/0/0/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott+train", "budget400", 0x5940fe64992fbb6b, "inl 8 cl 2 repl 5 del 4 out 0 pure 0 ipa 0/0/0 cost 3025->15105 limit 15125 str 5 p0:3/1/0/1/2/5423 p1:1/1/1/2/0/8771 p2:2/0/1/2/2/9603 p3:2/0/0/0/0/15105"),
    ("023.eqntott+train", "max-ops8", 0xc8b4403e74ef585b, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 4 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott+train", "outline", 0xc8b4403e74ef585b, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 4 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("023.eqntott+train", "strict", 0xc8b4403e74ef585b, "inl 4 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 3025->5377 limit 6050 str 4 p0:1/0/0/0/1/3402 p1:1/0/0/0/0/4725 p2:1/0/0/0/1/4810 p3:1/0/0/0/1/5377"),
    ("026.compress", "default", 0x867ca5403b716924, "inl 5 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2277->4288 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:2/1/0/1/2/3191 p2:2/0/0/0/0/3623 p3:1/0/0/0/0/4288"),
    ("026.compress", "module", 0xaecc5e6c69a27089, "inl 5 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 2277->4311 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:2/0/0/0/0/3214 p2:2/0/0/0/0/3646 p3:1/0/0/0/0/4311"),
    ("026.compress", "no-ipa", 0x867ca5403b716924, "inl 5 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2277->4288 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:2/1/0/1/2/3191 p2:2/0/0/0/0/3623 p3:1/0/0/0/0/4288"),
    ("026.compress", "budget400", 0x6050fd379c1d1ca1, "inl 12 cl 3 repl 3 del 8 out 0 pure 0 ipa 0/0/0 cost 2277->9553 limit 11385 str 2 p0:2/2/0/2/3/3191 p1:3/1/0/1/2/4553 p2:5/0/0/0/1/7129 p3:2/0/0/0/2/9553"),
    ("026.compress", "max-ops8", 0x867ca5403b716924, "inl 5 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2277->4288 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:2/1/0/1/2/3191 p2:2/0/0/0/0/3623 p3:1/0/0/0/0/4288"),
    ("026.compress", "strict", 0x867ca5403b716924, "inl 5 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2277->4288 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:2/1/0/1/2/3191 p2:2/0/0/0/0/3623 p3:1/0/0/0/0/4288"),
    ("026.compress+train", "default", 0xeb46c3b482ba0713, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2277->3845 limit 4554 str 2 p0:0/2/0/2/2/2279 p1:4/0/0/0/2/2781 p2:1/0/0/0/0/3236 p3:1/0/0/0/1/3845"),
    ("026.compress+train", "module", 0x30fa297ba38a5515, "inl 6 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 2277->3732 limit 4554 str 2 p0:0/1/0/1/1/2278 p1:4/0/0/0/1/2804 p2:1/0/0/0/0/3259 p3:1/0/0/0/1/3732"),
    ("026.compress+train", "no-ipa", 0xeb46c3b482ba0713, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2277->3845 limit 4554 str 2 p0:0/2/0/2/2/2279 p1:4/0/0/0/2/2781 p2:1/0/0/0/0/3236 p3:1/0/0/0/1/3845"),
    ("026.compress+train", "budget400", 0x9b40051503f4bfc4, "inl 9 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/0/0 cost 2277->10861 limit 11385 str 2 p0:4/2/0/2/3/3111 p1:3/0/0/0/2/6216 p2:1/0/0/0/1/7365 p3:1/0/0/0/1/10861"),
    ("026.compress+train", "max-ops8", 0xeb46c3b482ba0713, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2277->3845 limit 4554 str 2 p0:0/2/0/2/2/2279 p1:4/0/0/0/2/2781 p2:1/0/0/0/0/3236 p3:1/0/0/0/1/3845"),
    ("026.compress+train", "outline", 0xeb46c3b482ba0713, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2277->3845 limit 4554 str 2 p0:0/2/0/2/2/2279 p1:4/0/0/0/2/2781 p2:1/0/0/0/0/3236 p3:1/0/0/0/1/3845"),
    ("026.compress+train", "strict", 0xeb46c3b482ba0713, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2277->3845 limit 4554 str 2 p0:0/2/0/2/2/2279 p1:4/0/0/0/2/2781 p2:1/0/0/0/0/3236 p3:1/0/0/0/1/3845"),
    ("072.sc", "default", 0x4e294e18bcbf1177, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/1 cost 10067->14545 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:2/0/0/0/1/13160 p2:3/0/0/0/1/14545 p3:0/0/0/0/0/14545"),
    ("072.sc", "module", 0x09467f7358945ed6, "inl 8 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 10390->13586 limit 20780 str 4 p0:4/0/0/0/0/11536 p1:4/0/0/0/1/13586 p2:0/0/0/0/0/13586 p3:0/0/0/0/0/13586"),
    ("072.sc", "no-ipa", 0xdd33e1a96e59b3d2, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/0 cost 10067->14698 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:2/0/0/0/1/13160 p2:3/0/0/0/1/14698 p3:0/0/0/0/0/14698"),
    ("072.sc", "budget400", 0xa2e31f5bee303465, "inl 10 cl 0 repl 0 del 9 out 0 pure 4 ipa 0/0/1 cost 10067->24554 limit 50335 str 2 p0:9/0/0/0/3/14545 p1:1/0/0/0/1/24554 p2:0/0/0/0/0/24554 p3:0/0/0/0/0/24554"),
    ("072.sc", "max-ops8", 0x1c3722735613c902, "inl 8 cl 0 repl 0 del 7 out 0 pure 4 ipa 0/0/1 cost 10067->13988 limit 20134 str 3 p0:4/0/0/0/1/11194 p1:2/0/0/0/1/13159 p2:2/0/0/0/0/13987"),
    ("072.sc", "strict", 0x4e294e18bcbf1177, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/1 cost 10067->14545 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:2/0/0/0/1/13160 p2:3/0/0/0/1/14545 p3:0/0/0/0/0/14545"),
    ("072.sc+train", "default", 0x32335492d1986f81, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/1 cost 10067->14545 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:4/0/0/0/1/13092 p2:1/0/0/0/1/14545 p3:0/0/0/0/0/14545"),
    ("072.sc+train", "module", 0xece546f2368d9909, "inl 8 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 10390->13586 limit 20780 str 4 p0:4/0/0/0/0/11536 p1:4/0/0/0/1/13586 p2:0/0/0/0/0/13586 p3:0/0/0/0/0/13586"),
    ("072.sc+train", "no-ipa", 0x1144180bd9c7f189, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/0 cost 10067->14698 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:4/0/0/0/1/13245 p2:1/0/0/0/1/14698 p3:0/0/0/0/0/14698"),
    ("072.sc+train", "budget400", 0x686a6c06435fbfb1, "inl 10 cl 0 repl 0 del 9 out 0 pure 4 ipa 0/0/1 cost 10067->24554 limit 50335 str 2 p0:9/0/0/0/3/14545 p1:1/0/0/0/1/24554 p2:0/0/0/0/0/24554 p3:0/0/0/0/0/24554"),
    ("072.sc+train", "max-ops8", 0xd942afe032aaa007, "inl 8 cl 0 repl 0 del 7 out 0 pure 4 ipa 0/0/1 cost 10067->13092 limit 20134 str 4 p0:4/0/0/0/1/11194 p1:4/0/0/0/1/13091"),
    ("072.sc+train", "outline", 0x53b10d0cff524109, "inl 10 cl 0 repl 0 del 9 out 1 pure 4 ipa 0/0/1 cost 9047->14546 limit 18094 str 3 p0:4/0/0/0/1/10159 p1:3/0/0/0/1/12252 p2:2/0/0/0/1/14281 p3:1/0/0/0/1/14546"),
    ("072.sc+train", "strict", 0x32335492d1986f81, "inl 9 cl 0 repl 0 del 8 out 0 pure 4 ipa 0/0/1 cost 10067->14545 limit 20134 str 3 p0:4/0/0/0/1/11195 p1:4/0/0/0/1/13092 p2:1/0/0/0/1/14545 p3:0/0/0/0/0/14545"),
    ("085.gcc", "default", 0x14916a10c3fedc97, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->33137 limit 37394 str 6 p0:5/0/0/0/4/22893 p1:2/0/0/0/1/26420 p2:2/0/0/0/1/30420 p3:3/0/0/0/3/33137"),
    ("085.gcc", "module", 0xf3b0c0bbfea2fbd5, "inl 8 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 18697->27651 limit 37394 str 8 p0:3/0/0/0/2/23191 p1:4/0/0/0/1/26276 p2:1/0/0/0/0/27651 p3:0/0/0/0/0/27651"),
    ("085.gcc", "no-ipa", 0x586a82d468527ebe, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->33137 limit 37394 str 6 p0:4/0/0/0/3/21364 p1:3/0/0/0/2/26051 p2:3/0/0/0/2/31201 p3:2/0/0/0/2/33137"),
    ("085.gcc", "budget400", 0xff230cbd2860409f, "inl 15 cl 1 repl 1 del 12 out 0 pure 0 ipa 0/0/0 cost 18697->82255 limit 93485 str 3 p0:10/0/0/0/7/31067 p1:3/1/0/1/3/37318 p2:1/0/0/0/1/58186 p3:1/0/0/0/1/82255"),
    ("085.gcc", "max-ops8", 0x25956b62bc55f21d, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 18697->28388 limit 37394 str 6 p0:5/0/0/0/4/22893 p1:2/0/0/0/1/26420 p2:1/0/0/0/0/28388"),
    ("085.gcc", "strict", 0x14916a10c3fedc97, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->33137 limit 37394 str 6 p0:5/0/0/0/4/22893 p1:2/0/0/0/1/26420 p2:2/0/0/0/1/30420 p3:3/0/0/0/3/33137"),
    ("085.gcc+train", "default", 0x14b044cd5a2541e9, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->34456 limit 37394 str 5 p0:5/0/0/0/4/21155 p1:3/0/0/0/2/27009 p2:2/0/0/0/1/31201 p3:2/0/0/0/2/34456"),
    ("085.gcc+train", "module", 0xf98b8c284da91308, "inl 8 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 18697->27651 limit 37394 str 8 p0:4/0/0/0/3/22676 p1:3/0/0/0/0/26276 p2:1/0/0/0/0/27651 p3:0/0/0/0/0/27651"),
    ("085.gcc+train", "no-ipa", 0x14b044cd5a2541e9, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->34456 limit 37394 str 5 p0:5/0/0/0/4/21155 p1:3/0/0/0/1/25488 p2:2/0/0/0/2/31201 p3:2/0/0/0/2/34456"),
    ("085.gcc+train", "budget400", 0x3366f83f449516e7, "inl 14 cl 0 repl 0 del 11 out 0 pure 0 ipa 0/0/0 cost 18697->70469 limit 93485 str 3 p0:10/0/0/0/7/31201 p1:2/0/0/0/2/42217 p2:1/0/0/0/1/63094 p3:1/0/0/0/1/70469"),
    ("085.gcc+train", "max-ops8", 0x49a2d47c918d8fba, "inl 8 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 18697->27009 limit 37394 str 6 p0:5/0/0/0/4/21155 p1:3/0/0/0/2/27009"),
    ("085.gcc+train", "outline", 0x14b044cd5a2541e9, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->34456 limit 37394 str 5 p0:5/0/0/0/4/21155 p1:3/0/0/0/2/27009 p2:2/0/0/0/1/31201 p3:2/0/0/0/2/34456"),
    ("085.gcc+train", "strict", 0x14b044cd5a2541e9, "inl 12 cl 0 repl 0 del 9 out 0 pure 0 ipa 0/0/0 cost 18697->34456 limit 37394 str 5 p0:5/0/0/0/4/21155 p1:3/0/0/0/2/27009 p2:2/0/0/0/1/31201 p3:2/0/0/0/2/34456"),
    ("099.go", "default", 0xf41e89abf2949754, "inl 6 cl 4 repl 4 del 4 out 0 pure 0 ipa 0/0/0 cost 7231->13652 limit 14462 str 6 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:4/0/0/0/0/13652"),
    ("099.go", "module", 0x18a945554ddef15d, "inl 3 cl 4 repl 4 del 2 out 0 pure 0 ipa 0/0/0 cost 7255->15241 limit 14510 str 6 p0:1/1/0/1/0/8599 p1:0/2/0/2/1/10536 p2:0/1/0/1/1/10537 p3:2/0/0/0/0/15241"),
    ("099.go", "no-ipa", 0xabdbcddb27315946, "inl 7 cl 4 repl 4 del 5 out 0 pure 0 ipa 0/0/0 cost 7231->14013 limit 14462 str 6 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:5/0/0/0/1/14013"),
    ("099.go", "budget400", 0x695f3f686410ec12, "inl 18 cl 4 repl 4 del 7 out 0 pure 0 ipa 0/0/1 cost 7231->34676 limit 36155 str 7 p0:7/2/0/2/3/11751 p1:3/2/0/2/2/16625 p2:5/0/0/0/1/30404 p3:3/0/0/0/0/34676"),
    ("099.go", "max-ops8", 0x03b7287293582f8f, "inl 4 cl 4 repl 4 del 4 out 0 pure 0 ipa 0/0/0 cost 7231->13124 limit 14462 str 6 p0:2/1/0/1/1/8524 p1:0/2/0/2/1/10641 p2:0/1/0/1/1/10549 p3:2/0/0/0/0/13123"),
    ("099.go", "strict", 0xf41e89abf2949754, "inl 6 cl 4 repl 4 del 4 out 0 pure 0 ipa 0/0/0 cost 7231->13652 limit 14462 str 6 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:4/0/0/0/0/13652"),
    ("099.go+train", "default", 0x3801359da9bba8e8, "inl 7 cl 4 repl 4 del 5 out 0 pure 0 ipa 0/0/0 cost 7231->13265 limit 14462 str 8 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:5/0/0/0/1/13265"),
    ("099.go+train", "module", 0x3bfad1a7ef45cdd8, "inl 4 cl 4 repl 4 del 3 out 0 pure 0 ipa 0/0/0 cost 7255->13851 limit 14510 str 8 p0:2/1/0/1/0/8664 p1:0/2/0/2/1/10601 p2:0/1/0/1/1/10602 p3:2/0/0/0/1/13851"),
    ("099.go+train", "no-ipa", 0x3801359da9bba8e8, "inl 7 cl 4 repl 4 del 5 out 0 pure 0 ipa 0/0/0 cost 7231->13265 limit 14462 str 8 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:5/0/0/0/1/13265"),
    ("099.go+train", "budget400", 0x5d8b57fabf4173d0, "inl 15 cl 4 repl 4 del 9 out 0 pure 0 ipa 0/0/1 cost 7231->30400 limit 36155 str 7 p0:4/2/0/2/3/12012 p1:2/2/0/2/1/16712 p2:8/0/0/0/3/26113 p3:1/0/0/0/1/30400"),
    ("099.go+train", "max-ops8", 0x64dcaa05d30e0e3e, "inl 4 cl 4 repl 4 del 4 out 0 pure 0 ipa 0/0/0 cost 7231->12758 limit 14462 str 8 p0:2/1/0/1/1/8524 p1:0/2/0/2/1/10641 p2:0/1/0/1/1/10549 p3:2/0/0/0/0/12757"),
    ("099.go+train", "outline", 0x3801359da9bba8e8, "inl 7 cl 4 repl 4 del 5 out 0 pure 0 ipa 0/0/0 cost 7231->13265 limit 14462 str 8 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:5/0/0/0/1/13265"),
    ("099.go+train", "strict", 0x3801359da9bba8e8, "inl 7 cl 4 repl 4 del 5 out 0 pure 0 ipa 0/0/0 cost 7231->13265 limit 14462 str 8 p0:2/1/0/1/1/8525 p1:0/2/0/2/1/10642 p2:0/1/0/1/1/10550 p3:5/0/0/0/1/13265"),
    ("124.m88ksim", "default", 0x8e21628bdf469646, "inl 10 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/2/2 cost 7234->12732 limit 14468 str 2 p0:4/0/0/0/2/8254 p1:4/0/0/0/3/8777 p2:1/0/0/0/1/11577 p3:1/0/0/0/0/12732"),
    ("124.m88ksim", "module", 0xb06500d1f914c2b4, "inl 8 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 7234->9072 limit 14468 str 2 p0:4/0/0/0/0/8270 p1:4/0/0/0/1/9072 p2:0/0/0/0/0/9072 p3:0/0/0/0/0/9072"),
    ("124.m88ksim", "no-ipa", 0x896cf79d703a44bf, "inl 11 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 7234->10736 limit 14468 str 2 p0:4/0/0/0/2/8254 p1:4/0/0/0/3/9045 p2:3/0/0/0/1/10736 p3:0/0/0/0/0/10736"),
    ("124.m88ksim", "budget400", 0x740f70ab74b904ba, "inl 13 cl 0 repl 0 del 8 out 0 pure 0 ipa 0/2/2 cost 7234->27797 limit 36170 str 1 p0:6/0/0/0/3/11284 p1:6/0/0/0/4/15256 p2:0/0/0/0/0/15256 p3:1/0/0/0/1/27797"),
    ("124.m88ksim", "max-ops8", 0x82d5ad9f02b1fc81, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/2/2 cost 7234->8777 limit 14468 str 2 p0:4/0/0/0/2/8254 p1:4/0/0/0/3/8777"),
    ("124.m88ksim", "strict", 0x8e21628bdf469646, "inl 10 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/2/2 cost 7234->12732 limit 14468 str 2 p0:4/0/0/0/2/8254 p1:4/0/0/0/3/8777 p2:1/0/0/0/1/11577 p3:1/0/0/0/0/12732"),
    ("124.m88ksim+train", "default", 0x2a653982c7f09e21, "inl 11 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/2/2 cost 7234->10468 limit 14468 str 3 p0:5/0/0/0/4/7820 p1:4/0/0/0/1/9232 p2:2/0/0/0/1/10468 p3:0/0/0/0/0/10468"),
    ("124.m88ksim+train", "module", 0x8908b6a032bc8d1c, "inl 8 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 7234->9072 limit 14468 str 4 p0:5/0/0/0/0/7847 p1:3/0/0/0/1/9072 p2:0/0/0/0/0/9072 p3:0/0/0/0/0/9072"),
    ("124.m88ksim+train", "no-ipa", 0x2782376d530f2d25, "inl 11 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 7234->10736 limit 14468 str 3 p0:5/0/0/0/4/7820 p1:4/0/0/0/1/9500 p2:2/0/0/0/1/10736 p3:0/0/0/0/0/10736"),
    ("124.m88ksim+train", "budget400", 0xe2f74ed63ab37ce0, "inl 13 cl 0 repl 0 del 8 out 0 pure 0 ipa 0/2/2 cost 7234->27797 limit 36170 str 2 p0:6/0/0/0/5/10620 p1:6/0/0/0/2/15256 p2:0/0/0/0/0/15256 p3:1/0/0/0/1/27797"),
    ("124.m88ksim+train", "max-ops8", 0xf3e374fd444d992f, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/2/2 cost 7234->8777 limit 14468 str 4 p0:5/0/0/0/4/7820 p1:3/0/0/0/1/8777"),
    ("124.m88ksim+train", "outline", 0x2a653982c7f09e21, "inl 11 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/2/2 cost 7234->10468 limit 14468 str 3 p0:5/0/0/0/4/7820 p1:4/0/0/0/1/9232 p2:2/0/0/0/1/10468 p3:0/0/0/0/0/10468"),
    ("124.m88ksim+train", "strict", 0x2a653982c7f09e21, "inl 11 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/2/2 cost 7234->10468 limit 14468 str 3 p0:5/0/0/0/4/7820 p1:4/0/0/0/1/9232 p2:2/0/0/0/1/10468 p3:0/0/0/0/0/10468"),
    ("126.gcc", "default", 0x09d10bb5c097e60d, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->35605 limit 40516 str 7 p0:6/0/0/0/5/25153 p1:2/0/0/0/1/28680 p2:3/0/0/0/2/33461 p3:2/0/0/0/2/35605"),
    ("126.gcc", "module", 0xa5119b071665b41a, "inl 9 cl 0 repl 0 del 4 out 0 pure 0 ipa 0/0/0 cost 20258->30129 limit 40516 str 9 p0:5/0/0/0/4/24936 p1:3/0/0/0/0/28536 p2:1/0/0/0/0/30129 p3:0/0/0/0/0/30129"),
    ("126.gcc", "no-ipa", 0x04589e0367f523f8, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->35605 limit 40516 str 7 p0:5/0/0/0/4/23624 p1:3/0/0/0/2/28311 p2:3/0/0/0/2/33461 p3:2/0/0/0/2/35605"),
    ("126.gcc", "budget400", 0xf5140ffae182ba0b, "inl 16 cl 1 repl 1 del 14 out 0 pure 0 ipa 0/0/0 cost 20258->95012 limit 101290 str 4 p0:11/0/0/0/8/34217 p1:2/1/0/1/3/40116 p2:2/0/0/0/2/68583 p3:1/0/0/0/1/95012"),
    ("126.gcc", "max-ops8", 0xe642e1b15e2ed5fc, "inl 8 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 20258->28680 limit 40516 str 7 p0:6/0/0/0/5/25153 p1:2/0/0/0/1/28680"),
    ("126.gcc", "strict", 0x09d10bb5c097e60d, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->35605 limit 40516 str 7 p0:6/0/0/0/5/25153 p1:2/0/0/0/1/28680 p2:3/0/0/0/2/33461 p3:2/0/0/0/2/35605"),
    ("126.gcc+train", "default", 0x24e468d705a53503, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->36896 limit 40516 str 6 p0:6/0/0/0/5/23415 p1:3/0/0/0/2/29269 p2:2/0/0/0/1/33461 p3:2/0/0/0/2/36896"),
    ("126.gcc+train", "module", 0x7a8a3ba5eb2a9d4f, "inl 9 cl 0 repl 0 del 4 out 0 pure 0 ipa 0/0/0 cost 20258->30129 limit 40516 str 9 p0:4/0/0/0/2/24952 p1:4/0/0/0/2/28536 p2:1/0/0/0/0/30129 p3:0/0/0/0/0/30129"),
    ("126.gcc+train", "no-ipa", 0x4bbe5cdfc27d6a98, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->36896 limit 40516 str 6 p0:6/0/0/0/5/23415 p1:3/0/0/0/1/27748 p2:3/0/0/0/3/34376 p3:1/0/0/0/1/36896"),
    ("126.gcc+train", "budget400", 0x7ba96b81b9cedeb2, "inl 15 cl 0 repl 0 del 12 out 0 pure 0 ipa 0/0/0 cost 20258->86941 limit 101290 str 4 p0:12/0/0/0/9/34376 p1:1/0/0/0/1/42557 p2:1/0/0/0/1/62282 p3:1/0/0/0/1/86941"),
    ("126.gcc+train", "max-ops8", 0xcddfa9e5282fcb3b, "inl 8 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 20258->28680 limit 40516 str 7 p0:6/0/0/0/5/23415 p1:2/0/0/0/1/28680"),
    ("126.gcc+train", "outline", 0x24e468d705a53503, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->36896 limit 40516 str 6 p0:6/0/0/0/5/23415 p1:3/0/0/0/2/29269 p2:2/0/0/0/1/33461 p3:2/0/0/0/2/36896"),
    ("126.gcc+train", "strict", 0x24e468d705a53503, "inl 13 cl 0 repl 0 del 10 out 0 pure 0 ipa 0/0/0 cost 20258->36896 limit 40516 str 6 p0:6/0/0/0/5/23415 p1:3/0/0/0/2/29269 p2:2/0/0/0/1/33461 p3:2/0/0/0/2/36896"),
    ("129.compress", "default", 0x96d918f259f212a3, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/1/0/1/1/2434 p1:2/1/0/1/2/3043 p2:3/0/0/0/0/3571 p3:2/0/0/0/2/4385"),
    ("129.compress", "module", 0x5cb250b032d4aed6, "inl 4 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 2433->4515 limit 4866 str 2 p0:0/1/0/1/1/2434 p1:1/0/0/0/0/3802 p2:1/0/0/0/0/3979 p3:2/0/0/0/0/4515"),
    ("129.compress", "no-ipa", 0x96d918f259f212a3, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/1/0/1/1/2434 p1:2/1/0/1/2/3043 p2:3/0/0/0/0/3571 p3:2/0/0/0/2/4385"),
    ("129.compress", "budget400", 0x8385f508d0382a0a, "inl 13 cl 3 repl 3 del 7 out 0 pure 0 ipa 0/0/0 cost 2433->9677 limit 12165 str 3 p0:1/2/0/2/2/3803 p1:4/1/0/1/1/5951 p2:6/0/0/0/2/8397 p3:2/0/0/0/2/9677"),
    ("129.compress", "max-ops8", 0xd27468ee66235967, "inl 6 cl 2 repl 2 del 4 out 0 pure 0 ipa 0/0/0 cost 2433->3776 limit 4866 str 3 p0:0/1/0/1/1/2434 p1:2/1/0/1/2/3043 p2:3/0/0/0/0/3571 p3:1/0/0/0/1/3776"),
    ("129.compress", "strict", 0x96d918f259f212a3, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/1/0/1/1/2434 p1:2/1/0/1/2/3043 p2:3/0/0/0/0/3571 p3:2/0/0/0/2/4385"),
    ("129.compress+train", "default", 0x996983f32bab0042, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/2/0/2/2/2435 p1:3/0/0/0/1/3187 p2:3/0/0/0/1/3776 p3:1/0/0/0/1/4385"),
    ("129.compress+train", "module", 0x49aa5be13dd4772f, "inl 7 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 2433->4272 limit 4866 str 3 p0:0/1/0/1/1/2434 p1:3/0/0/0/0/3210 p2:3/0/0/0/1/3799 p3:1/0/0/0/1/4272"),
    ("129.compress+train", "no-ipa", 0x996983f32bab0042, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/2/0/2/2/2435 p1:3/0/0/0/1/3187 p2:3/0/0/0/1/3776 p3:1/0/0/0/1/4385"),
    ("129.compress+train", "budget400", 0x3fa4b65c3af911d4, "inl 10 cl 2 repl 2 del 6 out 0 pure 0 ipa 0/0/0 cost 2433->9676 limit 12165 str 3 p0:4/2/0/2/3/3363 p1:2/0/0/0/0/6631 p2:3/0/0/0/2/8601 p3:1/0/0/0/1/9676"),
    ("129.compress+train", "max-ops8", 0x5c3ad1723096e017, "inl 6 cl 2 repl 2 del 4 out 0 pure 0 ipa 0/0/0 cost 2433->3776 limit 4866 str 3 p0:0/2/0/2/2/2435 p1:3/0/0/0/1/3187 p2:3/0/0/0/1/3776"),
    ("129.compress+train", "outline", 0x996983f32bab0042, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/2/0/2/2/2435 p1:3/0/0/0/1/3187 p2:3/0/0/0/1/3776 p3:1/0/0/0/1/4385"),
    ("129.compress+train", "strict", 0x996983f32bab0042, "inl 7 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2433->4385 limit 4866 str 3 p0:0/2/0/2/2/2435 p1:3/0/0/0/1/3187 p2:3/0/0/0/1/3776 p3:1/0/0/0/1/4385"),
    ("130.li", "default", 0xc05955792235cd4d, "inl 14 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/4 cost 4471->8317 limit 8942 str 3 p0:6/1/0/1/6/4685 p1:3/1/0/1/1/5998 p2:3/1/0/6/0/7174 p3:2/1/0/6/0/8317"),
    ("130.li", "module", 0x95c40f8ce4502c5c, "inl 10 cl 3 repl 8 del 6 out 0 pure 0 ipa 0/0/0 cost 4471->8413 limit 8942 str 3 p0:5/1/0/1/5/4772 p1:2/1/0/1/0/6068 p2:2/1/0/6/0/7436 p3:1/0/0/0/1/8413"),
    ("130.li", "no-ipa", 0xd69f4cc22f75a297, "inl 12 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/0 cost 4471->8497 limit 8942 str 3 p0:6/1/0/1/6/4685 p1:3/1/0/1/1/6122 p2:2/1/0/6/0/7318 p3:1/1/0/6/0/8497"),
    ("130.li", "budget400", 0xcf134181e530839d, "inl 30 cl 5 repl 20 del 7 out 0 pure 0 ipa 0/0/4 cost 4471->22390 limit 22355 str 4 p0:3/2/0/2/3/8922 p1:8/1/0/6/1/10746 p2:13/1/0/6/2/13396 p3:6/1/0/6/1/22390"),
    ("130.li", "max-ops8", 0x5ba0ba547b3a05bd, "inl 6 cl 2 repl 2 del 6 out 0 pure 0 ipa 0/0/0 cost 4471->5469 limit 8942 str 3 p0:6/1/0/1/6/4685 p1:0/1/0/1/0/5469"),
    ("130.li", "strict", 0xc05955792235cd4d, "inl 14 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/4 cost 4471->8317 limit 8942 str 3 p0:6/1/0/1/6/4685 p1:3/1/0/1/1/5998 p2:3/1/0/6/0/7174 p3:2/1/0/6/0/8317"),
    ("130.li+train", "default", 0xaa2a48ae6013c7c5, "inl 17 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/3 cost 4471->8249 limit 8942 str 8 p0:4/1/0/1/3/4718 p1:6/1/0/1/3/5632 p2:5/1/0/6/1/6985 p3:2/1/0/6/0/8249"),
    ("130.li+train", "module", 0xa925f80f6408e1bf, "inl 10 cl 2 repl 2 del 6 out 0 pure 0 ipa 0/0/0 cost 4471->8496 limit 8942 str 4 p0:5/1/0/1/5/4772 p1:2/1/0/1/0/6276 p2:1/0/0/0/0/8019 p3:2/0/0/0/1/8496"),
    ("130.li+train", "no-ipa", 0xe6026ca8d184b932, "inl 17 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/0 cost 4471->8462 limit 8942 str 8 p0:4/1/0/1/3/4718 p1:6/1/0/1/3/5632 p2:5/1/0/6/1/7038 p3:2/1/0/6/0/8462"),
    ("130.li+train", "budget400", 0x21e50ab5c70f42b0, "inl 38 cl 5 repl 20 del 11 out 0 pure 0 ipa 0/0/6 cost 4471->20558 limit 22355 str 7 p0:15/2/0/2/8/6121 p1:11/1/0/6/1/10990 p2:8/1/0/6/2/15086 p3:4/1/0/6/0/20558"),
    ("130.li+train", "max-ops8", 0xcc72103772572b87, "inl 6 cl 2 repl 2 del 4 out 0 pure 0 ipa 0/0/0 cost 4471->5565 limit 8942 str 5 p0:4/1/0/1/3/4718 p1:2/1/0/1/1/5565"),
    ("130.li+train", "outline", 0xaa2a48ae6013c7c5, "inl 17 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/3 cost 4471->8249 limit 8942 str 8 p0:4/1/0/1/3/4718 p1:6/1/0/1/3/5632 p2:5/1/0/6/1/6985 p3:2/1/0/6/0/8249"),
    ("130.li+train", "strict", 0xaa2a48ae6013c7c5, "inl 17 cl 4 repl 14 del 7 out 0 pure 0 ipa 0/0/3 cost 4471->8249 limit 8942 str 8 p0:4/1/0/1/3/4718 p1:6/1/0/1/3/5632 p2:5/1/0/6/1/6985 p3:2/1/0/6/0/8249"),
    ("132.ijpeg", "default", 0x01e660562d742ee9, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/1/7146 p1:2/0/0/0/2/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg", "module", 0xdf5b93192decefef, "inl 6 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 6294->8476 limit 12588 str 5 p0:4/0/0/0/1/7146 p1:1/0/0/0/1/7263 p2:1/0/0/0/1/8476 p3:0/0/0/0/0/8476"),
    ("132.ijpeg", "no-ipa", 0x497277118ddf8b24, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/1/7146 p1:2/0/0/0/2/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg", "budget400", 0x8849227e731dd0ad, "inl 10 cl 0 repl 0 del 7 out 0 pure 0 ipa 0/0/0 cost 6294->26396 limit 31470 str 2 p0:7/0/0/0/4/9463 p1:1/0/0/0/1/13900 p2:1/0/0/0/1/21269 p3:1/0/0/0/1/26396"),
    ("132.ijpeg", "max-ops8", 0x01e660562d742ee9, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/1/7146 p1:2/0/0/0/2/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg", "strict", 0x01e660562d742ee9, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/1/7146 p1:2/0/0/0/2/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg+train", "default", 0x25461ea5de4cea47, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/2/7254 p1:2/0/0/0/1/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg+train", "module", 0x650c2453df1ab3e6, "inl 6 cl 0 repl 0 del 3 out 0 pure 0 ipa 0/0/0 cost 6294->8476 limit 12588 str 6 p0:4/0/0/0/1/7056 p1:2/0/0/0/2/8476 p2:0/0/0/0/0/8476 p3:0/0/0/0/0/8476"),
    ("132.ijpeg+train", "no-ipa", 0x7123fdb86b22fe98, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/2/7254 p1:2/0/0/0/1/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg+train", "budget400", 0xb00c88e3aefc06ef, "inl 10 cl 0 repl 0 del 7 out 0 pure 0 ipa 0/0/0 cost 6294->26396 limit 31470 str 2 p0:7/0/0/0/4/9463 p1:1/0/0/0/1/13900 p2:1/0/0/0/1/21269 p3:1/0/0/0/1/26396"),
    ("132.ijpeg+train", "max-ops8", 0x25461ea5de4cea47, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/2/7254 p1:2/0/0/0/1/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg+train", "outline", 0x25461ea5de4cea47, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/2/7254 p1:2/0/0/0/1/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("132.ijpeg+train", "strict", 0x25461ea5de4cea47, "inl 8 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 6294->11740 limit 12588 str 4 p0:4/0/0/0/2/7254 p1:2/0/0/0/1/7674 p2:1/0/0/0/1/9463 p3:1/0/0/0/1/11740"),
    ("134.perl", "default", 0x7b2c3b9b454532a7, "inl 13 cl 1 repl 1 del 8 out 0 pure 0 ipa 0/0/0 cost 11056->21041 limit 22112 str 5 p0:0/1/0/1/1/11057 p1:8/0/0/0/5/14136 p2:3/0/0/0/2/18753 p3:2/0/0/0/0/21041"),
    ("134.perl", "module", 0xea3395627ab45cab, "inl 12 cl 1 repl 1 del 9 out 0 pure 0 ipa 0/0/0 cost 11056->21240 limit 22112 str 5 p0:0/1/0/1/1/11057 p1:8/0/0/0/7/13516 p2:1/0/0/0/0/20551 p3:3/0/0/0/1/21240"),
    ("134.perl", "no-ipa", 0x7b2c3b9b454532a7, "inl 13 cl 1 repl 1 del 8 out 0 pure 0 ipa 0/0/0 cost 11056->21041 limit 22112 str 5 p0:0/1/0/1/1/11057 p1:8/0/0/0/5/14136 p2:3/0/0/0/2/18753 p3:2/0/0/0/0/21041"),
    ("134.perl", "budget400", 0x6948de1e3979c2d9, "inl 24 cl 1 repl 1 del 12 out 0 pure 0 ipa 0/0/0 cost 11056->54970 limit 55280 str 4 p0:8/1/0/1/6/15882 p1:8/0/0/0/1/31719 p2:6/0/0/0/4/39698 p3:2/0/0/0/1/54970"),
    ("134.perl", "max-ops8", 0x0e74fb4f1b80b33f, "inl 7 cl 1 repl 1 del 6 out 0 pure 0 ipa 0/0/0 cost 11056->13927 limit 22112 str 5 p0:0/1/0/1/1/11057 p1:7/0/0/0/5/13927"),
    ("134.perl", "strict", 0x7b2c3b9b454532a7, "inl 13 cl 1 repl 1 del 8 out 0 pure 0 ipa 0/0/0 cost 11056->21041 limit 22112 str 5 p0:0/1/0/1/1/11057 p1:8/0/0/0/5/14136 p2:3/0/0/0/2/18753 p3:2/0/0/0/0/21041"),
    ("134.perl+train", "default", 0x657b5cd61eef3866, "inl 21 cl 1 repl 1 del 7 out 0 pure 0 ipa 0/0/0 cost 11056->21088 limit 22112 str 9 p0:0/1/0/1/1/11057 p1:10/0/0/0/3/14802 p2:5/0/0/0/1/18027 p3:6/0/0/0/2/21088"),
    ("134.perl+train", "module", 0xc74d8130ed1e9998, "inl 12 cl 1 repl 1 del 8 out 0 pure 0 ipa 0/0/0 cost 11056->19340 limit 22112 str 6 p0:0/1/0/1/1/11057 p1:9/0/0/0/6/13439 p2:2/0/0/0/1/15315 p3:1/0/0/0/0/19340"),
    ("134.perl+train", "no-ipa", 0x16e6d1dea0717c27, "inl 21 cl 1 repl 1 del 7 out 0 pure 0 ipa 0/0/0 cost 11056->21088 limit 22112 str 9 p0:0/1/0/1/1/11057 p1:10/0/0/0/2/14966 p2:4/0/0/0/2/17818 p3:7/0/0/0/2/21088"),
    ("134.perl+train", "budget400", 0x2d1d97339dda4696, "inl 28 cl 1 repl 1 del 11 out 0 pure 0 ipa 0/0/0 cost 11056->50856 limit 55280 str 6 p0:12/1/0/1/5/15750 p1:13/0/0/0/3/31299 p2:2/0/0/0/2/39312 p3:1/0/0/0/1/50856"),
    ("134.perl+train", "max-ops8", 0x310f76b0664aa1ba, "inl 7 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 11056->14386 limit 22112 str 6 p0:0/1/0/1/1/11057 p1:7/0/0/0/2/14386"),
    ("134.perl+train", "outline", 0x657b5cd61eef3866, "inl 21 cl 1 repl 1 del 7 out 0 pure 0 ipa 0/0/0 cost 11056->21088 limit 22112 str 9 p0:0/1/0/1/1/11057 p1:10/0/0/0/3/14802 p2:5/0/0/0/1/18027 p3:6/0/0/0/2/21088"),
    ("134.perl+train", "strict", 0x657b5cd61eef3866, "inl 21 cl 1 repl 1 del 7 out 0 pure 0 ipa 0/0/0 cost 11056->21088 limit 22112 str 9 p0:0/1/0/1/1/11057 p1:10/0/0/0/3/14802 p2:5/0/0/0/1/18027 p3:6/0/0/0/2/21088"),
    ("147.vortex", "default", 0xbb6126fc662fca2e, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/1 cost 4065->7184 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6142 p3:1/0/0/0/1/7184"),
    ("147.vortex", "module", 0xca721bf947eed4eb, "inl 7 cl 1 repl 1 del 4 out 0 pure 0 ipa 0/0/0 cost 4065->6670 limit 8130 str 3 p0:2/1/0/1/1/4066 p1:3/0/0/0/1/5279 p2:1/0/0/0/1/6480 p3:1/0/0/0/1/6670"),
    ("147.vortex", "no-ipa", 0x5a927fc699a62a1e, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/0 cost 4065->7291 limit 8130 str 4 p0:2/2/0/2/2/4155 p1:7/0/0/0/5/4957 p2:2/0/0/0/1/6219 p3:1/0/0/0/1/7291"),
    ("147.vortex", "budget400", 0xc9f769012cb081d4, "inl 14 cl 2 repl 2 del 11 out 0 pure 0 ipa 0/0/1 cost 4065->15768 limit 20325 str 3 p0:4/2/0/2/4/5813 p1:5/0/0/0/4/9814 p2:4/0/0/0/2/12686 p3:1/0/0/0/1/15768"),
    ("147.vortex", "max-ops8", 0x0a4a6cc9f14e11e7, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 4065->4563 limit 8130 str 5 p0:3/2/0/2/3/4064 p1:3/0/0/0/2/4563"),
    ("147.vortex", "strict", 0xbb6126fc662fca2e, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/1 cost 4065->7184 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6142 p3:1/0/0/0/1/7184"),
    ("147.vortex+train", "default", 0xe12f569eb696076b, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/1 cost 4065->7184 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6142 p3:1/0/0/0/1/7184"),
    ("147.vortex+train", "module", 0x0b2f8e62154441a9, "inl 7 cl 1 repl 1 del 4 out 0 pure 0 ipa 0/0/0 cost 4065->6670 limit 8130 str 3 p0:2/1/0/1/1/4066 p1:3/0/0/0/1/4768 p2:1/0/0/0/1/5469 p3:1/0/0/0/1/6670"),
    ("147.vortex+train", "no-ipa", 0x182e3d32cd0b7eb3, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/0 cost 4065->7291 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6219 p3:1/0/0/0/1/7291"),
    ("147.vortex+train", "budget400", 0x5822332f85584714, "inl 16 cl 2 repl 2 del 12 out 0 pure 0 ipa 0/0/1 cost 4065->13857 limit 20325 str 2 p0:11/2/0/2/7/5185 p1:3/0/0/0/3/8835 p2:2/0/0/0/2/13857 p3:0/0/0/0/0/13857"),
    ("147.vortex+train", "max-ops8", 0x6e29eb902536dc01, "inl 6 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 4065->4563 limit 8130 str 5 p0:3/2/0/2/3/4064 p1:3/0/0/0/2/4563"),
    ("147.vortex+train", "outline", 0xe12f569eb696076b, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/1 cost 4065->7184 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6142 p3:1/0/0/0/1/7184"),
    ("147.vortex+train", "strict", 0xe12f569eb696076b, "inl 12 cl 2 repl 2 del 9 out 0 pure 0 ipa 0/0/1 cost 4065->7184 limit 8130 str 4 p0:3/2/0/2/3/4064 p1:6/0/0/0/3/5072 p2:2/0/0/0/2/6142 p3:1/0/0/0/1/7184"),
    ("edit24", "default", 0x5c15a0570fa91879, "inl 0 cl 0 repl 0 del 72 out 0 pure 0 ipa 0/0/0 cost 72->72 limit 144 str 0 p0:0/0/0/0/0/72 p1:0/0/0/0/0/72 p2:0/0/0/0/0/72 p3:0/0/0/0/0/72"),
    ("edit24", "module", 0x94c18028e419f3ec, "inl 48 cl 0 repl 0 del 24 out 0 pure 0 ipa 0/0/0 cost 4656->5328 limit 9312 str 0 p0:24/0/0/0/0/4872 p1:24/0/0/0/24/5328 p2:0/0/0/0/0/5328 p3:0/0/0/0/0/5328"),
    ("edit24", "no-ipa", 0x5c15a0570fa91879, "inl 0 cl 0 repl 0 del 72 out 0 pure 0 ipa 0/0/0 cost 72->72 limit 144 str 0 p0:0/0/0/0/0/72 p1:0/0/0/0/0/72 p2:0/0/0/0/0/72 p3:0/0/0/0/0/72"),
    ("edit24", "budget400", 0x5c15a0570fa91879, "inl 0 cl 0 repl 0 del 72 out 0 pure 0 ipa 0/0/0 cost 72->72 limit 360 str 0 p0:0/0/0/0/0/72 p1:0/0/0/0/0/72 p2:0/0/0/0/0/72 p3:0/0/0/0/0/72"),
    ("edit24", "max-ops8", 0x5c15a0570fa91879, "inl 0 cl 0 repl 0 del 72 out 0 pure 0 ipa 0/0/0 cost 72->72 limit 144 str 0 p0:0/0/0/0/0/72 p1:0/0/0/0/0/72 p2:0/0/0/0/0/72 p3:0/0/0/0/0/72"),
    ("edit24", "strict", 0x5c15a0570fa91879, "inl 0 cl 0 repl 0 del 72 out 0 pure 0 ipa 0/0/0 cost 72->72 limit 144 str 0 p0:0/0/0/0/0/72 p1:0/0/0/0/0/72 p2:0/0/0/0/0/72 p3:0/0/0/0/0/72"),
    ("fuzz0", "default", 0x7723c5dc8a68cd5f, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 777->691 limit 1554 str 1 p0:0/1/0/1/1/694 p1:1/0/0/0/1/691 p2:0/0/0/0/0/691 p3:0/0/0/0/0/691"),
    ("fuzz0", "module", 0x275ed0cbd28f586d, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 777->694 limit 1554 str 1 p0:0/1/0/1/1/694 p1:0/0/0/0/0/694 p2:0/0/0/0/0/694 p3:0/0/0/0/0/694"),
    ("fuzz0", "no-ipa", 0x7723c5dc8a68cd5f, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 777->691 limit 1554 str 1 p0:0/1/0/1/1/694 p1:1/0/0/0/1/691 p2:0/0/0/0/0/691 p3:0/0/0/0/0/691"),
    ("fuzz0", "budget400", 0xa861b7abdf30d6a7, "inl 2 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 777->1159 limit 3885 str 1 p0:1/1/0/1/2/691 p1:1/0/0/0/1/1159 p2:0/0/0/0/0/1159 p3:0/0/0/0/0/1159"),
    ("fuzz0", "max-ops8", 0x7723c5dc8a68cd5f, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 777->691 limit 1554 str 1 p0:0/1/0/1/1/694 p1:1/0/0/0/1/691 p2:0/0/0/0/0/691 p3:0/0/0/0/0/691"),
    ("fuzz0", "strict", 0x7723c5dc8a68cd5f, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 777->691 limit 1554 str 1 p0:0/1/0/1/1/694 p1:1/0/0/0/1/691 p2:0/0/0/0/0/691 p3:0/0/0/0/0/691"),
    ("fuzz1", "default", 0x5ba8efaba7a9047d, "inl 5 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/2/0 cost 2914->2668 limit 5828 str 2 p0:3/1/0/1/1/2571 p1:2/0/0/0/1/2668 p2:0/0/0/0/0/2668 p3:0/0/0/0/0/2668"),
    ("fuzz1", "module", 0xa343b8540f0d99ac, "inl 0 cl 0 repl 0 del 0 out 0 pure 0 ipa 0/0/0 cost 2914->2914 limit 5828 str 2 p0:0/0/0/0/0/2914 p1:0/0/0/0/0/2914 p2:0/0/0/0/0/2914 p3:0/0/0/0/0/2914"),
    ("fuzz1", "no-ipa", 0xdb489768dd2516d1, "inl 5 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 2914->2668 limit 5828 str 2 p0:3/1/0/1/1/2571 p1:2/0/0/0/1/2668 p2:0/0/0/0/0/2668 p3:0/0/0/0/0/2668"),
    ("fuzz1", "budget400", 0xe14dc78c42625b92, "inl 6 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/2/0 cost 2914->4771 limit 14570 str 1 p0:5/1/0/1/2/2668 p1:1/0/0/0/1/4771 p2:0/0/0/0/0/4771 p3:0/0/0/0/0/4771"),
    ("fuzz1", "max-ops8", 0x5ba8efaba7a9047d, "inl 5 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/2/0 cost 2914->2668 limit 5828 str 2 p0:3/1/0/1/1/2571 p1:2/0/0/0/1/2668 p2:0/0/0/0/0/2668 p3:0/0/0/0/0/2668"),
    ("fuzz1", "strict", 0x5ba8efaba7a9047d, "inl 5 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/2/0 cost 2914->2668 limit 5828 str 2 p0:3/1/0/1/1/2571 p1:2/0/0/0/1/2668 p2:0/0/0/0/0/2668 p3:0/0/0/0/0/2668"),
    ("fuzz2", "default", 0x4ce659b7264e5e99, "inl 6 cl 2 repl 3 del 2 out 0 pure 0 ipa 0/0/0 cost 38554->67981 limit 77108 str 4 p0:0/2/0/2/0/45903 p1:2/0/1/1/2/49665 p2:2/0/0/0/0/58101 p3:2/0/0/0/0/67981"),
    ("fuzz2", "module", 0x0413f23ab1fb7e37, "inl 5 cl 4 repl 4 del 4 out 0 pure 0 ipa 0/0/0 cost 38554->61738 limit 77108 str 5 p0:1/1/0/1/1/42070 p1:2/1/0/1/1/51096 p2:1/1/0/1/1/56056 p3:1/1/0/1/1/61738"),
    ("fuzz2", "no-ipa", 0x4ce659b7264e5e99, "inl 6 cl 2 repl 3 del 2 out 0 pure 0 ipa 0/0/0 cost 38554->67981 limit 77108 str 4 p0:0/2/0/2/0/45903 p1:2/0/1/1/2/49665 p2:2/0/0/0/0/58101 p3:2/0/0/0/0/67981"),
    ("fuzz2", "budget400", 0xb7d70a6ab4a25c18, "inl 8 cl 2 repl 3 del 3 out 0 pure 0 ipa 0/0/0 cost 38554->136341 limit 192770 str 4 p0:2/2/0/2/1/59543 p1:2/0/1/1/2/77213 p2:2/0/0/0/0/103889 p3:2/0/0/0/0/136341"),
    ("fuzz2", "max-ops8", 0x1b2b79ba995e13d5, "inl 5 cl 2 repl 3 del 2 out 0 pure 0 ipa 0/0/0 cost 38554->63022 limit 77108 str 4 p0:0/2/0/2/0/45903 p1:2/0/1/1/2/49665 p2:2/0/0/0/0/58101 p3:1/0/0/0/0/63022"),
    ("fuzz2", "strict", 0x4ce659b7264e5e99, "inl 6 cl 2 repl 3 del 2 out 0 pure 0 ipa 0/0/0 cost 38554->67981 limit 77108 str 4 p0:0/2/0/2/0/45903 p1:2/0/1/1/2/49665 p2:2/0/0/0/0/58101 p3:2/0/0/0/0/67981"),
    ("fuzz3", "default", 0xc53543a340efffcd, "inl 1 cl 3 repl 3 del 7 out 0 pure 3 ipa 0/7/0 cost 3391->4968 limit 6782 str 3 p0:0/3/0/3/3/3136 p1:0/0/0/0/0/3039 p2:1/0/0/0/1/4968 p3:0/0/0/0/0/4968"),
    ("fuzz3", "module", 0x3385e5974a42bfac, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 7021->7246 limit 14042 str 5 p0:0/1/0/1/0/7246 p1:0/0/0/0/0/7246 p2:0/0/0/0/0/7246 p3:0/0/0/0/0/7246"),
    ("fuzz3", "no-ipa", 0xd40f6072353ed5fc, "inl 7 cl 3 repl 3 del 7 out 0 pure 3 ipa 0/0/0 cost 3774->5107 limit 7548 str 3 p0:0/3/0/3/2/3727 p1:6/0/0/0/1/3136 p2:1/0/0/0/1/5107 p3:0/0/0/0/0/5107"),
    ("fuzz3", "budget400", 0xfbc86bde865e3898, "inl 4 cl 3 repl 3 del 7 out 0 pure 3 ipa 0/4/0 cost 3391->4968 limit 16955 str 3 p0:3/3/0/3/3/3039 p1:1/0/0/0/1/4968 p2:0/0/0/0/0/4968 p3:0/0/0/0/0/4968"),
    ("fuzz3", "max-ops8", 0xc53543a340efffcd, "inl 1 cl 3 repl 3 del 7 out 0 pure 3 ipa 0/7/0 cost 3391->4968 limit 6782 str 3 p0:0/3/0/3/3/3136 p1:0/0/0/0/0/3039 p2:1/0/0/0/1/4968 p3:0/0/0/0/0/4968"),
    ("fuzz3", "strict", 0xc53543a340efffcd, "inl 1 cl 3 repl 3 del 7 out 0 pure 3 ipa 0/7/0 cost 3391->4968 limit 6782 str 3 p0:0/3/0/3/3/3136 p1:0/0/0/0/0/3039 p2:1/0/0/0/1/4968 p3:0/0/0/0/0/4968"),
    ("fuzz4", "default", 0x459aec1a4ceee3d3, "inl 0 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2364->3092 limit 4728 str 2 p0:0/0/0/0/0/2364 p1:0/1/0/1/0/3148 p2:0/1/0/1/1/3092 p3:0/0/0/0/0/3092"),
    ("fuzz4", "module", 0x89e6f8693c51cc8d, "inl 0 cl 2 repl 2 del 1 out 0 pure 0 ipa 0/0/0 cost 3732->5300 limit 7464 str 3 p0:0/1/0/1/0/4516 p1:0/1/0/1/0/5300 p2:0/0/0/0/0/5300 p3:0/0/0/0/0/5300"),
    ("fuzz4", "no-ipa", 0x459aec1a4ceee3d3, "inl 0 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2364->3092 limit 4728 str 2 p0:0/0/0/0/0/2364 p1:0/1/0/1/0/3148 p2:0/1/0/1/1/3092 p3:0/0/0/0/0/3092"),
    ("fuzz4", "budget400", 0x1b4c3006e169ee45, "inl 2 cl 2 repl 2 del 5 out 0 pure 0 ipa 0/0/0 cost 2364->7574 limit 11820 str 1 p0:0/2/0/2/1/3092 p1:1/0/0/0/1/4509 p2:1/0/0/0/1/7574 p3:0/0/0/0/0/7574"),
    ("fuzz4", "max-ops8", 0x459aec1a4ceee3d3, "inl 0 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2364->3092 limit 4728 str 2 p0:0/0/0/0/0/2364 p1:0/1/0/1/0/3148 p2:0/1/0/1/1/3092 p3:0/0/0/0/0/3092"),
    ("fuzz4", "strict", 0x459aec1a4ceee3d3, "inl 0 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 2364->3092 limit 4728 str 2 p0:0/0/0/0/0/2364 p1:0/1/0/1/0/3148 p2:0/1/0/1/1/3092 p3:0/0/0/0/0/3092"),
    ("fuzz5", "default", 0xf02a178ed77197f7, "inl 0 cl 1 repl 1 del 6 out 0 pure 1 ipa 0/0/0 cost 6457->6458 limit 12914 str 2 p0:0/1/0/1/1/6458 p1:0/0/0/0/0/6458 p2:0/0/0/0/0/6458 p3:0/0/0/0/0/6458"),
    ("fuzz5", "module", 0x01b7ce91d8af66e8, "inl 5 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 11349->19165 limit 22698 str 5 p0:1/1/0/1/1/12145 p1:2/0/0/0/0/14985 p2:1/0/0/0/0/17398 p3:1/0/0/0/0/19165"),
    ("fuzz5", "no-ipa", 0xf02a178ed77197f7, "inl 0 cl 1 repl 1 del 6 out 0 pure 1 ipa 0/0/0 cost 6457->6458 limit 12914 str 2 p0:0/1/0/1/1/6458 p1:0/0/0/0/0/6458 p2:0/0/0/0/0/6458 p3:0/0/0/0/0/6458"),
    ("fuzz5", "budget400", 0xf02a178ed77197f7, "inl 0 cl 1 repl 1 del 6 out 0 pure 1 ipa 0/0/0 cost 6457->6458 limit 32285 str 2 p0:0/1/0/1/1/6458 p1:0/0/0/0/0/6458 p2:0/0/0/0/0/6458 p3:0/0/0/0/0/6458"),
    ("fuzz5", "max-ops8", 0xf02a178ed77197f7, "inl 0 cl 1 repl 1 del 6 out 0 pure 1 ipa 0/0/0 cost 6457->6458 limit 12914 str 2 p0:0/1/0/1/1/6458 p1:0/0/0/0/0/6458 p2:0/0/0/0/0/6458 p3:0/0/0/0/0/6458"),
    ("fuzz5", "strict", 0xf02a178ed77197f7, "inl 0 cl 1 repl 1 del 6 out 0 pure 1 ipa 0/0/0 cost 6457->6458 limit 12914 str 2 p0:0/1/0/1/1/6458 p1:0/0/0/0/0/6458 p2:0/0/0/0/0/6458 p3:0/0/0/0/0/6458"),
    ("fuzz6", "default", 0xe5dd3c34794d7105, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 8094->8094 limit 16188 str 2 p0:0/0/0/0/0/8094 p1:0/0/0/0/0/8094 p2:0/0/0/0/0/8094 p3:0/0/0/0/0/8094"),
    ("fuzz6", "module", 0x16aab90d67875030, "inl 0 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 8672->13296 limit 17344 str 4 p0:0/0/0/0/0/8672 p1:0/0/0/0/0/8672 p2:0/1/0/1/0/13296 p3:0/0/0/0/0/13296"),
    ("fuzz6", "no-ipa", 0xe5dd3c34794d7105, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 8094->8094 limit 16188 str 2 p0:0/0/0/0/0/8094 p1:0/0/0/0/0/8094 p2:0/0/0/0/0/8094 p3:0/0/0/0/0/8094"),
    ("fuzz6", "budget400", 0xcedf699a6f4f7a76, "inl 1 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 8094->10207 limit 40470 str 1 p0:0/0/0/0/0/8094 p1:1/0/0/0/1/10207 p2:0/0/0/0/0/10207 p3:0/0/0/0/0/10207"),
    ("fuzz6", "max-ops8", 0xe5dd3c34794d7105, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 8094->8094 limit 16188 str 2 p0:0/0/0/0/0/8094 p1:0/0/0/0/0/8094 p2:0/0/0/0/0/8094 p3:0/0/0/0/0/8094"),
    ("fuzz6", "strict", 0xe5dd3c34794d7105, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 8094->8094 limit 16188 str 2 p0:0/0/0/0/0/8094 p1:0/0/0/0/0/8094 p2:0/0/0/0/0/8094 p3:0/0/0/0/0/8094"),
    ("fuzz7", "default", 0x52abd2fc6ff84ee7, "inl 9 cl 7 repl 7 del 9 out 0 pure 0 ipa 0/0/0 cost 12881->21190 limit 25762 str 5 p0:2/3/0/3/3/13071 p1:3/2/0/2/3/15049 p2:2/1/0/1/1/17721 p3:2/1/0/1/1/21190"),
    ("fuzz7", "module", 0xf34a80539efeaa2c, "inl 10 cl 5 repl 8 del 4 out 0 pure 0 ipa 0/0/0 cost 13364->22308 limit 26728 str 7 p0:2/2/0/2/1/14492 p1:3/1/0/2/1/17191 p2:2/1/0/2/0/20746 p3:3/1/0/2/2/22308"),
    ("fuzz7", "no-ipa", 0x52abd2fc6ff84ee7, "inl 9 cl 7 repl 7 del 9 out 0 pure 0 ipa 0/0/0 cost 12881->21190 limit 25762 str 5 p0:2/3/0/3/3/13071 p1:3/2/0/2/3/15049 p2:2/1/0/1/1/17721 p3:2/1/0/1/1/21190"),
    ("fuzz7", "budget400", 0x56b60763a58cd09e, "inl 12 cl 7 repl 10 del 8 out 0 pure 0 ipa 0/0/0 cost 12881->54527 limit 64405 str 6 p0:4/3/0/3/4/20305 p1:3/2/0/3/2/28961 p2:2/1/0/2/0/46889 p3:3/1/0/2/1/54527"),
    ("fuzz7", "max-ops8", 0xcef5152c2dfc0017, "inl 3 cl 5 repl 5 del 6 out 0 pure 0 ipa 0/0/0 cost 12881->14804 limit 25762 str 6 p0:2/3/0/3/3/13070 p1:1/2/0/2/2/14803"),
    ("fuzz7", "strict", 0x52abd2fc6ff84ee7, "inl 9 cl 7 repl 7 del 9 out 0 pure 0 ipa 0/0/0 cost 12881->21190 limit 25762 str 5 p0:2/3/0/3/3/13071 p1:3/2/0/2/3/15049 p2:2/1/0/1/1/17721 p3:2/1/0/1/1/21190"),
    ("fuzz8", "default", 0x6b09e8a30cf9cd12, "inl 3 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/1/0 cost 12857->14891 limit 25714 str 1 p0:0/2/0/2/4/8825 p1:3/0/0/0/2/14891 p2:0/0/0/0/0/14891 p3:0/0/0/0/0/14891"),
    ("fuzz8", "module", 0x3289b10b91d0b162, "inl 3 cl 2 repl 2 del 3 out 0 pure 0 ipa 0/0/0 cost 13000->15823 limit 26000 str 2 p0:0/2/0/2/2/9658 p1:3/0/0/0/1/15823 p2:0/0/0/0/0/15823 p3:0/0/0/0/0/15823"),
    ("fuzz8", "no-ipa", 0x6b09e8a30cf9cd12, "inl 3 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/0/0 cost 12857->14891 limit 25714 str 1 p0:0/2/0/2/4/8825 p1:3/0/0/0/2/14891 p2:0/0/0/0/0/14891 p3:0/0/0/0/0/14891"),
    ("fuzz8", "budget400", 0x6b09e8a30cf9cd12, "inl 4 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/1/0 cost 12857->14891 limit 64285 str 1 p0:4/2/0/2/6/14891 p1:0/0/0/0/0/14891 p2:0/0/0/0/0/14891 p3:0/0/0/0/0/14891"),
    ("fuzz8", "max-ops8", 0x6b09e8a30cf9cd12, "inl 3 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/1/0 cost 12857->14891 limit 25714 str 1 p0:0/2/0/2/4/8825 p1:3/0/0/0/2/14891 p2:0/0/0/0/0/14891 p3:0/0/0/0/0/14891"),
    ("fuzz8", "strict", 0x6b09e8a30cf9cd12, "inl 3 cl 2 repl 2 del 7 out 0 pure 0 ipa 0/1/0 cost 12857->14891 limit 25714 str 1 p0:0/2/0/2/4/8825 p1:3/0/0/0/2/14891 p2:0/0/0/0/0/14891 p3:0/0/0/0/0/14891"),
    ("fuzz9", "default", 0x54d38a46e78ccdcf, "inl 2 cl 0 repl 0 del 5 out 0 pure 1 ipa 0/0/0 cost 6078->10758 limit 12156 str 1 p0:0/0/0/0/0/6078 p1:1/0/0/0/0/8249 p2:1/0/0/0/0/10758 p3:0/0/0/0/0/10758"),
    ("fuzz9", "module", 0xe75aa97f151ba1ad, "inl 4 cl 2 repl 3 del 1 out 0 pure 0 ipa 0/0/0 cost 9208->15822 limit 18416 str 7 p0:1/1/0/1/1/9293 p1:1/1/0/1/0/12760 p2:1/0/1/1/0/15269 p3:1/0/0/0/0/15822"),
    ("fuzz9", "no-ipa", 0x54d38a46e78ccdcf, "inl 2 cl 0 repl 0 del 5 out 0 pure 1 ipa 0/0/0 cost 6078->10758 limit 12156 str 1 p0:0/0/0/0/0/6078 p1:1/0/0/0/0/8249 p2:1/0/0/0/0/10758 p3:0/0/0/0/0/10758"),
    ("fuzz9", "budget400", 0x3e362f7b7693addf, "inl 7 cl 0 repl 0 del 5 out 0 pure 1 ipa 0/0/0 cost 6078->28373 limit 30390 str 1 p0:1/0/0/0/0/8249 p1:2/0/0/0/0/13605 p2:3/0/0/0/0/24174 p3:1/0/0/0/0/28373"),
    ("fuzz9", "max-ops8", 0x54d38a46e78ccdcf, "inl 2 cl 0 repl 0 del 5 out 0 pure 1 ipa 0/0/0 cost 6078->10758 limit 12156 str 1 p0:0/0/0/0/0/6078 p1:1/0/0/0/0/8249 p2:1/0/0/0/0/10758 p3:0/0/0/0/0/10758"),
    ("fuzz9", "strict", 0x54d38a46e78ccdcf, "inl 2 cl 0 repl 0 del 5 out 0 pure 1 ipa 0/0/0 cost 6078->10758 limit 12156 str 1 p0:0/0/0/0/0/6078 p1:1/0/0/0/0/8249 p2:1/0/0/0/0/10758 p3:0/0/0/0/0/10758"),
    ("fuzz10", "default", 0xf1f3c93f0af2b15d, "inl 1 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 1853->2601 limit 3706 str 1 p0:0/0/0/0/0/1853 p1:0/0/0/0/0/1853 p2:1/0/0/0/1/2601 p3:0/0/0/0/0/2601"),
    ("fuzz10", "module", 0xd931e6922eeda97b, "inl 1 cl 0 repl 0 del 0 out 0 pure 0 ipa 0/0/0 cost 1853->2744 limit 3706 str 1 p0:0/0/0/0/0/1853 p1:0/0/0/0/0/1853 p2:1/0/0/0/0/2744 p3:0/0/0/0/0/2744"),
    ("fuzz10", "no-ipa", 0xf1f3c93f0af2b15d, "inl 1 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 1853->2601 limit 3706 str 1 p0:0/0/0/0/0/1853 p1:0/0/0/0/0/1853 p2:1/0/0/0/1/2601 p3:0/0/0/0/0/2601"),
    ("fuzz10", "budget400", 0xa12cda3bf858e5d7, "inl 3 cl 0 repl 0 del 2 out 0 pure 0 ipa 0/0/0 cost 1853->6726 limit 9265 str 1 p0:1/0/0/0/1/2601 p1:1/0/0/0/0/4581 p2:0/0/0/0/0/4581 p3:1/0/0/0/1/6726"),
    ("fuzz10", "max-ops8", 0xf1f3c93f0af2b15d, "inl 1 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 1853->2601 limit 3706 str 1 p0:0/0/0/0/0/1853 p1:0/0/0/0/0/1853 p2:1/0/0/0/1/2601 p3:0/0/0/0/0/2601"),
    ("fuzz10", "strict", 0xf1f3c93f0af2b15d, "inl 1 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 1853->2601 limit 3706 str 1 p0:0/0/0/0/0/1853 p1:0/0/0/0/0/1853 p2:1/0/0/0/1/2601 p3:0/0/0/0/0/2601"),
    ("fuzz11", "default", 0x08f4c5b2354bd952, "inl 1 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 1065->1623 limit 2130 str 2 p0:0/1/0/1/1/1066 p1:0/0/0/0/0/1066 p2:0/0/0/0/0/1066 p3:1/0/0/0/1/1623"),
    ("fuzz11", "module", 0xd1d1cd347693de53, "inl 0 cl 1 repl 1 del 0 out 0 pure 0 ipa 0/0/0 cost 1640->1896 limit 3280 str 2 p0:0/1/0/1/0/1896 p1:0/0/0/0/0/1896 p2:0/0/0/0/0/1896 p3:0/0/0/0/0/1896"),
    ("fuzz11", "no-ipa", 0x08f4c5b2354bd952, "inl 1 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 1065->1623 limit 2130 str 2 p0:0/1/0/1/1/1066 p1:0/0/0/0/0/1066 p2:0/0/0/0/0/1066 p3:1/0/0/0/1/1623"),
    ("fuzz11", "budget400", 0x186a68444efae079, "inl 2 cl 1 repl 1 del 4 out 0 pure 0 ipa 0/0/0 cost 1065->2605 limit 5325 str 1 p0:0/1/0/1/1/1066 p1:1/0/0/0/1/1623 p2:1/0/0/0/1/2605 p3:0/0/0/0/0/2605"),
    ("fuzz11", "max-ops8", 0x08f4c5b2354bd952, "inl 1 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 1065->1623 limit 2130 str 2 p0:0/1/0/1/1/1066 p1:0/0/0/0/0/1066 p2:0/0/0/0/0/1066 p3:1/0/0/0/1/1623"),
    ("fuzz11", "strict", 0x08f4c5b2354bd952, "inl 1 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/0/0 cost 1065->1623 limit 2130 str 2 p0:0/1/0/1/1/1066 p1:0/0/0/0/0/1066 p2:0/0/0/0/0/1066 p3:1/0/0/0/1/1623"),
    ("fuzz12", "default", 0x9d7f4e24de43a00b, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 231->231 limit 462 str 0 p0:0/0/0/0/0/231 p1:0/0/0/0/0/231 p2:0/0/0/0/0/231 p3:0/0/0/0/0/231"),
    ("fuzz12", "module", 0x21011734a83398ca, "inl 0 cl 0 repl 0 del 1 out 0 pure 0 ipa 0/0/0 cost 7200->7200 limit 14400 str 4 p0:0/0/0/0/0/7200 p1:0/0/0/0/0/7200 p2:0/0/0/0/0/7200 p3:0/0/0/0/0/7200"),
    ("fuzz12", "no-ipa", 0x9d7f4e24de43a00b, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 231->231 limit 462 str 0 p0:0/0/0/0/0/231 p1:0/0/0/0/0/231 p2:0/0/0/0/0/231 p3:0/0/0/0/0/231"),
    ("fuzz12", "budget400", 0x9d7f4e24de43a00b, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 231->231 limit 1155 str 0 p0:0/0/0/0/0/231 p1:0/0/0/0/0/231 p2:0/0/0/0/0/231 p3:0/0/0/0/0/231"),
    ("fuzz12", "max-ops8", 0x9d7f4e24de43a00b, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 231->231 limit 462 str 0 p0:0/0/0/0/0/231 p1:0/0/0/0/0/231 p2:0/0/0/0/0/231 p3:0/0/0/0/0/231"),
    ("fuzz12", "strict", 0x9d7f4e24de43a00b, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 231->231 limit 462 str 0 p0:0/0/0/0/0/231 p1:0/0/0/0/0/231 p2:0/0/0/0/0/231 p3:0/0/0/0/0/231"),
    ("fuzz13", "default", 0x520f8e8206319ef0, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 405->405 limit 810 str 0 p0:0/0/0/0/0/405 p1:0/0/0/0/0/405 p2:0/0/0/0/0/405 p3:0/0/0/0/0/405"),
    ("fuzz13", "module", 0xc7e49e50bba8f214, "inl 0 cl 0 repl 0 del 0 out 0 pure 0 ipa 0/0/0 cost 10536->10536 limit 21072 str 4 p0:0/0/0/0/0/10536 p1:0/0/0/0/0/10536 p2:0/0/0/0/0/10536 p3:0/0/0/0/0/10536"),
    ("fuzz13", "no-ipa", 0x520f8e8206319ef0, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 405->405 limit 810 str 0 p0:0/0/0/0/0/405 p1:0/0/0/0/0/405 p2:0/0/0/0/0/405 p3:0/0/0/0/0/405"),
    ("fuzz13", "budget400", 0x520f8e8206319ef0, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 405->405 limit 2025 str 0 p0:0/0/0/0/0/405 p1:0/0/0/0/0/405 p2:0/0/0/0/0/405 p3:0/0/0/0/0/405"),
    ("fuzz13", "max-ops8", 0x520f8e8206319ef0, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 405->405 limit 810 str 0 p0:0/0/0/0/0/405 p1:0/0/0/0/0/405 p2:0/0/0/0/0/405 p3:0/0/0/0/0/405"),
    ("fuzz13", "strict", 0x520f8e8206319ef0, "inl 0 cl 0 repl 0 del 5 out 0 pure 0 ipa 0/0/0 cost 405->405 limit 810 str 0 p0:0/0/0/0/0/405 p1:0/0/0/0/0/405 p2:0/0/0/0/0/405 p3:0/0/0/0/0/405"),
    ("fuzz14", "default", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 9724 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz14", "module", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 9724 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz14", "no-ipa", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 9724 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz14", "budget400", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 24310 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz14", "max-ops8", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 9724 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz14", "strict", 0x482839b61e36f264, "inl 0 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 4862->4878 limit 9724 str 1 p0:0/1/0/1/0/4878 p1:0/0/0/0/0/4878 p2:0/0/0/0/0/4878 p3:0/0/0/0/0/4878"),
    ("fuzz15", "default", 0x5a45724a631c5fbd, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/3/1 cost 5805->5251 limit 11610 str 2 p0:1/1/0/1/2/5251 p1:0/0/0/0/0/5251 p2:0/0/0/0/0/5251 p3:0/0/0/0/0/5251"),
    ("fuzz15", "module", 0x93d6ae5e552de267, "inl 0 cl 0 repl 0 del 0 out 0 pure 0 ipa 0/0/0 cost 6425->6425 limit 12850 str 2 p0:0/0/0/0/0/6425 p1:0/0/0/0/0/6425 p2:0/0/0/0/0/6425 p3:0/0/0/0/0/6425"),
    ("fuzz15", "no-ipa", 0xa98b570c7b0f5682, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 6425->5619 limit 12850 str 2 p0:1/1/0/1/2/5619 p1:0/0/0/0/0/5619 p2:0/0/0/0/0/5619 p3:0/0/0/0/0/5619"),
    ("fuzz15", "budget400", 0xc40bb15e1753da0c, "inl 2 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/3/1 cost 5805->9092 limit 29025 str 1 p0:1/1/0/1/2/5251 p1:1/0/0/0/1/9092 p2:0/0/0/0/0/9092 p3:0/0/0/0/0/9092"),
    ("fuzz15", "max-ops8", 0x5a45724a631c5fbd, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/3/1 cost 5805->5251 limit 11610 str 2 p0:1/1/0/1/2/5251 p1:0/0/0/0/0/5251 p2:0/0/0/0/0/5251 p3:0/0/0/0/0/5251"),
    ("fuzz15", "strict", 0x5a45724a631c5fbd, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/3/1 cost 5805->5251 limit 11610 str 2 p0:1/1/0/1/2/5251 p1:0/0/0/0/0/5251 p2:0/0/0/0/0/5251 p3:0/0/0/0/0/5251"),
    ("fuzz16", "default", 0xf6c126c7a7b69dfc, "inl 0 cl 0 repl 0 del 2 out 0 pure 2 ipa 0/0/0 cost 3723->3723 limit 7446 str 1 p0:0/0/0/0/0/3723 p1:0/0/0/0/0/3723 p2:0/0/0/0/0/3723 p3:0/0/0/0/0/3723"),
    ("fuzz16", "module", 0xed89bda506678c4f, "inl 1 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 5457->5383 limit 10914 str 3 p0:1/1/0/1/1/5383 p1:0/0/0/0/0/5383 p2:0/0/0/0/0/5383 p3:0/0/0/0/0/5383"),
    ("fuzz16", "no-ipa", 0xf6c126c7a7b69dfc, "inl 0 cl 0 repl 0 del 2 out 0 pure 2 ipa 0/0/0 cost 3723->3723 limit 7446 str 1 p0:0/0/0/0/0/3723 p1:0/0/0/0/0/3723 p2:0/0/0/0/0/3723 p3:0/0/0/0/0/3723"),
    ("fuzz16", "budget400", 0xf6c126c7a7b69dfc, "inl 0 cl 0 repl 0 del 2 out 0 pure 2 ipa 0/0/0 cost 3723->3723 limit 18615 str 1 p0:0/0/0/0/0/3723 p1:0/0/0/0/0/3723 p2:0/0/0/0/0/3723 p3:0/0/0/0/0/3723"),
    ("fuzz16", "max-ops8", 0xf6c126c7a7b69dfc, "inl 0 cl 0 repl 0 del 2 out 0 pure 2 ipa 0/0/0 cost 3723->3723 limit 7446 str 1 p0:0/0/0/0/0/3723 p1:0/0/0/0/0/3723 p2:0/0/0/0/0/3723 p3:0/0/0/0/0/3723"),
    ("fuzz16", "strict", 0xf6c126c7a7b69dfc, "inl 0 cl 0 repl 0 del 2 out 0 pure 2 ipa 0/0/0 cost 3723->3723 limit 7446 str 1 p0:0/0/0/0/0/3723 p1:0/0/0/0/0/3723 p2:0/0/0/0/0/3723 p3:0/0/0/0/0/3723"),
    ("fuzz17", "default", 0x26dff8139c07073d, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 447->447 limit 894 str 0 p0:0/0/0/0/0/447 p1:0/0/0/0/0/447 p2:0/0/0/0/0/447 p3:0/0/0/0/0/447"),
    ("fuzz17", "module", 0xaebf1fc9892a19e5, "inl 0 cl 2 repl 2 del 1 out 0 pure 0 ipa 0/0/0 cost 8270->11235 limit 16540 str 5 p0:0/0/0/0/0/8270 p1:0/1/0/1/0/9791 p2:0/1/0/1/0/11235 p3:0/0/0/0/0/11235"),
    ("fuzz17", "no-ipa", 0x26dff8139c07073d, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 447->447 limit 894 str 0 p0:0/0/0/0/0/447 p1:0/0/0/0/0/447 p2:0/0/0/0/0/447 p3:0/0/0/0/0/447"),
    ("fuzz17", "budget400", 0x26dff8139c07073d, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 447->447 limit 2235 str 0 p0:0/0/0/0/0/447 p1:0/0/0/0/0/447 p2:0/0/0/0/0/447 p3:0/0/0/0/0/447"),
    ("fuzz17", "max-ops8", 0x26dff8139c07073d, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 447->447 limit 894 str 0 p0:0/0/0/0/0/447 p1:0/0/0/0/0/447 p2:0/0/0/0/0/447 p3:0/0/0/0/0/447"),
    ("fuzz17", "strict", 0x26dff8139c07073d, "inl 0 cl 0 repl 0 del 6 out 0 pure 0 ipa 0/0/0 cost 447->447 limit 894 str 0 p0:0/0/0/0/0/447 p1:0/0/0/0/0/447 p2:0/0/0/0/0/447 p3:0/0/0/0/0/447"),
    ("fuzz18", "default", 0x3dcf221d770c3244, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/1/0 cost 3821->5452 limit 7642 str 2 p0:0/1/0/1/1/3891 p1:0/0/0/0/0/3891 p2:1/0/0/0/1/5452 p3:0/0/0/0/0/5452"),
    ("fuzz18", "module", 0x9b9d47dcb07f2240, "inl 1 cl 0 repl 0 del 0 out 0 pure 0 ipa 0/0/0 cost 3821->5742 limit 7642 str 3 p0:0/0/0/0/0/3821 p1:0/0/0/0/0/3821 p2:1/0/0/0/0/5742 p3:0/0/0/0/0/5742"),
    ("fuzz18", "no-ipa", 0x3dcf221d770c3244, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/0/0 cost 3821->5452 limit 7642 str 2 p0:0/1/0/1/1/3891 p1:0/0/0/0/0/3891 p2:1/0/0/0/1/5452 p3:0/0/0/0/0/5452"),
    ("fuzz18", "budget400", 0xe06d2c9084db0c34, "inl 2 cl 1 repl 1 del 3 out 0 pure 0 ipa 0/1/0 cost 3821->5932 limit 19105 str 1 p0:1/1/0/1/2/5452 p1:1/0/0/0/1/5932 p2:0/0/0/0/0/5932 p3:0/0/0/0/0/5932"),
    ("fuzz18", "max-ops8", 0x3dcf221d770c3244, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/1/0 cost 3821->5452 limit 7642 str 2 p0:0/1/0/1/1/3891 p1:0/0/0/0/0/3891 p2:1/0/0/0/1/5452 p3:0/0/0/0/0/5452"),
    ("fuzz18", "strict", 0x3dcf221d770c3244, "inl 1 cl 1 repl 1 del 2 out 0 pure 0 ipa 0/1/0 cost 3821->5452 limit 7642 str 2 p0:0/1/0/1/1/3891 p1:0/0/0/0/0/3891 p2:1/0/0/0/1/5452 p3:0/0/0/0/0/5452"),
    ("fuzz19", "default", 0x47910fa12fcb702b, "inl 1 cl 1 repl 1 del 5 out 0 pure 0 ipa 0/0/0 cost 13364->14793 limit 26728 str 2 p0:1/1/0/1/2/14793 p1:0/0/0/0/0/14793 p2:0/0/0/0/0/14793 p3:0/0/0/0/0/14793"),
    ("fuzz19", "module", 0x590ae1fd8887105a, "inl 4 cl 1 repl 1 del 1 out 0 pure 0 ipa 0/0/0 cost 27167->44531 limit 54334 str 5 p0:2/1/0/1/1/31455 p1:1/0/0/0/0/34451 p2:0/0/0/0/0/34451 p3:1/0/0/0/0/44531"),
    ("fuzz19", "no-ipa", 0x47910fa12fcb702b, "inl 1 cl 1 repl 1 del 5 out 0 pure 0 ipa 0/0/0 cost 13364->14793 limit 26728 str 2 p0:1/1/0/1/2/14793 p1:0/0/0/0/0/14793 p2:0/0/0/0/0/14793 p3:0/0/0/0/0/14793"),
    ("fuzz19", "budget400", 0xceb33d57dbd3928f, "inl 2 cl 1 repl 1 del 6 out 0 pure 0 ipa 0/0/0 cost 13364->28230 limit 66820 str 1 p0:1/1/0/1/2/14793 p1:1/0/0/0/1/28230 p2:0/0/0/0/0/28230 p3:0/0/0/0/0/28230"),
    ("fuzz19", "max-ops8", 0x47910fa12fcb702b, "inl 1 cl 1 repl 1 del 5 out 0 pure 0 ipa 0/0/0 cost 13364->14793 limit 26728 str 2 p0:1/1/0/1/2/14793 p1:0/0/0/0/0/14793 p2:0/0/0/0/0/14793 p3:0/0/0/0/0/14793"),
    ("fuzz19", "strict", 0x47910fa12fcb702b, "inl 1 cl 1 repl 1 del 5 out 0 pure 0 ipa 0/0/0 cost 13364->14793 limit 26728 str 2 p0:1/1/0/1/2/14793 p1:0/0/0/0/0/14793 p2:0/0/0/0/0/14793 p3:0/0/0/0/0/14793"),    ("purecalls", "default", 0xedd8abb491c307e3, "inl 0 cl 0 repl 0 del 3 out 0 pure 1 ipa 1/1/0 cost 147->147 limit 294 str 0 p0:0/0/0/0/0/147 p1:0/0/0/0/0/147 p2:0/0/0/0/0/147 p3:0/0/0/0/0/147"),
    ("purecalls", "module", 0x7c05d778f22604f6, "inl 2 cl 0 repl 0 del 2 out 0 pure 0 ipa 0/0/0 cost 522->427 limit 1044 str 1 p0:1/0/0/0/1/483 p1:1/0/0/0/1/427 p2:0/0/0/0/0/427 p3:0/0/0/0/0/427"),
    ("purecalls", "no-ipa", 0x550156444fb70dd6, "inl 1 cl 0 repl 0 del 2 out 0 pure 1 ipa 0/0/0 cost 483->427 limit 966 str 1 p0:1/0/0/0/1/427 p1:0/0/0/0/0/427 p2:0/0/0/0/0/427 p3:0/0/0/0/0/427"),
    ("purecalls", "budget400", 0xedd8abb491c307e3, "inl 0 cl 0 repl 0 del 3 out 0 pure 1 ipa 1/1/0 cost 147->147 limit 735 str 0 p0:0/0/0/0/0/147 p1:0/0/0/0/0/147 p2:0/0/0/0/0/147 p3:0/0/0/0/0/147"),
    ("purecalls", "max-ops8", 0xedd8abb491c307e3, "inl 0 cl 0 repl 0 del 3 out 0 pure 1 ipa 1/1/0 cost 147->147 limit 294 str 0 p0:0/0/0/0/0/147 p1:0/0/0/0/0/147 p2:0/0/0/0/0/147 p3:0/0/0/0/0/147"),
    ("purecalls", "strict", 0xedd8abb491c307e3, "inl 0 cl 0 repl 0 del 3 out 0 pure 1 ipa 1/1/0 cost 147->147 limit 294 str 0 p0:0/0/0/0/0/147 p1:0/0/0/0/0/147 p2:0/0/0/0/0/147 p3:0/0/0/0/0/147"),
];

/// The configurations every pinned program is built under. `outline` runs
/// only on programs that carry a trained profile.
fn configurations() -> Vec<(&'static str, hlo::HloOptions)> {
    let d = hlo::HloOptions::default;
    vec![
        ("default", d()),
        (
            "module",
            hlo::HloOptions {
                scope: hlo::Scope::WithinModule,
                ..d()
            },
        ),
        ("no-ipa", hlo::HloOptions { ipa: false, ..d() }),
        (
            "budget400",
            hlo::HloOptions {
                budget_percent: 400,
                ..d()
            },
        ),
        (
            "max-ops8",
            hlo::HloOptions {
                max_ops: Some(8),
                ..d()
            },
        ),
        (
            "outline",
            hlo::HloOptions {
                enable_outline: true,
                ..d()
            },
        ),
        (
            "strict",
            hlo::HloOptions {
                check: lint::CheckLevel::Strict,
                ..d()
            },
        ),
    ]
}

/// The report's transformation and cost counters, the per-pass rows, and
/// the count and hash of the diagnostics a pass introduced.
fn build_counters(r: &hlo::HloReport) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "inl {} cl {} repl {} del {} out {} pure {} ipa {}/{}/{} cost {}->{} limit {} str {}",
        r.inlines,
        r.clones,
        r.clone_replacements,
        r.deletions,
        r.outlines,
        r.pure_calls_removed,
        r.ipa_pure_calls,
        r.ipa_const_folds,
        r.ipa_store_forwards,
        r.initial_cost,
        r.final_cost,
        r.budget_limit,
        r.straightened,
    );
    for q in &r.passes {
        let _ = write!(
            s,
            " p{}:{}/{}/{}/{}/{}/{}",
            q.pass,
            q.inlines,
            q.clones_created,
            q.clones_reused,
            q.clone_replacements,
            q.deletions,
            q.cost_after
        );
    }
    let introduced: Vec<String> = r.introduced_diagnostics().map(|d| d.to_string()).collect();
    if !introduced.is_empty() {
        let _ = write!(
            s,
            " diags {}:{:016x}",
            introduced.len(),
            ir::fnv1a_64(introduced.join("\n").as_bytes())
        );
    }
    s
}

/// The edit program the daemon benchmarks warm edits on: 24 independent
/// modules (one cache partition each) of a leaf, a loop over it and an
/// entry.
fn edit_program_sources() -> Vec<(String, String)> {
    (0..24)
        .map(|m| {
            let src = format!(
                "static fn m{m}_leaf(x) {{ return x * 2 + 7; }}
                 static fn m{m}_mid(x) {{ var s = 0;
                     for (var i = 0; i < 8; i = i + 1) {{ s = s + m{m}_leaf(x + i); }}
                     return s; }}
                 fn m{m}_entry(n) {{ return m{m}_mid(n) + m{m}_leaf(n); }}"
            );
            (format!("m{m}"), src)
        })
        .collect()
}

/// A program whose default build deletes a call in each of the three ways
/// the summary stage can: `leaf` passes the paper's syntactic
/// side-effect test (`pure-call-removed`), `scratch` fills a local array
/// so only the summaries admit it (`ipa-pure-callee`), and `seven`'s
/// constant return is folded into its caller (`ipa-ret-const`).
const PURE_CALLS_FIXTURE: &str = "
static fn leaf(x) { return x * 3 + 1; }
static fn seven() { return 7; }
static fn scratch(n) { var t[2]; if (n > 0) { t[0] = n; t[1] = n + 1; } else { t[0] = 1; t[1] = 2; } return t[0] + t[1]; }
fn main(n) { leaf(n); scratch(n); var k = seven(); var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i * k; } return s; }
";

fn compile_sources(sources: &[(String, String)]) -> ir::Program {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    frontc::compile(&refs).expect("pinned program compiles")
}

/// Every pinned program: (name, input program, trained profile). They are
/// the suite with (`+train`) and without its trained profile, the
/// 24-module edit program, 20 fuzz-generated programs and the pure-call
/// fixture.
fn pinned_programs() -> Vec<(String, ir::Program, Option<profile::ProfileDb>)> {
    let mut out = Vec::new();
    for b in suite::all_benchmarks() {
        let p = b.compile().expect("suite program compiles");
        let (db, _) = profile::collect_profile(&p, &[b.train_arg], &vm::ExecOptions::default())
            .expect("training run succeeds");
        out.push((b.name.to_string(), p.clone(), None));
        out.push((format!("{}+train", b.name), p, Some(db)));
    }
    out.push((
        "edit24".to_string(),
        compile_sources(&edit_program_sources()),
        None,
    ));
    for seed in 0..20u64 {
        let sources = fuzz::generate_sources(seed, &fuzz::GenConfig::default());
        out.push((format!("fuzz{seed}"), compile_sources(&sources), None));
    }
    let fixture = [("purecalls".to_string(), PURE_CALLS_FIXTURE.to_string())];
    out.push(("purecalls".to_string(), compile_sources(&fixture), None));
    out
}

#[test]
fn optimizer_builds_match_pinned_output() {
    let mut rows: Vec<(String, &'static str, u64, String)> = Vec::new();
    for (name, p0, db) in pinned_programs() {
        for (config, opts) in configurations() {
            if config == "outline" && db.is_none() {
                continue;
            }
            let mut p = p0.clone();
            let report = hlo::optimize(&mut p, db.as_ref(), &opts);
            let hash = ir::fnv1a_64(ir::program_to_text(&p).as_bytes());
            rows.push((name.clone(), config, hash, build_counters(&report)));
        }
    }
    let table: String = rows
        .iter()
        .map(|(n, c, h, s)| format!("    ({n:?}, {c:?}, {h:#018x}, {s:?}),\n"))
        .collect();
    let mismatches: Vec<String> = rows
        .iter()
        .zip(BUILDS)
        .filter(|((n, c, h, s), &(gn, gc, gh, gs))| {
            (n.as_str(), *c, *h, s.as_str()) != (gn, gc, gh, gs)
        })
        .map(|((n, c, h, s), &(_, _, gh, gs))| {
            format!("{n} [{c}]: got {h:#018x} {s}\n  pinned {gh:#018x} {gs}")
        })
        .collect();
    assert!(
        mismatches.is_empty() && rows.len() == BUILDS.len(),
        "{} of {} pinned builds differ ({} rows computed):\n{}\n\nfull table:\n{table}",
        mismatches.len(),
        BUILDS.len(),
        rows.len(),
        mismatches.join("\n")
    );
}

/// One pinned decision report: (program, configuration, FNV-1a-64 of
/// `Tracer::decision_report(None)` after a build traced at
/// `TraceLevel::Decisions`), for every program of [`pinned_programs`]
/// under the `default` and `no-ipa` configurations. It pins which sites
/// each stage decides on and the reason label each decision carries.
const DECISIONS: &[(&str, &str, u64)] = &[
    ("008.espresso", "default", 0xce58b92af5cffdc5),
    ("008.espresso", "no-ipa", 0x6b5145f3e84b0522),
    ("008.espresso+train", "default", 0x765f599cec18294e),
    ("008.espresso+train", "no-ipa", 0x90ff825b4bc2cd80),
    ("022.li", "default", 0x7e4f161855df4018),
    ("022.li", "no-ipa", 0x0f11ae824ea40fda),
    ("022.li+train", "default", 0xaac41e4b01366fca),
    ("022.li+train", "no-ipa", 0x0f8a8866f37a0c09),
    ("023.eqntott", "default", 0x2a1279f24d10423d),
    ("023.eqntott", "no-ipa", 0x4b55b12357f32b62),
    ("023.eqntott+train", "default", 0xec3e2dab45180e71),
    ("023.eqntott+train", "no-ipa", 0xd209834af02f840c),
    ("026.compress", "default", 0xc83418e417e12c12),
    ("026.compress", "no-ipa", 0xc83418e417e12c12),
    ("026.compress+train", "default", 0xc909ca99675ae695),
    ("026.compress+train", "no-ipa", 0xc909ca99675ae695),
    ("072.sc", "default", 0xa07b2a56fa31c5e7),
    ("072.sc", "no-ipa", 0xc100096b26e6f66a),
    ("072.sc+train", "default", 0x9ae61f03d7b3aad9),
    ("072.sc+train", "no-ipa", 0x88076aabdd464df9),
    ("085.gcc", "default", 0x2b2cc7c82265b50e),
    ("085.gcc", "no-ipa", 0x3869189e974ea277),
    ("085.gcc+train", "default", 0x29a23eb9089d6aee),
    ("085.gcc+train", "no-ipa", 0x887b75e637f449a8),
    ("099.go", "default", 0xb66a31eb3a827815),
    ("099.go", "no-ipa", 0x50a7624a4f25e7ba),
    ("099.go+train", "default", 0x23d4a5673b2f7dd1),
    ("099.go+train", "no-ipa", 0x02b26a40e5f63a14),
    ("124.m88ksim", "default", 0xdd8d81d5f626fbfa),
    ("124.m88ksim", "no-ipa", 0x74d6d9d766800888),
    ("124.m88ksim+train", "default", 0x1f6d900baba3851a),
    ("124.m88ksim+train", "no-ipa", 0xc1ca5dc91697a808),
    ("126.gcc", "default", 0x27bbcba6f9a1e592),
    ("126.gcc", "no-ipa", 0x4441453e6f77737b),
    ("126.gcc+train", "default", 0x7b6a8e57d0812282),
    ("126.gcc+train", "no-ipa", 0xf1602f6290789929),
    ("129.compress", "default", 0x49e0d747809c337e),
    ("129.compress", "no-ipa", 0x49e0d747809c337e),
    ("129.compress+train", "default", 0x90e01fc087b6f625),
    ("129.compress+train", "no-ipa", 0x90e01fc087b6f625),
    ("130.li", "default", 0x84ad405b531280a4),
    ("130.li", "no-ipa", 0x810ee3aed3951262),
    ("130.li+train", "default", 0x38c8b3ae2a792c0f),
    ("130.li+train", "no-ipa", 0xfb76cb3f2dca9d68),
    ("132.ijpeg", "default", 0xae983c1a80cf2971),
    ("132.ijpeg", "no-ipa", 0x5fa9a735e75f3550),
    ("132.ijpeg+train", "default", 0x63c605009a471ee8),
    ("132.ijpeg+train", "no-ipa", 0x9c3d4859d3f0fbdf),
    ("134.perl", "default", 0x949df0349d3178ca),
    ("134.perl", "no-ipa", 0x7391b36f27196489),
    ("134.perl+train", "default", 0xb525097a9fee7f22),
    ("134.perl+train", "no-ipa", 0xbdb9d7cbfa291f76),
    ("147.vortex", "default", 0x1e69624769685ee2),
    ("147.vortex", "no-ipa", 0x8001aa60ee7f7887),
    ("147.vortex+train", "default", 0x63d123a2e115967d),
    ("147.vortex+train", "no-ipa", 0x95f409ceb7f69424),
    ("edit24", "default", 0xcbf29ce484222325),
    ("edit24", "no-ipa", 0xcbf29ce484222325),
    ("fuzz0", "default", 0xb13837bdb70a9a3a),
    ("fuzz0", "no-ipa", 0x0a0f998964c627ed),
    ("fuzz1", "default", 0xa48940331386431f),
    ("fuzz1", "no-ipa", 0xcb2e15a604e896e0),
    ("fuzz2", "default", 0xffa8d62f088715ba),
    ("fuzz2", "no-ipa", 0xffa8d62f088715ba),
    ("fuzz3", "default", 0xb199bb750bf38367),
    ("fuzz3", "no-ipa", 0xf12e0ca1593d0c7a),
    ("fuzz4", "default", 0x9c84ff692de51e2b),
    ("fuzz4", "no-ipa", 0x9c84ff692de51e2b),
    ("fuzz5", "default", 0x75b00daae3708686),
    ("fuzz5", "no-ipa", 0x75b00daae3708686),
    ("fuzz6", "default", 0x1521cb034dbd69fd),
    ("fuzz6", "no-ipa", 0x1521cb034dbd69fd),
    ("fuzz7", "default", 0x47a18926df506381),
    ("fuzz7", "no-ipa", 0x47a18926df506381),
    ("fuzz8", "default", 0x8d501035a4c00635),
    ("fuzz8", "no-ipa", 0x73242159431d2395),
    ("fuzz9", "default", 0x11c953fa5bfed49e),
    ("fuzz9", "no-ipa", 0x11c953fa5bfed49e),
    ("fuzz10", "default", 0xe39c062f11d3b107),
    ("fuzz10", "no-ipa", 0xe39c062f11d3b107),
    ("fuzz11", "default", 0xbd41f2ed42fc30f4),
    ("fuzz11", "no-ipa", 0xbd41f2ed42fc30f4),
    ("fuzz12", "default", 0xcbf29ce484222325),
    ("fuzz12", "no-ipa", 0xcbf29ce484222325),
    ("fuzz13", "default", 0xcbf29ce484222325),
    ("fuzz13", "no-ipa", 0xcbf29ce484222325),
    ("fuzz14", "default", 0xea2c79531f9ec0a9),
    ("fuzz14", "no-ipa", 0xea2c79531f9ec0a9),
    ("fuzz15", "default", 0xb2c367a95ed31d69),
    ("fuzz15", "no-ipa", 0xd56022c0f4c4bd10),
    ("fuzz16", "default", 0x5b7aa4a2bef9c131),
    ("fuzz16", "no-ipa", 0x5b7aa4a2bef9c131),
    ("fuzz17", "default", 0xcbf29ce484222325),
    ("fuzz17", "no-ipa", 0xcbf29ce484222325),
    ("fuzz18", "default", 0xb53b034f42ad5c3c),
    ("fuzz18", "no-ipa", 0xd9a2e6f015b96b30),
    ("fuzz19", "default", 0xcb489c2f92858c0d),
    ("fuzz19", "no-ipa", 0xcb489c2f92858c0d),
    ("purecalls", "default", 0x8a31636350bc6f8b),
    ("purecalls", "no-ipa", 0x82c8569fdcbee408),
];

#[test]
fn decision_reports_match_pinned_hashes() {
    let mut rows: Vec<(String, &'static str, u64)> = Vec::new();
    for (name, p0, db) in pinned_programs() {
        for (config, opts) in configurations() {
            if config != "default" && config != "no-ipa" {
                continue;
            }
            let mut p = p0.clone();
            let mut tracer = hlo::Tracer::new(hlo::TraceLevel::Decisions);
            hlo::optimize_traced(&mut p, db.as_ref(), &opts, &mut tracer);
            let hash = ir::fnv1a_64(tracer.decision_report(None).as_bytes());
            rows.push((name.clone(), config, hash));
        }
    }
    let table: String = rows
        .iter()
        .map(|(n, c, h)| format!("    ({n:?}, {c:?}, {h:#018x}),\n"))
        .collect();
    let mismatches: Vec<String> = rows
        .iter()
        .zip(DECISIONS)
        .filter(|((n, c, h), &(gn, gc, gh))| (n.as_str(), *c, *h) != (gn, gc, gh))
        .map(|((n, c, h), &(_, _, gh))| format!("{n} [{c}]: got {h:#018x}, pinned {gh:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty() && rows.len() == DECISIONS.len(),
        "{} of {} pinned decision reports differ ({} rows computed):\n{}\n\nfull table:\n{table}",
        mismatches.len(),
        DECISIONS.len(),
        rows.len(),
        mismatches.join("\n")
    );
}

/// Optimizer work per build: (program, configuration,
/// `HloReport::summary_scans`, `HloReport::summary_solves`,
/// `HloReport::opt_runs`, `HloReport::opt_rounds`,
/// `HloReport::inline_evals`, `HloReport::graph_scans`,
/// `HloReport::graph_assemblies`, `HloReport::liveness_solves`) for the 14
/// suite programs as compiled, the 24-module edit program and the
/// pure-call fixture, under the `default` and `no-ipa` configurations. The
/// optimizer is serially deterministic, so these counts are exact: checked
/// for equality, a change that moves one updates its row and says why.
#[allow(clippy::type_complexity)]
const WORK: &[(&str, &str, u64, u64, u64, u64, u64, u64, u64, u64)] = &[
    ("008.espresso", "default", 33, 33, 24, 49, 27, 35, 13, 58),
    ("008.espresso", "no-ipa", 33, 33, 24, 49, 27, 35, 13, 58),
    ("022.li", "default", 35, 35, 28, 56, 255, 35, 10, 69),
    ("022.li", "no-ipa", 35, 35, 28, 56, 255, 35, 10, 69),
    ("023.eqntott", "default", 14, 14, 11, 23, 18, 14, 8, 26),
    ("023.eqntott", "no-ipa", 14, 14, 11, 23, 18, 14, 8, 26),
    ("026.compress", "default", 20, 20, 16, 31, 50, 20, 8, 41),
    ("026.compress", "no-ipa", 19, 19, 16, 31, 50, 20, 8, 41),
    ("072.sc", "default", 27, 27, 19, 39, 25, 27, 12, 47),
    ("072.sc", "no-ipa", 25, 25, 18, 38, 25, 26, 11, 46),
    ("085.gcc", "default", 33, 34, 25, 52, 47, 34, 9, 63),
    ("085.gcc", "no-ipa", 31, 32, 23, 48, 47, 32, 9, 57),
    ("099.go", "default", 29, 29, 25, 45, 94, 29, 11, 59),
    ("099.go", "no-ipa", 29, 29, 24, 43, 94, 29, 12, 56),
    ("124.m88ksim", "default", 31, 31, 25, 49, 31, 31, 10, 57),
    ("124.m88ksim", "no-ipa", 29, 29, 23, 46, 29, 29, 7, 54),
    ("126.gcc", "default", 36, 37, 27, 57, 51, 37, 9, 68),
    ("126.gcc", "no-ipa", 35, 36, 26, 55, 52, 36, 9, 65),
    ("129.compress", "default", 22, 22, 16, 31, 47, 22, 9, 40),
    ("129.compress", "no-ipa", 21, 21, 16, 31, 47, 22, 9, 40),
    ("130.li", "default", 43, 43, 36, 68, 293, 44, 14, 85),
    ("130.li", "no-ipa", 38, 38, 32, 63, 294, 40, 11, 79),
    ("132.ijpeg", "default", 20, 20, 15, 40, 27, 20, 9, 50),
    ("132.ijpeg", "no-ipa", 20, 20, 15, 40, 27, 20, 9, 50),
    ("134.perl", "default", 36, 36, 28, 55, 127, 36, 8, 70),
    ("134.perl", "no-ipa", 36, 36, 28, 55, 127, 36, 8, 70),
    ("147.vortex", "default", 42, 44, 32, 65, 46, 42, 11, 82),
    ("147.vortex", "no-ipa", 40, 41, 31, 63, 47, 40, 10, 79),
    ("edit24", "default", 144, 144, 72, 144, 0, 144, 48, 144),
    ("edit24", "no-ipa", 144, 144, 72, 144, 0, 144, 48, 144),
    ("purecalls", "default", 9, 9, 6, 12, 0, 9, 4, 13),
    ("purecalls", "no-ipa", 7, 7, 6, 12, 5, 8, 5, 13),
];

#[test]
fn summary_work_matches_pinned_counts() {
    type Row = (String, &'static str, [u64; 8]);
    let mut rows: Vec<Row> = Vec::new();
    for (name, p0, db) in pinned_programs() {
        if db.is_some() || name.starts_with("fuzz") {
            continue;
        }
        for (config, opts) in configurations() {
            if config != "default" && config != "no-ipa" {
                continue;
            }
            let mut p = p0.clone();
            let r = hlo::optimize(&mut p, None, &opts);
            let counts = [
                r.summary_scans,
                r.summary_solves,
                r.opt_runs,
                r.opt_rounds,
                r.inline_evals,
                r.graph_scans,
                r.graph_assemblies,
                r.liveness_solves,
            ];
            rows.push((name.clone(), config, counts));
        }
    }
    let table: String = rows
        .iter()
        .map(|(n, c, [a, b, d, e, g, h, k, l])| {
            format!("    ({n:?}, {c:?}, {a}, {b}, {d}, {e}, {g}, {h}, {k}, {l}),\n")
        })
        .collect();
    let mismatches: Vec<String> = rows
        .iter()
        .zip(WORK)
        .filter(|((n, c, got), &(gn, gc, a, b, d, e, g, h, k, l))| {
            (n.as_str(), *c, *got) != (gn, gc, [a, b, d, e, g, h, k, l])
        })
        .map(|((n, c, got), &(_, _, a, b, d, e, g, h, k, l))| {
            format!(
                "{n} [{c}]: got {got:?} (scans, solves, opt runs, opt rounds, inline evals, \
                 graph scans, graph assemblies, liveness solves); pinned {:?}",
                [a, b, d, e, g, h, k, l]
            )
        })
        .collect();
    assert!(
        mismatches.is_empty() && rows.len() == WORK.len(),
        "{} of {} pinned work rows differ ({} rows computed):\n{}\n\nfull table:\n{table}",
        mismatches.len(),
        WORK.len(),
        rows.len(),
        mismatches.join("\n")
    );
}
