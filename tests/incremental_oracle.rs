//! The byte-identity edit oracle for function-grain incremental
//! recompilation.
//!
//! A daemon that splices cached partition bodies must be *invisible*: its
//! output for an edited program must be byte-identical to a from-scratch
//! `hlo::optimize` of the same input — and it must have rebuilt exactly
//! the partitions the edit's dependence cone touched, splicing the rest.
//! These tests sweep the three edit shapes a build service actually sees
//! (body tweak, signature-preserving rewrite, callee addition) over a
//! hand-built multi-module program, then sweep single-constant edits over
//! the SPEC-style suite and fuzz-generated programs. A last sweep checks
//! that keying functions by content alone re-keys exactly the functions
//! that folding in their interprocedural summaries would.

use hlo::{CallGraphCache, HloOptions, Scope};
use hlo_ir::{hash_function, program_to_text, ConstVal, Fnv64, Inst, Program};
use hlo_serve::{Client, OptimizeRequest, ProfileSpec, ServeConfig, Server, SourceKind};

/// Three modules with no cross-module calls: three cache partitions under
/// module scope, so partial reuse is observable. Each module has enough
/// meat (a loop over a static leaf) for inlining to fire.
const BASE: &[(&str, &str)] = &[
    (
        "a",
        "static fn a_leaf(x) { return x * 2 + 1; }
         static fn a_mid(x) { var s = 0;
             for (var i = 0; i < 8; i = i + 1) { s = s + a_leaf(x + i); }
             return s; }
         fn a_entry(n) { return a_mid(n) + a_leaf(n); }",
    ),
    (
        "b",
        "static fn b_leaf(x) { return x + 7; }
         static fn b_mid(x) { var s = 1;
             for (var i = 0; i < 6; i = i + 1) { s = s + b_leaf(x * i); }
             return s; }
         fn b_entry(n) { return b_mid(n) * b_leaf(n); }",
    ),
    (
        "c",
        "static fn c_leaf(x) { return x * x; }
         static fn c_mid(x) { var s = 0;
             for (var i = 0; i < 5; i = i + 1) { s = s + c_leaf(x + i); }
             return s; }
         fn c_entry(n) { return c_mid(n) - c_leaf(n); }",
    ),
];

/// `BASE` with a body tweak in the middle module: one constant changed in
/// `b_leaf`.
fn body_tweak() -> Vec<(&'static str, &'static str)> {
    let mut srcs = BASE.to_vec();
    srcs[1] = (
        "b",
        "static fn b_leaf(x) { return x + 9; }
         static fn b_mid(x) { var s = 1;
             for (var i = 0; i < 6; i = i + 1) { s = s + b_leaf(x * i); }
             return s; }
         fn b_entry(n) { return b_mid(n) * b_leaf(n); }",
    );
    srcs
}

/// `BASE` with a signature-preserving rewrite of `b_mid`: same name,
/// params and callees, restructured body.
fn signature_preserving_rewrite() -> Vec<(&'static str, &'static str)> {
    let mut srcs = BASE.to_vec();
    srcs[1] = (
        "b",
        "static fn b_leaf(x) { return x + 7; }
         static fn b_mid(x) { var s = 1;
             var i = 0;
             while (i < 6) { s = s + b_leaf(x * i); i = i + 1; }
             return s; }
         fn b_entry(n) { return b_mid(n) * b_leaf(n); }",
    );
    srcs
}

/// `BASE` with a callee added to the *last* module. Appending to the last
/// module keeps every earlier function's id stable, so only module c's
/// partition may rebuild; an insertion anywhere else would renumber later
/// functions and (correctly, but less interestingly) miss their
/// partitions too.
fn callee_addition() -> Vec<(&'static str, &'static str)> {
    let mut srcs = BASE.to_vec();
    srcs[2] = (
        "c",
        "static fn c_leaf(x) { return x * x; }
         static fn c_mid(x) { var s = 0;
             for (var i = 0; i < 5; i = i + 1) { s = s + c_leaf(x + i); }
             return s; }
         fn c_entry(n) { return c_mid(n) - c_leaf(n) + c_extra(n); }
         static fn c_extra(x) { return x * 3 - 1; }",
    );
    srcs
}

fn module_opts() -> HloOptions {
    HloOptions {
        scope: Scope::WithinModule,
        ..HloOptions::default()
    }
}

fn minc_request(srcs: &[(&str, &str)], opts: &HloOptions) -> OptimizeRequest {
    OptimizeRequest {
        options: opts.clone(),
        source: SourceKind::Minc(
            srcs.iter()
                .map(|(n, s)| (n.to_string(), s.to_string()))
                .collect(),
        ),
        profile: ProfileSpec::None,
        deadline_ms: None,
        train_arg: None,
        trace_id: None,
    }
}

/// From-scratch ground truth: compile and optimize in-process.
fn truth(srcs: &[(&str, &str)], opts: &HloOptions) -> String {
    let mut p = hlo_frontc::compile(srcs).unwrap();
    hlo::optimize(&mut p, None, opts);
    program_to_text(&p)
}

#[test]
fn single_function_edits_rebuild_exactly_the_edited_partition() {
    let opts = module_opts();
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let cold = client.optimize(&minc_request(BASE, &opts)).unwrap();
    assert!(!cold.outcome.hit);
    assert!(!cold.outcome.incr_fallback, "base program must be eligible");
    assert_eq!(cold.outcome.partition_hits, 0, "cold store has no bodies");
    let total = cold.outcome.partition_rebuilds;
    assert!(
        total >= 3,
        "three independent modules, got {total} partitions"
    );
    assert_eq!(cold.ir_text, truth(BASE, &opts), "cold output");

    for (name, edited) in [
        ("body tweak", body_tweak()),
        (
            "signature-preserving rewrite",
            signature_preserving_rewrite(),
        ),
        ("callee addition", callee_addition()),
    ] {
        let warm = client.optimize(&minc_request(&edited, &opts)).unwrap();
        assert!(!warm.outcome.hit, "{name}: edited program is a new key");
        assert!(!warm.outcome.incr_fallback, "{name}: must not fall back");
        assert_eq!(
            warm.ir_text,
            truth(&edited, &opts),
            "{name}: incremental output must be byte-identical to from-scratch"
        );
        assert_eq!(
            warm.outcome.partition_rebuilds, 1,
            "{name}: exactly the edited cone's partition rebuilds"
        );
        assert_eq!(
            warm.outcome.partition_hits,
            total - 1,
            "{name}: every untouched partition splices"
        );
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.partition_rebuilds, total + 3);
    assert_eq!(stats.partition_hits, 3 * (total - 1));
    assert_eq!(stats.incr_fallbacks, 0);
    assert!(stats.partition_entries >= total);
    client.shutdown().unwrap();
    server.wait();
}

/// Bumps the first integer constant of function `f` (immediate operand or
/// `Const` instruction) — the generic single-function "edit" for programs
/// we did not hand-write. `None` when `f` has no integer constant.
fn bump_first_const(p: &Program, f: usize) -> Option<Program> {
    let mut q = p.clone();
    for b in &mut q.funcs[f].blocks {
        for inst in &mut b.insts {
            if let Inst::Const {
                value: ConstVal::I64(v),
                ..
            } = inst
            {
                *v = v.wrapping_add(1);
                return Some(q);
            }
            let mut bumped = false;
            inst.for_each_use_mut(|op| {
                if bumped {
                    return;
                }
                if let hlo_ir::Operand::Const(ConstVal::I64(v)) = op {
                    *v = v.wrapping_add(1);
                    bumped = true;
                }
            });
            if bumped {
                return Some(q);
            }
        }
    }
    None
}

#[test]
fn edit_sweep_over_suite_and_fuzz_programs_is_byte_identical() {
    let opts = HloOptions::default();
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut programs: Vec<(String, Program)> = hlo_suite::all_benchmarks()
        .into_iter()
        .take(4)
        .map(|b| (b.name.to_string(), hlo_frontc::compile(&b.sources).unwrap()))
        .collect();
    for seed in 0..8u64 {
        let sources = hlo_fuzz::generate_sources(seed, &hlo_fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        programs.push((format!("fuzz-{seed}"), hlo_frontc::compile(&refs).unwrap()));
    }

    let mut edits = 0;
    for (name, program) in programs {
        let request = |p: &Program| OptimizeRequest {
            options: opts.clone(),
            source: SourceKind::Ir(program_to_text(p)),
            profile: ProfileSpec::None,
            deadline_ms: None,
            train_arg: None,
            trace_id: None,
        };
        let expect = |p: &Program| {
            let mut q = p.clone();
            hlo::optimize(&mut q, None, &opts);
            program_to_text(&q)
        };
        let cold = client.optimize(&request(&program)).unwrap();
        assert_eq!(cold.ir_text, expect(&program), "{name}: cold");
        let Some(edited) = (0..program.funcs.len()).find_map(|f| bump_first_const(&program, f))
        else {
            continue;
        };
        edits += 1;
        let warm = client.optimize(&request(&edited)).unwrap();
        assert!(!warm.outcome.hit, "{name}: the edit must miss");
        assert_eq!(
            warm.ir_text,
            expect(&edited),
            "{name}: incremental rebuild after a one-constant edit must be \
             byte-identical to from-scratch"
        );
    }
    assert!(edits >= 8, "the sweep must actually edit programs");

    client.shutdown().unwrap();
    server.wait();
}

/// Cone hashes with each function's `hlo-ipa` summary folded into its own
/// content hash before coning — how hlod keyed functions while it salted
/// its keys with summaries.
fn summary_salted_cone_hashes(p: &Program) -> Vec<u64> {
    let cg = hlo_analysis::CallGraph::build(p);
    let summaries = hlo_ipa::Summaries::compute(p, &cg);
    let own: Vec<u64> = p
        .funcs
        .iter()
        .zip(&summaries.funcs)
        .enumerate()
        .map(|(i, (f, s))| {
            let mut h = Fnv64::new();
            h.write(b"salted-cone")
                .write_u64(hash_function(f))
                .write_u64(hlo_ir::fnv1a_64(s.section(i).as_bytes()));
            h.finish()
        })
        .collect();
    cg.cone_hashes(&own)
}

/// `request_key` keys each function by its cone's content alone. A
/// summary is computed only from its function's direct-call cone and the
/// global and extern tables, so folding the summaries in must not change
/// which functions an edit re-keys. The edits bump one constant in one
/// body, so the option, profile and environment hashes `request_key`
/// mixes into every key are the same on both sides, and the reference
/// compares the salted cone hashes alone.
#[test]
fn content_keys_rekey_the_same_functions_as_summary_salted_keys() {
    let opts = HloOptions::default();
    let mut programs: Vec<(String, Program)> = hlo_suite::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), hlo_frontc::compile(&b.sources).unwrap()))
        .collect();
    for seed in 0..16u64 {
        let sources = hlo_fuzz::generate_sources(seed, &hlo_fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        programs.push((format!("fuzz-{seed}"), hlo_frontc::compile(&refs).unwrap()));
        programs.push((
            format!("irgen-{seed}"),
            hlo_fuzz::generate_program(seed, &hlo_fuzz::IrGenConfig::default()),
        ));
    }

    let keys = |p: &Program| {
        let shipped = hlo_serve::cache::request_key(p, &opts, "", &mut CallGraphCache::new()).funcs;
        (shipped, summary_salted_cone_hashes(p))
    };
    let (mut pairs, mut rekeyed, mut disagreements) = (0usize, 0usize, Vec::new());
    for (name, program) in &programs {
        let (base, base_ref) = keys(program);
        for f in 0..program.funcs.len() {
            let Some(edited) = bump_first_const(program, f) else {
                continue;
            };
            let (after, after_ref) = keys(&edited);
            for i in 0..program.funcs.len() {
                pairs += 1;
                let changed = base[i] != after[i];
                rekeyed += usize::from(changed);
                if changed != (base_ref[i] != after_ref[i]) {
                    disagreements.push(format!(
                        "{name}: editing `{}` re-keys `{}` {}",
                        program.funcs[f].name,
                        program.funcs[i].name,
                        if changed {
                            "by content but not with summaries"
                        } else {
                            "with summaries but not by content"
                        }
                    ));
                }
            }
        }
    }
    eprintln!(
        "{pairs} (program, edit, function) pairs, {rekeyed} re-keyed, {} disagreements",
        disagreements.len()
    );
    assert!(disagreements.is_empty(), "{disagreements:#?}");
    assert!(
        pairs >= 3500,
        "the sweep must cover the suite and fuzz programs"
    );
    assert!(
        rekeyed > 0 && rekeyed < pairs,
        "edits must re-key some functions and leave others alone"
    );
}
