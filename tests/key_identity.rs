//! The daemon derives every key of a request from one canonical rendering
//! of its program. This checks that rendering's keys against the
//! three-render computation it replaced, kept here as the reference: the
//! program key hashes `program_to_text`, each function hashes its own
//! `function_to_text` (`hash_function`), and the request key re-renders
//! the program and scans its lines for the environment hash.

use hlo::{CallGraphCache, HloOptions};
use hlo_ir::{fnv1a_64, hash_function, program_to_text, Fnv64, Program, ProgramText};
use hlo_serve::cache::{request_key, request_key_of, RequestKey};

fn reference_program_key(p: &Program) -> String {
    format!("{:016x}", fnv1a_64(program_to_text(p).as_bytes()))
}

fn reference_request_key(p: &Program, opts: &HloOptions, profile_text: &str) -> RequestKey {
    let canonical = program_to_text(p);
    let opts_fp = opts.fingerprint();
    let profile_hash = fnv1a_64(profile_text.as_bytes());
    let mut program = Fnv64::new();
    program
        .write(b"hlo-serve request v1")
        .write_u64(opts_fp)
        .write_u64(profile_hash)
        .write(canonical.as_bytes());
    let mut env = Fnv64::new();
    let mut in_func = false;
    for line in canonical.lines() {
        if line.starts_with("func ") {
            in_func = true;
        }
        if !in_func {
            env.write(line.as_bytes()).write(b"\n");
        }
        if line == "endfunc" {
            in_func = false;
        }
    }
    let env = env.finish();
    let own: Vec<u64> = p.funcs.iter().map(hash_function).collect();
    let funcs = CallGraphCache::new()
        .graph(p)
        .cone_hashes(&own)
        .into_iter()
        .map(|cone| {
            let mut h = Fnv64::new();
            h.write_u64(cone)
                .write_u64(opts_fp)
                .write_u64(profile_hash)
                .write_u64(env);
            h.finish()
        })
        .collect();
    RequestKey {
        program: program.finish(),
        funcs,
    }
}

/// Every key the one rendering gives `p` equals the reference's.
fn assert_keys_match(name: &str, p: &Program) {
    let rendered = ProgramText::render(p);
    assert_eq!(rendered.as_str(), program_to_text(p), "{name}: text");
    let pkey = reference_program_key(p);
    assert_eq!(
        hlo_pgo::program_key_of_text(rendered.as_str()),
        pkey,
        "{name}"
    );
    assert_eq!(hlo_pgo::program_key(p), pkey, "{name}");
    let own: Vec<u64> = p.funcs.iter().map(hash_function).collect();
    assert_eq!(rendered.function_hashes(), own, "{name}: function hashes");
    let tight = HloOptions {
        budget_percent: 25,
        ..HloOptions::default()
    };
    for (opts, profile_text) in [
        (HloOptions::default(), ""),
        (tight, "func m main 1\nblocks 1\nend\n"),
    ] {
        let want = reference_request_key(p, &opts, profile_text);
        for got in [
            request_key_of(
                p,
                &rendered,
                &opts,
                profile_text,
                &mut CallGraphCache::new(),
            ),
            request_key(p, &opts, profile_text, &mut CallGraphCache::new()),
        ] {
            assert_eq!(got.program, want.program, "{name}: request key");
            assert_eq!(got.funcs, want.funcs, "{name}: cone keys");
        }
    }
}

#[test]
fn one_rendering_gives_the_reference_keys() {
    for b in hlo_suite::all_benchmarks() {
        assert_keys_match(b.name, &hlo_frontc::compile(&b.sources).unwrap());
    }
    for seed in 0..16u64 {
        let sources = hlo_fuzz::generate_sources(seed, &hlo_fuzz::GenConfig::default());
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        assert_keys_match(
            &format!("fuzz-{seed}"),
            &hlo_frontc::compile(&refs).unwrap(),
        );
        assert_keys_match(
            &format!("irgen-{seed}"),
            &hlo_fuzz::generate_program(seed, &hlo_fuzz::IrGenConfig::default()),
        );
    }
}

/// A function off its module's list prints with a ` dead` header suffix,
/// which its content hash, like `function_to_text`, leaves out.
const DEAD_IR: &str = "hlo-ir v1
extern print_i64 1 noret
module m
global acc 0 static 1 = 3
func helper 0 static params=1 regs=2 ret=i64 dead
block
  r1 = Add r0, 1
  ret r1
endfunc
func main 0 pub params=0 regs=1 ret=i64
block
  r0 = const 7
  ret r0
endfunc
entry 1
";

#[test]
fn dead_function_records_hash_without_their_suffix() {
    let p = hlo_ir::parse_program_text(DEAD_IR).unwrap();
    let rendered = ProgramText::render(&p);
    assert_eq!(rendered.as_str(), DEAD_IR);
    assert!(!p.modules[0].funcs.contains(&hlo_ir::FuncId(0)));
    assert_keys_match("dead-ir", &p);
}
