//! The daemon's source index: a byte-identical repeat skips the front end,
//! and any change to what the keys read compiles again.

use hlo::HloOptions;
use hlo_profile::{collect_profile, ProfileDb};
use hlo_serve::{
    Client, OptimizeRequest, ProfilePushRequest, ProfileSpec, ServeConfig, Server, SourceKind,
};
use hlo_vm::ExecOptions;

/// Two modules, so renaming and reordering them are both possible edits.
const SOURCES: &[(&str, &str)] = &[
    (
        "lib",
        "fn sq(x) { return x * x; }
         fn pick(x) { if (x % 3 == 0) { return sq(x); } return x + 1; }",
    ),
    (
        "app",
        "fn main(n) { var s = 0;
             for (var i = 0; i < n; i = i + 1) { s = s + pick(i); }
             return s; }",
    ),
];

fn owned(sources: &[(&str, &str)]) -> Vec<(String, String)> {
    sources
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

fn request() -> OptimizeRequest {
    OptimizeRequest::from_minc(owned(SOURCES))
}

/// The bytes an in-process optimize of `sources` gives.
fn in_process(sources: &[(&str, &str)], profile: Option<&ProfileDb>) -> String {
    let mut p = hlo_frontc::compile(sources).unwrap();
    hlo::optimize(&mut p, profile, &HloOptions::default());
    hlo_ir::program_to_text(&p)
}

/// Sends `req` and reports the response with how many source hits it
/// added.
fn send(client: &mut Client, req: &OptimizeRequest) -> (hlo_serve::OptimizeResponse, u64) {
    let before = client.stats().unwrap().source_hits;
    let resp = client.optimize(req).unwrap();
    (resp, client.stats().unwrap().source_hits - before)
}

#[test]
fn a_warmed_repeat_is_a_hit_and_a_source_hit() {
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let program = hlo_frontc::compile(SOURCES).unwrap();
    let (profile, _) = collect_profile(&program, &[12], &ExecOptions::default()).unwrap();
    let ir_request = OptimizeRequest {
        source: SourceKind::Ir(hlo_ir::program_to_text(&program)),
        ..request()
    };
    let profiled = OptimizeRequest {
        profile: ProfileSpec::Text(profile.to_text()),
        ..request()
    };
    // The IR text renders to the MinC request's program, so its first
    // sight hits the result the MinC request built, though its raw inputs
    // are not indexed yet.
    let cases = [
        (request(), in_process(SOURCES, None), false),
        (ir_request, in_process(SOURCES, None), true),
        (profiled, in_process(SOURCES, Some(&profile)), false),
    ];
    for (req, expect, result_hit) in &cases {
        let (cold, cold_source_hits) = send(&mut client, req);
        assert_eq!(cold.outcome.hit, *result_hit);
        assert_eq!(cold_source_hits, 0, "the first sight of a request");
        assert_eq!(&cold.ir_text, expect);
        let (warm, warm_source_hits) = send(&mut client, req);
        assert!(warm.outcome.hit && warm.outcome.func_misses == 0);
        assert_eq!(warm_source_hits, 1);
        assert_eq!(warm.ir_text, cold.ir_text, "byte-identical on a source hit");
        assert_eq!(warm.report, cold.report);
    }
    let st = client.stats().unwrap();
    assert_eq!((st.hits, st.misses, st.source_hits), (4, 2, 3));
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn a_server_profile_request_goes_stale_through_the_index() {
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let server_req = OptimizeRequest {
        profile: ProfileSpec::Server,
        ..request()
    };
    let (cold, _) = send(&mut client, &server_req);
    let (warm, warm_source_hits) = send(&mut client, &server_req);
    assert!(warm.outcome.hit && warm_source_hits == 1);
    assert_eq!(warm.ir_text, cold.ir_text);

    // Any profile against an empty aggregate is total drift.
    let delta = "func lib sq 500\nblocks 500\nend\nfunc lib pick 900\nblocks 900\nend\n";
    let program_key = hlo_pgo::program_key(&hlo_frontc::compile(SOURCES).unwrap());
    client
        .profile_push(&ProfilePushRequest {
            program: program_key,
            delta: delta.to_string(),
            advance: 0,
        })
        .unwrap();
    let (stale, stale_source_hits) = send(&mut client, &server_req);
    assert!(stale.outcome.stale && !stale.outcome.hit);
    assert_eq!(
        stale_source_hits, 1,
        "served through the index, then rebuilt"
    );
    let aggregate = ProfileDb::from_text(delta).unwrap();
    assert_eq!(stale.ir_text, in_process(SOURCES, Some(&aggregate)));

    let (again, again_source_hits) = send(&mut client, &server_req);
    assert!(again.outcome.hit && again_source_hits == 1);
    assert_eq!(again.ir_text, stale.ir_text);
    let st = client.stats().unwrap();
    assert_eq!((st.hits, st.misses, st.stale_hits), (2, 1, 1));
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn a_request_that_fails_to_compile_is_never_indexed() {
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let broken = OptimizeRequest::from_minc(owned(&[("m", "fn main() { return 1 +; }")]));
    // The front end succeeds here; the profile parse fails after it.
    let bad_profile = OptimizeRequest {
        profile: ProfileSpec::Text("func lib sq oops\n".to_string()),
        ..request()
    };
    let bad_ir = OptimizeRequest {
        source: SourceKind::Ir("not ir".to_string()),
        ..request()
    };
    for req in [&broken, &bad_profile, &bad_ir] {
        for _ in 0..2 {
            assert!(client.optimize(req).is_err());
        }
    }
    let st = client.stats().unwrap();
    assert_eq!((st.errors, st.source_hits), (6, 0));
    assert_eq!((st.hits, st.misses, st.entries), (0, 0, 0));
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn changed_inputs_give_no_source_hit() {
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let program = hlo_frontc::compile(SOURCES).unwrap();
    let (profile, _) = collect_profile(&program, &[12], &ExecOptions::default()).unwrap();
    let canonical = profile.to_text();
    let profiled = OptimizeRequest {
        profile: ProfileSpec::Text(canonical.clone()),
        ..request()
    };
    send(&mut client, &request());
    send(&mut client, &profiled);

    let renamed = OptimizeRequest::from_minc(owned(&[("lib2", SOURCES[0].1), SOURCES[1]]));
    let reordered = OptimizeRequest::from_minc(owned(&[SOURCES[1], SOURCES[0]]));
    let tighter = OptimizeRequest {
        options: HloOptions {
            budget_percent: 50,
            ..HloOptions::default()
        },
        ..request()
    };
    // The same counts spelled with an extra blank line: the canonical
    // text, and so the result, is the same, but the raw text is not.
    let respelled = OptimizeRequest {
        profile: ProfileSpec::Text(format!("\n{canonical}")),
        ..request()
    };
    for (what, req, result_hit) in [
        ("a renamed module", &renamed, false),
        ("reordered modules", &reordered, false),
        ("another options fingerprint", &tighter, false),
        ("another profile text", &respelled, true),
    ] {
        let (resp, source_hits) = send(&mut client, req);
        assert_eq!(source_hits, 0, "{what} must not be a source hit");
        assert_eq!(resp.outcome.hit, result_hit, "{what}");
        let (again, source_hits) = send(&mut client, req);
        assert_eq!(source_hits, 1, "{what} is indexed under its own digest");
        assert!(again.outcome.hit);
        assert_eq!(again.ir_text, resp.ir_text);
    }

    // Inputs the keys do not read leave the digest alone: the check level
    // (outside the options fingerprint), the trace id, the deadline and
    // the training argument.
    let unkeyed = OptimizeRequest {
        options: HloOptions {
            check: hlo::CheckLevel::Strict,
            ..HloOptions::default()
        },
        deadline_ms: Some(60_000),
        train_arg: Some(3),
        trace_id: Some(hlo_serve::mint_trace_id()),
        ..request()
    };
    let (resp, source_hits) = send(&mut client, &unkeyed);
    assert!(resp.outcome.hit && source_hits == 1);
    client.shutdown().unwrap();
    server.wait();
}
