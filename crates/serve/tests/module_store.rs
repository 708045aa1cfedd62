//! The daemon's parsed-module store: an edit re-parses only the modules
//! the daemon has not seen twice, and answers exactly as the front end
//! does on every input.

use hlo::HloOptions;
use hlo_serve::{Client, OptimizeRequest, ServeConfig, Server};

/// `n` modules: `n - 1` libraries of one public function each, and an
/// app whose `main` calls them all. `edit` replaces library `i`'s
/// constant with `k`.
fn program(n: usize, edit: Option<(usize, i64)>) -> Vec<(String, String)> {
    let mut mods: Vec<(String, String)> = (0..n - 1)
        .map(|i| {
            let k = match edit {
                Some((e, k)) if e == i => k,
                _ => 7,
            };
            (
                format!("lib{i}"),
                format!(
                    "static fn twice{i}(x) {{ return x * 2; }}
                     fn f{i}(x) {{ return twice{i}(x) + {k}; }}"
                ),
            )
        })
        .collect();
    let calls: Vec<String> = (0..n - 1).map(|i| format!("f{i}(n)")).collect();
    mods.push((
        "app".to_string(),
        format!("fn main(n) {{ return {}; }}", calls.join(" + ")),
    ));
    mods
}

/// The bytes an in-process optimize of `mods` gives.
fn in_process(mods: &[(String, String)]) -> String {
    let refs: Vec<(&str, &str)> = mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let mut p = hlo_frontc::compile(&refs).unwrap();
    hlo::optimize(&mut p, None, &HloOptions::default());
    hlo_ir::program_to_text(&p)
}

/// The error text the daemon gives for sources the front end rejects.
fn front_end_error(mods: &[(&str, &str)]) -> String {
    format!(
        "compile failed: {}",
        hlo_frontc::compile(mods).expect_err("the sources are rejected")
    )
}

fn owned(mods: &[(&str, &str)]) -> Vec<(String, String)> {
    mods.iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

/// Sends `mods` and reports the answer with how many modules the daemon
/// took from its store for it.
fn send(
    client: &mut Client,
    mods: &[(String, String)],
) -> (Result<hlo_serve::OptimizeResponse, String>, u64) {
    let before = client.stats().unwrap().module_hits;
    let resp = client
        .optimize(&OptimizeRequest::from_minc(mods.to_vec()))
        .map_err(|e| match e {
            hlo_serve::ServeError::Remote(msg) => msg,
            other => panic!("expected an answer, got {other:?}"),
        });
    (resp, client.stats().unwrap().module_hits - before)
}

fn spawn() -> (Server, Client) {
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

#[test]
fn edits_take_the_modules_seen_twice_from_the_store() {
    const N: usize = 5;
    let (server, mut client) = spawn();
    // A module is stored on its second sighting. The base sights every
    // module once and the first edit sights all but `lib1` twice. So the
    // second edit, of `lib2`, parses `lib1` (its second sighting) and its
    // own edit; the third, of `lib3`, parses only its edit.
    let requests = [
        (program(N, None), 0),
        (program(N, Some((1, 11))), 0),
        (program(N, Some((2, 12))), N as u64 - 2),
        (program(N, Some((3, 13))), N as u64 - 1),
    ];
    for (i, (mods, hits)) in requests.iter().enumerate() {
        let (resp, module_hits) = send(&mut client, mods);
        let resp = resp.unwrap();
        assert!(!resp.outcome.hit, "request {i} is a miss");
        assert_eq!(
            module_hits, *hits,
            "modules taken from the store, request {i}"
        );
        assert_eq!(resp.ir_text, in_process(mods), "request {i}");
    }
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn a_module_that_fails_to_parse_fails_alike_and_is_never_stored() {
    let (server, mut client) = spawn();
    let lib = ("lib", "fn sq(x) { return x * x; }");
    // Two builds that link store `lib`.
    for main in ["fn main() { return sq(3); }", "fn main() { return sq(4); }"] {
        let (resp, _) = send(&mut client, &owned(&[lib, ("app", main)]));
        resp.unwrap();
    }
    let broken = [lib, ("app", "fn main() { return sq(3) +; }")];
    let expect = front_end_error(&broken);
    for _ in 0..3 {
        let (resp, module_hits) = send(&mut client, &owned(&broken));
        assert_eq!(resp.unwrap_err(), expect);
        assert_eq!(module_hits, 1, "`lib` comes from the store");
    }
    // Broken first: the error is still the first in module order.
    let broken_first = [broken[1], lib];
    let (resp, _) = send(&mut client, &owned(&broken_first));
    assert_eq!(resp.unwrap_err(), front_end_error(&broken_first));
    let st = client.stats().unwrap();
    assert_eq!((st.errors, st.module_hits), (4, 4));
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn stored_modules_that_clash_fail_to_link_alike() {
    let (server, mut client) = spawn();
    let a = ("a", "fn f(x) { return x + 1; }");
    let b = ("b", "fn f(x) { return x + 2; }");
    // Each module links twice beside a different `main`, so both are
    // stored.
    for lib in [a, b] {
        for main in ["fn main() { return f(1); }", "fn main() { return f(2); }"] {
            let (resp, _) = send(&mut client, &owned(&[lib, ("app", main)]));
            resp.unwrap();
        }
    }
    let clash = [a, b];
    let expect = front_end_error(&clash);
    assert!(expect.contains("duplicate public function `f`"), "{expect}");
    for _ in 0..2 {
        let (resp, module_hits) = send(&mut client, &owned(&clash));
        assert_eq!(resp.unwrap_err(), expect);
        assert_eq!(module_hits, 2, "both ASTs come from the store");
    }
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn the_same_source_under_another_name_is_not_a_hit() {
    let (server, mut client) = spawn();
    let src = "fn sq(x) { return x * x; }";
    for main in ["fn main() { return sq(3); }", "fn main() { return sq(4); }"] {
        let (resp, _) = send(&mut client, &owned(&[("lib", src), ("app", main)]));
        resp.unwrap();
    }
    let renamed = owned(&[("util", src), ("app", "fn main() { return sq(5); }")]);
    let (resp, module_hits) = send(&mut client, &renamed);
    assert_eq!(module_hits, 0, "the module name is part of the digest");
    assert_eq!(resp.unwrap().ir_text, in_process(&renamed));
    let kept = owned(&[("lib", src), ("app", "fn main() { return sq(6); }")]);
    let (resp, module_hits) = send(&mut client, &kept);
    assert_eq!(module_hits, 1);
    assert_eq!(resp.unwrap().ir_text, in_process(&kept));
    client.shutdown().unwrap();
    server.wait();
}
