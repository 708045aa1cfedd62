//! How the daemon keys a request's inline profile: by its canonical text.

use hlo_profile::{collect_profile, ProfileDb};
use hlo_serve::{Client, OptimizeRequest, ProfileSpec, ServeConfig, Server};
use hlo_vm::ExecOptions;

const SOURCES: &[(&str, &str)] = &[(
    "m",
    "static fn sq(x) { return x * x; }
     static fn pick(x) { if (x % 3 == 0) { return sq(x); } return x + 1; }
     fn main(n) { var s = 0;
         for (var i = 0; i < n; i = i + 1) { s = s + pick(i); }
         return s; }",
)];

fn request(profile_text: String) -> OptimizeRequest {
    OptimizeRequest {
        profile: ProfileSpec::Text(profile_text),
        ..OptimizeRequest::from_minc(
            SOURCES
                .iter()
                .map(|(n, s)| (n.to_string(), s.to_string()))
                .collect(),
        )
    }
}

/// The records of a profile text in reverse order, each with its edge
/// lines reversed: the same counts, spelled differently.
fn reordered(canonical: &str) -> String {
    let mut records: Vec<String> = canonical
        .split_inclusive("end\n")
        .map(|record| {
            let lines: Vec<&str> = record.lines().collect();
            let (edges, rest): (Vec<&str>, Vec<&str>) =
                lines.iter().partition(|l| l.starts_with("edge "));
            let (head, end) = rest.split_at(rest.len() - 1);
            let mut out: Vec<&str> = head.to_vec();
            out.extend(edges.iter().rev());
            out.extend(end);
            out.iter().map(|l| format!("{l}\n")).collect()
        })
        .collect();
    records.reverse();
    records.concat()
}

#[test]
fn reordered_profile_records_hit_the_entry_their_canonical_text_built() {
    let program = hlo_frontc::compile(SOURCES).unwrap();
    let (profile, _) = collect_profile(&program, &[30], &ExecOptions::default()).unwrap();
    let canonical = profile.to_text();
    let shuffled = reordered(&canonical);
    assert_ne!(shuffled, canonical, "the reordering must change the text");
    assert!(
        canonical.matches("func ").count() > 1 && canonical.matches("edge ").count() > 2,
        "{canonical}"
    );
    assert_eq!(
        ProfileDb::from_text(&shuffled).unwrap().to_text(),
        canonical,
        "both spellings parse to one profile"
    );

    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = client.optimize(&request(canonical.clone())).unwrap();
    assert!(!cold.outcome.hit);
    let warm = client.optimize(&request(shuffled)).unwrap();
    assert!(
        warm.outcome.hit,
        "a reordered profile must hit the entry its canonical text built"
    );
    assert_eq!(warm.outcome.func_misses, 0);
    assert_eq!(warm.ir_text, cold.ir_text);
    // Different counts are a different profile, and a different entry.
    let other = canonical.replacen("func m main 1", "func m main 2", 1);
    assert_ne!(other, canonical);
    assert!(!client.optimize(&request(other)).unwrap().outcome.hit);
    client.shutdown().unwrap();
    server.wait();
}
