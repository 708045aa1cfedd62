//! End-to-end tests of the `hloc` command-line driver, including the
//! isom-style dump → re-optimize → run pipeline.

use std::path::PathBuf;
use std::process::Command;

fn hloc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hloc"))
}

fn write_sources(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let lib = dir.join("mylib.mc");
    let main = dir.join("app.mc");
    std::fs::write(
        &lib,
        "fn triple(x) { return x * 3; }\nstatic fn unused_static() { return 0; }\n",
    )
    .unwrap();
    std::fs::write(
        &main,
        "fn main(n) { var s = 0; for (var i = 0; i < 100; i = i + 1) { s = s + triple(i + n); } print_i64(s); return s; }\n",
    )
    .unwrap();
    (lib, main)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hloc-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn build_run_produces_program_output() {
    let dir = tmpdir("run");
    let (lib, main) = write_sources(&dir);
    let out = hloc()
        .args(["build", "--run", "--arg", "1"])
        .arg(&lib)
        .arg(&main)
        .output()
        .expect("hloc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // sum of 3*(i+1) for i in 0..100 = 3 * (5050 + 50... ) compute: 3*sum(i+1)=3*5050=15150
    assert_eq!(stdout.trim(), "15150");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("inlines"), "{stderr}");
}

#[test]
fn emit_ir_then_opt_roundtrip() {
    let dir = tmpdir("isom");
    let (lib, main) = write_sources(&dir);
    let ir_path = dir.join("app.ir");
    // Dump unoptimized IR ("isom" file).
    let out = hloc()
        .args([
            "build",
            "--budget",
            "0",
            "--no-inline",
            "--no-clone",
            "--emit-ir",
        ])
        .arg(&ir_path)
        .arg(&lib)
        .arg(&main)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(&ir_path)
        .unwrap()
        .starts_with("hlo-ir v1"));
    // Link-time-style optimization of the stored IR.
    let out = hloc()
        .args(["opt", "--run", "--arg", "1"])
        .arg(&ir_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "15150");
}

#[test]
fn explain_names_inlined_and_budget_rejected_sites_and_trace_is_valid_json() {
    let dir = tmpdir("explain");
    let demo = dir.join("trace_demo.mc");
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/examples/trace_demo.mc"),
        &demo,
    )
    .unwrap();
    let trace_path = dir.join("build-trace.json");
    let out = hloc()
        .args(["build", "--budget", "30", "--explain", "--trace"])
        .arg(&trace_path)
        .arg(&demo)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // An inlined site with its reason code, budget movement and weight...
    assert!(
        stdout.contains("cube@b0.i0 -> sq: inline pass=0 verdict=performed reason=accepted"),
        "{stdout}"
    );
    assert!(stdout.contains("weight=1.00"), "{stdout}");
    // ...and a site the budget turned down, with an unmoved budget.
    let deferred = stdout
        .lines()
        .find(|l| l.contains("verdict=deferred reason=budget-deferred"))
        .unwrap_or_else(|| panic!("no budget rejection in:\n{stdout}"));
    assert!(deferred.contains("budget="), "{deferred}");

    // Site-filtered explain narrows to one call site.
    let out = hloc()
        .args(["build", "--budget", "30", "--explain=cube:b0.i0"])
        .arg(&demo)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cube@b0.i0 -> sq"), "{stdout}");
    assert!(!stdout.contains("wide@"), "{stdout}");

    // The trace file is one valid Chrome trace-event JSON document.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = aggressive_inlining::hlo::trace_json::parse(&text).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(aggressive_inlining::hlo::trace_json::Json::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 2, "trace has {} events", events.len());
}

/// `f` stores through its parameter `r0` (`main` passes `&g`) before
/// redefining it as a frame-slot address, so the first store writes
/// `g[0]` and is not a dead slot store. Hand-written IR: MinC cannot
/// redefine a parameter register.
#[test]
fn opt_keeps_a_store_through_a_parameter_later_redefined_as_a_slot_address() {
    let dir = tmpdir("paramslot");
    let ir_path = dir.join("param_slot.ir");
    std::fs::write(
        &ir_path,
        "\
hlo-ir v1
module m
global g 0 pub 2
func f 0 pub params=1 regs=1 ret=i64
slots 8
block
  store [r0 + 0] = 7
  r0 = frameaddr s0
  store [r0 + 0] = 1
  ret 0
endfunc
func main 0 pub params=0 regs=2 ret=i64
block
  r0 = call f0(&g0)
  r1 = load [&g0 + 0]
  ret r1
endfunc
entry 1
",
    )
    .unwrap();
    let out = hloc()
        .args(["opt", "--budget", "0", "--no-inline", "--no-clone", "--run"])
        .arg(&ir_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("exit value 7 "), "{stderr}");
}

#[test]
fn classify_prints_all_categories() {
    let dir = tmpdir("classify");
    let (lib, main) = write_sources(&dir);
    let out = hloc()
        .arg("classify")
        .arg(&lib)
        .arg(&main)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for label in [
        "external",
        "indirect",
        "cross-module",
        "within-module",
        "recursive",
        "total",
    ] {
        assert!(stdout.contains(label), "{stdout}");
    }
}

#[test]
fn bad_source_reports_position_and_fails() {
    let dir = tmpdir("err");
    let bad = dir.join("bad.mc");
    std::fs::write(&bad, "fn broken( { }").unwrap();
    let out = hloc().args(["build"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad:"), "{stderr}");
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = hloc().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_lists_subcommands() {
    let out = hloc().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for cmd in ["build", "opt", "run", "classify"] {
        assert!(stdout.contains(cmd), "{stdout}");
    }
}
