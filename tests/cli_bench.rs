//! End-to-end tests of the experiment CLI surface that drives one
//! activation stream per cell: the byte pins on the deterministic reports
//! of `hydra bench`, `hydra sweep` and `hydra sweep --arena`, `hydra
//! profile` on a multi-channel geometry, and `hydra audit` across many
//! tracking windows.
//!
//! These run the real binary (`CARGO_BIN_EXE_hydra`), so they cover flag
//! parsing and process exit codes — the contract CI scripts depend on.

use hydra_repro::profiler::PROFILE_SCHEMA_VERSION;
use hydra_repro::types::json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn hydra(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hydra"))
        .args(args)
        .output()
        .expect("hydra binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn temp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hydra-cli-bench-{}-{name}", std::process::id()));
    p
}

/// The deterministic reports and the commands that write them, relative
/// to the repository root. The simulator is deterministic, so each report
/// equals its committed bytes at every worker count; any other output means
/// the program changed, and the committed file must be regenerated with it.
const PINNED: [(&str, &[&str]); 3] = [
    ("BENCH_hydra.jsonl", &["bench"]),
    (
        "crates/arena/tests/fixtures/sweep_smoke.deterministic.jsonl",
        &["sweep", "--smoke", "--deterministic"],
    ),
    (
        "crates/arena/tests/fixtures/arena_smoke.deterministic.jsonl",
        &["sweep", "--arena", "--smoke", "--deterministic"],
    ),
];

#[test]
fn deterministic_reports_match_their_committed_bytes() {
    for (committed, command) in PINNED {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(committed);
        let want = std::fs::read_to_string(&path).expect("committed report");
        for jobs in ["1", "4"] {
            let out = temp_file(&format!("{}-jobs{jobs}.jsonl", command.join("")));
            let out_s = out.to_str().expect("utf-8 path");
            let run = hydra(&[command, &["--jobs", jobs, "--out", out_s]].concat());
            let got = std::fs::read_to_string(&out);
            let _ = std::fs::remove_file(&out);
            let what = format!("hydra {} --jobs {jobs}", command.join(" "));
            assert!(
                run.status.success(),
                "{what} exits 0: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            assert_eq!(got.expect("report written"), want, "{what} != {committed}");
        }
    }
    let removed = hydra(&["bench", "--smoke"]);
    assert!(
        !removed.status.success(),
        "bench takes only --out and --jobs"
    );
}

/// isca22 has two channels; a registry workload's trace spans both, and
/// the profiled tracker is channel 0's. The stream must be pinned to
/// channel 0, or the tracker's routing assertion fires (debug builds) or
/// silently counts foreign rows (release builds).
#[test]
fn profile_runs_a_registry_workload_on_a_multi_channel_geometry() {
    let out = temp_file("profile.json");
    let run = hydra(&[
        "profile",
        "--workload",
        "gups",
        "--geometry",
        "isca22",
        "--acts",
        "3000",
        "--repeats",
        "1",
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    let doc = std::fs::read_to_string(&out);
    let _ = std::fs::remove_file(&out);
    assert!(
        run.status.success(),
        "profile exits 0: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout_of(&run).contains("profile: gups/isca22, 3000 acts"));
    let doc = json::parse(&doc.expect("profile document written")).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(PROFILE_SCHEMA_VERSION)
    );
    let variants = doc
        .get("variants")
        .and_then(|v| v.as_array())
        .expect("variants");
    let names: Vec<&str> = variants
        .iter()
        .filter_map(|v| v.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names, ["full", "no_rcc", "no_gct", "null"]);
    for v in variants {
        let demand = v.get("outcome").and_then(|o| o.get("demand_acts"));
        assert_eq!(demand.and_then(|d| d.as_u64()), Some(3000), "{v:?}");
    }
    let deltas = doc
        .get("deltas")
        .and_then(|v| v.as_array())
        .expect("deltas");
    let names: Vec<&str> = deltas
        .iter()
        .filter_map(|d| d.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names, ["tracker", "gct", "rcc"]);
}

/// Theorem 1 lets a row reach T_H − 1 in each of two adjacent windows, so
/// a long audit must check the two-window bound T_RH = 2·T_H, not T_H:
/// this run crosses many 64 ms windows and is secure.
#[test]
fn audit_holds_the_two_window_bound_across_many_windows() {
    let run = hydra(&["audit", "half_double", "2000000"]);
    let stdout = stdout_of(&run);
    assert!(
        run.status.success(),
        "audit exits 0: {stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("(bound T_RH = 500)"), "{stdout}");
    assert!(stdout.contains("verdict          : SECURE"), "{stdout}");
}
