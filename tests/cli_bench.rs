//! End-to-end tests of the experiment CLI surface that drives one
//! activation stream per cell: `hydra bench --compare` exit-code gating
//! over `hydra-sweep-v1` reports, `hydra profile` on a multi-channel
//! geometry, and `hydra audit` across many tracking windows.
//!
//! These run the real binary (`CARGO_BIN_EXE_hydra`), so they cover flag
//! parsing and process exit codes — the contract CI scripts depend on.

use hydra_repro::arena::SWEEP_SCHEMA_VERSION;
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

/// A one-cell `hydra bench` report: 20 000 demand activations at the
/// paper's design point with `extra_ops` mitigation/side operations, so
/// bandwidth inflation is `1 + extra_ops / 20000`.
fn sweep_report(extra_ops: u64, mitigations: u64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"{s}\",\"kind\":\"meta\",\"geometry\":\"tiny\"}}\n",
            "{{\"schema\":\"{s}\",\"kind\":\"cell\",\"workload\":\"double_sided\",",
            "\"geometry\":\"tiny\",\"gct_entries\":4096,\"rcc_entries\":4096,\"t_rh\":500,",
            "\"t_h\":250,\"t_g\":200,\"acts\":20000,\"seed\":42,\"sram_bytes\":11780,",
            "\"demand_acts\":20000,\"mitigation_acts\":{extra},\"side_reads\":0,",
            "\"side_writes\":0,\"mitigations\":{mitigations},\"window_resets\":14}}\n",
            "{{\"schema\":\"{s}\",\"kind\":\"summary\",\"cells\":1,\"failed\":0}}\n"
        ),
        s = SWEEP_SCHEMA_VERSION,
        extra = extra_ops,
        mitigations = mitigations,
    )
}

#[test]
fn bench_compare_gates_on_regression_and_passes_self_compare() {
    let base = temp_file("base.jsonl");
    let same = temp_file("same.jsonl");
    let slow = temp_file("slow.jsonl");
    // Inflation 1.014, the smoke double_sided cell.
    std::fs::write(&base, sweep_report(280, 56)).expect("write baseline");
    std::fs::write(&same, sweep_report(280, 56)).expect("write identical");
    // Inflation 1.1661: +15% relative growth, past the default 10% tolerance.
    std::fs::write(&slow, sweep_report(3322, 56)).expect("write regressed");

    let base_s = base.to_str().expect("utf-8 path");
    let same_s = same.to_str().expect("utf-8 path");
    let slow_s = slow.to_str().expect("utf-8 path");
    let clean = hydra(&["bench", "--compare", base_s, "--against", same_s]);
    assert!(clean.status.success(), "self-compare exits 0");
    assert!(stdout_of(&clean).contains("0 regression(s)"));

    let gated = hydra(&["bench", "--compare", base_s, "--against", slow_s]);
    assert!(!gated.status.success(), "regression exits nonzero");
    assert!(stdout_of(&gated).contains("REGRESSED"));

    // A loosened tolerance lets the same diff pass.
    let loose = hydra(&[
        "bench",
        "--compare",
        base_s,
        "--against",
        slow_s,
        "--tolerance",
        "20",
    ]);
    assert!(loose.status.success(), "tolerance 20% exits 0");

    for p in [&base, &same, &slow] {
        let _ = std::fs::remove_file(p);
    }
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
