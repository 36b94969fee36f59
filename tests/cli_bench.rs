//! End-to-end tests of the experiment CLI surface that drives one
//! activation stream per cell: `hydra bench --compare` exit-code gating
//! over `hydra-sweep-v1` reports, and `hydra profile` on a multi-channel
//! geometry.
//!
//! These run the real binary (`CARGO_BIN_EXE_hydra`), so they cover flag
//! parsing and process exit codes — the contract CI scripts depend on.

use hydra_repro::arena::SWEEP_SCHEMA_VERSION;
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
    let _ = std::fs::remove_file(&out);
    assert!(
        run.status.success(),
        "profile exits 0: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout_of(&run).contains("profile: gups/isca22, 3000 acts"));
}
