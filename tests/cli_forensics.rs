//! End-to-end tests of the forensics-facing CLI surface: `hydra trace
//! --kinds/--limit/--forensics`, the `hydra forensics` replay subcommand,
//! and `hydra bench --compare` exit-code gating.
//!
//! These run the real binary (`CARGO_BIN_EXE_hydra`), so they cover flag
//! parsing, stream framing (meta header, event lines, incident lines), and
//! process exit codes — the contract CI scripts depend on.

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
    p.push(format!("hydra-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn trace_kinds_filters_and_limit_caps_the_stream() {
    let out = hydra(&[
        "trace",
        "double_sided",
        "3000",
        "--kinds",
        "mitigation,window_reset",
        "--limit",
        "5",
    ]);
    assert!(out.status.success(), "trace exits 0");
    let text = stdout_of(&out);
    let mut lines = text.lines();
    let header = lines.next().expect("meta header line");
    assert!(header.contains("\"schema\":\"hydra-trace-v1\""));
    assert!(header.contains("\"workload\":\"double_sided\""));
    let events: Vec<&str> = lines.collect();
    assert!(!events.is_empty(), "filtered stream still has events");
    assert!(
        events.len() <= 5,
        "--limit caps events, got {}",
        events.len()
    );
    for line in &events {
        assert!(
            line.contains("\"ev\":\"mitigation\"") || line.contains("\"ev\":\"window_reset\""),
            "only allow-listed kinds pass: {line}"
        );
    }
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        err.contains("filtered by --kinds"),
        "filter accounting: {err}"
    );
}

#[test]
fn trace_rejects_unknown_kinds_with_the_valid_list() {
    let out = hydra(&["trace", "double_sided", "100", "--kinds", "nonsense"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("unknown event kind"), "{err}");
    assert!(err.contains("mitigation"), "error lists valid kinds: {err}");
}

#[test]
fn trace_forensics_emits_incidents_and_forensics_replays_them() {
    let out = hydra(&["trace", "double_sided", "3000", "--forensics"]);
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(
        text.contains("\"schema\":\"hydra-forensics-v1\""),
        "incident record on stdout"
    );
    assert!(
        text.contains("\"class\":\"double_sided\""),
        "classified as double-sided"
    );

    // Re-analyze the same stream offline: `hydra forensics` must reach the
    // same classification from the recorded trace alone.
    let plain = hydra(&["trace", "double_sided", "3000"]);
    assert!(plain.status.success());
    let trace_path = temp_file("replay.jsonl");
    std::fs::write(&trace_path, plain.stdout).expect("write trace file");
    let replayed = hydra(&["forensics", trace_path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&trace_path);
    assert!(replayed.status.success());
    let incidents = stdout_of(&replayed);
    assert!(incidents.contains("\"schema\":\"hydra-forensics-v1\""));
    assert!(incidents.contains("\"class\":\"double_sided\""));
    let err = String::from_utf8_lossy(&replayed.stderr).to_string();
    assert!(err.contains("verdict: double_sided"), "{err}");
    assert!(err.contains("0 malformed"), "{err}");
}

fn bench_report(inflation: f64, mitigations: u64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"hydra-bench-v2\",\"smoke\":true,\"acts_per_cell\":20000,",
            "\"cells\":[{{\"workload\":\"double_sided\",\"geometry\":\"tiny\",",
            "\"acts\":20000,\"wall_secs\":0.01,\"acts_per_sec\":1000000.0,",
            "\"acts_per_sec_stddev\":0.0,\"acts_per_sec_cv_pct\":0.0,\"repeats\":1,",
            "\"bandwidth_inflation\":{:.6},\"slowdown_pct\":{:.3},\"windows\":14,",
            "\"mitigations\":{},\"delta_sum_ok\":true}}],\"failures\":[],",
            "\"summary\":{{\"cells\":1,\"ok\":1,\"failed\":0,",
            "\"mean_acts_per_sec\":1000000.0,\"max_slowdown_pct\":{:.3},",
            "\"all_delta_sums_ok\":true}}}}"
        ),
        inflation,
        (inflation - 1.0) * 100.0,
        mitigations,
        (inflation - 1.0) * 100.0,
    )
}

#[test]
fn bench_compare_gates_on_regression_and_passes_self_compare() {
    let base = temp_file("base.json");
    let same = temp_file("same.json");
    let slow = temp_file("slow.json");
    std::fs::write(&base, bench_report(1.014, 56)).expect("write baseline");
    std::fs::write(&same, bench_report(1.014, 56)).expect("write identical");
    // +15% relative inflation growth: past the default 10% tolerance.
    std::fs::write(&slow, bench_report(1.1661, 56)).expect("write regressed");

    let base_s = base.to_str().expect("utf-8 path");
    let clean = hydra(&[
        "bench",
        "--compare",
        base_s,
        "--against",
        same.to_str().unwrap(),
    ]);
    assert!(clean.status.success(), "self-compare exits 0");
    assert!(stdout_of(&clean).contains("0 regression(s)"));

    let gated = hydra(&[
        "bench",
        "--compare",
        base_s,
        "--against",
        slow.to_str().unwrap(),
    ]);
    assert!(!gated.status.success(), "regression exits nonzero");
    assert!(stdout_of(&gated).contains("REGRESSED"));

    // A loosened tolerance lets the same diff pass.
    let loose = hydra(&[
        "bench",
        "--compare",
        base_s,
        "--against",
        slow.to_str().unwrap(),
        "--tolerance",
        "20",
    ]);
    assert!(loose.status.success(), "tolerance 20% exits 0");

    for p in [&base, &same, &slow] {
        let _ = std::fs::remove_file(p);
    }
}
