//! End-to-end tests of the forensics-facing CLI surface: `hydra trace
//! --kinds/--limit/--forensics` and the `hydra forensics` replay
//! subcommand.
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
