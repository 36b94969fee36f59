//! A tiny-scale pass over every workload: each run must pass its own
//! checks and emit every end-to-end and per-layer metric with its unit,
//! and `BENCHMARK.json` must name exactly the workloads and end-to-end
//! metrics the benchmark emits.

use hydra_perfbench::{
    per_layer_catalog, result_json, run, RunConfig, Scale, END_TO_END, WORKLOADS,
};

fn tiny(trace: bool) -> RunConfig {
    RunConfig {
        seed: 3,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let mut report = run(workload, &tiny(false)).expect("known workload");
        let metrics = report.finish(false);
        assert!(report.correct(), "{workload}: {:?}", report.ledger.failures);
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, unit, value), (want, want_unit)) in metrics.iter().zip(END_TO_END) {
            assert_eq!((name.as_str(), *unit), (want, want_unit));
            // Host measurements are positive; simulated counts may be 0 at
            // this scale (no row reaches T_H in a tiny run).
            let host = [
                "setup_s",
                "acts_per_s",
                "sim_cycles_per_s",
                "op_p50_ms",
                "peak_rss_mb",
            ];
            if host.contains(&name.as_str()) {
                assert!(*value > 0.0, "{workload}: {name} = {value}");
            } else {
                assert!(*value >= 0.0, "{workload}: {name} = {value}");
            }
        }
        let line = result_json(&report, &metrics);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload}: {name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let catalog = per_layer_catalog();
    for workload in WORKLOADS {
        let mut report = run(workload, &tiny(true)).expect("known workload");
        let metrics = report.finish(true);
        assert!(report.correct(), "{workload}: {:?}", report.ledger.failures);
        let names: Vec<(&str, &str)> = metrics.iter().map(|(n, u, _)| (n.as_str(), *u)).collect();
        let want: Vec<(&str, &str)> = catalog.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        assert_eq!(names, want, "{workload}");
        assert!(metrics.iter().all(|(_, _, v)| v.is_finite()));
        assert!(
            !report.spans.is_empty(),
            "{workload}: a traced run records spans"
        );
    }
}

/// Each layer's metrics are measured on at least one workload.
#[test]
fn every_per_layer_metric_is_measured_somewhere() {
    let mut seen = std::collections::BTreeSet::new();
    for workload in WORKLOADS {
        let mut report = run(workload, &tiny(true)).expect("known workload");
        for (name, _, value) in report.finish(true) {
            if value != 0.0 {
                seen.insert(name);
            }
        }
    }
    // Counts that are legitimately 0 on a healthy tiny run: no Busy replies
    // to a lone client, no failures, and no row reaches T_H = 250 within a
    // tiny `SystemSim` run, so `paper_ipc` issues no victim refreshes.
    let may_be_zero = [
        "server.busy_retries",
        "harness.failed_ops_frac",
        "sim.mitigation_acts",
    ];
    let never: Vec<String> = per_layer_catalog()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !seen.contains(name) && !may_be_zero.contains(&name.as_str()))
        .collect();
    assert!(never.is_empty(), "0 on every workload: {never:?}");
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
            "{workload}"
        );
    }
    for (name, unit) in END_TO_END {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    for (name, unit) in per_layer_catalog() {
        assert!(
            text.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": "
            )),
            "{name}"
        );
    }
    assert_eq!(text.matches("\"bound\": ").count(), END_TO_END.len());
    assert_eq!(text.matches("\"why\": ").count(), WORKLOADS.len());
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("bogus", &tiny(false)).is_err());
}
