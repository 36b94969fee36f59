//! The determinism gate of both experiment front ends, as a test: the
//! smoke sweep and the smoke arena race with four workers must produce
//! exactly the rows, Pareto frontier, and gate verdicts of the sequential
//! run — only `wall_secs` may differ, and the deterministic projection
//! strips it. The projections are also pinned byte for byte against
//! committed fixtures, so a refactor of the shared core cannot drift
//! either wire format.
//!
//! This is the same invariant CI's `experiment-smoke` job enforces on the
//! shipped binary by diffing `--jobs 4` against `--jobs 1`; here it runs
//! in-process so a regression is caught by `cargo test` first.

use hydra_arena::{run_arena, run_sweep, ArenaGrid, SweepGrid, SWEEP_SCHEMA_VERSION};
use hydra_sim::batch::BatchConfig;
use std::time::Duration;

fn batch(jobs: usize) -> BatchConfig {
    BatchConfig {
        watchdog: Duration::from_secs(300),
        jobs,
    }
}

#[test]
fn smoke_grids_are_identical_across_worker_counts() {
    // Whole-row equality would compare wall_secs too; everything except
    // the wall clock must match, which is exactly the deterministic
    // projection.
    let sweep = |jobs| run_sweep(&SweepGrid::smoke(), batch(jobs)).expect("smoke sweep");
    let (sequential, parallel) = (sweep(1), sweep(4));
    assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    assert_eq!(
        sequential.deterministic_lines(),
        parallel.deterministic_lines(),
        "sweep projections must be byte-identical"
    );
    assert_eq!(sequential.pareto(), parallel.pareto());
    assert_eq!(sequential.trend_checks(), parallel.trend_checks());

    let arena = |jobs| run_arena(&ArenaGrid::smoke(), batch(jobs)).expect("smoke arena");
    let (sequential, parallel) = (arena(1), arena(4));
    assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    assert_eq!(
        sequential.deterministic_lines(),
        parallel.deterministic_lines(),
        "arena projections must be byte-identical"
    );
    assert_eq!(sequential.pareto(), parallel.pareto());
    assert_eq!(sequential.fig5_checks(), parallel.fig5_checks());
}

#[test]
fn smoke_projections_match_the_committed_fixtures() {
    let text = |lines: Vec<String>| lines.join("\n") + "\n";
    let sweep = run_sweep(&SweepGrid::smoke(), batch(2)).expect("smoke sweep");
    assert_eq!(
        text(sweep.deterministic_lines()),
        include_str!("fixtures/sweep_smoke.deterministic.jsonl"),
        "hydra-sweep-v1 drifted from the committed projection"
    );
    let arena = run_arena(&ArenaGrid::smoke(), batch(2)).expect("smoke arena");
    assert_eq!(
        text(arena.deterministic_lines()),
        include_str!("fixtures/arena_smoke.deterministic.jsonl"),
        "hydra-arena-v1 drifted from the committed projection"
    );
}

#[test]
fn smoke_sweep_satisfies_the_paper_shaped_invariants() {
    let outcome = run_sweep(&SweepGrid::smoke(), batch(4)).expect("smoke sweep");

    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(
        outcome.rows.len(),
        SweepGrid::smoke().cells().expect("cells").len(),
        "every cell must complete"
    );
    assert!(
        !outcome.pareto().is_empty(),
        "a non-degenerate grid has a Pareto frontier"
    );
    assert!(
        !outcome.trend_checks().is_empty(),
        "the smoke grid spans multiple GCT sizes, so trend groups exist"
    );
    assert!(
        outcome.trend_ok(),
        "growing the GCT at fixed T_RH must not raise mitigations or slowdown: {:?}",
        outcome.trend_checks()
    );
}

#[test]
fn jsonl_output_is_schema_versioned_and_well_formed() {
    let outcome = run_sweep(&SweepGrid::smoke(), batch(2)).expect("smoke sweep");
    let lines = outcome.jsonl_lines();

    // meta line + one line per cell + summary line.
    assert_eq!(lines.len(), outcome.rows.len() + 2);
    let meta = &lines[0];
    assert!(meta.contains("\"kind\":\"meta\""), "{meta}");
    assert!(
        meta.contains(&format!("\"schema\":\"{SWEEP_SCHEMA_VERSION}\"")),
        "{meta}"
    );
    for line in &lines[1..lines.len() - 1] {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\":\"cell\""), "{line}");
        assert!(line.contains("\"wall_secs\":"), "{line}");
    }
    let summary = lines.last().expect("summary line");
    assert!(summary.contains("\"kind\":\"summary\""), "{summary}");
    assert!(summary.contains("\"pareto\":"), "{summary}");
    assert!(summary.contains("\"trend_ok\":"), "{summary}");

    // The deterministic projection is the same shape minus wall clocks.
    let det = outcome.deterministic_lines();
    assert_eq!(det.len(), lines.len());
    assert!(det.iter().all(|l| !l.contains("wall_secs")));
}
