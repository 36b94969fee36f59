//! Parallel-engine scaling: wall-clock of the sharded multi-channel
//! simulator as the worker pool grows, on a fixed 4-channel hammer-plus-
//! scatter stream.
//!
//! `run_parallel` splits the channels into `min(workers, channels)`
//! contiguous groups, and each group's worker scans the whole stream once,
//! keeping its own channels' rows. One worker is therefore a single pass
//! dispatching to every shard, exactly the sequential reference; 3 workers
//! on 4 channels make uneven groups of 2/1/1; workers beyond the channel
//! count are never spawned.
//!
//! Two things are checked, only one of them about speed:
//!
//! 1. every parallel run is **bit-identical** to the sequential reference
//!    (the run aborts loudly if not — a benchmark that silently benchmarks
//!    a wrong answer is worse than no benchmark);
//! 2. wall-clock is non-pathological as workers grow. The speedup ceiling
//!    is below `min(workers, channels)`: the sequential reference is one
//!    dispatching pass, while every parallel group repeats the scan of the
//!    stream, so the column reads lower than a per-shard split would.
//!
//! No speedup floor is asserted — CI machines share cores — but the
//! measured table makes regressions visible in the logs.

use hydra_bench::Table;
use hydra_core::HydraConfig;
use hydra_dram::DramTiming;
use hydra_engine::{ShardedSim, WorkerPool};
use hydra_types::{MemGeometry, RowAddr};
use std::time::Instant;

const CHANNELS: u8 = 4;
const ACTS: u64 = 400_000;
const T_H: u32 = 64;
const T_G: u32 = 48;

fn sharded() -> ShardedSim {
    let geom = MemGeometry::tiny_with_channels(CHANNELS).expect("valid geometry");
    let configs = (0..CHANNELS)
        .map(|ch| {
            HydraConfig::builder(geom, ch)
                .thresholds(T_H, T_G)
                .gct_entries(256)
                .rcc_entries(64)
                .build()
                .expect("valid config")
        })
        .collect();
    ShardedSim::new(geom, configs)
        .expect("valid shard plan")
        .with_timing(DramTiming::ddr4_3200().with_scaled_window(1_000))
}

/// A deterministic stream balanced across channels: three of four ACTs
/// hammer a small hot set, the rest scatter, so every shard carries real
/// tracker work (spills, RCC traffic, mitigations).
fn stream() -> Vec<RowAddr> {
    (0..ACTS)
        .map(|i| {
            let ch = (i % u64::from(CHANNELS)) as u8;
            let bank = ((i / 7) % 4) as u8;
            let row = if i % 4 < 3 {
                ((i / 16) % 8) as u32
            } else {
                ((i * 131) % 1024) as u32
            };
            RowAddr::new(ch, 0, bank, row)
        })
        .collect()
}

fn main() {
    println!("\n=== Engine scaling: sharded {CHANNELS}-channel run, {ACTS} ACTs ===\n");

    let sim = sharded();
    let rows = stream();

    // Untimed warm-up, so the first timed run pays no cold-start costs.
    sim.run_sequential(&rows).expect("warm-up run");
    let t0 = Instant::now();
    let reference = sim.run_sequential(&rows).expect("sequential run");
    let seq_secs = t0.elapsed().as_secs_f64();
    println!(
        "sequential reference: {:.3}s, {} mitigations, {} total ACTs tracked",
        seq_secs, reference.stats.mitigations, reference.stats.activations
    );

    let mut table = Table::new(vec!["workers", "wall_s", "speedup", "identical"]);
    for workers in [1usize, 2, 3, 4, 8] {
        let pool = WorkerPool::new(workers);
        let t = Instant::now();
        let run = sim.run_parallel(&pool, &rows).expect("parallel run");
        let secs = t.elapsed().as_secs_f64();
        let identical = run == reference;
        table.row(vec![
            workers.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}x", seq_secs / secs.max(1e-9)),
            identical.to_string(),
        ]);
        assert!(
            identical,
            "parallel run with {workers} workers diverged from the sequential reference"
        );
    }
    print!("{}", table.render());
    match table.export_csv("engine_scaling") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nmin(workers, {CHANNELS}) channel groups run, each scanning the whole stream;");
    println!("all rows identical to the sequential reference by construction check.");
}
