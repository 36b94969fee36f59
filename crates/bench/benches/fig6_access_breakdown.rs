//! Figure 6: where Hydra's activation-count updates are satisfied —
//! GCT-only / RCC-hit / RCT-access (DRAM). Paper averages: 90.7 % / 9.0 % /
//! 0.3 %.
//!
//! Uses the activation-level simulator: Fig. 6 is a property of the
//! activation stream and tracker state, independent of queueing.

use hydra_bench::{scaled_hydra, verdict, ExperimentScale, Table};
use hydra_dram::DramTiming;
use hydra_sim::ActivationSim;
use hydra_types::MemGeometry;
use hydra_workloads::{registry, TraceSource};

/// Channel-0 activations fed per workload.
const ACTS_PER_WORKLOAD: u64 = 300_000;

fn main() {
    let scale = ExperimentScale::from_env();
    let geom = MemGeometry::isca22_baseline();

    println!(
        "\n=== Figure 6: Hydra activation-update breakdown (S={}, {} ACTs/workload) ===\n",
        scale.scale, ACTS_PER_WORKLOAD
    );
    let mut table = Table::new(vec!["workload", "GCT-only %", "RCC-hit %", "RCT-access %"]);
    let mut sums = [0.0f64; 3];

    for spec in &registry::ALL {
        let hydra =
            scaled_hydra(geom, 0, &scale, 250, 200, 32_768, 8_192, true, true).expect("hydra");
        let timing = DramTiming::ddr4_3200().with_scaled_window(scale.scale);
        // Pace activations to the workload's Table-3 rate: `expected`
        // activations per window on this channel (half the system total).
        let acts_per_window = (spec.expected_activations(scale.scale) / 2.0).max(1.0);
        let cycles_per_act = ((timing.refresh_window as f64 / acts_per_window) as u64).max(1);
        let mut sim = ActivationSim::new(geom, hydra)
            .with_timing(timing)
            .with_cycles_per_activation(cycles_per_act);
        let mut trace = spec.build(geom, scale.scale, scale.seed);
        let mut fed = 0;
        let mut last_row = None;
        while fed < ACTS_PER_WORKLOAD {
            let op = trace.next_op();
            let row = geom.row_of_line(op.addr);
            // Row-buffer filter: consecutive same-row accesses are hits, not
            // activations.
            if last_row == Some(row) {
                continue;
            }
            last_row = Some(row);
            if row.channel != 0 {
                continue; // one channel's tracker is representative
            }
            sim.activate(row);
            fed += 1;
        }
        let stats = sim.tracker().stats();
        let shares = [
            stats.gct_only_fraction() * 100.0,
            stats.rcc_hit_fraction() * 100.0,
            stats.rct_access_fraction() * 100.0,
        ];
        for (s, v) in sums.iter_mut().zip(shares) {
            *s += v;
        }
        table.row(vec![
            spec.name.to_string(),
            format!("{:.1}", shares[0]),
            format!("{:.1}", shares[1]),
            format!("{:.2}", shares[2]),
        ]);
    }
    let n = registry::ALL.len() as f64;
    table.row(vec![
        "MEAN-ALL(36)".into(),
        format!("{:.1}", sums[0] / n),
        format!("{:.1}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
    ]);
    print!("{}", table.render());
    match table.export_csv("fig6") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }
    println!("\nPaper means: GCT-only 90.7 %, RCC-hit 9.0 %, RCT-access 0.3 %.");
    println!("{}", verdict::fig6(sums[0] / n, sums[2] / n));
}
