//! Table 3: workload characteristics — MPKI, unique rows per window, rows
//! with 250+ activations per window, and mean ACTs per row.
//!
//! Measures what our calibrated generators actually produce over one scaled
//! tracking window and prints it next to the paper's targets (scaled by S
//! where applicable). This is the calibration audit for the whole harness.

use hydra_bench::{ExperimentScale, Table};
use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::{registry, TraceSource};
use std::collections::HashMap;

fn main() {
    let scale = ExperimentScale::from_env().unwrap_or_else(|e| panic!("{e}"));
    let geom = MemGeometry::isca22_baseline();
    // One scaled window's worth of activations at full bandwidth is
    // ACT_max/S per bank; workloads use a fraction of that. Feed each
    // generator the number of accesses its spec implies for one window.
    println!(
        "\n=== Table 3: workload characteristics over one scaled window (S={}) ===\n",
        scale.scale
    );
    let mut table = Table::new(vec![
        "workload",
        "MPKI(paper)",
        "uniq rows (meas/target)",
        "ACT-250+ (meas/target)",
        "ACTs/row (meas/paper)",
    ]);

    for spec in &registry::ALL {
        let mut trace = spec.build(geom, scale.scale, scale.seed);
        // Accesses per window implied by the spec: activations × burst.
        let accesses = (spec.expected_activations(scale.scale) * spec.burst) as u64;
        let mut acts: HashMap<RowAddr, u64> = HashMap::new();
        let mut last_row: Option<RowAddr> = None;
        for _ in 0..accesses.max(100) {
            let op = trace.next_op();
            let row = geom.row_of_line(op.addr);
            if last_row != Some(row) {
                *acts.entry(row).or_insert(0) += 1;
                last_row = Some(row);
            }
        }
        let unique = acts.len() as u64;
        let hot = acts.values().filter(|&&c| c > 250).count() as u64;
        let total_acts: u64 = acts.values().sum();
        let acts_per_row = total_acts as f64 / unique.max(1) as f64;
        table.row(vec![
            spec.name.to_string(),
            format!("{:.2}", spec.mpki),
            format!("{unique} / {}", (spec.unique_rows / scale.scale).max(8)),
            format!(
                "{hot} / {}",
                if spec.act250_rows == 0 {
                    0
                } else {
                    (spec.act250_rows / scale.scale).max(1)
                }
            ),
            format!("{:.1} / {:.1}", acts_per_row, spec.acts_per_row),
        ]);
    }
    print!("{}", table.render());
    match table.export_csv("table3") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }
    println!("\nTargets are the paper's Table 3 values divided by the time-compression S.");
}
