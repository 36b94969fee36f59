//! Section 6.8: power analysis.
//!
//! (1) DRAM power: the extra accesses from RCT traffic and mitigation are a
//!     tiny fraction of total DRAM energy (paper: 0.2 %).
//! (2) SRAM power: the GCT and RCC draw tens of milliwatts (paper: 10.6 mW
//!     + 8 mW at 22 nm from CACTI).

use hydra_bench::{
    run_figure, verdict, windows_line, ExperimentScale, SramPowerModel, Table, TrackerKind,
};
use hydra_dram::{DramEnergyModel, PowerCounters};
use hydra_sim::SimResult;
use hydra_types::Clock;
use hydra_workloads::registry;

fn main() {
    let scale = ExperimentScale::from_env();
    let clock = Clock::ddr4_3200();
    let energy_model = DramEnergyModel::ddr4_3200();
    println!(
        "\n=== Section 6.8: power analysis (S={}) ===\n",
        scale.scale
    );

    // DRAM side: compare energy with and without Hydra on the most
    // memory-intensive workloads.
    let mut table = Table::new(vec![
        "workload",
        "baseline dyn energy (uJ)",
        "hydra dyn energy (uJ)",
        "overhead %",
    ]);
    let specs = ["bwaves", "parest", "mcf", "bc_t", "gups", "stream"]
        .map(|name| registry::by_name(name).expect("registered"));
    let runs = run_figure(specs, &[TrackerKind::Hydra.into()], &scale).expect("workload run");
    let energy = |result: &SimResult| -> f64 {
        let counters = result
            .controllers
            .iter()
            .fold(PowerCounters::default(), |acc, c| {
                acc.combined(PowerCounters {
                    activations: c.demand_acts + c.mitigation_acts + c.side_acts,
                    reads: c.reads_done + c.side_done / 2,
                    writes: c.writes_done + c.side_done / 2,
                    precharges: c.demand_acts,
                    refreshes: 0,
                })
            });
        energy_model
            .energy(&counters, result.cycles, 2, &clock)
            .total_nj()
            / 1000.0
    };
    let mut overheads = Vec::new();
    for run in &runs {
        let e_base = energy(&run.baseline);
        let e_hydra = energy(&run.variants[0]);
        let overhead = (e_hydra / e_base - 1.0) * 100.0;
        overheads.push(overhead);
        table.row(vec![
            run.spec.name.to_string(),
            format!("{e_base:.1}"),
            format!("{e_hydra:.1}"),
            format!("{overhead:.2}%"),
        ]);
    }
    print!("{}", table.render());
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!(
        "\nMean DRAM dynamic-energy overhead: {mean:.2}% (paper: ~0.2 % of total DRAM power)."
    );

    // SRAM side: every activation touches the GCT, ~9 % touch the RCC. The
    // rate is the Hydra runs' demand activations over their simulated time.
    let sram = SramPowerModel::cacti_22nm();
    let (acts, seconds) = runs.iter().fold((0, 0.0), |(acts, seconds), run| {
        let result = &run.variants[0];
        (
            acts + result.demand_acts(),
            seconds + result.cycles as f64 / clock.freq_hz(),
        )
    });
    let act_rate = acts as f64 / seconds;
    println!(
        "\nMeasured activation rate: {act_rate:.3e} ACT/s \
         (system-wide, pooled over the six Hydra runs)"
    );
    let gct_mw = sram.power_mw(32 * 1024, act_rate);
    let rcc_mw = sram.power_mw(24 * 1024, act_rate * 0.093);
    println!("\nSRAM power (CACTI-substitute model at 22 nm):");
    println!("  GCT (32 KB): {gct_mw:.1} mW   (paper: 10.6 mW)");
    println!("  RCC (24 KB): {rcc_mw:.1} mW   (paper: 8.0 mW)");
    println!(
        "  total      : {:.1} mW   (paper: 18.6 mW)",
        gct_mw + rcc_mw
    );
    println!("{}", verdict::sram_power(gct_mw + rcc_mw));
    println!("{}", windows_line(&runs));
}
