//! Figure 1(a): the published Row-Hammer threshold trend, 2014 → 2020, and
//! the derived count of simultaneously-attackable rows per bank
//! (ACT_max / T_RH) that drives tracker sizing (Sec. 4.1).

use hydra_bench::Table;
use hydra_dram::DramTiming;

fn main() {
    let act_max = DramTiming::ddr4_3200().max_activations_per_window();
    println!("\n=== Figure 1(a): Row-Hammer threshold over time ===\n");
    let mut table = Table::new(vec!["device (year)", "T_RH", "attackable rows/bank"]);
    for (device, t_rh) in [
        ("DDR3 (2014)", 139_000u64),
        ("DDR4 (2017)", 22_000),
        ("DDR4 (2018)", 18_000),
        ("DDR4 (2019)", 10_000),
        ("LPDDR4 (2020)", 4_800),
        ("ultra-low (this paper)", 500),
        ("ultra-low (Fig. 7 min)", 125),
    ] {
        table.row(vec![
            device.to_string(),
            t_rh.to_string(),
            (act_max / t_rh).to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nACT_max per bank per 64 ms window: {act_max} (paper: ~1.36 M)");
}
