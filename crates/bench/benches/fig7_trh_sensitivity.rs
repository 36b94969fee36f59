//! Figure 7: Hydra slowdown as the Row-Hammer threshold falls from 500 to
//! 250 to 125, with structures scaled proportionally (2×, 4×).
//!
//! Paper: 0.7 % → 1.6 % → 4 % average slowdown, with GUPS hit hardest.

use hydra_bench::{
    run_all, suite_slowdown_table, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

/// Hydra at the paper's T_H = T_RH / 2 and T_G = 80 % of T_H, with the
/// structures grown as the threshold falls (2× at 250, 4× at 125).
fn hydra_for_trh(t_rh: u32) -> Variant {
    let factor = (500 / t_rh) as usize;
    let t_h = t_rh / 2;
    Variant::from(TrackerKind::HydraCustom {
        t_h,
        t_g: t_h * 4 / 5,
        gct_total: 32_768 * factor,
        rcc_total: 8_192 * factor,
        use_gct: true,
        use_rcc: true,
    })
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 7: Hydra slowdown vs T_RH (S={}) ===\n",
        scale.scale
    );

    let runs = run_all(&[500, 250, 125].map(hydra_for_trh), &scale).expect("workload run");
    let headers = ["suite", "T_RH=500", "T_RH=250", "T_RH=125"];
    let (table, overall) = suite_slowdown_table(&headers, &runs);
    print!("{}", table.render());
    match table.export_csv("fig7") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: 0.7 % at 500, 1.6 % at 250, 4 % at 125.");
    println!("{}", verdict::fig7([overall[0], overall[1], overall[2]]));
    println!("{}", windows_line(&runs));
}
