//! Figure 8: the relative contribution of Hydra's two SRAM structures —
//! Hydra-NoGCT (20 % average slowdown), Hydra-NoRCC (4.5 %), full Hydra
//! (0.7 %). The GCT's filtering is the critical component.

use hydra_bench::{
    normalized_table, run_all, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

/// Hydra at the paper's default thresholds and sizes with one structure
/// switched off.
fn hydra_without(use_gct: bool, use_rcc: bool) -> Variant {
    Variant::from(TrackerKind::HydraCustom {
        t_h: 250,
        t_g: 200,
        gct_total: 32_768,
        rcc_total: 8_192,
        use_gct,
        use_rcc,
    })
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 8: Hydra component ablation (S={}) ===\n",
        scale.scale
    );

    let variants = [
        hydra_without(false, true),
        hydra_without(true, false),
        Variant::from(TrackerKind::Hydra),
    ];
    let runs = run_all(&variants, &scale).expect("workload run");
    let headers = ["workload", "Hydra-NoGCT", "Hydra-NoRCC", "Hydra"];
    let (table, means) = normalized_table(&headers, &runs, false);
    print!("{}", table.render());
    match table.export_csv("fig8") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: NoGCT ~0.83 (20 % slowdown), NoRCC ~0.957 (4.5 %), Hydra ~0.993 (0.7 %).");
    println!("{}", verdict::fig8(means[0], means[1], means[2]));
    println!("{}", windows_line(&runs));
}
