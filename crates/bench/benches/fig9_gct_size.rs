//! Figure 9: sensitivity of Hydra's slowdown to GCT capacity (16K / 32K /
//! 64K entries at paper scale). Halving the GCT doubles the row-group size,
//! so entries saturate faster; the paper sees GUPS blow up at 16K while 32K
//! is a good cost/performance point.

use hydra_bench::{
    run_all, suite_slowdown_table, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

fn hydra_with_gct(gct_total: usize) -> Variant {
    Variant::from(TrackerKind::HydraCustom {
        t_h: 250,
        t_g: 200,
        gct_total,
        rcc_total: 8_192,
        use_gct: true,
        use_rcc: true,
    })
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 9: Hydra slowdown vs GCT size (S={}) ===\n",
        scale.scale
    );

    let variants = [16_384, 32_768, 65_536].map(hydra_with_gct);
    let runs = run_all(&variants, &scale).expect("workload run");
    let headers = ["suite", "GCT=16K", "GCT=32K", "GCT=64K"];
    let (table, overall) = suite_slowdown_table(&headers, &runs);
    print!("{}", table.render());
    match table.export_csv("fig9") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: 16K hurts (GUPS 18.3 %); 32K is the sweet spot; 64K is marginal.");
    println!("{}", verdict::fig9([overall[0], overall[1], overall[2]]));
    println!("{}", windows_line(&runs));
}
