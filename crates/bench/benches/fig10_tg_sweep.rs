//! Figure 10: the effect of the GCT threshold T_G, swept as a percentage of
//! T_H = 250 — 50 % (125), 65 % (162), 80 % (200), 95 % (237).
//!
//! Low T_G saturates groups too early (GUPS suffers); T_G too close to T_H
//! forces a mitigation almost immediately after every spill for newly
//! arriving rows. The paper picks 80 %.

use hydra_bench::{
    run_all, suite_slowdown_table, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

fn hydra_with_tg(t_g: u32) -> Variant {
    Variant::from(TrackerKind::HydraCustom {
        t_h: 250,
        t_g,
        gct_total: 32_768,
        rcc_total: 8_192,
        use_gct: true,
        use_rcc: true,
    })
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 10: Hydra slowdown vs T_G (S={}) ===\n",
        scale.scale
    );

    let runs = run_all(&[125, 162, 200, 237].map(hydra_with_tg), &scale).expect("workload run");
    let headers = ["suite", "50% (125)", "65% (162)", "80% (200)", "95% (237)"];
    let (table, overall) = suite_slowdown_table(&headers, &runs);
    print!("{}", table.render());
    match table.export_csv("fig10") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: GUPS suffers at T_G = 50 % (16 %); the default 80 % balances both ends.");
    println!("{}", verdict::fig10(overall[0], overall[2]));
    println!("{}", windows_line(&runs));
}
