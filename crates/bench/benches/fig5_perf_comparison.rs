//! Figure 5: performance of Graphene, CRA (64 KB metadata cache) and Hydra,
//! normalized to the non-secure baseline, across all 36 workloads plus
//! per-suite geometric means.
//!
//! Expected shape (paper): Graphene ≈ 1.0 (0.1 % slowdown), Hydra ≈ 0.993
//! (0.7 % slowdown), CRA ≈ 0.75 (25 % slowdown). Runs are time-compressed
//! (see `hydra_bench` docs); set `HYDRA_SCALE` to trade fidelity for
//! runtime.

use hydra_bench::{
    normalized_table, run_all, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 5: normalized performance (scale S={}, {} instrs/core) ===\n",
        scale.scale, scale.instructions_per_core
    );

    let variants = [
        TrackerKind::Cra {
            cache_bytes: 64 * 1024,
        },
        TrackerKind::Graphene,
        TrackerKind::Hydra,
    ]
    .map(Variant::from);
    let runs = run_all(&variants, &scale).expect("workload run");
    let headers = ["workload", "suite", "CRA-64KB", "Graphene", "Hydra"];
    let (table, means) = normalized_table(&headers, &runs, true);
    print!("{}", table.render());
    match table.export_csv("fig5") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: CRA ~0.75 (25 % slowdown), Graphene ~0.999, Hydra ~0.993.");
    println!("{}", verdict::fig5(means[0], means[1], means[2]));
    println!("{}", windows_line(&runs));
}
