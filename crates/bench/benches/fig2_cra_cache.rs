//! Figure 2: CRA's normalized performance as its metadata cache grows from
//! 64 KB to 256 KB. The paper's point: even 4× the cache leaves CRA with a
//! large slowdown (25.8 % → 16.8 % on average), because counter lines have
//! poor locality over large row footprints.

use hydra_bench::{
    normalized_table, run_all, verdict, windows_line, ExperimentScale, TrackerKind, Variant,
};

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Figure 2: CRA vs metadata-cache size (scale S={}) ===\n",
        scale.scale
    );

    let variants = [64 * 1024, 128 * 1024, 256 * 1024]
        .map(|cache_bytes| Variant::from(TrackerKind::Cra { cache_bytes }));
    let runs = run_all(&variants, &scale).expect("workload run");
    let headers = ["workload", "CRA-64KB", "CRA-128KB", "CRA-256KB"];
    let (table, means) = normalized_table(&headers, &runs, false);
    print!("{}", table.render());
    match table.export_csv("fig2") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }

    println!("\nPaper: 0.742 at 64 KB -> 0.832 at 256 KB (still a big slowdown).");
    println!("{}", verdict::fig2(means[0], means[2]));
    println!("{}", windows_line(&runs));
}
