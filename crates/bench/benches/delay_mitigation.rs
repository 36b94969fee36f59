//! Extension experiment (footnotes 5–6): why delay-based mitigation is
//! unviable at ultra-low thresholds.
//!
//! The paper argues that rate-limiting a hot row at T_RH = 500 caps its
//! access rate ~1000× below baseline — a denial of service even for benign
//! workloads, since several workloads legitimately have thousands of rows
//! with 250+ activations per window (Table 3). This bench runs hot-row
//! workloads under victim-refresh vs. rate-limit mitigation with the same
//! Hydra tracker and reports the slowdown of each.

use hydra_bench::{
    geomean_slowdown_pct, run_figure, verdict, windows_line, ExperimentScale, Table, TrackerKind,
    Variant,
};
use hydra_types::mitigation::MitigationPolicy;
use hydra_workloads::registry;

fn main() {
    let scale = ExperimentScale::from_env();
    println!(
        "\n=== Footnote 6: victim-refresh vs delay mitigation (S={}) ===\n",
        scale.scale
    );

    // Hot-row-heavy workloads suffer most under rate control.
    let variants =
        [MitigationPolicy::default(), MitigationPolicy::RateLimit].map(|policy| Variant {
            tracker: TrackerKind::Hydra,
            policy,
        });
    let specs = [
        "parest",
        "cactuBSSN",
        "xz",
        "blender",
        "ferret",
        "stream",
        "gups",
    ]
    .map(|name| registry::by_name(name).expect("registered"));
    let runs = run_figure(specs, &variants, &scale).expect("workload run");

    let mut table = Table::new(vec![
        "workload",
        "victim-refresh slowdown",
        "rate-limit slowdown",
    ]);
    for run in &runs {
        let pct = run.slowdown_pct();
        table.row(vec![
            run.spec.name.to_string(),
            format!("{:.2}%", pct[0]),
            format!("{:.2}%", pct[1]),
        ]);
    }
    let means = geomean_slowdown_pct(&runs, |_| true);
    table.row(vec![
        "GEOMEAN".into(),
        format!("{:.2}%", means[0]),
        format!("{:.2}%", means[1]),
    ]);
    print!("{}", table.render());

    println!("\nPaper's argument: delay insertion throttles legitimately hot rows into");
    println!("a denial of service at ultra-low thresholds, while victim refresh stays cheap.");
    println!("{}", verdict::delay_mitigation(means[1], means[0]));
    println!("{}", windows_line(&runs));
}
