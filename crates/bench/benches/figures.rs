//! The paper's `SystemSim` figures — Figs. 2, 5 and 7–10, Sec. 6.8 power,
//! footnote 6's delay mitigation and the Sec. 8 row-swap extension — as one
//! plan ([`hydra_bench::plan`]): every distinct cell once, on all available
//! cores, then each figure's section in plan order. Positional figure names
//! select a subset (`cargo bench --bench figures -- fig5_perf_comparison`).
//! Stderr ends with the verdict table, one `verdict <figure> <OK|MISMATCH|
//! n/a|FAILED cells…> windows=<fewest>` line per figure. Exits 1 when any
//! cell failed; a bad `HYDRA_SCALE` or figure name panics naming it.

use hydra_bench::plan::{self, CellTable};
use hydra_bench::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_env().unwrap_or_else(|e| panic!("{e}"));
    // `cargo bench` passes `--bench` to harness-less targets.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let figures = plan::select(&names).unwrap_or_else(|e| panic!("{e}"));
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let table = CellTable::run(&figures, &scale, workers);
    let mut verdicts = String::new();
    for figure in &figures {
        let (section, verdict) = figure.render(&scale, &table);
        print!("{section}");
        verdicts += &format!("verdict {verdict}");
    }
    eprint!("{verdicts}");
    std::process::exit(i32::from(table.failed()));
}
