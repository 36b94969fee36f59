//! One figure plan: the paper's `SystemSim` figures as declarative entries
//! over one deduplicated cell table.
//!
//! The union of every [`Figure`]'s (workload, [`Variant`]) cells runs once
//! through [`BatchRunner`] ([`CellTable::run`]): 551 runs where the nine
//! figures name 945. Each figure is rendered from that one table; a failed
//! cell (an invalid tracker, or a run that panics as a simulation deadlock)
//! prints `FAILED: <cell>: <error>` in place of every table that needs it.

use crate::report::{geomean_slowdown_pct, normalized_table, suite_slowdown_table, Table};
use crate::runner::{simulate, ExperimentScale, TrackerKind, Variant, WorkloadRuns};
use crate::sram_power::SramPowerModel;
use crate::verdict::{self, Verdict};
use hydra_dram::{DramEnergyModel, PowerCounters};
use hydra_sim::{BatchConfig, BatchJob, BatchRunner, JobStatus, SimResult};
use hydra_types::mitigation::MitigationPolicy;
use hydra_types::Clock;
use hydra_workloads::{registry, WorkloadSpec};
use std::fmt::Write as _;
use std::time::Duration;

/// One figure of the paper: what it runs and how it reports.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Selects the figure on the `figures` bench's command line.
    pub name: &'static str,
    /// Section title; `{S}` is the scale, `{I}` the instructions per core.
    pub title: &'static str,
    /// Registry names of the workloads, in row order; empty for all 36.
    pub workloads: &'static [&'static str],
    /// One column per variant, each normalised to the untracked baseline.
    pub variants: Vec<Variant>,
    /// The `HYDRA_CSV_DIR` file stem of the table, if it is exported.
    pub csv: Option<&'static str>,
    /// Builds the table and the headline numbers from the runs.
    pub table: fn(&[WorkloadRuns]) -> (Table, Vec<f64>),
    /// The lines printed after a blank line under the table: the paper's
    /// numbers (and, for some figures, the measured ones they compare).
    pub paper: fn(&[f64]) -> String,
    /// The shape check over the headline numbers, if the figure has one.
    pub verdict: Option<fn(&[f64]) -> Verdict>,
}

/// One simulation of the plan: a workload under a variant (the untracked
/// baseline is the [`TrackerKind::Baseline`] variant).
pub(crate) type Cell = (&'static WorkloadSpec, Variant);

/// `workload/variant`, the name a failed cell is reported under.
/// The policy is named only when it is not the default victim refresh.
pub(crate) fn label((spec, variant): &Cell) -> String {
    let mut label = format!("{}/{}", spec.name, variant.tracker.label());
    if variant.policy != MitigationPolicy::default() {
        let _ = write!(label, "+{}", variant.policy);
    }
    label
}

impl Figure {
    fn specs(&self) -> Vec<&'static WorkloadSpec> {
        if self.workloads.is_empty() {
            return registry::ALL.iter().collect();
        }
        self.workloads
            .iter()
            .filter_map(|n| registry::by_name(n))
            .collect()
    }

    /// The figure's cells: per workload, the baseline and then one cell per
    /// variant.
    pub(crate) fn cells(&self) -> Vec<Cell> {
        let mut columns = vec![Variant::from(TrackerKind::Baseline)];
        columns.extend(&self.variants);
        let row = |spec| columns.iter().map(move |&variant| (spec, variant));
        self.specs().into_iter().flat_map(row).collect()
    }

    /// The figure's runs, in workload × variant order.
    ///
    /// # Errors
    ///
    /// Returns the label and error of every cell that failed.
    pub(crate) fn runs(
        &self,
        table: &CellTable,
    ) -> Result<Vec<WorkloadRuns>, Vec<(String, String)>> {
        let (mut results, mut failed) = (Vec::new(), Vec::new());
        for cell in self.cells() {
            match table.get(&cell) {
                Ok(result) => results.push(result.clone()),
                Err(error) => failed.push((label(&cell), error)),
            }
        }
        if !failed.is_empty() {
            return Err(failed);
        }
        let rows = results.chunks(self.variants.len() + 1).zip(self.specs());
        Ok(rows
            .map(|(row, spec)| WorkloadRuns {
                spec,
                baseline: row[0].clone(),
                variants: row[1..].to_vec(),
            })
            .collect())
    }

    /// Renders the figure from the cell table: its section, and its row of
    /// the verdict table, `<name> <OK|MISMATCH|n/a|FAILED cells…>
    /// windows=<fewest any completed run saw>`.
    pub fn render(&self, scale: &ExperimentScale, table: &CellTable) -> (String, String) {
        let title = self.title.replace("{S}", &scale.scale.to_string());
        let title = title.replace("{I}", &scale.instructions_per_core.to_string());
        let mut text = format!("\n=== {title} ===\n\n");
        let cells = self.cells();
        let completed = cells.iter().filter_map(|cell| table.get(cell).ok());
        let resets = completed
            .flat_map(|r| &r.controllers)
            .map(|c| c.window_resets);
        let windows = resets.min().unwrap_or(0);
        let status = match self.runs(table) {
            Err(failed) => {
                for (label, error) in &failed {
                    let _ = writeln!(text, "FAILED: {label}: {error}");
                }
                let labels: Vec<String> = failed.into_iter().map(|(label, _)| label).collect();
                format!("FAILED {}", labels.join(" "))
            }
            Ok(runs) => {
                let (body, numbers) = (self.table)(&runs);
                text.push_str(&body.render());
                if let Some(name) = self.csv {
                    text.push_str(&body.export_csv(name).unwrap_or_else(|e| e + "\n"));
                }
                let _ = writeln!(text, "\n{}", (self.paper)(&numbers));
                let verdict = self.verdict.map(|check| check(&numbers));
                if let Some(verdict) = verdict {
                    let _ = writeln!(text, "{verdict}");
                }
                let _ = writeln!(text, "Windows completed: {windows} (fewest of any run)");
                match verdict {
                    Some(v) if v.ok => "OK".into(),
                    Some(_) => "MISMATCH".into(),
                    None => "n/a".into(),
                }
            }
        };
        (text, format!("{} {status} windows={windows}\n", self.name))
    }
}

/// The union of the figures' cells, each once, in order of first use.
pub(crate) fn cells(figures: &[Figure]) -> Vec<Cell> {
    let mut distinct: Vec<Cell> = Vec::new();
    for cell in figures.iter().flat_map(Figure::cells) {
        if !distinct.contains(&cell) {
            distinct.push(cell);
        }
    }
    distinct
}

/// Every distinct cell's result, in cell order.
#[derive(Debug)]
pub struct CellTable(Vec<(Cell, Result<SimResult, String>)>);

/// A cell at a scale, as a [`BatchJob`].
struct CellJob(Cell, ExperimentScale);

impl BatchJob for CellJob {
    type Output = SimResult;

    fn label(&self) -> String {
        label(&self.0)
    }

    fn run(&self) -> Result<SimResult, String> {
        simulate(self.0 .0, self.0 .1, &self.1).map_err(|e| e.to_string())
    }
}

impl CellTable {
    /// Runs every distinct cell of `figures` once on `workers` threads. The
    /// table is the same for any worker count: each cell is deterministic,
    /// and results come back in cell order. The watchdog is unbounded (a
    /// saturating `Duration::MAX`): a cell may take minutes at the default
    /// scale, and `SystemSim`'s no-progress check fails a deadlocked one.
    pub fn run(figures: &[Figure], scale: &ExperimentScale, workers: usize) -> Self {
        let cells = cells(figures);
        let jobs = cells.iter().map(|&cell| CellJob(cell, *scale)).collect();
        let config = BatchConfig {
            watchdog: Duration::MAX,
            jobs: workers,
        };
        let reports = BatchRunner::new(config).run(jobs).jobs;
        let results = reports.into_iter().map(|job| {
            job.output.ok_or(match job.status {
                JobStatus::Failed { error } => error,
                other => format!("{other:?}"),
            })
        });
        CellTable(cells.into_iter().zip(results).collect())
    }

    /// True iff any cell failed.
    pub fn failed(&self) -> bool {
        self.0.iter().any(|(_, result)| result.is_err())
    }

    fn get(&self, cell: &Cell) -> Result<&SimResult, String> {
        match self.0.iter().find(|(c, _)| c == cell) {
            Some((_, result)) => result.as_ref().map_err(Clone::clone),
            None => Err("not in the cell table".into()),
        }
    }
}

/// The figures `names` select, in plan order; all of them when `names` is
/// empty.
///
/// # Errors
///
/// Returns a message naming an unknown figure and listing the known ones.
pub fn select(names: &[String]) -> Result<Vec<Figure>, String> {
    let all = figures();
    let known: Vec<&str> = all.iter().map(|f| f.name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        let known = known.join(", ");
        return Err(format!("unknown figure {unknown:?}; known: {known}"));
    }
    let picked = |f: &Figure| names.is_empty() || names.iter().any(|n| n == f.name);
    Ok(all.into_iter().filter(picked).collect())
}

/// Both of Hydra's structures on: `(use_gct, use_rcc)`.
const BOTH: (bool, bool) = (true, true);

/// Hydra at the given thresholds and structure totals (paper scale), with
/// the structures `(use_gct, use_rcc)` switches on.
fn hydra(t_h: u32, t_g: u32, gct: usize, rcc: usize, (use_gct, use_rcc): (bool, bool)) -> Variant {
    Variant::from(TrackerKind::HydraCustom {
        t_h,
        t_g,
        gct_total: gct,
        rcc_total: rcc,
        use_gct,
        use_rcc,
    })
}

/// Hydra at the paper's T_H = T_RH / 2 and T_G = 80 % of T_H, with the
/// structures grown as the threshold falls (2× at 250, 4× at 125).
fn hydra_for_trh(t_rh: u32) -> Variant {
    let (factor, t_h) = ((500 / t_rh) as usize, t_rh / 2);
    hydra(t_h, t_h * 4 / 5, 32_768 * factor, 8_192 * factor, BOTH)
}

/// CRA with a `kb`-KB metadata cache (paper scale).
fn cra(kb: usize) -> TrackerKind {
    TrackerKind::Cra {
        cache_bytes: kb << 10,
    }
}

/// The default Hydra under each mitigation policy.
fn policies(policies: [MitigationPolicy; 2]) -> Vec<Variant> {
    let tracker = TrackerKind::HYDRA;
    policies.map(|policy| Variant { tracker, policy }).to_vec()
}

/// The paper's `SystemSim` figures, in print order.
pub(crate) fn figures() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig2_cra_cache",
            title: "Figure 2: CRA vs metadata-cache size (scale S={S})",
            workloads: &[],
            variants: [64, 128, 256].map(|kb| cra(kb).into()).to_vec(),
            csv: Some("fig2"),
            table: |runs| {
                let headers = ["workload", "CRA-64KB", "CRA-128KB", "CRA-256KB"];
                normalized_table(&headers, runs, false)
            },
            paper: |_| "Paper: 0.742 at 64 KB -> 0.832 at 256 KB (still a big slowdown).".into(),
            verdict: Some(|m| verdict::fig2(m[0], m[2])),
        },
        Figure {
            name: "fig5_perf_comparison",
            title: "Figure 5: normalized performance (scale S={S}, {I} instrs/core)",
            workloads: &[],
            variants: [cra(64), TrackerKind::Graphene, TrackerKind::HYDRA]
                .map(Variant::from)
                .to_vec(),
            csv: Some("fig5"),
            table: |runs| {
                let headers = ["workload", "suite", "CRA-64KB", "Graphene", "Hydra"];
                normalized_table(&headers, runs, true)
            },
            paper: |_| "Paper: CRA ~0.75 (25 % slowdown), Graphene ~0.999, Hydra ~0.993.".into(),
            verdict: Some(|m| verdict::fig5(m[0], m[1], m[2])),
        },
        Figure {
            name: "fig7_trh_sensitivity",
            title: "Figure 7: Hydra slowdown vs T_RH (S={S})",
            workloads: &[],
            variants: [500, 250, 125].map(hydra_for_trh).to_vec(),
            csv: Some("fig7"),
            table: |runs| {
                suite_slowdown_table(&["suite", "T_RH=500", "T_RH=250", "T_RH=125"], runs)
            },
            paper: |_| "Paper: 0.7 % at 500, 1.6 % at 250, 4 % at 125.".into(),
            verdict: Some(|o| verdict::fig7([o[0], o[1], o[2]])),
        },
        Figure {
            name: "fig8_ablation",
            title: "Figure 8: Hydra component ablation (S={S})",
            workloads: &[],
            variants: [(false, true), (true, false), BOTH]
                .map(|on| hydra(250, 200, 32_768, 8_192, on))
                .to_vec(),
            csv: Some("fig8"),
            table: |runs| {
                let headers = ["workload", "Hydra-NoGCT", "Hydra-NoRCC", "Hydra"];
                normalized_table(&headers, runs, false)
            },
            paper: |_| {
                "Paper: NoGCT ~0.83 (20 % slowdown), NoRCC ~0.957 (4.5 %), Hydra ~0.993 (0.7 %)."
                    .into()
            },
            verdict: Some(|m| verdict::fig8(m[0], m[1], m[2])),
        },
        Figure {
            name: "fig9_gct_size",
            title: "Figure 9: Hydra slowdown vs GCT size (S={S})",
            workloads: &[],
            variants: [16_384, 32_768, 65_536]
                .map(|gct| hydra(250, 200, gct, 8_192, BOTH))
                .to_vec(),
            csv: Some("fig9"),
            table: |runs| suite_slowdown_table(&["suite", "GCT=16K", "GCT=32K", "GCT=64K"], runs),
            paper: |_| {
                "Paper: 16K hurts (GUPS 18.3 %); 32K is the sweet spot; 64K is marginal.".into()
            },
            verdict: Some(|o| verdict::fig9([o[0], o[1], o[2]])),
        },
        Figure {
            name: "fig10_tg_sweep",
            title: "Figure 10: Hydra slowdown vs T_G (S={S})",
            workloads: &[],
            variants: [125, 162, 200, 237]
                .map(|t_g| hydra(250, t_g, 32_768, 8_192, BOTH))
                .to_vec(),
            csv: Some("fig10"),
            table: |runs| {
                let headers = ["suite", "50% (125)", "65% (162)", "80% (200)", "95% (237)"];
                suite_slowdown_table(&headers, runs)
            },
            paper: |_| {
                "Paper: GUPS suffers at T_G = 50 % (16 %); the default 80 % balances both ends."
                    .into()
            },
            verdict: Some(|o| verdict::fig10(o[0], o[2])),
        },
        Figure {
            name: "power_analysis",
            title: "Section 6.8: power analysis (S={S})",
            workloads: &["bwaves", "parest", "mcf", "bc_t", "gups", "stream"],
            variants: vec![TrackerKind::HYDRA.into()],
            csv: None,
            table: power_table,
            paper: |n| {
                let &[mean, act_rate, gct_mw, rcc_mw] = n else {
                    return String::new();
                };
                format!(
                    "Mean DRAM energy overhead: {mean:.2}% \
                     (paper: ~0.2 % of total DRAM power).\n\n\
                     Measured activation rate: {act_rate:.3e} ACT/s \
                     (system-wide, pooled over the six Hydra runs)\n\n\
                     SRAM power (CACTI-substitute model at 22 nm):\n  \
                     GCT (32 KB): {gct_mw:.1} mW   (paper: 10.6 mW)\n  \
                     RCC (24 KB): {rcc_mw:.1} mW   (paper: 8.0 mW)\n  \
                     total      : {:.1} mW   (paper: 18.6 mW)",
                    gct_mw + rcc_mw
                )
            },
            verdict: Some(|n| verdict::sram_power(n[2] + n[3])),
        },
        Figure {
            name: "delay_mitigation",
            title: "Footnote 6: victim-refresh vs delay mitigation (S={S})",
            // Hot-row-heavy workloads suffer most under rate control.
            workloads: &[
                "parest",
                "cactuBSSN",
                "xz",
                "blender",
                "ferret",
                "stream",
                "gups",
            ],
            variants: policies([MitigationPolicy::default(), MitigationPolicy::RateLimit]),
            csv: None,
            table: |runs| {
                let headers = ["workload", "victim-refresh slowdown", "rate-limit slowdown"];
                policy_table(&headers, runs)
            },
            paper: |_| {
                "Paper's argument: delay insertion throttles legitimately hot rows into\n\
                 a denial of service at ultra-low thresholds, while victim refresh stays cheap."
                    .into()
            },
            verdict: Some(|m| verdict::delay_mitigation(m[1], m[0])),
        },
        Figure {
            name: "rowswap_extension",
            title: "Extension: victim-refresh vs row-swap mitigation (S={S})",
            // parest/cactuBSSN (thousands of hot rows) make row swapping
            // pathologically expensive — every hot row pays two full row
            // copies per T_H activations, a finding in itself; the runnable
            // comparison uses moderate hot-row counts.
            workloads: &["stream", "ferret", "gups", "mcf"],
            variants: policies([
                MitigationPolicy::default(),
                MitigationPolicy::RowSwap { seed: 0xABCD },
            ]),
            csv: None,
            table: |runs| {
                let h = [
                    "workload",
                    "victim-refresh slowdown",
                    "row-swap slowdown",
                    "swaps",
                ];
                policy_table(&h, runs)
            },
            paper: |m| {
                format!(
                    "Row swap trades ~128x more data movement per mitigation for breaking\n\
                     spatial correlation; with Hydra's low mitigation rate both stay modest.\n\
                     Observed: victim-refresh {:.2}% vs row-swap {:.2}% average slowdown.",
                    m[0], m[1]
                )
            },
            verdict: None,
        },
    ]
}

/// Footnote 6 and Sec. 8: each workload's slowdown under the two policies
/// (and, with a fourth header, the second policy's row swaps), then the
/// geomean row. The numbers are the two geomean slowdowns.
fn policy_table(headers: &[&str], runs: &[WorkloadRuns]) -> (Table, Vec<f64>) {
    let mut table = Table::new(headers.to_vec());
    for run in runs {
        let pct = run.slowdown_pct();
        let swaps = run.variants[1].controllers.iter().map(|c| c.row_swaps);
        let swaps: u64 = swaps.sum();
        let mut cells = vec![run.spec.name.to_string(), format!("{:.2}%", pct[0])];
        cells.extend([format!("{:.2}%", pct[1]), swaps.to_string()]);
        table.row(cells);
    }
    let means = geomean_slowdown_pct(runs, |_| true);
    table.row(vec![
        "GEOMEAN".into(),
        format!("{:.2}%", means[0]),
        format!("{:.2}%", means[1]),
    ]);
    (table, means)
}

/// Sec. 6.8: each run's DRAM energy from its channels' own counters. The
/// numbers are the mean overhead (%), the Hydra runs' activation rate
/// (ACT/s), and the GCT and RCC power (mW) at it (~9 % touch the RCC).
fn power_table(runs: &[WorkloadRuns]) -> (Table, Vec<f64>) {
    let clock = Clock::ddr4_3200();
    let energy = |result: &SimResult| -> f64 {
        let counters = result
            .power
            .iter()
            .fold(PowerCounters::default(), |a, &c| a.combined(c));
        let model = DramEnergyModel::ddr4_3200();
        model.energy(&counters, result.cycles, 2, &clock).total_nj() / 1000.0
    };
    let headers = [
        "workload",
        "baseline DRAM energy (uJ)",
        "hydra DRAM energy (uJ)",
        "overhead %",
    ];
    let mut table = Table::new(headers.to_vec());
    let mut overheads = Vec::new();
    for run in runs {
        let (e_base, e_hydra) = (energy(&run.baseline), energy(&run.variants[0]));
        let overhead = (e_hydra / e_base - 1.0) * 100.0;
        overheads.push(overhead);
        let name = run.spec.name.to_string();
        table.row(vec![
            name,
            format!("{e_base:.1}"),
            format!("{e_hydra:.1}"),
            format!("{overhead:.2}%"),
        ]);
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let hydra_runs = runs.iter().map(|run| &run.variants[0]);
    let acts: u64 = hydra_runs.clone().map(SimResult::demand_acts).sum();
    let seconds: f64 = hydra_runs.map(|r| r.cycles as f64 / clock.freq_hz()).sum();
    let act_rate = acts as f64 / seconds;
    let sram = SramPowerModel::cacti_22nm();
    let gct_mw = sram.power_mw(32 << 10, act_rate);
    let rcc_mw = sram.power_mw(24 << 10, act_rate * 0.093);
    (table, vec![mean, act_rate, gct_mw, rcc_mw])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scale() -> ExperimentScale {
        ExperimentScale {
            scale: 1024,
            instructions_per_core: 5_000,
            seed: 7,
        }
    }

    /// The plan's figure `name` restricted to `workloads`.
    fn on(name: &str, workloads: &'static [&'static str]) -> Figure {
        let figure = figures().into_iter().find(|f| f.name == name);
        Figure {
            workloads,
            ..figure.expect("a plan figure")
        }
    }

    fn render_all(figures: &[Figure], scale: &ExperimentScale, workers: usize) -> String {
        let table = CellTable::run(figures, scale, workers);
        let sections = figures.iter().map(|f| f.render(scale, &table));
        sections.map(|(text, verdict)| text + &verdict).collect()
    }

    #[test]
    fn the_full_plan_runs_551_distinct_cells_for_945_slots() {
        let figures = figures();
        let slots: usize = figures.iter().map(|f| f.cells().len()).sum();
        assert_eq!(slots, 945);
        let distinct = cells(&figures);
        assert_eq!(distinct.len(), 551);
        // Every named workload resolves, and labels tell cells apart.
        for f in &figures {
            let expected = if f.workloads.is_empty() {
                36
            } else {
                f.workloads.len()
            };
            assert_eq!(f.specs().len(), expected, "{}", f.name);
        }
        let mut labels: Vec<String> = distinct.iter().map(label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 551);
        assert!(labels.contains(&"gups/hydra(th=250,tg=200,gct=32768)+rate-limit".to_string()));
    }

    #[test]
    fn figure_runs_come_back_in_workload_by_variant_order() {
        let scale = quick_scale();
        let fig = Figure {
            variants: vec![
                Variant::from(TrackerKind::Baseline),
                Variant::from(TrackerKind::HYDRA),
                Variant {
                    tracker: TrackerKind::HYDRA,
                    policy: MitigationPolicy::RateLimit,
                },
            ],
            ..on("delay_mitigation", &["gups", "mcf"])
        };
        let table = CellTable::run(std::slice::from_ref(&fig), &scale, 2);
        // The untracked column is the baseline cell itself.
        assert_eq!(table.0.len(), 6);
        let runs = fig.runs(&table).expect("figure runs");
        let names: Vec<&str> = runs.iter().map(|r| r.spec.name).collect();
        assert_eq!(names, ["gups", "mcf"]);
        for run in &runs {
            assert!(run.baseline.cycles > 0);
            assert_eq!(run.variants.len(), fig.variants.len());
            // An untracked variant replays the baseline exactly.
            assert_eq!(run.normalized()[0], 1.0);
            assert_eq!(run.slowdown_ratios()[0], 1.0);
            // Each slot holds its own variant's run.
            for (slot, &variant) in run.variants.iter().zip(&fig.variants) {
                let alone = simulate(run.spec, variant, &scale).expect("single run");
                assert_eq!(slot.cycles, alone.cycles);
            }
        }
    }

    #[test]
    fn plan_runs_equal_standalone_runs_slot_for_slot() {
        let scale = ExperimentScale::at(4096);
        let figures = [
            on("fig5_perf_comparison", &["povray", "mcf"]),
            on("fig8_ablation", &["povray", "mcf"]),
        ];
        let table = CellTable::run(&figures, &scale, 2);
        // Baseline, CRA, Graphene, NoGCT, NoRCC and the one shared Hydra.
        assert_eq!(table.0.len(), 2 * 6);
        for fig in &figures {
            for run in fig.runs(&table).expect("figure runs") {
                let slots = std::iter::once((&run.baseline, TrackerKind::Baseline.into()))
                    .chain(run.variants.iter().zip(fig.variants.iter().copied()));
                for (slot, variant) in slots {
                    let alone = simulate(run.spec, variant, &scale).expect("single run");
                    assert_eq!(slot, &alone, "{}", label(&(run.spec, variant)));
                }
            }
        }
    }

    #[test]
    fn derived_budget_completes_three_windows_on_every_channel() {
        // At S = 4096 one window is 25 K cycles: 3 × 25 K × 8 instructions.
        let scale = ExperimentScale::at(4096);
        assert_eq!(scale.instructions_per_core, 600_000);
        // The compute-bound and the memory-bound end of the registry.
        let fig = on("power_analysis", &["povray", "mcf"]);
        let table = CellTable::run(std::slice::from_ref(&fig), &scale, 2);
        let mut fewest = u64::MAX;
        for run in &fig.runs(&table).expect("figure runs") {
            for result in std::iter::once(&run.baseline).chain(&run.variants) {
                for (ch, c) in result.controllers.iter().enumerate() {
                    assert!(
                        c.window_resets >= ExperimentScale::WINDOWS,
                        "{} channel {ch}: {} windows",
                        run.spec.name,
                        c.window_resets
                    );
                    fewest = fewest.min(c.window_resets);
                }
            }
        }
        // The section and the verdict table report the fewest.
        let (text, verdict) = fig.render(&scale, &table);
        let line = format!("Windows completed: {fewest} (fewest of any run)\n");
        assert!(text.ends_with(&line), "{text}");
        assert_eq!(verdict, format!("power_analysis OK windows={fewest}\n"));
    }

    #[test]
    fn rendered_figures_are_identical_with_one_and_two_workers() {
        let scale = quick_scale();
        let figures = [
            on("fig2_cra_cache", &["gups", "mcf"]),
            on("fig9_gct_size", &["gups", "mcf"]),
            on("rowswap_extension", &["gups", "mcf"]),
        ];
        let one = render_all(&figures, &scale, 1);
        assert_eq!(one, render_all(&figures, &scale, 2));
        assert!(one.contains("=== Figure 9: Hydra slowdown vs GCT size (S=1024) ===\n"));
        assert!(one.contains("\nrowswap_extension n/a windows="));
    }

    #[test]
    fn a_failed_cell_is_reported_by_the_figures_that_need_it() {
        let scale = quick_scale();
        // A T_H of 0 is an invalid Hydra configuration.
        let broken = Figure {
            variants: vec![hydra(0, 0, 32_768, 8_192, BOTH)],
            ..on("fig9_gct_size", &["gups"])
        };
        let figures = [broken, on("rowswap_extension", &["gups"])];
        let table = CellTable::run(&figures, &scale, 1);
        assert!(table.failed());
        let (text, verdict) = figures[0].render(&scale, &table);
        let cell = "gups/hydra(th=0,tg=0,gct=32768)";
        assert!(text.contains(&format!("\nFAILED: {cell}: ")), "{text}");
        assert!(!text.contains("Windows completed"), "{text}");
        let expected = format!("fig9_gct_size FAILED {cell} windows=");
        assert!(verdict.starts_with(&expected), "{verdict}");
        let (text, verdict) = figures[1].render(&scale, &table);
        assert!(
            text.contains("GEOMEAN") && verdict.contains(" n/a "),
            "{text}"
        );
    }

    #[test]
    fn select_keeps_plan_order_and_names_unknown_figures() {
        let names = |figs: Vec<Figure>| figs.iter().map(|f| f.name).collect::<Vec<_>>();
        assert_eq!(select(&[]).expect("all").len(), 9);
        let picked = select(&["fig8_ablation".into(), "fig2_cra_cache".into()]).expect("two");
        assert_eq!(names(picked), ["fig2_cra_cache", "fig8_ablation"]);
        let err = select(&["fig5".into()]).expect_err("unknown");
        assert!(
            err.contains("\"fig5\"") && err.contains("fig5_perf_comparison"),
            "{err}"
        );
    }
}
