//! `paper_ipc`: the paper's IPC metric. Eight cores in rate mode run a
//! Table-3 program through `SystemSim`, once untracked and once under
//! scaled Hydra, for `mcf` and `parest`. Host time goes mostly to the
//! cycle-level simulator and DRAM model, little to the tracker.

use crate::harness::{secs_since, watchdog, Tracer};
use crate::{stats, CellTiming, Report, RunConfig, Scale, SETUP_REPS};
use hydra_bench::{scaled_hydra, ExperimentScale};
use hydra_core::config::defaults;
use hydra_core::{Hydra, HydraStats};
use hydra_dram::channel::ChannelStats;
use hydra_sim::controller::ControllerStats;
use hydra_sim::{OracleReport, ShadowOracle, SystemSim};
use hydra_types::clock::MemCycle;
use hydra_types::tracker::{ActivationKind, ActivationTracker, NullTracker, TrackerResponse};
use hydra_types::RowAddr;
use hydra_workloads::registry;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Programs run: `parest` has the most rows past 250 activations in
/// Table 3, `mcf` is the most memory-intensive.
const PROGRAMS: [&str; 2] = ["mcf", "parest"];

/// The paper's threshold: Hydra's `T_H = 250` is `T_RH / 2`.
const T_RH: u32 = 2 * defaults::T_H;

/// A single `SystemSim::run` that takes longer than this is counted as a
/// failed operation (a full-scale run takes about two seconds).
const OP_LIMIT: Duration = Duration::from_secs(120);

fn scale(config: &RunConfig) -> ExperimentScale {
    match config.scale {
        // 2 M instructions per core run 1.4 M memory cycles: three and a
        // half 400 K-cycle tracking windows at S = 256.
        Scale::Full => ExperimentScale {
            scale: 256,
            instructions_per_core: 2_000_000,
            seed: config.seed,
        },
        // Short windows and small tables, so even a tiny run spills groups
        // and pays for tracking.
        Scale::Tiny => ExperimentScale {
            scale: 256 * 16,
            instructions_per_core: 100_000,
            seed: config.seed,
        },
    }
}

/// Times the wrapped tracker's `on_activation` calls when enabled.
struct Timed<T> {
    inner: T,
    enabled: bool,
    calls: u64,
    nanos: u64,
}

impl<T: ActivationTracker> ActivationTracker for Timed<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        if !self.enabled {
            return self.inner.on_activation(row, now, kind);
        }
        let start = Instant::now();
        let response = self.inner.on_activation(row, now, kind);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        response
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.inner.reset_window(now);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes()
    }
}

type Handle<T> = Rc<RefCell<ShadowOracle<Timed<T>>>>;

/// Hands a channel's oracle-wrapped tracker to the controller while the
/// benchmark keeps a handle to read its statistics after the run.
struct Shared<T>(Handle<T>);

impl<T: ActivationTracker> ActivationTracker for Shared<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.0.borrow_mut().on_activation(row, now, kind)
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.0.borrow_mut().reset_window(now);
    }

    fn name(&self) -> &str {
        "shared"
    }

    fn sram_bytes(&self) -> u64 {
        self.0.borrow().sram_bytes()
    }
}

/// Hydra's counters, where the tracker has them.
trait MaybeStats {
    fn hydra_stats(&self) -> Option<HydraStats>;
}

impl MaybeStats for Hydra {
    fn hydra_stats(&self) -> Option<HydraStats> {
        Some(self.stats())
    }
}

impl MaybeStats for NullTracker {
    fn hydra_stats(&self) -> Option<HydraStats> {
        None
    }
}

/// What one `SystemSim::run` produced.
#[derive(Debug)]
struct OpOut {
    program: &'static str,
    hydra: bool,
    cycles: u64,
    instructions: u64,
    controllers: Vec<ControllerStats>,
    dram: Vec<ChannelStats>,
    oracle: OracleReport,
    stats: HydraStats,
    tracker_calls: u64,
    tracker_nanos: u64,
    run_s: f64,
    traced: bool,
    spans: Tracer,
}

fn trace_seed(seed: u64, program: usize, core: usize) -> u64 {
    seed ^ ((program as u64 + 1) << 32) ^ (core as u64).wrapping_mul(0x9E37_79B9)
}

fn build<T: ActivationTracker + MaybeStats + 'static>(
    program: usize,
    scale: &ExperimentScale,
    traced: bool,
    mut make: impl FnMut(u8) -> Result<T, String>,
) -> Result<(SystemSim, Vec<Handle<T>>), String> {
    let mut config = scale.system_config();
    config.instructions_per_core = scale.instructions_per_core;
    let geometry = config.geometry;
    let spec = registry::by_name(PROGRAMS[program]).ok_or("program not registered")?;
    let handles: Vec<Handle<T>> = (0..geometry.channels())
        .map(|ch| {
            let timed = Timed {
                inner: make(ch)?,
                enabled: traced,
                calls: 0,
                nanos: 0,
            };
            Ok(Rc::new(RefCell::new(ShadowOracle::new(timed, T_RH))))
        })
        .collect::<Result<_, String>>()?;
    let seed = scale.seed;
    let sim = SystemSim::new(config, |core| {
        spec.build(geometry, scale.scale, trace_seed(seed, program, core))
    })
    .with_trackers(|ch| Box::new(Shared(Rc::clone(&handles[usize::from(ch)]))));
    Ok((sim, handles))
}

fn hydra_for(scale: &ExperimentScale) -> impl FnMut(u8) -> Result<Hydra, String> + '_ {
    move |ch| {
        let geometry = scale.system_config().geometry;
        scaled_hydra(
            geometry,
            ch,
            scale,
            defaults::T_H,
            defaults::T_G,
            defaults::GCT_ENTRIES_TOTAL,
            defaults::RCC_ENTRIES_TOTAL,
            true,
            true,
        )
        .map_err(|e| e.to_string())
    }
}

fn run_built<T: ActivationTracker + MaybeStats>(
    program: usize,
    hydra: bool,
    mut spans: Tracer,
    mut sim: SystemSim,
    handles: Vec<Handle<T>>,
) -> OpOut {
    let traced = spans.enabled();
    let name = if hydra {
        "sim.run.hydra"
    } else {
        "sim.run.baseline"
    };
    let start = Instant::now();
    let result = spans.span(name, |_| sim.run());
    let run_s = secs_since(start);
    let channels = handles.len() as u8;
    let dram = (0..channels)
        .map(|ch| sim.controller(ch).dram().stats())
        .collect();
    let mut oracle = OracleReport::default();
    let mut stats = HydraStats::default();
    let (mut calls, mut nanos) = (0, 0);
    for handle in &handles {
        let h = handle.borrow();
        let r = h.report();
        oracle.activations += r.activations;
        oracle.violations_total += r.violations_total;
        oracle.worst_unmitigated = oracle.worst_unmitigated.max(r.worst_unmitigated);
        oracle.mitigations += r.mitigations;
        if let Some(s) = h.inner().inner.hydra_stats() {
            stats.accumulate(&s);
        }
        calls += h.inner().calls;
        nanos += h.inner().nanos;
    }
    OpOut {
        program: PROGRAMS[program],
        hydra,
        cycles: result.cycles,
        instructions: result.instructions,
        controllers: result.controllers,
        dram,
        oracle,
        stats,
        tracker_calls: calls,
        tracker_nanos: nanos,
        run_s,
        traced,
        spans,
    }
}

fn op(program: usize, hydra: bool, scale: ExperimentScale, traced: bool) -> Result<OpOut, String> {
    let mut spans = Tracer::new(traced);
    if hydra {
        let (sim, handles) = spans.span("sim.build", |_| {
            build(program, &scale, traced, hydra_for(&scale))
        })?;
        Ok(run_built(program, true, spans, sim, handles))
    } else {
        let (sim, handles) = spans.span("sim.build", |_| {
            build(program, &scale, traced, |_| Ok(NullTracker))
        })?;
        Ok(run_built(program, false, spans, sim, handles))
    }
}

/// Builds every simulator one set of runs needs, without running them.
fn setup_once(scale: &ExperimentScale) -> Result<f64, String> {
    let start = Instant::now();
    for program in 0..PROGRAMS.len() {
        let base = build(program, scale, false, |_| Ok(NullTracker))?;
        let tracked = build(program, scale, false, hydra_for(scale))?;
        std::hint::black_box((&base.1, &tracked.1));
    }
    Ok(secs_since(start))
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new("paper_ipc");
    let scale = scale(config);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match setup_once(&scale) {
            Ok(s) => setups.push(s),
            Err(e) => {
                report.ledger.fail(format!("setup: {e}"));
                return report;
            }
        }
    }
    report.set("setup_s", stats::median(&setups));

    // Whole sets of (program × tracker), until the time is up. A traced
    // run spends its first half untraced and its second half traced.
    let plan: Vec<(usize, bool)> = (0..PROGRAMS.len())
        .flat_map(|p| [(p, false), (p, true)])
        .collect();
    let mut outs: Vec<OpOut> = Vec::new();
    let mut tracer = Tracer::new(config.trace);
    for (traced, budget) in config.phases() {
        let start = Instant::now();
        'sets: loop {
            for &(program, hydra) in &plan {
                let outcome =
                    watchdog(OP_LIMIT, move || op(program, hydra, scale, traced)).and_then(|r| r);
                match outcome {
                    Ok(mut out) => {
                        report.ledger.ok(1);
                        tracer.absorb(std::mem::replace(&mut out.spans, Tracer::new(false)));
                        outs.push(out);
                        if outs.len() == plan.len() {
                            report.first_cell_done();
                        }
                    }
                    Err(e) => {
                        report
                            .ledger
                            .fail(format!("{} run: {e}", PROGRAMS[program]));
                        break 'sets;
                    }
                }
            }
            if secs_since(start) >= budget {
                break;
            }
        }
    }
    if outs.len() < plan.len() {
        return report;
    }
    check(&mut report, &outs, &scale, config);
    measure(&mut report, &outs, config);
    report.spans = tracer.summary();
    report
}

fn check(report: &mut Report, outs: &[OpOut], scale: &ExperimentScale, config: &RunConfig) {
    // Rate mode stops a core once its budget is met, but the core model
    // retires up to one memory cycle's fetch (`fetch_width ×
    // cpu_per_mem_cycle` instructions) without clamping to the budget, so
    // each core may overshoot by less than that.
    let system = scale.system_config();
    let cores = system.cores as u64;
    let budget = cores * scale.instructions_per_core;
    let slack = cores * u64::from(system.fetch_width * system.cpu_per_mem_cycle - 1);
    for out in outs {
        report.ledger.check(
            (budget..=budget + slack).contains(&out.instructions),
            || {
                format!(
                    "{} retired {} instructions, expected {budget} to {}",
                    out.program,
                    out.instructions,
                    budget + slack
                )
            },
        );
        if out.hydra {
            report.ledger.check(out.oracle.violations_total == 0, || {
                format!(
                    "{}: {} oracle violations under Hydra",
                    out.program, out.oracle.violations_total
                )
            });
        }
        // The same (program, tracker) must simulate identically every time.
        let first = outs
            .iter()
            .find(|o| o.program == out.program && o.hydra == out.hydra)
            .expect("out itself matches");
        report.ledger.check(
            first.cycles == out.cycles && first.stats == out.stats,
            || format!("{} run is not deterministic", out.program),
        );
    }
    if config.scale == Scale::Full {
        let windows = min_windows(outs);
        report.ledger.check(windows >= 2, || {
            format!("only {windows} tracking windows completed; need 2")
        });
    }
}

fn min_windows(outs: &[OpOut]) -> u64 {
    outs.iter()
        .flat_map(|o| o.controllers.iter().map(|c| c.window_resets))
        .min()
        .unwrap_or(0)
}

fn measure(report: &mut Report, outs: &[OpOut], config: &RunConfig) {
    // Untraced ops carry the end-to-end timing; a traced run reports
    // per-layer numbers from its traced half.
    let timed: Vec<&OpOut> = outs.iter().filter(|o| o.traced == config.trace).collect();
    let cells: Vec<CellTiming> = timed
        .chunks(2 * PROGRAMS.len())
        .map(|set| {
            CellTiming::summed(
                set.iter().map(|o| o.run_s).collect(),
                set.iter()
                    .flat_map(|o| o.controllers.iter().map(|c| c.demand_acts))
                    .sum(),
                set.iter().map(|o| o.cycles).sum(),
            )
        })
        .collect();
    report.set_timing(&cells, "SystemSim runs");

    // Simulated metrics come from the first set, which every later set
    // repeats exactly (checked above).
    let set = &outs[..2 * PROGRAMS.len()];
    let pairs: Vec<(u64, u64)> = PROGRAMS
        .iter()
        .map(|p| {
            let cycles = |hydra: bool| {
                set.iter()
                    .find(|o| o.program == *p && o.hydra == hydra)
                    .map_or(1, |o| o.cycles)
            };
            (cycles(false), cycles(true))
        })
        .collect();
    let slowdown = stats::geomean_slowdown_pct(&pairs);
    let hydra: Vec<&OpOut> = set.iter().filter(|o| o.hydra).collect();
    let sum = |f: &dyn Fn(&ControllerStats) -> u64| -> u64 {
        hydra.iter().flat_map(|o| o.controllers.iter().map(f)).sum()
    };
    let demand = sum(&|c| c.demand_acts);
    let mitigation_acts = sum(&|c| c.mitigation_acts);
    let side_acts = sum(&|c| c.side_acts);
    let mut stats_sum = HydraStats::default();
    for o in &hydra {
        stats_sum.accumulate(&o.stats);
    }
    let worst = hydra
        .iter()
        .map(|o| o.oracle.worst_unmitigated)
        .max()
        .unwrap_or(0);
    report.set(
        "mitigations_per_mact",
        stats_sum.mitigations as f64 / demand as f64 * 1e6,
    );
    report.set(
        "dram_overhead_pct",
        (mitigation_acts + side_acts) as f64 / demand as f64 * 100.0,
    );
    report.set("max_unmitigated_frac", worst as f64 / f64::from(T_RH));
    report.set("sim.ipc_slowdown_pct", slowdown);
    report.note(format!(
        "ipc_slowdown_pct = {slowdown:.3} % (geomean over {PROGRAMS:?}; paper Fig. 5: 0.7 % at T_RH = 500; \
         the model is otherwise unvalidated)"
    ));
    for ((base, tracked), p) in pairs.iter().zip(PROGRAMS) {
        report.note(format!(
            "{p}: baseline {base} cycles, Hydra {tracked} cycles (+{:.2} %)",
            (*tracked as f64 / *base as f64 - 1.0) * 100.0
        ));
    }
    report.note(format!(
        "tracking windows completed per channel: at least {}",
        min_windows(outs)
    ));
    report.set_path_shares(&stats_sum);

    report.set("sim.window_resets", min_windows(outs) as f64);
    report.set("sim.mitigation_acts", mitigation_acts as f64);
    report.set("sim.side_acts", side_acts as f64);
    let reads: u64 = sum(&|c| c.reads_done);
    let latency: u64 = sum(&|c| c.read_latency_sum);
    report.set(
        "sim.avg_read_latency_cycles",
        latency as f64 / reads.max(1) as f64,
    );
    let dram_acts: u64 = set
        .iter()
        .flat_map(|o| o.dram.iter().map(|d| d.activations))
        .sum();
    let accesses: u64 = set
        .iter()
        .flat_map(|o| o.dram.iter().map(|d| d.reads + d.writes))
        .sum();
    report.set(
        "dram.row_hit_rate",
        1.0 - (dram_acts as f64 / accesses.max(1) as f64).min(1.0),
    );
    let busy: u64 = set
        .iter()
        .flat_map(|o| o.dram.iter().map(|d| d.bus_busy_cycles))
        .sum();
    let channel_cycles: u64 = set.iter().map(|o| o.cycles * o.dram.len() as u64).sum();
    report.set(
        "dram.bus_busy_frac",
        busy as f64 / channel_cycles.max(1) as f64,
    );

    if config.trace {
        for hydra in [false, true] {
            let (ns, cyc) = timed
                .iter()
                .filter(|o| o.hydra == hydra)
                .fold((0.0, 0u64), |(t, c), o| (t + o.run_s * 1e9, c + o.cycles));
            let name = if hydra {
                "sim.system_ns_per_cycle.hydra"
            } else {
                "sim.system_ns_per_cycle.baseline"
            };
            report.set(name, ns / cyc.max(1) as f64);
        }
        let (calls, nanos) = timed
            .iter()
            .filter(|o| o.hydra)
            .fold((0u64, 0u64), |(c, n), o| {
                (c + o.tracker_calls, n + o.tracker_nanos)
            });
        report.set(
            "core.on_activation_ns.benign",
            nanos as f64 / calls.max(1) as f64,
        );
        let untraced: Vec<&OpOut> = outs.iter().filter(|o| !o.traced).collect();
        report.set("trace_overhead_pct", overhead_pct(&untraced, &timed));
    }
}

/// Mean traced op time over mean untraced op time for the same ops, as a
/// percentage above 100.
fn overhead_pct(untraced: &[&OpOut], traced: &[&OpOut]) -> f64 {
    let mean = |ops: &[&OpOut], hydra: bool| {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.hydra == hydra)
            .map(|o| o.run_s)
            .collect();
        stats::mean(&v)
    };
    let base = mean(untraced, false) + mean(untraced, true);
    let with = mean(traced, false) + mean(traced, true);
    (with / base - 1.0) * 100.0
}
