//! `arena_race`: every tracker on the arena roster, built by
//! `build_tracker` at `T_RH = 500`, wrapped in the shadow oracle and
//! replayed by `ActivationSim` over one benign + attack + thrash stream on
//! the tiny geometry. Hydra is one ninth of the work, so Hydra-only
//! changes barely move this workload while changes to the arena's tracker
//! plumbing do.

use crate::gen::{mixed_stream, Stream};
use crate::harness::{secs_since, watchdog, Tracer};
use crate::{stats, CellTiming, Report, RunConfig, Scale, SETUP_REPS};
use hydra_arena::{
    build_tracker, hydra_config_for_threshold, roster_names, ArenaAdapter, BoxedTracker,
    HydraTracker,
};
use hydra_core::Hydra;
use hydra_dram::DramTiming;
use hydra_sim::{ActivationSim, ActivationSimReport, OracleReport, ShadowOracle};
use hydra_types::MemGeometry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's threshold.
const T_RH: u32 = 500;

/// Window compression of the arena leaderboard.
const WINDOW_SCALE: u64 = 1000;

/// A cell (nine replays) that takes longer than this is counted as one
/// failed operation. A full-scale cell takes tens of milliseconds.
const CELL_LIMIT: Duration = Duration::from_secs(60);

fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        // 5 segments × 2 Ki rows × 3 rounds = 30 720 activations.
        Scale::Full => (2048, 3),
        Scale::Tiny => (128, 1),
    }
}

fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE)
}

type Contender = ShadowOracle<ArenaAdapter<BoxedTracker>>;

fn build_all(seed: u64) -> Result<Vec<Contender>, String> {
    let window_acts = timing().max_activations_per_window();
    roster_names()
        .iter()
        .map(|name| {
            let tracker = build_tracker(name, MemGeometry::tiny(), 0, T_RH, seed, window_acts)
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(ShadowOracle::new(ArenaAdapter::new(tracker), T_RH))
        })
        .collect()
}

/// One tracker's replay.
#[derive(Debug, Clone)]
struct Op {
    tracker: &'static str,
    seconds: f64,
    traced: bool,
    report: ActivationSimReport,
    oracle: OracleReport,
}

fn cell(rows: &Stream, seed: u64, traced: bool, tracer: &mut Tracer) -> Result<Vec<Op>, String> {
    let contenders = tracer.span("arena.build_tracker", |_| build_all(seed))?;
    let mut ops = Vec::with_capacity(contenders.len());
    for (contender, name) in contenders.into_iter().zip(roster_names()) {
        let mut sim = ActivationSim::new(MemGeometry::tiny(), contender).with_timing(timing());
        let t = Instant::now();
        let report = tracer.span("sim.replay", |_| sim.run(rows.rows.iter().copied()));
        let seconds = secs_since(t);
        ops.push(Op {
            tracker: name,
            seconds,
            traced,
            report,
            oracle: sim.tracker().report(),
        });
    }
    Ok(ops)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new("arena_race");
    let (segment, rounds) = sizes(config.scale);
    let mut setups = Vec::new();
    let mut gen_ns = 0.0;
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = mixed_stream(MemGeometry::tiny(), config.seed, segment, rounds, true);
        gen_ns = secs_since(t) * 1e9 / s.rows.len() as f64;
        if let Err(e) = build_all(config.seed) {
            report.ledger.fail(format!("setup: {e}"));
            return report;
        }
        setups.push(secs_since(t));
        stream = Some(s);
    }
    report.set("setup_s", stats::median(&setups));
    report.set("workloads.gen_ns_per_act", gen_ns);
    let stream = Arc::new(stream.expect("at least one setup"));

    let mut ops: Vec<Op> = Vec::new();
    let mut tracer = Tracer::new(config.trace);
    'phases: for (traced, budget) in config.phases() {
        let start = Instant::now();
        loop {
            let rows = Arc::clone(&stream);
            let seed = config.seed;
            let outcome = watchdog(CELL_LIMIT, move || {
                let mut tracer = Tracer::new(traced);
                cell(&rows, seed, traced, &mut tracer).map(|ops| (ops, tracer))
            })
            .and_then(|r| r);
            match outcome {
                Ok((cell_ops, cell_tracer)) => {
                    report.ledger.ok(cell_ops.len() as u64);
                    ops.extend(cell_ops);
                    tracer.absorb(cell_tracer);
                    report.first_cell_done();
                }
                Err(e) => {
                    report.ledger.fail(format!("arena cell: {e}"));
                    break 'phases;
                }
            }
            if secs_since(start) >= budget {
                break;
            }
        }
    }
    let n = roster_names().len();
    if ops.len() < n {
        return report;
    }
    let first: Vec<Op> = ops[..n].to_vec();
    for (i, op) in ops.iter().enumerate() {
        let reference = &first[i % n];
        report.ledger.check(
            op.report == reference.report && op.oracle == reference.oracle,
            || format!("{} replay is not deterministic", op.tracker),
        );
    }
    for op in &first {
        report.ledger.check(op.oracle.violations_total == 0, || {
            format!(
                "{}: {} shadow-oracle violations",
                op.tracker, op.oracle.violations_total
            )
        });
    }

    let timed: Vec<&Op> = ops.iter().filter(|o| o.traced == config.trace).collect();
    let cells: Vec<CellTiming> = timed
        .chunks(n)
        .map(|cell| {
            let acts: u64 = cell.iter().map(|o| o.report.demand_acts).sum();
            CellTiming::summed(
                cell.iter().map(|o| o.seconds).collect(),
                acts,
                acts * timing().trc,
            )
        })
        .collect();
    report.set_timing(&cells, "tracker replays");
    let mut total = ActivationSimReport::default();
    for op in &first {
        total.merge(&op.report);
    }
    let demand = total.demand_acts as f64;
    report.set(
        "mitigations_per_mact",
        total.mitigations as f64 / demand * 1e6,
    );
    report.set(
        "dram_overhead_pct",
        (total.mitigation_acts + total.side_reads + total.side_writes) as f64 / demand * 100.0,
    );
    let worst = first
        .iter()
        .map(|o| o.oracle.worst_unmitigated)
        .max()
        .unwrap_or(0);
    report.set("max_unmitigated_frac", worst as f64 / f64::from(T_RH));
    for op in &first {
        report.note(format!(
            "{:<11} mitigations {:>6}  worst unmitigated {:>4} / {T_RH}",
            op.tracker, op.report.mitigations, op.oracle.worst_unmitigated
        ));
    }

    if config.trace {
        for (i, name) in roster_names().iter().enumerate() {
            let per_act: Vec<f64> = timed
                .iter()
                .skip(i)
                .step_by(n)
                .map(|o| o.seconds * 1e9 / o.report.demand_acts as f64)
                .collect();
            report.set(&format!("arena.{name}.ns_per_act"), stats::median(&per_act));
            report.set(
                &format!("arena.{name}.unmitigated_frac"),
                first[i].oracle.worst_unmitigated as f64 / f64::from(T_RH),
            );
        }
        let untraced: Vec<f64> = ops
            .iter()
            .filter(|o| !o.traced)
            .map(|o| o.seconds)
            .collect();
        let traced: Vec<f64> = timed.iter().map(|o| o.seconds).collect();
        report.set(
            "trace_overhead_pct",
            (stats::mean(&traced) / stats::mean(&untraced) - 1.0) * 100.0,
        );
        hydra_paths(&mut report, &stream, &mut tracer);
    }
    report.spans = tracer.summary();
    report
}

/// Hydra three ways over the same stream: concrete, through the arena's
/// `ArenaAdapter`, and concrete behind the shadow oracle. Interleaved
/// repetitions; medians.
fn hydra_paths(report: &mut Report, stream: &Stream, tracer: &mut Tracer) {
    let config = hydra_config_for_threshold(MemGeometry::tiny(), 0, T_RH)
        .expect("the roster's Hydra config is valid");
    let rows = &stream.rows;
    let acts = rows.len() as f64;
    let (mut concrete, mut adapted, mut oracle) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = None;
    for _ in 0..5 {
        let hydra = Hydra::new(config.clone()).expect("valid config");
        let mut sim = ActivationSim::new(MemGeometry::tiny(), hydra).with_timing(timing());
        let t = Instant::now();
        tracer.span("sim.replay_concrete", |_| sim.run(rows.iter().copied()));
        concrete.push(secs_since(t) * 1e9 / acts);
        stats = Some(sim.tracker().stats());

        let adapter = ArenaAdapter::new(HydraTracker::new(config.clone()).expect("valid config"));
        let mut sim = ActivationSim::new(MemGeometry::tiny(), adapter).with_timing(timing());
        let t = Instant::now();
        tracer.span("sim.replay_adapter", |_| sim.run(rows.iter().copied()));
        adapted.push(secs_since(t) * 1e9 / acts);

        let hydra = Hydra::new(config.clone()).expect("valid config");
        let mut sim = ActivationSim::new(MemGeometry::tiny(), ShadowOracle::new(hydra, T_RH))
            .with_timing(timing());
        let t = Instant::now();
        tracer.span("sim.replay_oracle", |_| sim.run(rows.iter().copied()));
        oracle.push(secs_since(t) * 1e9 / acts);
    }
    let base = stats::median(&concrete);
    report.set("sim.replay_ns_per_act", base);
    report.set("arena.adapter_ns_per_act", stats::median(&adapted) - base);
    report.set("sim.oracle_ns_per_act", stats::median(&oracle) - base);
    if let Some(s) = stats {
        report.set_path_shares(&s);
    }
}
