//! `hydra_replay`: Hydra at the isca22 geometry, fed a pre-generated
//! system-wide row stream through `engine::ShardedSim::run_parallel`.
//! The stream alternates benign, attack and RCC-thrash segments, so the
//! GCT-only, RCC-hit and RCT paths are loaded in turn. `SystemSim` is not
//! involved: host time goes to the tracker, the activation simulator and
//! the engine.
//!
//! The timed calls run on a one-worker pool. With two workers on a
//! two-core shared host, a run's throughput followed whichever core a
//! neighbour was loading and swung by a third between runs; the two-worker
//! path is still checked against the sequential one on every run, and the
//! traced run reports its parallel efficiency.

use crate::gen::{mixed_stream, RowKind, Stream};
use crate::harness::{secs_since, watchdog, Tracer};
use crate::{stats, CellTiming, Report, RunConfig, Scale, SETUP_REPS};
use hydra_core::{GroupCountTable, RowCountCache, RowCountTable};
use hydra_core::{Hydra, HydraConfig, HydraStats};
use hydra_dram::DramTiming;
use hydra_engine::shard::merge_shards;
use hydra_engine::{MergedRun, ShardedSim, WorkerPool};
use hydra_sim::{run_windowed, ActivationSim, ShadowOracle, StatsSource, WindowSeries};
use hydra_types::clock::MemCycle;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};
use hydra_types::{MemGeometry, RowAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of the timed `run_parallel` calls.
const TIMED_WORKERS: usize = 1;

/// Workers of the parallel-path check and efficiency probe: the host's two
/// cores.
const PARALLEL_WORKERS: usize = 2;

/// Window compression, as in `paper_ipc`: a 400 K-cycle window, so each
/// channel completes a few dozen windows per replay.
const WINDOW_SCALE: u64 = 256;

/// Hydra's threshold at the isca22 design point (`T_H = 250`).
const T_RH: u32 = 500;

fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        // 5 segments × 16 Ki rows × 8 rounds = 655 360 activations. An
        // attack segment spans about three tracking windows of its
        // channel, so where window boundaries fall moves the mitigation
        // count little.
        Scale::Full => (16384, 8),
        // Enough for a few window resets per channel.
        Scale::Tiny => (4096, 1),
    }
}

/// `run_parallel` calls per watchdog cell: about four seconds at full
/// scale, enough for a p80 within each cell.
fn ops_per_cell(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50,
        Scale::Tiny => 3,
    }
}

/// A cell that takes longer than this is counted as one failed operation.
const CELL_LIMIT: Duration = Duration::from_secs(60);

fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE)
}

fn geometry() -> MemGeometry {
    MemGeometry::isca22_baseline()
}

struct Setup {
    stream: Stream,
    sim: ShardedSim,
    pool: WorkerPool,
    gen_s: f64,
}

fn setup(config: &RunConfig) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let (segment, rounds) = sizes(config.scale);
    let stream = mixed_stream(geometry(), config.seed, segment, rounds, false);
    let gen_s = secs_since(start);
    let sim = ShardedSim::isca22_default(geometry())
        .map_err(|e| e.to_string())?
        .with_timing(timing());
    let pool = WorkerPool::new(TIMED_WORKERS);
    Ok((
        Setup {
            stream,
            sim,
            pool,
            gen_s,
        },
        secs_since(start),
    ))
}

/// One `run_parallel` call.
struct Op {
    seconds: f64,
    traced: bool,
    merged: MergedRun,
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new("hydra_replay");
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        match setup(config) {
            Ok((s, secs)) => {
                setups.push(secs);
                kept = Some(s);
            }
            Err(e) => {
                report.ledger.fail(format!("setup: {e}"));
                return report;
            }
        }
    }
    let setup_s = stats::median(&setups);
    let s = kept.expect("at least one setup");
    report.set("setup_s", setup_s);
    report.set(
        "workloads.gen_ns_per_act",
        s.gen_s * 1e9 / s.stream.rows.len() as f64,
    );

    // Cells of a fixed number of calls, each under the watchdog.
    let s = Arc::new(s);
    let per_cell = ops_per_cell(config.scale);
    let mut ops: Vec<Op> = Vec::new();
    let mut tracer = Tracer::new(config.trace);
    'phases: for (traced, budget) in config.phases() {
        let start = Instant::now();
        loop {
            let cell_setup = Arc::clone(&s);
            let outcome = watchdog(CELL_LIMIT, move || {
                let mut spans = Tracer::new(traced);
                let mut cell = Vec::with_capacity(per_cell);
                for _ in 0..per_cell {
                    let t = Instant::now();
                    let merged = spans.span("engine.run_parallel", |_| {
                        cell_setup
                            .sim
                            .run_parallel(&cell_setup.pool, &cell_setup.stream.rows)
                    });
                    let seconds = secs_since(t);
                    cell.push(Op {
                        seconds,
                        traced,
                        merged: merged.map_err(|e| e.to_string())?,
                    });
                }
                Ok::<_, String>((cell, spans))
            })
            .and_then(|r| r);
            match outcome {
                Ok((cell, spans)) => {
                    report.ledger.ok(cell.len() as u64);
                    ops.extend(cell);
                    tracer.absorb(spans);
                    report.first_cell_done();
                }
                Err(e) => {
                    report.ledger.fail(format!("run_parallel cell: {e}"));
                    break 'phases;
                }
            }
            if secs_since(start) >= budget {
                break;
            }
        }
    }
    if ops.is_empty() {
        return report;
    }

    let first = &ops[0].merged;
    for op in &ops[1..] {
        report.ledger.check(op.merged == *first, || {
            "run_parallel is not deterministic".into()
        });
    }
    let worst = check(&mut report, &s, first);
    let timed: Vec<&Op> = ops.iter().filter(|o| o.traced == config.trace).collect();
    let acts = first.report.demand_acts;
    let cells: Vec<CellTiming> = timed
        .chunks(per_cell)
        .map(|cell| {
            CellTiming::summed(
                cell.iter().map(|o| o.seconds).collect(),
                acts * cell.len() as u64,
                acts * timing().trc * cell.len() as u64,
            )
        })
        .collect();
    report.set_timing(&cells, "run_parallel calls");
    let r = &first.report;
    let demand = r.demand_acts as f64;
    report.set("mitigations_per_mact", r.mitigations as f64 / demand * 1e6);
    report.set(
        "dram_overhead_pct",
        (r.mitigation_acts + r.side_reads + r.side_writes) as f64 / demand * 100.0,
    );
    report.set("max_unmitigated_frac", worst as f64 / f64::from(T_RH));
    report.set_path_shares(&first.stats);
    report.set("sim.window_resets", r.window_resets as f64);

    if config.trace {
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
        layers(&mut report, &s, first, &mut tracer);
    }
    report.spans = tracer.summary();
    report
}

/// A Hydra instance behind the shadow oracle that still reports Hydra's
/// counters, so `run_windowed` can snapshot it at every window boundary.
struct Checked(ShadowOracle<Hydra>);

impl ActivationTracker for Checked {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        self.0.on_activation(row, now, kind)
    }

    fn reset_window(&mut self, now: MemCycle) {
        self.0.reset_window(now);
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn sram_bytes(&self) -> u64 {
        self.0.sram_bytes()
    }
}

impl StatsSource for Checked {
    fn cumulative_stats(&self) -> HydraStats {
        self.0.inner().stats()
    }
}

fn channel_config(ch: u8) -> HydraConfig {
    HydraConfig::isca22_default(geometry(), ch).expect("isca22 default config is valid")
}

/// The correctness checks; returns the worst unmitigated count the shadow
/// oracle saw.
fn check(report: &mut Report, s: &Setup, first: &MergedRun) -> u64 {
    match s.sim.run_sequential(&s.stream.rows) {
        Ok(seq) => report.ledger.check(seq == *first, || {
            "run_parallel and run_sequential disagree (stats or mitigated rows)".into()
        }),
        Err(e) => report.ledger.fail(format!("run_sequential: {e}")),
    }
    let pool = WorkerPool::new(PARALLEL_WORKERS);
    match s.sim.run_parallel(&pool, &s.stream.rows) {
        Ok(par) => report.ledger.check(par == *first, || {
            format!("run_parallel with {PARALLEL_WORKERS} workers disagrees with one worker")
        }),
        Err(e) => report.ledger.fail(format!("run_parallel: {e}")),
    }
    let mut worst = 0;
    for (ch, rows) in s
        .sim
        .partition_by_channel(&s.stream.rows)
        .into_iter()
        .enumerate()
    {
        let hydra = Hydra::new(channel_config(ch as u8)).expect("config validated by ShardedSim");
        let mut sim = ActivationSim::new(geometry(), Checked(ShadowOracle::new(hydra, T_RH)))
            .with_timing(timing());
        let mut series = WindowSeries::new();
        run_windowed(&mut sim, rows, &mut series);
        let stats = sim.tracker().cumulative_stats();
        report.ledger.check(series.total() == stats, || {
            format!("channel {ch}: per-window stat deltas do not sum to the cumulative stats")
        });
        report.ledger.check(stats == first.shards[ch].stats, || {
            format!("channel {ch}: oracle-wrapped replay disagrees with the engine shard")
        });
        let oracle = sim.tracker().0.report();
        report.ledger.check(oracle.violations_total == 0, || {
            format!(
                "channel {ch}: {} shadow-oracle violations",
                oracle.violations_total
            )
        });
        worst = worst.max(oracle.worst_unmitigated);
    }
    worst
}

/// Per-layer probes of the traced run, all outside the timed loop.
fn layers(report: &mut Report, s: &Setup, first: &MergedRun, tracer: &mut Tracer) {
    let rows = &s.stream.rows;
    let acts = rows.len() as f64;
    let pool = WorkerPool::new(PARALLEL_WORKERS);
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let _ = tracer.span("engine.run_sequential", |_| s.sim.run_sequential(rows));
        seq_s.push(secs_since(t));
        let t = Instant::now();
        let _ = tracer.span("engine.run_parallel_2", |_| s.sim.run_parallel(&pool, rows));
        par_s.push(secs_since(t));
    }
    report.set(
        "engine.parallel_efficiency",
        stats::parallel_efficiency(
            stats::median(&seq_s),
            stats::median(&par_s),
            PARALLEL_WORKERS,
        ),
    );
    let shard_acts: Vec<f64> = first.shards.iter().map(|sh| sh.shard_acts as f64).collect();
    report.set(
        "engine.shard_imbalance",
        shard_acts.iter().copied().fold(0.0, f64::max) / stats::mean(&shard_acts),
    );
    let mut merge_us = Vec::new();
    for _ in 0..5 {
        let shards = first.shards.clone();
        let t = Instant::now();
        std::hint::black_box(tracer.span("engine.merge_shards", |_| merge_shards(shards)));
        merge_us.push(secs_since(t) * 1e6);
    }
    report.set("engine.merge_us", stats::median(&merge_us));

    // The simulator with and without the shadow oracle, per channel.
    let partition = s.sim.partition_by_channel(rows);
    let (mut plain_s, mut oracle_s) = (0.0, 0.0);
    for (ch, sub) in partition.iter().enumerate() {
        let hydra = Hydra::new(channel_config(ch as u8)).expect("valid config");
        let mut sim = ActivationSim::new(geometry(), hydra).with_timing(timing());
        let t = Instant::now();
        tracer.span("sim.activation_replay", |_| sim.run(sub.iter().copied()));
        plain_s += secs_since(t);
        let hydra = Hydra::new(channel_config(ch as u8)).expect("valid config");
        let mut sim =
            ActivationSim::new(geometry(), ShadowOracle::new(hydra, T_RH)).with_timing(timing());
        let t = Instant::now();
        tracer.span("sim.oracle_replay", |_| sim.run(sub.iter().copied()));
        oracle_s += secs_since(t);
    }
    report.set("sim.replay_ns_per_act", plain_s * 1e9 / acts);
    report.set("sim.oracle_ns_per_act", (oracle_s - plain_s) * 1e9 / acts);

    core_layers(report, &s.stream, tracer);
}

/// Bare Hydra and its L0 structures driven by the same rows, without the
/// simulator: no mitigation feedback, a window reset every window's worth
/// of activations per channel.
fn core_layers(report: &mut Report, stream: &Stream, tracer: &mut Tracer) {
    let geometry = geometry();
    let window_acts = (timing().refresh_window / timing().trc).max(1);
    let channels = usize::from(geometry.channels());
    let mut trackers: Vec<Hydra> = (0..channels)
        .map(|ch| Hydra::new(channel_config(ch as u8)).expect("valid config"))
        .collect();
    let mut since_reset = vec![0u64; channels];
    let mut kind_ns = [0u64; 3];
    let mut kind_acts = [0u64; 3];
    let (mut reset_ns, mut resets) = (0u64, 0u64);
    for (rows, kinds) in stream
        .rows
        .chunks(stream.segment)
        .zip(stream.kinds.chunks(stream.segment))
    {
        let k = kinds[0] as usize;
        let t = Instant::now();
        tracer.span("core.on_activation", |_| {
            for row in rows {
                let ch = usize::from(row.channel);
                since_reset[ch] += 1;
                if since_reset[ch] == window_acts {
                    since_reset[ch] = 0;
                    let r = Instant::now();
                    trackers[ch].reset_window(0);
                    reset_ns += r.elapsed().as_nanos() as u64;
                    resets += 1;
                }
                std::hint::black_box(trackers[ch].on_activation(*row, 0, ActivationKind::Demand));
            }
        });
        kind_ns[k] += t.elapsed().as_nanos() as u64;
        kind_acts[k] += rows.len() as u64;
    }
    // Window resets happened inside the timed blocks; charge them to
    // `reset_window`, spread over kinds by activation share.
    let total_acts: u64 = kind_acts.iter().sum();
    for kind in [RowKind::Benign, RowKind::Attack, RowKind::Thrash] {
        let k = kind as usize;
        let share = reset_ns as f64 * kind_acts[k] as f64 / total_acts.max(1) as f64;
        report.set(
            &format!("core.on_activation_ns.{}", kind.label()),
            (kind_ns[k] as f64 - share) / kind_acts[k].max(1) as f64,
        );
    }
    report.set(
        "core.reset_window_us",
        reset_ns as f64 / 1e3 / resets.max(1) as f64,
    );

    // L0 structures: the group count table, the row count cache and the
    // row count table, each driven by channel 0's rows.
    let config = channel_config(0);
    let slots: Vec<u64> = stream
        .rows
        .iter()
        .filter(|r| r.channel == 0)
        .map(|r| config.indexer.slot_of_row(geometry.channel_row_index(*r)))
        .collect();
    let n = slots.len().max(1) as f64;
    let rows_per_group = config.rows_per_group();
    let mut gct = GroupCountTable::new(config.gct_entries, config.t_g);
    let t = Instant::now();
    tracer.span("core.gct", |_| {
        for slot in &slots {
            std::hint::black_box(gct.increment((slot / rows_per_group) as usize));
        }
    });
    report.set("core.gct_ns", t.elapsed().as_nanos() as f64 / n);
    let mut rcc = RowCountCache::new(config.rcc_entries, config.rcc_ways);
    let t = Instant::now();
    tracer.span("core.rcc", |_| {
        for &slot in &slots {
            match rcc.lookup_mut(slot) {
                Some(count) => *count += 1,
                None => {
                    std::hint::black_box(rcc.insert(slot, 1));
                }
            }
        }
    });
    report.set("core.rcc_ns", t.elapsed().as_nanos() as f64 / n);
    let mut rct = RowCountTable::new(geometry, 0);
    let t = Instant::now();
    tracer.span("core.rct", |_| {
        for &slot in &slots {
            let v = rct.read(slot);
            rct.write(slot, (v + 1) % 256);
        }
    });
    report.set("core.rct_ns", t.elapsed().as_nanos() as f64 / n);
}
