//! The full-system simulator: cores × channels × trackers.

use crate::config::SystemConfig;
use crate::controller::{CompletedRead, ControllerStats, MemController};
use crate::core::CoreModel;
use crate::stats::SimResult;
use hydra_types::clock::MemCycle;
use hydra_types::tracker::{ActivationTracker, NullTracker};
use hydra_workloads::trace::TraceSource;

/// Consecutive tracking windows in which no unfinished core retires an
/// instruction before [`SystemSim::run`] declares a deadlock.
const STALL_WINDOWS: u32 = 8;

/// A configured full-system simulation.
///
/// Build with a per-core trace factory, optionally attach per-channel
/// trackers with [`SystemSim::with_trackers`], then [`SystemSim::run`]. All
/// cores run their trace in rate mode (Sec. 3.2): the run ends when every
/// core has retired its instruction budget.
pub struct SystemSim {
    config: SystemConfig,
    cores: Vec<CoreModel>,
    controllers: Vec<MemController>,
    /// Read completions of the controller being ticked, reused every cycle.
    completions: Vec<CompletedRead>,
}

impl SystemSim {
    /// Creates a simulation where core `i` replays `trace_factory(i)`, with
    /// no Row-Hammer tracking (the non-secure baseline).
    pub fn new<T, F>(config: SystemConfig, mut trace_factory: F) -> Self
    where
        T: TraceSource + 'static,
        F: FnMut(usize) -> T,
    {
        let cores = (0..config.cores)
            .map(|i| {
                CoreModel::new(
                    i,
                    Box::new(trace_factory(i)) as Box<dyn TraceSource>,
                    config.rob_size,
                    config.fetch_width,
                    config.cpu_per_mem_cycle,
                    config.max_outstanding_misses,
                    config.instructions_per_core,
                )
            })
            .collect();
        let controllers = (0..config.geometry.channels())
            .map(|ch| MemController::new(&config, ch, Box::new(NullTracker)))
            .collect();
        SystemSim {
            config,
            cores,
            controllers,
            completions: Vec::new(),
        }
    }

    /// Replaces each channel's tracker with `tracker_factory(channel)`.
    pub fn with_trackers<F>(mut self, mut tracker_factory: F) -> Self
    where
        F: FnMut(u8) -> Box<dyn ActivationTracker>,
    {
        self.controllers = (0..self.config.geometry.channels())
            .map(|ch| MemController::new(&self.config, ch, tracker_factory(ch)))
            .collect();
        self
    }

    /// Access a channel's controller (for stats after a run).
    pub fn controller(&self, channel: u8) -> &MemController {
        &self.controllers[channel as usize]
    }

    /// Access the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs to completion (every core retires its budget) and returns the
    /// aggregate result.
    ///
    /// # Panics
    ///
    /// Panics with "simulation deadlock" if no core retires an instruction
    /// for eight consecutive tracking windows, which indicates a deadlock
    /// or livelock bug rather than a slow workload.
    pub fn run(&mut self) -> SimResult {
        self.run_with_progress(0, |_| {})
    }

    /// Like [`Self::run`], but invokes `report` with a progress summary
    /// every `report_every` cycles (never when it is 0) — a debugging aid
    /// for stuck configurations. The library never prints; the caller
    /// decides where the summary goes (a bin's stderr, a log sink, a test
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics on the same watchdog as [`Self::run`].
    pub fn run_with_progress<F>(&mut self, report_every: MemCycle, mut report: F) -> SimResult
    where
        F: FnMut(&str),
    {
        let window = self.config.timing.refresh_window;
        let (mut retired, mut stalled, mut sample_at) = (0, 0, window);
        let mut now: MemCycle = 0;
        while !self.cores.iter().all(|c| c.is_done()) {
            if report_every > 0 && now.is_multiple_of(report_every) && now > 0 {
                report(&self.progress(now));
            }
            self.step(now);
            now += 1;
            if now == sample_at {
                sample_at += window;
                // Finished cores retire nothing, so an unchanged total means
                // no unfinished core made progress this window.
                let total: u64 = self.cores.iter().map(|c| c.retired()).sum();
                stalled = if total == retired { stalled + 1 } else { 0 };
                retired = total;
                assert!(
                    stalled < STALL_WINDOWS,
                    "simulation deadlock: no core retired an instruction in \
                     {STALL_WINDOWS} tracking windows (cycle {now})"
                );
            }
        }
        self.collect(now)
    }

    /// One memory cycle: every controller, then every unfinished core.
    fn step(&mut self, now: MemCycle) {
        for controller in &mut self.controllers {
            controller.tick(now, &mut self.completions);
            for done in self.completions.drain(..) {
                self.cores[done.core].data_ready(done.id, done.done_at);
            }
        }
        let controllers = &mut self.controllers;
        let geometry = self.config.geometry;
        for core in &mut self.cores {
            if core.is_done() {
                continue;
            }
            // Route the core to the channel owning its next memory op;
            // ops for other channels stay pending until their turn.
            let channel = core.next_op_channel(&geometry);
            let index = usize::from(channel) % controllers.len();
            core.tick(now, &mut controllers[index]);
        }
    }

    fn progress(&self, now: MemCycle) -> String {
        use std::fmt::Write as _;
        let retired: Vec<u64> = self.cores.iter().map(|c| c.retired()).collect();
        let mut summary = format!("cycle {now}: retired {retired:?}");
        for (i, c) in self.controllers.iter().enumerate() {
            let _ = write!(summary, "\n  ch{i}: {c:?}");
        }
        summary
    }

    fn collect(&self, cycles: MemCycle) -> SimResult {
        let instructions: u64 = self.cores.iter().map(|c| c.retired()).sum();
        let controller_stats: Vec<ControllerStats> =
            self.controllers.iter().map(|c| c.stats()).collect();
        SimResult {
            cycles,
            instructions,
            cpu_cycles: cycles * u64::from(self.config.cpu_per_mem_cycle),
            controllers: controller_stats,
            power: self.controllers.iter().map(|c| *c.dram().power()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::Hydra;
    use hydra_types::geometry::MemGeometry;
    use hydra_types::RowAddr;
    use hydra_workloads::trace::{ReplayTrace, TraceOp};
    use hydra_workloads::AttackPattern;

    fn replay_per_core(geom: MemGeometry, rows: &[u32]) -> impl FnMut(usize) -> ReplayTrace + '_ {
        move |core| {
            let ops: Vec<TraceOp> = rows
                .iter()
                .map(|&r| {
                    TraceOp::read(
                        4,
                        geom.line_of_row(RowAddr::new(0, 0, (core % 4) as u8, r), 0),
                    )
                })
                .collect();
            ReplayTrace::new("replay", ops)
        }
    }

    #[test]
    fn baseline_run_completes_and_reports_ipc() {
        let mut config = SystemConfig::tiny_test();
        config.instructions_per_core = 10_000;
        let geom = config.geometry;
        let mut sim = SystemSim::new(config, replay_per_core(geom, &[1, 2, 3]));
        let result = sim.run();
        assert!(result.cycles > 0);
        assert!(result.ipc() > 0.0);
        assert_eq!(result.instructions, 2 * 10_000);
        // Untracked, every ACT is a demand ACT and every burst a demand
        // read; the DRAM's own counters also see the refreshes.
        assert_eq!(result.power.len(), result.controllers.len());
        for (power, c) in result.power.iter().zip(&result.controllers) {
            assert_eq!(power.activations, c.demand_acts);
            assert_eq!(power.reads, c.reads_done);
            assert!(power.refreshes > 0);
        }
    }

    #[test]
    fn progress_reports_leave_the_run_unchanged() {
        let mut config = SystemConfig::tiny_test();
        config.instructions_per_core = 10_000;
        let geom = config.geometry;
        let plain = SystemSim::new(config.clone(), replay_per_core(geom, &[1, 2, 3])).run();
        let mut reports = Vec::new();
        let reported = SystemSim::new(config, replay_per_core(geom, &[1, 2, 3]))
            .run_with_progress(1_000, |summary| reports.push(summary.to_string()));
        assert_eq!(plain, reported);
        assert_eq!(reports.len() as u64, (plain.cycles - 1) / 1_000);
        assert!(reports[0].starts_with("cycle 1000: retired"));
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn a_run_that_cannot_enqueue_panics_as_a_deadlock() {
        // No read-queue slot: the first miss can never issue, so nothing
        // retires past it and the watchdog fires after eight windows.
        let mut config = SystemConfig::tiny_test();
        config.read_queue_capacity = 0;
        let geom = config.geometry;
        SystemSim::new(config, replay_per_core(geom, &[1, 2, 3])).run();
    }

    #[test]
    fn hydra_tracked_run_mitigates_hammering() {
        let mut config = SystemConfig::tiny_test();
        config.instructions_per_core = 30_000;
        let geom = config.geometry;
        let attack = AttackPattern::DoubleSided {
            victim: RowAddr::new(0, 0, 0, 100),
        };
        let mut sim = SystemSim::new(config, |_| attack.trace(geom)).with_trackers(|ch| {
            let mut builder = hydra_core::HydraConfig::builder(geom, ch);
            builder.thresholds(32, 24).gct_entries(64).rcc_entries(64);
            Box::new(Hydra::new(builder.build().unwrap()).unwrap())
        });
        let result = sim.run();
        let mitigation_acts: u64 = result.controllers.iter().map(|c| c.mitigation_acts).sum();
        assert!(mitigation_acts > 0, "double-sided hammer must be mitigated");
    }

    #[test]
    fn tracking_overhead_slows_down_vs_baseline() {
        // CRA with a tiny cache on a scattered workload must be slower than
        // the untracked baseline.
        let geom = MemGeometry::tiny();
        let mk_config = || {
            let mut c = SystemConfig::tiny_test();
            c.instructions_per_core = 20_000;
            c
        };
        let scattered = |_: usize| {
            let ops: Vec<TraceOp> = (0..256u32)
                .map(|i| {
                    TraceOp::read(
                        2,
                        MemGeometry::tiny()
                            .line_of_row(RowAddr::new(0, 0, (i % 4) as u8, (i * 37) % 1000), 0),
                    )
                })
                .collect();
            ReplayTrace::new("scattered", ops)
        };
        let baseline = SystemSim::new(mk_config(), scattered).run();
        let tracked = SystemSim::new(mk_config(), scattered)
            .with_trackers(|ch| {
                let config = hydra_baselines::CraConfig {
                    geometry: geom,
                    channel: ch,
                    threshold: 128,
                    cache_bytes: 128, // 2 lines: thrash city
                    cache_ways: 2,
                };
                Box::new(hydra_baselines::Cra::new(config).unwrap())
            })
            .run();
        assert!(
            tracked.cycles > baseline.cycles,
            "tracked {} vs baseline {}",
            tracked.cycles,
            baseline.cycles
        );
    }
}
