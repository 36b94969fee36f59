//! ROB-occupancy core model.
//!
//! Each core retires up to `fetch_width` instructions per CPU cycle. A
//! demand read (LLC miss) occupies an MSHR and the core may only run
//! `rob_size` instructions past the *oldest* outstanding miss before it
//! stalls — the mechanism that converts memory latency and bandwidth into
//! IPC loss. Writes are fire-and-forget through the write queue. This is
//! the standard trace-driven approximation of the paper's 8-wide-window OoO
//! cores (Table 2: 160-entry ROB, fetch/retire width 4).

use crate::controller::MemController;
use hydra_types::clock::MemCycle;
use hydra_types::MemGeometry;
use hydra_workloads::trace::{TraceOp, TraceSource};
use std::collections::VecDeque;

/// An outstanding demand read.
#[derive(Debug, Clone, Copy)]
struct Miss {
    /// Request id returned by the controller.
    id: u64,
    /// Instructions retired when the read issued (the ROB window anchor).
    retired_at_issue: u64,
    /// Cycle the data arrives; `MemCycle::MAX` until the controller
    /// schedules the burst.
    ready_at: MemCycle,
}

/// One simulated core.
pub struct CoreModel {
    id: usize,
    trace: Box<dyn TraceSource>,
    rob_size: u64,
    fetch_per_mem_cycle: u32,
    max_outstanding: usize,
    target_instructions: u64,
    retired: u64,
    gap_remaining: u32,
    /// The memory op whose gap has been consumed but which has not yet been
    /// accepted by the controller (backpressure), with its channel decoded
    /// once at fetch.
    pending: Option<(TraceOp, u8)>,
    /// Outstanding misses, oldest first (at most `max_outstanding`).
    outstanding: VecDeque<Miss>,
    /// Set when the ROB or the MSHRs fill: the data-ready cycle of the
    /// oldest miss, which alone can unblock the core. Ticks before it stall
    /// without running the retire loop. [`Self::data_ready`] may only lower
    /// it, never raise it past the oldest miss's data.
    blocked_until: MemCycle,
    stall_cycles: u64,
}

impl CoreModel {
    /// Creates a core replaying `trace`.
    pub fn new(
        id: usize,
        trace: Box<dyn TraceSource>,
        rob_size: u32,
        fetch_width: u32,
        cpu_per_mem_cycle: u32,
        max_outstanding: usize,
        target_instructions: u64,
    ) -> Self {
        CoreModel {
            id,
            trace,
            rob_size: u64::from(rob_size),
            fetch_per_mem_cycle: fetch_width * cpu_per_mem_cycle,
            max_outstanding,
            target_instructions,
            retired: 0,
            gap_remaining: 0,
            pending: None,
            outstanding: VecDeque::new(),
            blocked_until: 0,
            stall_cycles: 0,
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True once the instruction budget is met.
    pub fn is_done(&self) -> bool {
        self.retired >= self.target_instructions
    }

    /// Memory cycles in which the core could not retire anything.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Records a completed read (called by the system when the controller
    /// reports it).
    pub fn data_ready(&mut self, request_id: u64, at: MemCycle) {
        if let Some(miss) = self.outstanding.iter_mut().find(|m| m.id == request_id) {
            miss.ready_at = at;
            self.blocked_until = self.blocked_until.min(at);
        }
    }

    /// Pulls the next op from the trace into `pending`, folding its compute
    /// gap into `gap_remaining` and decoding its channel once.
    fn fetch(&mut self, geometry: &MemGeometry) {
        let op = self.trace.next_op();
        self.gap_remaining += op.gap;
        let channel = geometry.row_of_line(op.addr).channel;
        self.pending = Some((TraceOp { gap: 0, ..op }, channel));
    }

    /// The channel of the next memory operation this core will issue
    /// (fetching it from the trace if necessary). The system uses this to
    /// hand the core the right channel's controller each cycle.
    pub fn next_op_channel(&mut self, geometry: &MemGeometry) -> u8 {
        if self.pending.is_none() {
            self.fetch(geometry);
        }
        self.pending.map_or(0, |(_, channel)| channel)
    }

    /// Retires completed misses whose data has arrived by `now`.
    fn retire_ready_misses(&mut self, now: MemCycle) {
        while self.outstanding.front().is_some_and(|m| m.ready_at <= now) {
            self.outstanding.pop_front();
        }
    }

    /// Stalls the core until the oldest miss's data arrives: with the ROB or
    /// the MSHRs full, nothing else can let it retire or issue.
    fn block(&mut self) {
        self.blocked_until = self.outstanding.front().map_or(0, |m| m.ready_at);
    }

    /// True if the ROB window is exhausted behind the oldest miss.
    fn rob_blocked(&self) -> bool {
        self.outstanding
            .front()
            .is_some_and(|m| self.retired - m.retired_at_issue >= self.rob_size)
    }

    /// Advances one memory cycle, retiring instructions and issuing memory
    /// operations into `controller`. Operations whose address belongs to a
    /// different channel than `controller` stay pending until the system
    /// hands this core the owning channel's controller. A core blocked on
    /// its oldest miss stalls without running its loop until the miss's
    /// data arrives.
    pub fn tick(&mut self, now: MemCycle, controller: &mut MemController) {
        if self.is_done() {
            return;
        }
        if now < self.blocked_until {
            self.stall_cycles += 1;
            return;
        }
        self.retire_ready_misses(now);
        let channel = controller.channel();
        let mut budget = self.fetch_per_mem_cycle;
        let mut progressed = false;
        while budget > 0 && !self.is_done() {
            if self.rob_blocked() {
                self.block();
                break;
            }
            // Burn compute instructions of the current gap.
            if self.gap_remaining > 0 {
                let n = self.gap_remaining.min(budget);
                self.gap_remaining -= n;
                self.retired += u64::from(n);
                budget -= n;
                progressed = true;
                continue;
            }
            // Fetch (or resume) the next memory op; its gap, if any, is
            // burned first.
            let Some((op, op_channel)) = self.pending else {
                self.fetch(controller.dram().geometry());
                continue;
            };
            if op_channel != channel {
                // Wrong channel this cycle: resume when the system routes us
                // to the owning controller.
                break;
            }
            if op.is_write {
                if !controller.enqueue_write(op.addr, now) {
                    break;
                }
            } else {
                if self.outstanding.len() >= self.max_outstanding {
                    self.block();
                    break;
                }
                let Some(id) = controller.enqueue_read(op.addr, self.id, now) else {
                    break;
                };
                self.outstanding.push_back(Miss {
                    id,
                    retired_at_issue: self.retired,
                    ready_at: MemCycle::MAX,
                });
            }
            self.pending = None;
            self.retired += 1;
            budget -= 1;
            progressed = true;
        }
        if !progressed {
            self.stall_cycles += 1;
        }
    }
}

impl std::fmt::Debug for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreModel")
            .field("id", &self.id)
            .field("trace", &self.trace.name())
            .field("retired", &self.retired)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hydra_types::geometry::MemGeometry;
    use hydra_types::tracker::NullTracker;
    use hydra_types::RowAddr;
    use hydra_workloads::trace::ReplayTrace;

    fn core_with(ops: Vec<TraceOp>, target: u64) -> (CoreModel, MemController) {
        let config = SystemConfig::tiny_test();
        let controller = MemController::new(&config, 0, Box::new(NullTracker));
        let core = CoreModel::new(
            0,
            Box::new(ReplayTrace::new("test", ops)),
            config.rob_size,
            config.fetch_width,
            config.cpu_per_mem_cycle,
            config.max_outstanding_misses,
            target,
        );
        (core, controller)
    }

    fn run(core: &mut CoreModel, controller: &mut MemController, max_cycles: u64) -> u64 {
        let mut now = 0;
        let mut completions = Vec::new();
        while !core.is_done() && now < max_cycles {
            controller.tick(now, &mut completions);
            for done in completions.drain(..) {
                core.data_ready(done.id, done.done_at);
            }
            core.tick(now, controller);
            now += 1;
        }
        now
    }

    #[test]
    fn compute_bound_core_retires_at_full_width() {
        let geom = MemGeometry::tiny();
        // Huge gaps: essentially pure compute.
        let ops = vec![TraceOp::read(
            10_000,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 40_000);
        let cycles = run(&mut core, &mut ctrl, 100_000);
        // 8 instructions per memory cycle -> ~5000 cycles.
        assert!(cycles < 6_000, "took {cycles} cycles");
    }

    #[test]
    fn memory_bound_core_is_limited_by_dram() {
        let geom = MemGeometry::tiny();
        // Every instruction a row-conflicting read: two alternating rows.
        let ops = vec![
            TraceOp::read(0, geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0)),
            TraceOp::read(0, geom.line_of_row(RowAddr::new(0, 0, 0, 100), 0)),
        ];
        let (mut core, mut ctrl) = core_with(ops, 1_000);
        let cycles = run(&mut core, &mut ctrl, 1_000_000);
        // Bank conflicts cap throughput far below the 8-wide retire rate
        // (1000 instructions would take only 125 cycles compute-bound).
        assert!(cycles > 2_000, "took only {cycles} cycles");
        assert!(core.stall_cycles() > 0);
    }

    #[test]
    fn rob_limits_runahead_past_oldest_miss() {
        let geom = MemGeometry::tiny();
        // One read then pure compute: the core may run at most rob_size
        // instructions past the miss before stalling.
        let ops = vec![TraceOp::read(
            0,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 10_000);
        // Tick the core without ever ticking the controller: data never
        // arrives, so retirement must cap at read + min(gap runahead, rob).
        for now in 0..1_000 {
            core.tick(now, &mut ctrl);
        }
        // It can issue more reads (up to MSHR limit) but total runahead past
        // the first miss is bounded by the ROB.
        assert!(
            core.retired() <= 1 + core.rob_size,
            "retired {}",
            core.retired()
        );
    }

    #[test]
    fn writes_do_not_block_retirement() {
        let geom = MemGeometry::tiny();
        let ops = vec![TraceOp::write(
            1,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 2_000);
        let cycles = run(&mut core, &mut ctrl, 100_000);
        // Writes drain in the background; retirement proceeds at near full
        // width (each op is 1 compute + 1 write = 2 instructions).
        assert!(cycles < 10_000, "took {cycles} cycles");
    }

    #[test]
    fn core_reports_done_exactly_at_target() {
        let geom = MemGeometry::tiny();
        let ops = vec![TraceOp::read(
            7,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 100);
        run(&mut core, &mut ctrl, 1_000_000);
        assert!(core.is_done());
        assert!(core.retired() >= 100);
        assert!(core.retired() <= 108, "overshoot {}", core.retired());
    }

    /// Drives a reference core, whose block is cleared before every tick,
    /// and a blocking one in lockstep, each against its own controller,
    /// over a random trace that alternates read bursts (which fill the
    /// MSHRs) with long compute gaps (which fill the ROB behind a miss).
    /// Retired instructions, stall cycles and the controller counters must
    /// match after every cycle.
    fn block_matches_reference(seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let geom = MemGeometry::tiny();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        while ops.len() < 2_000 {
            let max_gap = [2u32, 40, 400][rng.gen_range(0usize..3)];
            for _ in 0..64 {
                let row = RowAddr::new(0, 0, rng.gen_range(0u8..4), rng.gen_range(0u32..16));
                let addr = geom.line_of_row(row, rng.gen_range(0u32..16));
                let gap = rng.gen_range(0..max_gap);
                ops.push(if rng.gen_bool(0.2) {
                    TraceOp::write(gap, addr)
                } else {
                    TraceOp::read(gap, addr)
                });
            }
        }
        let (mut reference, mut reference_ctrl) = core_with(ops.clone(), 200_000);
        let (mut blocking, mut blocking_ctrl) = core_with(ops, 200_000);
        let mut completions = Vec::new();
        let (mut now, mut skipped) = (0, 0u64);
        while !reference.is_done() {
            assert!(now < 10_000_000, "the reference core must finish");
            reference.blocked_until = 0;
            skipped += u64::from(now < blocking.blocked_until);
            for (core, ctrl) in [
                (&mut reference, &mut reference_ctrl),
                (&mut blocking, &mut blocking_ctrl),
            ] {
                ctrl.tick(now, &mut completions);
                for done in completions.drain(..) {
                    core.data_ready(done.id, done.done_at);
                }
                core.tick(now, ctrl);
            }
            assert_eq!(
                (reference.retired(), reference.stall_cycles()),
                (blocking.retired(), blocking.stall_cycles()),
                "core state at {now}"
            );
            assert_eq!(reference_ctrl.stats(), blocking_ctrl.stats(), "at {now}");
            now += 1;
        }
        assert!(blocking.is_done());
        assert!(
            skipped > now / 10,
            "the block must skip ticks to be tested: {skipped} of {now}"
        );
    }

    #[test]
    fn blocked_core_matches_reference() {
        for seed in 0..4 {
            block_matches_reference(seed);
        }
    }
}
