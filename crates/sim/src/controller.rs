//! Per-channel memory controller: FR-FCFS scheduling, read priority with
//! write drain, tracker integration, and victim-refresh mitigation.
//!
//! Scheduling policy (Sec. 3.1: "prioritizes read requests over write
//! requests"):
//!
//! 1. **Mitigations** (victim refreshes) issue first — they are security
//!    critical and rare.
//! 2. **Demand reads**, FR-FCFS: the oldest row-hit read wins; otherwise the
//!    oldest read drives activate/precharge of its bank.
//! 3. **Writes** drain in batches between watermarks, or opportunistically
//!    when no read is pending.
//! 4. **Tracker side requests** (RCT/CRA counter traffic) fill in last —
//!    the paper notes they cost bandwidth, not latency (Sec. 5.3).
//!
//! One command (ACT/RD/WR/PRE) issues per memory cycle per channel,
//! approximating the command bus. Every ACT is reported to the tracker; the
//! tracker's response enqueues victim refreshes and side traffic.

use crate::config::SystemConfig;
use crate::rowswap::RowIndirection;
use hydra_dram::DramChannel;
use hydra_types::addr::{LineAddr, RowAddr};
use hydra_types::clock::MemCycle;
use hydra_types::hash::RowMap;
use hydra_types::mitigation::MitigationPolicy;
use hydra_types::tracker::{ActivationKind, ActivationTracker, SideRequestKind};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Why a request is in the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A demand read from a core (latency critical).
    DemandRead {
        /// The issuing core.
        core: usize,
    },
    /// A demand write (drained lazily).
    DemandWrite,
    /// A tracker metadata read (RCT / CRA counter line fetch).
    SideRead,
    /// A tracker metadata write-back.
    SideWrite,
    /// A victim-refresh activation issued as Row-Hammer mitigation.
    VictimRefresh,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    id: u64,
    row: RowAddr,
    kind: RequestKind,
    arrival: MemCycle,
}

/// A completed demand read, reported back to its core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRead {
    /// Request id returned by [`MemController::enqueue_read`].
    pub id: u64,
    /// The issuing core.
    pub core: usize,
    /// Cycle at which the data burst completes.
    pub done_at: MemCycle,
}

/// Controller activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand reads completed.
    pub reads_done: u64,
    /// Demand writes completed.
    pub writes_done: u64,
    /// Sum of read latencies (arrival → data) in cycles.
    pub read_latency_sum: u64,
    /// Demand activations.
    pub demand_acts: u64,
    /// Rows blacklisted by rate-limit mitigation.
    pub rate_limited_rows: u64,
    /// Row swaps performed (row-swap mitigation).
    pub row_swaps: u64,
    /// Victim-refresh activations (mitigation cost).
    pub mitigation_acts: u64,
    /// Tracker side-request activations.
    pub side_acts: u64,
    /// Side reads + writes completed.
    pub side_done: u64,
    /// Tracking-window resets performed.
    pub window_resets: u64,
}

/// One channel's memory controller.
pub struct MemController {
    channel_index: u8,
    dram: DramChannel,
    tracker: Box<dyn ActivationTracker>,
    read_q: VecDeque<Request>,
    write_q: VecDeque<Request>,
    side_q: VecDeque<Request>,
    mitigation_q: VecDeque<Request>,
    /// Rows opened by a victim refresh, awaiting auto-precharge. An entry
    /// is stale once its bank no longer holds the row (another command
    /// closed it first) and is dropped at the next auto-close pass.
    auto_close: Vec<RowAddr>,
    draining_writes: bool,
    next_id: u64,
    next_window_reset: MemCycle,
    read_capacity: usize,
    write_capacity: usize,
    write_high: usize,
    write_low: usize,
    mitigation: MitigationPolicy,
    /// Rows barred from activation until a given cycle (rate-limit
    /// mitigation: blacklisted until the end of the tracking window).
    blacklist: RowMap<RowAddr, MemCycle>,
    /// Logical→physical row remapping (row-swap mitigation only).
    indirection: Option<RowIndirection>,
    /// Banks per rank: `pick` numbers a bank `rank * banks_per_rank + bank`.
    banks_per_rank: u32,
    stats: ControllerStats,
    /// Memo of the last tick that issued nothing: the earliest cycle at
    /// which any queued command can become legal, so `tick` skips the queue
    /// scans before it. Zero (never ahead of `now`) when no memo is held.
    idle_until: MemCycle,
}

impl MemController {
    /// Creates a controller for `channel_index` with the given tracker.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 banks per channel: the
    /// scheduler tracks bank ownership in one 64-bit mask.
    pub fn new(
        config: &SystemConfig,
        channel_index: u8,
        tracker: Box<dyn ActivationTracker>,
    ) -> Self {
        let geometry = config.geometry;
        let banks = u32::from(geometry.ranks_per_channel()) * u32::from(geometry.banks_per_rank());
        assert!(
            banks <= u64::BITS,
            "the controller schedules at most 64 banks per channel, got {banks}"
        );
        MemController {
            channel_index,
            dram: DramChannel::new(geometry, config.timing, channel_index),
            tracker,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            side_q: VecDeque::new(),
            mitigation_q: VecDeque::new(),
            auto_close: Vec::new(),
            draining_writes: false,
            // Request ids must be unique across channels (cores key
            // outstanding misses by id): stride by 256, offset by channel.
            next_id: u64::from(channel_index),
            next_window_reset: config.timing.refresh_window,
            read_capacity: config.read_queue_capacity,
            write_capacity: config.read_queue_capacity * 2,
            write_high: config.write_drain_high,
            write_low: config.write_drain_low,
            mitigation: config.mitigation,
            blacklist: RowMap::default(),
            indirection: match config.mitigation {
                MitigationPolicy::RowSwap { seed } => Some(RowIndirection::new(
                    geometry,
                    seed ^ u64::from(channel_index).wrapping_mul(0x9E37_79B9),
                )),
                _ => None,
            },
            banks_per_rank: u32::from(geometry.banks_per_rank()),
            stats: ControllerStats::default(),
            idle_until: 0,
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The channel index this controller owns.
    pub fn channel(&self) -> u8 {
        self.channel_index
    }

    /// The DRAM channel (for power/activation counters).
    pub fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// The tracker driving this channel (for per-tracker statistics).
    pub fn tracker(&self) -> &dyn ActivationTracker {
        self.tracker.as_ref()
    }

    /// True when every queue is empty (used to drain at end of run).
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.side_q.is_empty()
            && self.mitigation_q.is_empty()
    }

    /// Queues a demand read; returns its id, or `None` if the read queue is
    /// full (the core must retry next cycle). A held idle memo is narrowed to
    /// the cycle the new read could first get a command.
    pub fn enqueue_read(&mut self, addr: LineAddr, core: usize, now: MemCycle) -> Option<u64> {
        if self.read_q.len() >= self.read_capacity {
            return None;
        }
        let logical = self.dram.geometry().row_of_line(addr);
        let row = self
            .indirection
            .as_ref()
            .map_or(logical, |i| i.physical(logical));
        let id = self.next_id;
        self.next_id += 256;
        self.idle_until = self.idle_until.min(self.ready_at(row));
        self.read_q.push_back(Request {
            id,
            row,
            kind: RequestKind::DemandRead { core },
            arrival: now,
        });
        Some(id)
    }

    /// Queues a demand write; returns `false` if the write queue is full. A
    /// held idle memo is narrowed to the cycle the new write could first get
    /// a command, or dropped if the write reaches the drain watermark.
    pub fn enqueue_write(&mut self, addr: LineAddr, now: MemCycle) -> bool {
        if self.write_q.len() >= self.write_capacity {
            return false;
        }
        let logical = self.dram.geometry().row_of_line(addr);
        let row = self
            .indirection
            .as_ref()
            .map_or(logical, |i| i.physical(logical));
        let id = self.next_id;
        self.next_id += 256;
        self.idle_until = if self.write_q.len() + 1 >= self.write_high {
            0 // the write drain may start, adding the whole write queue
        } else {
            self.idle_until.min(self.ready_at(row))
        };
        self.write_q.push_back(Request {
            id,
            row,
            kind: RequestKind::DemandWrite,
            arrival: now,
        });
        true
    }

    /// The earliest cycle a request for `row` could get a command, ignoring
    /// bank ownership and the blacklist (both can only delay it): a column
    /// command on its open row, else a precharge of the open row, else an
    /// activate.
    fn ready_at(&self, row: RowAddr) -> MemCycle {
        let (rank, bank) = (row.rank, row.bank);
        match self.dram.open_row(rank, bank) {
            Some(open) if open == row.row => self.dram.column_ready_at(rank, bank),
            Some(_) => self.dram.precharge_ready_at(rank, bank),
            None => self.dram.activate_ready_at(rank, bank),
        }
    }

    /// Reports an activation to the tracker and enqueues whatever mitigation
    /// and side traffic it demands.
    fn notify_tracker(&mut self, row: RowAddr, now: MemCycle, kind: ActivationKind) {
        match kind {
            ActivationKind::Demand => self.stats.demand_acts += 1,
            ActivationKind::MitigationRefresh => self.stats.mitigation_acts += 1,
            ActivationKind::TrackerSide => self.stats.side_acts += 1,
        }
        let response = self.tracker.on_activation(row, now, kind);
        if response.is_empty() {
            return;
        }
        let rows_per_bank = self.dram.geometry().rows_per_bank();
        for m in response.mitigations {
            match self.mitigation {
                MitigationPolicy::VictimRefresh(radius) => {
                    for offset in radius.offsets() {
                        if let Some(victim) = m.aggressor.neighbor(offset, rows_per_bank) {
                            let id = self.next_id;
                            self.next_id += 256;
                            self.mitigation_q.push_back(Request {
                                id,
                                row: victim,
                                kind: RequestKind::VictimRefresh,
                                arrival: now,
                            });
                        }
                    }
                }
                MitigationPolicy::RateLimit => {
                    // Delay mitigation: bar the aggressor from activating
                    // until the window ends. At ultra-low thresholds this is
                    // a denial of service for hot rows (footnote 6) — the
                    // `delay_mitigation` bench quantifies it.
                    self.stats.rate_limited_rows += 1;
                    self.blacklist.insert(m.aggressor, self.next_window_reset);
                }
                MitigationPolicy::RowSwap { .. } => {
                    // Migrate the (logical row behind the) aggressor to a
                    // random physical row; charge the two full row copies as
                    // side traffic (lines × {read,write} per row). The
                    // indirection table is always installed alongside the
                    // RowSwap policy; skip the swap rather than panic if not.
                    let Some(ind) = self.indirection.as_mut() else {
                        continue;
                    };
                    let logical = ind.logical_of(m.aggressor);
                    let old_phys = m.aggressor;
                    let new_phys = ind.swap(logical);
                    self.stats.row_swaps += 1;
                    let lines = self.dram.geometry().lines_per_row();
                    for _ in 0..lines {
                        for row in [old_phys, new_phys] {
                            let id = self.next_id;
                            self.next_id += 256;
                            self.side_q.push_back(Request {
                                id,
                                row,
                                kind: RequestKind::SideRead,
                                arrival: now,
                            });
                            let id = self.next_id;
                            self.next_id += 256;
                            self.side_q.push_back(Request {
                                id,
                                row,
                                kind: RequestKind::SideWrite,
                                arrival: now,
                            });
                        }
                    }
                }
            }
        }
        for s in response.side_requests {
            let id = self.next_id;
            self.next_id += 256;
            self.side_q.push_back(Request {
                id,
                row: s.row,
                kind: match s.kind {
                    SideRequestKind::Read => RequestKind::SideRead,
                    SideRequestKind::Write => RequestKind::SideWrite,
                },
                arrival: now,
            });
        }
    }

    /// Advances one memory cycle, appending to `completions` any demand
    /// reads whose data burst was scheduled this cycle (their `done_at` may
    /// be in the future).
    ///
    /// A tick that issues nothing leaves the controller's state untouched,
    /// apart from dropping stale auto-close entries (which a repeat of the
    /// same tick would not find again). It records the earliest cycle at which any command it scanned for can
    /// become legal (`next_wake`), and the ticks before that cycle return
    /// right after the window and refresh checks: every cycle they skip is
    /// one in which nothing could have issued. An enqueue narrows the memo
    /// to the new request's ready cycle; a write that reaches the drain
    /// watermark, a refresh and a window reset drop it.
    pub fn tick(&mut self, now: MemCycle, completions: &mut Vec<CompletedRead>) {
        // Tracking-window reset (Sec. 4.6).
        if now >= self.next_window_reset {
            self.tracker.reset_window(now);
            self.stats.window_resets += 1;
            self.next_window_reset += self.dram.timing().refresh_window;
            // Rate-limit blacklists expire with the window.
            self.blacklist.retain(|_, &mut until| until > now);
            self.idle_until = 0;
        }
        if self.dram.maintain_refresh(now) > 0 {
            self.idle_until = 0;
        }
        if now < self.idle_until {
            return;
        }

        // Write-drain hysteresis.
        if self.write_q.len() >= self.write_high {
            self.draining_writes = true;
        } else if self.write_q.len() <= self.write_low {
            self.draining_writes = false;
        }

        if let ControlFlow::Continue(wake) = self.try_issue(now, completions) {
            self.idle_until = self.next_wake(now, wake);
        }
    }

    /// The cycle an idle tick sleeps until: `wake`, the earliest cycle at
    /// which a command the tick scanned for becomes legal, or an earlier
    /// blacklist expiry, which can hand a bank to an older request. Window
    /// resets and refreshes need no wake-up here, since `tick` checks them
    /// every cycle and drops the memo when one fires. Neither does the side
    /// queue's promotion by age: it only reorders the queue scans, and every
    /// queue a tick may scan is scanned either way.
    fn next_wake(&self, now: MemCycle, wake: MemCycle) -> MemCycle {
        self.blacklist
            .values()
            .copied()
            .filter(|&t| t > now)
            .fold(wake, MemCycle::min)
    }

    /// Attempts to issue one command, in priority order: a mitigation, the
    /// side queue when promoted, reads, writes while draining (or with no
    /// read queued), the side queue, and last a victim-refresh bank's
    /// auto-close. Breaks once a command issues; otherwise continues with
    /// the earliest cycle at which any of them becomes legal.
    fn try_issue(
        &mut self,
        now: MemCycle,
        completions: &mut Vec<CompletedRead>,
    ) -> ControlFlow<(), MemCycle> {
        let mut wake = self.issue_mitigation(now)?;
        // Anti-starvation: tracker metadata traffic is off the critical path
        // (Sec. 5.3) but must not starve behind a saturated demand stream —
        // its bandwidth cost is precisely what the CRA experiments measure.
        // Promote the side queue when it backs up or its head grows old.
        let side_urgent = self.side_q.len() >= SIDE_PROMOTE_DEPTH
            || self
                .side_q
                .front()
                .is_some_and(|r| now.saturating_sub(r.arrival) >= SIDE_PROMOTE_AGE);
        let drain = self.draining_writes || self.read_q.is_empty();
        for (scan, sel) in [
            (side_urgent, QueueSel::Side),
            (true, QueueSel::Read),
            (drain, QueueSel::Write),
            (!side_urgent, QueueSel::Side),
        ] {
            if scan {
                wake = wake.min(self.issue_from_queue(sel, now, completions)?);
            }
        }
        // A cycle no queue uses closes a victim-refresh bank.
        ControlFlow::Continue(wake.min(self.service_auto_close(now)?))
    }

    /// Victim refresh: one ACT on the victim row (the refresh), auto-closed
    /// later. Counting it through the tracker is the Half-Double defense.
    /// If no queued refresh can precharge or activate its bank now,
    /// continues with the earliest cycle one can.
    fn issue_mitigation(&mut self, now: MemCycle) -> ControlFlow<(), MemCycle> {
        let mut wake = MemCycle::MAX;
        for i in 0..self.mitigation_q.len() {
            let req = self.mitigation_q[i];
            let (rank, bank) = (req.row.rank, req.row.bank);
            if self.dram.open_row(rank, bank).is_some() {
                // Need the bank closed first.
                let ready = self.dram.precharge_ready_at(rank, bank);
                if now >= ready {
                    self.dram.precharge(rank, bank, now);
                    return ControlFlow::Break(());
                }
                wake = wake.min(ready);
                continue;
            }
            let ready = self.dram.activate_ready_at(rank, bank);
            if now >= ready {
                self.dram.activate(rank, bank, req.row.row, now);
                self.mitigation_q.remove(i);
                self.auto_close.push(req.row);
                self.notify_tracker(req.row, now, ActivationKind::MitigationRefresh);
                return ControlFlow::Break(());
            }
            wake = wake.min(ready);
        }
        ControlFlow::Continue(wake)
    }

    /// Drops the entries whose bank no longer holds the refreshed row, then
    /// precharges one victim-refreshed row that may close. If none can,
    /// continues with the earliest cycle one can.
    fn service_auto_close(&mut self, now: MemCycle) -> ControlFlow<(), MemCycle> {
        let dram = &self.dram;
        self.auto_close
            .retain(|r| dram.open_row(r.rank, r.bank) == Some(r.row));
        let mut wake = MemCycle::MAX;
        for i in 0..self.auto_close.len() {
            let (rank, bank) = (self.auto_close[i].rank, self.auto_close[i].bank);
            let ready = self.dram.precharge_ready_at(rank, bank);
            if now >= ready {
                self.dram.precharge(rank, bank, now);
                self.auto_close.swap_remove(i);
                return ControlFlow::Break(());
            }
            wake = wake.min(ready);
        }
        ControlFlow::Continue(wake)
    }

    /// FR-FCFS over one queue, in a single pass over its depth-capped head.
    ///
    /// - FR: the oldest row-hit, column-ready request wins outright.
    /// - FCFS otherwise: per bank, the oldest request drives that bank's
    ///   state (activate a closed bank, or precharge a conflicting row), and
    ///   the first such request whose command is legal wins. Younger
    ///   requests to the same bank must not steal its precharge — that
    ///   would serialize conflicts across banks. Rate-limited rows may not
    ///   be (re)activated; younger requests proceed around them.
    ///
    /// If nothing is legal at `now`, returns the earliest cycle at which
    /// this same scan would pick something, as long as no command issues,
    /// no request is queued and no blacklist entry expires: the minimum of
    /// every row hit's column-ready cycle and every bank owner's activate or
    /// precharge ready cycle.
    ///
    /// Scans are depth-capped: the side queue can grow very large under
    /// bursty metadata traffic (e.g. row-swap copies), and an O(queue) scan
    /// per cycle would melt down; the head window preserves FR-FCFS
    /// behaviour where it matters.
    fn pick(&self, sel: QueueSel, now: MemCycle) -> Result<Pick, MemCycle> {
        let mut seen_banks: u64 = 0;
        let mut row_command = None;
        let mut wake = MemCycle::MAX;
        for (i, req) in self.queue(sel).iter().take(SCAN_DEPTH).enumerate() {
            let (rank, bank, row) = (req.row.rank, req.row.bank, req.row.row);
            let open = self.dram.open_row(rank, bank);
            if open == Some(row) {
                let ready = self.dram.column_ready_at(rank, bank);
                if now >= ready {
                    return Ok(Pick::Column(i));
                }
                wake = wake.min(ready);
            }
            if row_command.is_some()
                || self
                    .blacklist
                    .get(&req.row)
                    .is_some_and(|&until| now < until)
            {
                continue;
            }
            let bank_bit = 1u64 << (u32::from(rank) * self.banks_per_rank + u32::from(bank));
            if seen_banks & bank_bit != 0 {
                continue; // an older request owns this bank's next command
            }
            seen_banks |= bank_bit;
            let (ready, command) = match open {
                None => (self.dram.activate_ready_at(rank, bank), Pick::Activate(i)),
                Some(open) if open != row => {
                    (self.dram.precharge_ready_at(rank, bank), Pick::Precharge(i))
                }
                Some(_) => continue, // a row hit waiting on its column
            };
            if now >= ready {
                row_command = Some(command);
            } else {
                wake = wake.min(ready);
            }
        }
        row_command.ok_or(wake)
    }

    /// Issues the command [`Self::pick`] chooses from `sel`; if there is
    /// none, continues with the cycle `pick` says one becomes legal.
    fn issue_from_queue(
        &mut self,
        sel: QueueSel,
        now: MemCycle,
        completions: &mut Vec<CompletedRead>,
    ) -> ControlFlow<(), MemCycle> {
        let pick = match self.pick(sel, now) {
            Ok(pick) => pick,
            Err(wake) => return ControlFlow::Continue(wake),
        };
        match pick {
            Pick::Column(i) => {
                // The index came from the same queue a moment ago, so the
                // remove cannot miss; the let-else just avoids a panic path.
                let Some(req) = self.queue_mut(sel).remove(i) else {
                    return ControlFlow::Continue(now + 1);
                };
                let is_write =
                    matches!(req.kind, RequestKind::DemandWrite | RequestKind::SideWrite);
                let done = if is_write {
                    self.dram.write(req.row.rank, req.row.bank, now)
                } else {
                    self.dram.read(req.row.rank, req.row.bank, now)
                };
                match req.kind {
                    RequestKind::DemandRead { core } => {
                        self.stats.reads_done += 1;
                        self.stats.read_latency_sum += done - req.arrival;
                        completions.push(CompletedRead {
                            id: req.id,
                            core,
                            done_at: done,
                        });
                    }
                    RequestKind::DemandWrite => self.stats.writes_done += 1,
                    RequestKind::SideRead | RequestKind::SideWrite => self.stats.side_done += 1,
                    RequestKind::VictimRefresh => {
                        unreachable!("mitigations have their own queue")
                    }
                }
            }
            Pick::Activate(i) => {
                let req = self.queue(sel)[i];
                self.dram
                    .activate(req.row.rank, req.row.bank, req.row.row, now);
                let kind = match req.kind {
                    RequestKind::SideRead | RequestKind::SideWrite => ActivationKind::TrackerSide,
                    _ => ActivationKind::Demand,
                };
                self.notify_tracker(req.row, now, kind);
            }
            Pick::Precharge(i) => {
                let req = self.queue(sel)[i];
                self.dram.precharge(req.row.rank, req.row.bank, now);
            }
        }
        ControlFlow::Break(())
    }

    fn queue(&self, sel: QueueSel) -> &VecDeque<Request> {
        match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
            QueueSel::Side => &self.side_q,
        }
    }

    fn queue_mut(&mut self, sel: QueueSel) -> &mut VecDeque<Request> {
        match sel {
            QueueSel::Read => &mut self.read_q,
            QueueSel::Write => &mut self.write_q,
            QueueSel::Side => &mut self.side_q,
        }
    }
}

/// Maximum queue entries the scheduler examines per cycle (see
/// `MemController::pick`).
const SCAN_DEPTH: usize = 64;
/// Side-queue depth beyond which metadata requests jump ahead of reads.
const SIDE_PROMOTE_DEPTH: usize = 8;
/// Side-request age (cycles) beyond which it jumps ahead of reads.
const SIDE_PROMOTE_AGE: MemCycle = 256;

/// The command the scheduler chose, by index into the scanned queue.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Read or write the request's column in its open row.
    Column(usize),
    /// Open the request's row.
    Activate(usize),
    /// Close the conflicting row in the request's bank.
    Precharge(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueSel {
    Read,
    Write,
    Side,
}

impl std::fmt::Debug for MemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemController")
            .field("tracker", &self.tracker.name())
            .field("read_q", &self.read_q.len())
            .field("write_q", &self.write_q.len())
            .field("side_q", &self.side_q.len())
            .field("mitigation_q", &self.mitigation_q.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::geometry::MemGeometry;
    use hydra_types::tracker::NullTracker;

    fn controller() -> MemController {
        let config = SystemConfig::tiny_test();
        MemController::new(&config, 0, Box::new(NullTracker))
    }

    fn run_until_idle(c: &mut MemController, start: MemCycle) -> (Vec<CompletedRead>, MemCycle) {
        let mut done = Vec::new();
        let mut now = start;
        while !c.is_idle() && now < start + 1_000_000 {
            c.tick(now, &mut done);
            now += 1;
        }
        (done, now)
    }

    #[test]
    fn read_completes_with_act_rcd_cas_latency() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        let t = *c.dram().timing();
        let addr = geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 5), 3);
        let id = c.enqueue_read(addr, 0, 0).unwrap();
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        // ACT at 0 (tick 0), RD at tRCD, data at tRCD+tCAS+burst.
        assert_eq!(done[0].done_at, t.trcd + t.tcas + t.burst);
        assert_eq!(c.stats().demand_acts, 1);
    }

    #[test]
    fn row_hit_skips_activation() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        let row = hydra_types::RowAddr::new(0, 0, 0, 5);
        c.enqueue_read(geom.line_of_row(row, 0), 0, 0);
        c.enqueue_read(geom.line_of_row(row, 1), 0, 0);
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().demand_acts, 1, "second read must be a row hit");
    }

    #[test]
    fn row_conflict_precharges_and_reactivates() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        c.enqueue_read(
            geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 5), 0),
            0,
            0,
        );
        c.enqueue_read(
            geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 9), 0),
            0,
            0,
        );
        let (done, _) = run_until_idle(&mut c, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().demand_acts, 2);
        assert!(done[1].done_at > done[0].done_at);
    }

    #[test]
    fn reads_bypass_queued_writes() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        // A few writes below the drain watermark, then a read.
        for i in 0..4u32 {
            assert!(c.enqueue_write(
                geom.line_of_row(hydra_types::RowAddr::new(0, 0, 1, i + 10), 0),
                0
            ));
        }
        let id = c
            .enqueue_read(
                geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 5), 0),
                0,
                0,
            )
            .unwrap();
        let mut done = Vec::new();
        let mut now = 0;
        while done.is_empty() && now < 100_000 {
            c.tick(now, &mut done);
            now += 1;
        }
        let first_done = done.first().map(|d| d.id);
        assert_eq!(first_done, Some(id), "the read must finish first");
    }

    #[test]
    fn writes_drain_when_queue_fills() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        for i in 0..40u32 {
            c.enqueue_write(
                geom.line_of_row(hydra_types::RowAddr::new(0, 0, (i % 4) as u8, i), 0),
                0,
            );
        }
        run_until_idle(&mut c, 0);
        assert_eq!(c.stats().writes_done, 40);
    }

    #[test]
    fn read_queue_backpressure() {
        let mut c = controller();
        let geom = MemGeometry::tiny();
        let cap = SystemConfig::tiny_test().read_queue_capacity;
        for i in 0..cap {
            assert!(c
                .enqueue_read(
                    geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, i as u32), 0),
                    0,
                    0
                )
                .is_some());
        }
        assert!(c
            .enqueue_read(
                geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 999), 0),
                0,
                0
            )
            .is_none());
    }

    #[test]
    fn window_reset_fires_every_refresh_window() {
        let mut c = controller();
        let window = c.dram().timing().refresh_window;
        for now in 0..(3 * window + 2) {
            c.tick(now, &mut Vec::new());
        }
        assert_eq!(c.stats().window_resets, 3);
    }

    /// A tracker that mitigates on every Nth activation, to exercise the
    /// mitigation queue.
    struct EveryN {
        n: u64,
        count: u64,
    }
    impl ActivationTracker for EveryN {
        fn on_activation(
            &mut self,
            row: RowAddr,
            _now: MemCycle,
            kind: ActivationKind,
        ) -> hydra_types::TrackerResponse {
            // Only demand ACTs trigger, so the victim refreshes themselves
            // do not cascade in this test tracker.
            if kind == ActivationKind::Demand {
                self.count += 1;
                if self.count.is_multiple_of(self.n) {
                    return hydra_types::TrackerResponse::mitigate(row);
                }
            }
            hydra_types::TrackerResponse::none()
        }
        fn reset_window(&mut self, _now: MemCycle) {}
        fn name(&self) -> &str {
            "every_n"
        }
        fn sram_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn bank_ownership_distinguishes_every_bank_of_a_two_rank_channel() {
        // 2 ranks × 32 banks: rank 1/bank 0 and rank 0/bank 16 are two
        // banks, so a blocked command on one must not hold up the other.
        let mut config = SystemConfig::tiny_test();
        config.geometry = MemGeometry::new(1, 2, 32, 1024, 1024).unwrap();
        let geom = config.geometry;
        let mut c = MemController::new(&config, 0, Box::new(NullTracker));
        c.dram.activate(0, 16, 1, 100);
        let now = 101;
        // A row conflict at rank 0/bank 16, whose precharge waits on tRAS...
        let conflict = geom.line_of_row(RowAddr::new(0, 0, 16, 2), 0);
        c.enqueue_read(conflict, 0, now).unwrap();
        // ...and a read to the closed rank 1/bank 0 behind it.
        let free = geom.line_of_row(RowAddr::new(0, 1, 0, 3), 0);
        c.enqueue_read(free, 0, now).unwrap();
        assert!(!c.dram.can_precharge(0, 16, now));
        assert!(
            matches!(c.pick(QueueSel::Read, now), Ok(Pick::Activate(1))),
            "the younger request's bank is free: activate it"
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 banks per channel")]
    fn more_than_64_banks_per_channel_is_rejected() {
        let mut config = SystemConfig::tiny_test();
        config.geometry = MemGeometry::new(1, 4, 32, 1024, 1024).unwrap();
        let _ = MemController::new(&config, 0, Box::new(NullTracker));
    }

    #[test]
    fn mitigation_refreshes_blast_radius_victims() {
        let config = SystemConfig::tiny_test();
        let mut c = MemController::new(&config, 0, Box::new(EveryN { n: 1, count: 0 }));
        let geom = MemGeometry::tiny();
        // One demand read -> one demand ACT -> mitigation with radius 2
        // -> 4 victim-refresh ACTs.
        c.enqueue_read(
            geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 100), 0),
            0,
            0,
        );
        run_until_idle(&mut c, 0);
        assert_eq!(c.stats().demand_acts, 1);
        assert_eq!(c.stats().mitigation_acts, 4);
    }

    #[test]
    fn bank_edge_clips_victims() {
        let config = SystemConfig::tiny_test();
        let mut c = MemController::new(&config, 0, Box::new(EveryN { n: 1, count: 0 }));
        let geom = MemGeometry::tiny();
        // Row 0: victims -1 and -2 do not exist -> only +1, +2 refreshed.
        c.enqueue_read(
            geom.line_of_row(hydra_types::RowAddr::new(0, 0, 0, 0), 0),
            0,
            0,
        );
        run_until_idle(&mut c, 0);
        assert_eq!(c.stats().mitigation_acts, 2);
    }

    /// Mitigates a specific row on its first activation.
    struct BlacklistRow {
        target: RowAddr,
    }
    impl ActivationTracker for BlacklistRow {
        fn on_activation(
            &mut self,
            row: RowAddr,
            _now: MemCycle,
            _kind: ActivationKind,
        ) -> hydra_types::TrackerResponse {
            if row == self.target {
                hydra_types::TrackerResponse::mitigate(row)
            } else {
                hydra_types::TrackerResponse::none()
            }
        }
        fn reset_window(&mut self, _now: MemCycle) {}
        fn name(&self) -> &str {
            "blacklist_row"
        }
        fn sram_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn rate_limit_policy_delays_the_aggressor_until_window_end() {
        let mut config = SystemConfig::tiny_test();
        config.mitigation = hydra_types::mitigation::MitigationPolicy::RateLimit;
        let window = config.timing.refresh_window;
        let geom = MemGeometry::tiny();
        let row = hydra_types::RowAddr::new(0, 0, 0, 100);
        let other = hydra_types::RowAddr::new(0, 0, 0, 200);
        let mut c = MemController::new(&config, 0, Box::new(BlacklistRow { target: row }));

        // Phase 1: activate `row` once — it gets blacklisted immediately —
        // then close it with a conflicting read.
        c.enqueue_read(geom.line_of_row(row, 0), 0, 0);
        let (_, now) = run_until_idle(&mut c, 0);
        c.enqueue_read(geom.line_of_row(other, 0), 0, now);
        let (_, mut now2) = run_until_idle(&mut c, now);
        assert_eq!(c.stats().rate_limited_rows, 1);

        // Phase 2: a new read to `row` needs a fresh ACT, which the
        // blacklist forbids until the window resets.
        c.enqueue_read(geom.line_of_row(row, 1), 0, now2);
        let mut done = Vec::new();
        while now2 < window - 1 {
            c.tick(now2, &mut done);
            now2 += 1;
        }
        assert!(
            done.is_empty(),
            "blacklisted row must not be served this window"
        );
        // Past the window reset: the read completes.
        while now2 < 2 * window && !c.is_idle() {
            c.tick(now2, &mut done);
            now2 += 1;
        }
        assert_eq!(done.len(), 1, "read completes after the blacklist expires");
    }

    #[test]
    fn row_swap_policy_migrates_the_aggressor() {
        let mut config = SystemConfig::tiny_test();
        config.mitigation = hydra_types::mitigation::MitigationPolicy::RowSwap { seed: 3 };
        let geom = MemGeometry::tiny();
        let logical = hydra_types::RowAddr::new(0, 0, 0, 100);
        let mut c = MemController::new(&config, 0, Box::new(BlacklistRow { target: logical }));
        // First read activates the (identity-mapped) physical row 100 and
        // triggers the swap.
        c.enqueue_read(geom.line_of_row(logical, 0), 0, 0);
        let (_, now) = run_until_idle(&mut c, 0);
        assert_eq!(c.stats().row_swaps, 1);
        // The swap's row copies went out as side traffic.
        assert_eq!(
            c.stats().side_done,
            4 * geom.lines_per_row(),
            "two full row copies (read+write each)"
        );
        // A new read to the same logical row now lands on a different
        // physical row: the tracker (keyed on the old physical row) no
        // longer fires.
        c.enqueue_read(geom.line_of_row(logical, 1), 0, now);
        run_until_idle(&mut c, now);
        assert_eq!(c.stats().row_swaps, 1, "no further swap: aggressor moved");
    }

    /// A demand precharge closes a victim-refresh bank before its
    /// auto-close, and a demand ACT reopens the bank on another row: the
    /// refresh's auto-close entry is stale and must not close the demand
    /// row, which an open-page controller keeps open.
    #[test]
    fn stale_auto_close_entry_leaves_the_demand_row_open() {
        let config = SystemConfig::tiny_test();
        let geom = MemGeometry::tiny();
        let aggressor = RowAddr::new(0, 0, 0, 100);
        let mut c = MemController::new(&config, 0, Box::new(BlacklistRow { target: aggressor }));
        c.enqueue_read(geom.line_of_row(aggressor, 0), 0, 0);
        let mut done = Vec::new();
        let mut now = 0;
        // Tick up to the last of the four victim-refresh ACTs (rows 98, 99,
        // 101, 102), which leaves row 102 open awaiting its auto-close.
        while c.stats().mitigation_acts < 4 {
            c.tick(now, &mut done);
            now += 1;
        }
        assert_eq!(c.dram().open_row(0, 0), Some(102));
        // A demand read to row 300 of the same bank: its precharge outranks
        // the auto-close, then its ACT reopens the bank on row 300.
        let demand = RowAddr::new(0, 0, 0, 300);
        c.enqueue_read(geom.line_of_row(demand, 0), 0, now);
        done.clear();
        while done.is_empty() {
            c.tick(now, &mut done);
            now += 1;
        }
        assert_eq!(c.stats().demand_acts, 2);
        for _ in 0..1_000 {
            c.tick(now, &mut done);
            now += 1;
        }
        assert_eq!(
            c.dram().open_row(0, 0),
            Some(300),
            "a victim refresh's auto-close must not precharge a demand row"
        );
    }

    /// Under a mitigation on every demand ACT, the pending auto-closes never
    /// outnumber the channel's banks: each bank holds one row, and an entry
    /// goes once its bank no longer holds the refreshed row.
    #[test]
    fn auto_close_holds_at_most_one_entry_per_bank() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let config = SystemConfig::tiny_test();
        let geom = config.geometry;
        let banks = usize::from(geom.ranks_per_channel()) * usize::from(geom.banks_per_rank());
        let mut c = MemController::new(&config, 0, Box::new(EveryN { n: 1, count: 0 }));
        let mut rng = SmallRng::seed_from_u64(7);
        let mut done = Vec::new();
        let mut most = 0;
        for now in 0..20_000 {
            c.tick(now, &mut done);
            most = most.max(c.auto_close.len());
            assert!(
                c.auto_close.len() <= banks,
                "{} auto-close entries on {banks} banks at cycle {now}",
                c.auto_close.len()
            );
            if rng.gen_bool(0.05) {
                let bank = rng.gen_range(0..geom.banks_per_rank());
                let row = RowAddr::new(0, 0, bank, rng.gen_range(4u32..1_000));
                c.enqueue_read(geom.line_of_row(row, 0), 0, now);
            }
        }
        assert!(c.stats().mitigation_acts > 500, "{:?}", c.stats());
        assert!(most > 0);
    }

    /// Drives a reference controller, whose idle memo is cleared before
    /// every tick, and a memoized one in lockstep through a random bursty
    /// enqueue script spanning two tracking windows. Every tick's
    /// completions, every enqueue's answer and the counters after every
    /// tick must match: the memo may only skip ticks in which nothing could
    /// have issued.
    fn memo_matches_reference(
        config: SystemConfig,
        tracker: impl Fn() -> Box<dyn ActivationTracker>,
        seed: u64,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let geom = config.geometry;
        let mut reference = MemController::new(&config, 0, tracker());
        let mut memo = MemController::new(&config, 0, tracker());
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut ref_done, mut memo_done) = (Vec::new(), Vec::new());
        let (mut read_p, mut write_p, mut phase_end) = (0.0, 0.0, 0);
        let mut skipped = 0u64;
        let cycles = 2 * config.timing.refresh_window + 10_000;
        for now in 0..cycles {
            reference.idle_until = 0;
            skipped += u64::from(now < memo.idle_until);
            reference.tick(now, &mut ref_done);
            memo.tick(now, &mut memo_done);
            assert_eq!(ref_done, memo_done, "completions at {now}");
            assert_eq!(reference.stats(), memo.stats(), "stats at {now}");
            ref_done.clear();
            memo_done.clear();
            // Bursts and lulls: quiet phases let the memo sleep, write
            // floods cross the drain watermark.
            if now >= phase_end {
                phase_end = now + rng.gen_range(100u64..3_000);
                read_p = [0.0, 0.02, 0.2, 0.6][rng.gen_range(0usize..4)];
                write_p = [0.0, 0.02, 0.3, 0.8][rng.gen_range(0usize..4)];
            }
            let row = RowAddr::new(0, 0, rng.gen_range(0u8..4), rng.gen_range(0u32..16));
            let addr = geom.line_of_row(row, rng.gen_range(0u32..16));
            if rng.gen_bool(read_p) {
                let core = rng.gen_range(0usize..2);
                assert_eq!(
                    reference.enqueue_read(addr, core, now).is_some(),
                    memo.enqueue_read(addr, core, now).is_some(),
                    "read admission at {now}"
                );
            } else if rng.gen_bool(write_p) {
                assert_eq!(
                    reference.enqueue_write(addr, now),
                    memo.enqueue_write(addr, now),
                    "write admission at {now}"
                );
            }
        }
        assert_eq!(reference.dram().stats(), memo.dram().stats());
        assert!(
            skipped > cycles / 10,
            "the memo must skip ticks to be tested: {skipped} of {cycles}"
        );
    }

    fn every_n(n: u64) -> impl Fn() -> Box<dyn ActivationTracker> {
        move || Box::new(EveryN { n, count: 0 })
    }

    #[test]
    fn memo_matches_reference_under_mitigations() {
        for seed in 0..4 {
            memo_matches_reference(SystemConfig::tiny_test(), every_n(3), seed);
        }
    }

    #[test]
    fn memo_matches_reference_under_side_traffic() {
        let cra = || -> Box<dyn ActivationTracker> {
            Box::new(
                hydra_baselines::Cra::new(hydra_baselines::CraConfig {
                    geometry: MemGeometry::tiny(),
                    channel: 0,
                    threshold: 64,
                    cache_bytes: 128,
                    cache_ways: 2,
                })
                .expect("valid config"),
            )
        };
        for seed in 0..4 {
            memo_matches_reference(SystemConfig::tiny_test(), cra, seed);
        }
    }

    #[test]
    fn memo_matches_reference_under_rate_limit() {
        let mut config = SystemConfig::tiny_test();
        config.mitigation = MitigationPolicy::RateLimit;
        for seed in 0..4 {
            memo_matches_reference(config.clone(), every_n(4), seed);
        }
    }

    #[test]
    fn memo_matches_reference_under_row_swap() {
        let mut config = SystemConfig::tiny_test();
        config.mitigation = MitigationPolicy::RowSwap { seed: 5 };
        for seed in 0..4 {
            memo_matches_reference(config.clone(), every_n(40), seed);
        }
    }
}
