//! Rank and channel aggregation: tRRD / tFAW, refresh, and the shared data
//! bus.

use crate::bank::{first_after, Bank};
use crate::power::PowerCounters;
use crate::refresh::RefreshState;
use crate::timing::DramTiming;
use hydra_types::clock::MemCycle;
use hydra_types::geometry::MemGeometry;

/// One rank: its banks plus rank-level activation constraints (tRRD, tFAW)
/// and refresh state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Issue times of the last four activates, for the tFAW window
    /// (`None` until four activates have issued).
    faw: [Option<MemCycle>; 4],
    faw_cursor: usize,
    /// Earliest next activate to *any* bank (tRRD).
    next_act_any: MemCycle,
    refresh: RefreshState,
}

impl Rank {
    fn new(banks: usize, timing: &DramTiming, refresh_phase: MemCycle) -> Self {
        Rank {
            banks: vec![Bank::new(); banks],
            faw: [None; 4],
            faw_cursor: 0,
            next_act_any: 0,
            refresh: RefreshState::new(timing, refresh_phase),
        }
    }

    /// Access a bank immutably.
    #[inline]
    pub fn bank(&self, bank: u8) -> &Bank {
        &self.banks[bank as usize]
    }

    /// Access a bank mutably.
    pub fn bank_mut(&mut self, bank: u8) -> &mut Bank {
        &mut self.banks[bank as usize]
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Refresh bookkeeping for this rank.
    pub fn refresh(&self) -> &RefreshState {
        &self.refresh
    }

    /// True if rank-level constraints (tRRD, tFAW, refresh) permit an
    /// activate at `now`.
    #[inline]
    pub fn rank_allows_activate(&self, timing: &DramTiming, now: MemCycle) -> bool {
        if self.refresh.is_refreshing(now) || now < self.next_act_any {
            return false;
        }
        // tFAW: the 4th-most-recent ACT must be at least tFAW ago.
        self.faw[self.faw_cursor].is_none_or(|oldest| now >= oldest + timing.tfaw)
    }

    /// The smallest cycle after `now` at which this rank's constraints
    /// (tRRD, tFAW, refresh) or any of its banks' timing registers expire,
    /// or `MemCycle::MAX` if none is pending.
    pub(crate) fn next_change(&self, timing: &DramTiming, now: MemCycle) -> MemCycle {
        let tfaw_expiry = self.faw[self.faw_cursor].map_or(0, |oldest| oldest + timing.tfaw);
        let rank = first_after(
            now,
            [
                self.next_act_any,
                tfaw_expiry,
                self.refresh.busy_until(),
                self.refresh.next_due(),
            ],
        );
        self.banks
            .iter()
            .map(|b| b.next_change(now))
            .fold(rank, MemCycle::min)
    }

    fn record_activate(&mut self, timing: &DramTiming, now: MemCycle) {
        self.faw[self.faw_cursor] = Some(now);
        self.faw_cursor = (self.faw_cursor + 1) % 4;
        self.next_act_any = now + timing.trrd;
    }
}

/// Cumulative channel-level activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total activates across all banks.
    pub activations: u64,
    /// Total reads.
    pub reads: u64,
    /// Total writes.
    pub writes: u64,
    /// Total precharges.
    pub precharges: u64,
    /// Total REF commands.
    pub refreshes: u64,
    /// Cycles the data bus was busy.
    pub bus_busy_cycles: u64,
}

/// One memory channel: its ranks, the shared data bus, and power counters.
///
/// The channel enforces *device-side* legality; the memory controller in
/// `hydra-sim` performs scheduling (which request to serve next) on top.
#[derive(Debug, Clone)]
pub struct DramChannel {
    geom: MemGeometry,
    timing: DramTiming,
    ranks: Vec<Rank>,
    bus_free_at: MemCycle,
    stats: ChannelStats,
    power: PowerCounters,
}

impl DramChannel {
    /// Creates a channel with all banks idle. `channel_index` staggers this
    /// channel's rank refresh phases relative to other channels.
    pub fn new(geom: MemGeometry, timing: DramTiming, channel_index: u8) -> Self {
        let nranks = geom.ranks_per_channel() as usize;
        let ranks = (0..nranks)
            .map(|r| {
                // Stagger refresh across ranks (and a little across channels).
                let phase = (r as MemCycle * timing.trefi) / nranks.max(1) as MemCycle
                    + MemCycle::from(channel_index) * timing.trefi / 7;
                Rank::new(geom.banks_per_rank() as usize, &timing, phase)
            })
            .collect();
        DramChannel {
            geom,
            timing,
            ranks,
            bus_free_at: 0,
            stats: ChannelStats::default(),
            power: PowerCounters::default(),
        }
    }

    /// The channel's timing parameters.
    #[inline]
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// The memory geometry.
    #[inline]
    pub fn geometry(&self) -> &MemGeometry {
        &self.geom
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Power/energy event counters.
    pub fn power(&self) -> &PowerCounters {
        &self.power
    }

    /// Access a rank.
    #[inline]
    pub fn rank(&self, rank: u8) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// The open row of a bank, if any.
    #[inline]
    pub fn open_row(&self, rank: u8, bank: u8) -> Option<u32> {
        self.ranks[rank as usize].bank(bank).open_row()
    }

    /// True if an ACT to `(rank, bank)` is legal at `now` (bank closed, tRC
    /// elapsed, tRRD/tFAW/refresh satisfied).
    #[inline]
    pub fn can_activate(&self, rank: u8, bank: u8, now: MemCycle) -> bool {
        let r = &self.ranks[rank as usize];
        r.rank_allows_activate(&self.timing, now) && r.bank(bank).can_activate(&self.timing, now)
    }

    /// Issues an ACT.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn activate(&mut self, rank: u8, bank: u8, row: u32, now: MemCycle) {
        assert!(
            self.can_activate(rank, bank, now),
            "illegal ACT rank{rank}/bank{bank} at {now}"
        );
        let timing = self.timing;
        let r = &mut self.ranks[rank as usize];
        r.bank_mut(bank).activate(&timing, row, now);
        r.record_activate(&timing, now);
        self.stats.activations += 1;
        self.power.activations += 1;
    }

    /// True if a column read of the open row is legal at `now` (tRCD elapsed,
    /// data bus free).
    #[inline]
    pub fn can_read(&self, rank: u8, bank: u8, now: MemCycle) -> bool {
        now >= self.bus_free_at
            && !self.ranks[rank as usize].refresh().is_refreshing(now)
            && self.ranks[rank as usize]
                .bank(bank)
                .can_read(&self.timing, now)
    }

    /// True if a column write is legal at `now`.
    #[inline]
    pub fn can_write(&self, rank: u8, bank: u8, now: MemCycle) -> bool {
        self.can_read(rank, bank, now)
    }

    /// Issues a read burst; returns the completion cycle of the data.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn read(&mut self, rank: u8, bank: u8, now: MemCycle) -> MemCycle {
        assert!(self.can_read(rank, bank, now), "illegal RD at {now}");
        let timing = self.timing;
        let done = self.ranks[rank as usize].bank_mut(bank).read(&timing, now);
        self.occupy_bus(now);
        self.stats.reads += 1;
        self.power.reads += 1;
        done
    }

    /// Issues a write burst; returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn write(&mut self, rank: u8, bank: u8, now: MemCycle) -> MemCycle {
        assert!(self.can_write(rank, bank, now), "illegal WR at {now}");
        let timing = self.timing;
        let done = self.ranks[rank as usize].bank_mut(bank).write(&timing, now);
        self.occupy_bus(now);
        self.stats.writes += 1;
        self.power.writes += 1;
        done
    }

    /// True if a precharge is legal at `now`.
    #[inline]
    pub fn can_precharge(&self, rank: u8, bank: u8, now: MemCycle) -> bool {
        self.ranks[rank as usize]
            .bank(bank)
            .can_precharge(&self.timing, now)
    }

    /// Issues a precharge.
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now`.
    pub fn precharge(&mut self, rank: u8, bank: u8, now: MemCycle) {
        assert!(self.can_precharge(rank, bank, now), "illegal PRE at {now}");
        let timing = self.timing;
        self.ranks[rank as usize]
            .bank_mut(bank)
            .precharge(&timing, now);
        self.stats.precharges += 1;
        self.power.precharges += 1;
    }

    /// Services due refreshes: if a rank's REF is due and the rank is not
    /// already refreshing, force-close its banks and block it for tRP + tRFC.
    ///
    /// Returns the number of REF commands issued.
    pub fn maintain_refresh(&mut self, now: MemCycle) -> u32 {
        let timing = self.timing;
        let mut issued = 0;
        for r in &mut self.ranks {
            if r.refresh.is_due(now) && !r.refresh.is_refreshing(now) {
                let ready = r.refresh.begin_refresh(now, &timing);
                for b in &mut r.banks {
                    b.refresh_block(ready);
                }
                issued += 1;
                self.stats.refreshes += 1;
                self.power.refreshes += 1;
            }
        }
        issued
    }

    /// The smallest cycle after `now` at which any command's legality on this
    /// channel, or its refresh schedule, can change without a command being
    /// issued; `MemCycle::MAX` if nothing is pending.
    ///
    /// `can_activate`, `can_read`, `can_write` and `can_precharge` on every
    /// bank, and whether [`Self::maintain_refresh`] issues, are constant
    /// over `now..next_change(now)` as long as no command issues: every
    /// predicate compares `now` against one register (bank
    /// `next_activate` / `next_column` / `next_precharge`, rank tRRD, tFAW
    /// expiry, refresh `busy_until` / `next_due`, the bus), and this is the
    /// first register still ahead of `now`.
    pub fn next_change(&self, now: MemCycle) -> MemCycle {
        self.ranks
            .iter()
            .map(|r| r.next_change(&self.timing, now))
            .fold(first_after(now, [self.bus_free_at]), MemCycle::min)
    }

    /// Earliest cycle at which another column command may issue (data bursts
    /// pipeline behind CAS latency, so back-to-back commands are legal every
    /// `burst` cycles).
    #[inline]
    pub fn bus_free_at(&self) -> MemCycle {
        self.bus_free_at
    }

    /// Marks a column command issued at `now`: the next one may issue once
    /// its burst slot frees, `burst` cycles later (CAS latency pipelines).
    fn occupy_bus(&mut self, now: MemCycle) {
        self.stats.bus_busy_cycles += self.timing.burst;
        self.bus_free_at = now + self.timing.burst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> DramChannel {
        DramChannel::new(MemGeometry::tiny(), DramTiming::ddr4_3200(), 0)
    }

    #[test]
    fn activate_read_precharge_sequence() {
        let mut ch = channel();
        let t = *ch.timing();
        ch.activate(0, 0, 5, 0);
        assert_eq!(ch.open_row(0, 0), Some(5));
        let done = ch.read(0, 0, t.trcd);
        assert_eq!(done, t.trcd + t.tcas + t.burst);
        assert!(ch.can_precharge(0, 0, t.tras + t.trtp));
        ch.precharge(0, 0, t.tras + t.trtp);
        assert_eq!(ch.open_row(0, 0), None);
    }

    #[test]
    fn trrd_spaces_activates_to_different_banks() {
        let mut ch = channel();
        let t = *ch.timing();
        ch.activate(0, 0, 5, 0);
        assert!(!ch.can_activate(0, 1, t.trrd - 1));
        assert!(ch.can_activate(0, 1, t.trrd));
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        // Eight banks, so a fifth ACT can go to a bank that was never opened
        // and only tFAW (not tRC) can hold it back.
        let geom = MemGeometry::new(1, 1, 8, 1024, 1024).expect("valid geometry");
        let mut ch = DramChannel::new(geom, DramTiming::ddr4_3200(), 0);
        let t = *ch.timing();
        assert!(
            4 * t.trrd < t.tfaw,
            "timings must make tFAW the binding limit"
        );
        // Four ACTs as fast as tRRD allows, the first at cycle 0.
        for bank in 0..4u8 {
            ch.activate(0, bank, 1, u64::from(bank) * t.trrd);
        }
        let fifth = 4 * t.trrd;
        assert!(
            !ch.can_activate(0, 4, fifth),
            "5th ACT at {fifth} must wait for tFAW ({})",
            t.tfaw
        );
        assert!(!ch.can_activate(0, 4, t.tfaw - 1));
        assert!(ch.can_activate(0, 4, t.tfaw));
    }

    #[test]
    fn next_change_is_the_first_pending_register() {
        let mut ch = channel();
        let t = *ch.timing();
        // Idle channel: only the first refresh is pending.
        assert_eq!(ch.next_change(0), t.trefi);
        ch.activate(0, 0, 5, 0);
        assert_eq!(ch.next_change(0), t.trrd);
        assert_eq!(ch.next_change(t.trrd), t.trcd);
        assert_eq!(ch.next_change(t.trcd), t.tras);
    }

    #[test]
    fn bus_serializes_bursts() {
        let mut ch = channel();
        let t = *ch.timing();
        ch.activate(0, 0, 5, 0);
        ch.activate(0, 1, 6, t.trrd);
        let first_ready = t.trrd + t.trcd;
        let _done = ch.read(0, 0, first_ready);
        // The second read cannot start until the first burst slot frees
        // (one burst per `burst` cycles; CAS latency pipelines).
        assert!(!ch.can_read(0, 1, first_ready + t.burst - 1));
        assert!(ch.can_read(0, 1, first_ready + t.burst));
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut ch = channel();
        let t = *ch.timing();
        assert_eq!(ch.maintain_refresh(0), 0);
        let issued = ch.maintain_refresh(t.trefi);
        assert_eq!(issued, 1);
        assert!(!ch.can_activate(0, 0, t.trefi + 1));
        assert!(ch.can_activate(0, 0, t.trefi + t.trp + t.trfc));
        assert_eq!(ch.stats().refreshes, 1);
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut ch = channel();
        let t = *ch.timing();
        ch.activate(0, 0, 9, 0);
        ch.maintain_refresh(t.trefi);
        assert_eq!(ch.open_row(0, 0), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = channel();
        let t = *ch.timing();
        ch.activate(0, 0, 5, 0);
        ch.read(0, 0, t.trcd);
        ch.write(0, 0, t.trcd + t.burst + t.tcas);
        let s = ch.stats();
        assert_eq!(s.activations, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bus_busy_cycles, 2 * t.burst);
    }
}
