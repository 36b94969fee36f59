//! Rank and channel aggregation: tRRD / tFAW, refresh, and the shared data
//! bus.

use crate::bank::Bank;
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

    /// The earliest cycle at which an activate to `bank` can be legal: the
    /// latest of the bank's tRC/tRP register, the rank's tRRD and tFAW
    /// windows and the end of an in-flight refresh.
    #[inline]
    fn activate_ready_at(&self, timing: &DramTiming, bank: u8) -> MemCycle {
        let tfaw_expiry = self.faw[self.faw_cursor].map_or(0, |oldest| oldest + timing.tfaw);
        self.bank(bank)
            .activate_ready_at()
            .max(self.next_act_any)
            .max(tfaw_expiry)
            .max(self.refresh.busy_until())
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

    /// The earliest cycle at which an ACT to `(rank, bank)` can be legal:
    /// once the bank is closed, [`Self::can_activate`] holds exactly from
    /// this cycle on, as long as no command issues and no refresh starts.
    #[inline]
    pub fn activate_ready_at(&self, rank: u8, bank: u8) -> MemCycle {
        self.ranks[rank as usize].activate_ready_at(&self.timing, bank)
    }

    /// The earliest cycle at which a column command (read or write) to
    /// `(rank, bank)` can be legal: the latest of the bank's tRCD register,
    /// the end of an in-flight refresh and the data bus's next free slot.
    /// With a row open, [`Self::can_read`] holds exactly from this cycle on.
    #[inline]
    pub fn column_ready_at(&self, rank: u8, bank: u8) -> MemCycle {
        let r = &self.ranks[rank as usize];
        r.bank(bank)
            .column_ready_at()
            .max(r.refresh().busy_until())
            .max(self.bus_free_at)
    }

    /// The earliest cycle at which a precharge of `(rank, bank)` can be
    /// legal (the bank's tRAS/tRTP/tWR register). With a row open,
    /// [`Self::can_precharge`] holds exactly from this cycle on.
    #[inline]
    pub fn precharge_ready_at(&self, rank: u8, bank: u8) -> MemCycle {
        self.ranks[rank as usize].bank(bank).precharge_ready_at()
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
    fn ready_at_is_the_binding_register() {
        let mut ch = channel();
        let t = *ch.timing();
        // Idle channel: everything is legal from cycle 0.
        assert_eq!(ch.activate_ready_at(0, 1), 0);
        ch.activate(0, 0, 5, 0);
        // Bank 0 waits on tRCD and tRAS, bank 1 on tRRD.
        assert_eq!(ch.column_ready_at(0, 0), t.trcd);
        assert_eq!(ch.precharge_ready_at(0, 0), t.tras);
        assert_eq!(ch.activate_ready_at(0, 1), t.trrd);
        // A read holds the bus for one burst.
        ch.read(0, 0, t.trcd);
        assert_eq!(ch.column_ready_at(0, 0), t.trcd + t.burst);
        // A refresh blocks activates and columns until it ends.
        ch.maintain_refresh(t.trefi);
        let end = t.trefi + t.trp + t.trfc;
        assert_eq!(ch.activate_ready_at(0, 1), end);
        assert_eq!(ch.column_ready_at(0, 0), end);
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
