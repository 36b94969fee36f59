//! Per-bank state machine with timing-register bookkeeping.
//!
//! Rather than an explicit event queue, each bank records the earliest cycle
//! at which each command class becomes legal (`next_activate`, `next_read`,
//! …). Issuing a command validates against those registers and advances them.
//! This is the same technique USIMM and Ramulator use and makes the
//! controller's "is this command ready?" query O(1).

use crate::timing::DramTiming;
use hydra_types::clock::MemCycle;

/// Per-bank activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Total activate commands.
    pub activations: u64,
    /// Column accesses that hit the open row (no activate needed).
    pub row_hits: u64,
    /// Column accesses (reads + writes).
    pub column_accesses: u64,
    /// Precharge commands.
    pub precharges: u64,
}

/// One DRAM bank: open-row state plus timing registers.
///
/// # Example
///
/// ```
/// use hydra_dram::{Bank, DramTiming};
/// let t = DramTiming::ddr4_3200();
/// let mut bank = Bank::new();
/// assert!(bank.can_activate(&t, 0));
/// bank.activate(&t, 7, 0);
/// assert_eq!(bank.open_row(), Some(7));
/// assert!(!bank.can_read(&t, 0));            // must wait tRCD
/// assert!(bank.can_read(&t, t.trcd));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bank {
    open_row: Option<u32>,
    next_activate: MemCycle,
    next_column: MemCycle,
    next_precharge: MemCycle,
    stats: BankStats,
}

impl Bank {
    /// Creates a closed, idle bank.
    pub fn new() -> Self {
        Bank::default()
    }

    /// The currently open row, if any.
    #[inline]
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Activity counters.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Earliest cycle an activate would be legal (ignores rank constraints).
    pub fn activate_ready_at(&self) -> MemCycle {
        self.next_activate
    }

    /// Earliest cycle a column command on the open row would be legal.
    pub fn column_ready_at(&self) -> MemCycle {
        self.next_column
    }

    /// Earliest cycle a precharge would be legal.
    pub fn precharge_ready_at(&self) -> MemCycle {
        self.next_precharge
    }

    /// True if the bank is closed and past its tRC/tRP constraints at `now`.
    #[inline]
    pub fn can_activate(&self, _timing: &DramTiming, now: MemCycle) -> bool {
        self.open_row.is_none() && now >= self.next_activate
    }

    /// True if a read could issue at `now` (row open, tRCD satisfied).
    #[inline]
    pub fn can_read(&self, _timing: &DramTiming, now: MemCycle) -> bool {
        self.open_row.is_some() && now >= self.next_column
    }

    /// True if a write could issue at `now`.
    #[inline]
    pub fn can_write(&self, timing: &DramTiming, now: MemCycle) -> bool {
        self.can_read(timing, now)
    }

    /// True if a precharge could issue at `now`.
    #[inline]
    pub fn can_precharge(&self, _timing: &DramTiming, now: MemCycle) -> bool {
        self.open_row.is_some() && now >= self.next_precharge
    }

    /// Opens `row`, advancing the timing registers.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not ready to activate at `now` (the controller
    /// must check [`Self::can_activate`] first).
    pub fn activate(&mut self, timing: &DramTiming, row: u32, now: MemCycle) {
        assert!(
            self.can_activate(timing, now),
            "illegal ACT at {now}: open_row={:?}, next_activate={}",
            self.open_row,
            self.next_activate
        );
        self.open_row = Some(row);
        self.next_column = now + timing.trcd;
        self.next_precharge = now + timing.tras;
        self.next_activate = now + timing.trc;
        self.stats.activations += 1;
    }

    /// Issues a read of the open row; returns the cycle the data burst
    /// completes on the bus (`now + tCAS + burst`).
    ///
    /// # Panics
    ///
    /// Panics if no row is open or tRCD has not elapsed.
    pub fn read(&mut self, timing: &DramTiming, now: MemCycle) -> MemCycle {
        assert!(self.can_read(timing, now), "illegal RD at {now}");
        self.stats.column_accesses += 1;
        self.stats.row_hits += 1;
        // A precharge must respect tRTP after a read.
        self.next_precharge = self.next_precharge.max(now + timing.trtp);
        now + timing.tcas + timing.burst
    }

    /// Issues a write to the open row; returns the cycle the burst completes.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or tRCD has not elapsed.
    pub fn write(&mut self, timing: &DramTiming, now: MemCycle) -> MemCycle {
        assert!(self.can_write(timing, now), "illegal WR at {now}");
        self.stats.column_accesses += 1;
        self.stats.row_hits += 1;
        let done = now + timing.tcas + timing.burst;
        // Write recovery: the row may not be precharged until tWR after the
        // data has been written into the array.
        self.next_precharge = self.next_precharge.max(done + timing.twr);
        done
    }

    /// Closes the open row.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or tRAS/tWR/tRTP constraints are unmet.
    pub fn precharge(&mut self, timing: &DramTiming, now: MemCycle) {
        assert!(self.can_precharge(timing, now), "illegal PRE at {now}");
        self.open_row = None;
        self.next_activate = self.next_activate.max(now + timing.trp);
        self.stats.precharges += 1;
    }

    /// Force-closes the bank for a refresh: the row (if any) is closed and no
    /// activate may issue before `ready_at`.
    pub fn refresh_block(&mut self, ready_at: MemCycle) {
        self.open_row = None;
        self.next_activate = self.next_activate.max(ready_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr4_3200()
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 100);
        assert!(!b.can_read(&timing, 100 + timing.trcd - 1));
        assert!(b.can_read(&timing, 100 + timing.trcd));
        let done = b.read(&timing, 100 + timing.trcd);
        assert_eq!(done, 100 + timing.trcd + timing.tcas + timing.burst);
    }

    #[test]
    fn cannot_activate_open_bank() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 0);
        assert!(!b.can_activate(&timing, 1_000_000));
    }

    #[test]
    fn precharge_respects_tras() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 0);
        assert!(!b.can_precharge(&timing, timing.tras - 1));
        assert!(b.can_precharge(&timing, timing.tras));
        b.precharge(&timing, timing.tras);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn act_to_act_respects_trc() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 0);
        b.precharge(&timing, timing.tras);
        // tRAS + tRP == tRC, so the next ACT is legal exactly at tRC.
        assert!(!b.can_activate(&timing, timing.trc - 1));
        assert!(b.can_activate(&timing, timing.trc));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 0);
        let done = b.write(&timing, timing.trcd);
        assert!(!b.can_precharge(&timing, done + timing.twr - 1));
        assert!(b.can_precharge(&timing, done + timing.twr));
    }

    #[test]
    fn refresh_block_closes_row_and_delays_activate() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 3, 0);
        b.refresh_block(5000);
        assert_eq!(b.open_row(), None);
        assert!(!b.can_activate(&timing, 4999));
        assert!(b.can_activate(&timing, 5000));
    }

    #[test]
    fn stats_count_commands() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 1, 0);
        b.read(&timing, timing.trcd);
        b.precharge(&timing, timing.tras + timing.trtp);
        let s = b.stats();
        assert_eq!(s.activations, 1);
        assert_eq!(s.column_accesses, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.precharges, 1);
    }

    #[test]
    #[should_panic(expected = "illegal ACT")]
    fn premature_activate_panics() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(&timing, 1, 0);
        b.precharge(&timing, timing.tras);
        b.activate(&timing, 2, timing.tras + 1); // violates tRC
    }
}
