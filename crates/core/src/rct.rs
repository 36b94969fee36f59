//! Row-Count Table (RCT): the third head of Hydra.
//!
//! One 1-byte activation counter per row, stored in a *reserved region* of
//! the DRAM address space (Sec. 4.4: 4 MB for a 32 GB system — under 0.02 %
//! of capacity). This module owns:
//!
//! * the functional backing store (what the counters currently hold),
//! * the layout: which reserved DRAM row and 64-byte line hold a given
//!   counter, so the tracker can emit the right side requests, and
//! * the group-spill operation that initializes a whole row-group's entries
//!   to `T_G` in two line reads + two line writes.
//!
//! The reserved region is carved from the *top* rows of the channel's
//! banks, striped round-robin across all (rank, bank) pairs so counter
//! traffic enjoys bank-level parallelism like any other data. Those rows are
//! themselves subject to Row-Hammer; the [`crate::rit::RitActTable`]
//! protects them.

use hydra_types::addr::RowAddr;
use hydra_types::counter::{index, SatCounters};
use hydra_types::geometry::MemGeometry;

/// RCT entries (1 byte each) per 64-byte line.
pub const ENTRIES_PER_LINE: u64 = 64;

/// The in-DRAM Row-Count Table for one channel.
///
/// Indexed by *slot* (the possibly-permuted channel-local row index; see
/// [`crate::indexing::GroupIndexer`]).
///
/// # Example
///
/// ```
/// use hydra_core::rct::RowCountTable;
/// use hydra_types::MemGeometry;
/// let rct = RowCountTable::new(MemGeometry::tiny(), 0);
/// // tiny: 4096 rows/channel × 1 B = 4 KB of counters = 4 rows of 1 KB,
/// // striped over the channel's 4 banks (one top row each).
/// assert_eq!(rct.reserved_row_count(), 4);
/// assert_eq!(rct.entry_count(), 4096);
/// ```
#[derive(Debug, Clone)]
pub struct RowCountTable {
    counts: SatCounters<u8>,
    geometry: MemGeometry,
    channel: u8,
    reserved_rows: u32,
    /// Banks in the channel (ranks × banks-per-rank), the stripe width.
    channel_banks: u32,
    reads: u64,
    writes: u64,
}

impl RowCountTable {
    /// Creates a zeroed RCT covering all rows of `channel`.
    ///
    /// # Panics
    ///
    /// Panics if the per-row counters do not fit within one bank (never the
    /// case for realistic geometries: the region is `rows/row_bytes` rows).
    pub fn new(geometry: MemGeometry, channel: u8) -> Self {
        let entries = geometry.rows_per_channel();
        let reserved_rows =
            u32::try_from(entries.div_ceil(geometry.row_bytes())).unwrap_or(u32::MAX);
        let channel_banks =
            u32::from(geometry.ranks_per_channel()) * u32::from(geometry.banks_per_rank());
        assert!(
            reserved_rows.div_ceil(channel_banks) <= geometry.rows_per_bank(),
            "RCT region ({reserved_rows} rows) exceeds the channel"
        );
        RowCountTable {
            counts: SatCounters::new(index(entries)),
            geometry,
            channel,
            reserved_rows,
            channel_banks,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of per-row counters (rows covered).
    pub fn entry_count(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Number of reserved DRAM rows holding the table.
    pub fn reserved_row_count(&self) -> u32 {
        self.reserved_rows
    }

    /// Bytes of DRAM the table occupies.
    pub fn dram_bytes(&self) -> u64 {
        self.entry_count()
    }

    /// Functional reads performed (diagnostics; the *timing* cost is the
    /// side requests the tracker emits).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Functional writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Reserved rows striped into the flat bank index `flat_bank`
    /// (`rank × banks + bank`).
    fn rows_in_bank(&self, flat_bank: u32) -> u32 {
        self.reserved_rows / self.channel_banks
            + u32::from(flat_bank < self.reserved_rows % self.channel_banks)
    }

    /// True if `row` lies inside the reserved region holding this table.
    pub fn is_reserved(&self, row: RowAddr) -> bool {
        if row.channel != self.channel {
            return false;
        }
        let flat_bank =
            u32::from(row.rank) * u32::from(self.geometry.banks_per_rank()) + u32::from(row.bank);
        let used = self.rows_in_bank(flat_bank);
        used > 0 && row.row >= self.geometry.rows_per_bank() - used
    }

    /// The index of a reserved row within the region (for RIT-ACT counters).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not reserved.
    pub fn reserved_index(&self, row: RowAddr) -> usize {
        assert!(self.is_reserved(row), "{row} is not an RCT row");
        let flat_bank =
            u32::from(row.rank) * u32::from(self.geometry.banks_per_rank()) + u32::from(row.bank);
        let depth = self.geometry.rows_per_bank() - 1 - row.row;
        (depth * self.channel_banks + flat_bank) as usize
    }

    /// The DRAM row that stores the counter for `slot`. Region row `r`
    /// (one per `row_bytes` counters) lives in flat bank `r % banks`, at
    /// depth `r / banks` from the top of that bank.
    pub fn dram_row_of_slot(&self, slot: u64) -> RowAddr {
        let region_row = u32::try_from(slot / self.geometry.row_bytes()).unwrap_or(u32::MAX);
        let flat_bank = region_row % self.channel_banks;
        let depth = region_row / self.channel_banks;
        RowAddr {
            channel: self.channel,
            rank: u8::try_from(flat_bank / u32::from(self.geometry.banks_per_rank()))
                .unwrap_or(u8::MAX),
            bank: u8::try_from(flat_bank % u32::from(self.geometry.banks_per_rank()))
                .unwrap_or(u8::MAX),
            row: self.geometry.rows_per_bank() - 1 - depth,
        }
    }

    /// Reads the counter for `slot` (functional; the caller accounts the
    /// DRAM access separately).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn read(&mut self, slot: u64) -> u32 {
        self.reads += 1;
        self.counts.get(index(slot))
    }

    /// Writes the counter for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `count > 255`.
    pub fn write(&mut self, slot: u64, count: u32) {
        assert!(count <= 255, "RCT entries are one byte, got {count}");
        self.writes += 1;
        self.counts.set(index(slot), u64::from(count));
    }

    /// Peeks at a counter without bumping the access stats (tests only).
    pub fn peek(&self, slot: u64) -> u32 {
        self.counts.get(index(slot))
    }

    /// Initializes every entry of the group starting at `group_start` to
    /// `t_g` (the spill on GCT saturation) and returns the distinct DRAM
    /// rows holding the touched lines. For the default 128-row groups this
    /// is 2 lines, i.e. "two line reads and two line writes" (Sec. 4.4).
    ///
    /// # Panics
    ///
    /// Panics if the group is out of range or `t_g > 255`.
    pub fn init_group(&mut self, group_start: u64, group_rows: u64, t_g: u32) -> Vec<RowAddr> {
        assert!(t_g <= 255);
        let end = group_start + group_rows;
        assert!(end <= self.entry_count(), "group out of range");
        for slot in index(group_start)..index(end) {
            self.counts.set(slot, u64::from(t_g));
        }
        self.writes += group_rows.div_ceil(ENTRIES_PER_LINE);
        // Distinct lines touched → distinct DRAM rows (usually one row: a
        // 8 KB row holds 8192 entries).
        let first_line = group_start / ENTRIES_PER_LINE;
        let last_line = (end - 1) / ENTRIES_PER_LINE;
        let mut rows: Vec<RowAddr> = Vec::new();
        for line in first_line..=last_line {
            let row = self.dram_row_of_slot(line * ENTRIES_PER_LINE);
            if rows.last() != Some(&row) {
                rows.push(row);
            }
        }
        rows
    }

    /// Lines touched when spilling a group of `group_rows` entries.
    pub fn lines_per_group(group_rows: u64) -> u64 {
        group_rows.div_ceil(ENTRIES_PER_LINE)
    }

    /// Clears all counters. Real hardware never does this (stale entries are
    /// overwritten by the next spill); it exists for the Hydra-NoGCT
    /// ablation, where no spill would otherwise reinitialize entries at
    /// window boundaries.
    pub fn reset(&mut self) {
        self.counts.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rct() -> RowCountTable {
        RowCountTable::new(MemGeometry::tiny(), 0)
    }

    #[test]
    fn read_write_round_trip() {
        let mut t = rct();
        t.write(100, 200);
        assert_eq!(t.read(100), 200);
        assert_eq!(t.reads(), 1);
        assert_eq!(t.writes(), 1);
    }

    #[test]
    fn reserved_region_stripes_top_rows_across_banks() {
        let t = rct();
        // 4096 entries / 1024 B rows = 4 reserved rows, one per bank: the
        // top row (1023) of each of the 4 banks.
        for bank in 0..4u8 {
            assert!(t.is_reserved(RowAddr::new(0, 0, bank, 1023)), "bank {bank}");
            assert!(!t.is_reserved(RowAddr::new(0, 0, bank, 1022)));
            assert_eq!(
                t.reserved_index(RowAddr::new(0, 0, bank, 1023)),
                bank as usize
            );
        }
        assert!(!t.is_reserved(RowAddr::new(1, 0, 0, 1023)), "other channel");
    }

    #[test]
    fn dram_row_of_slot_walks_the_stripe() {
        let t = rct();
        // 1024 entries per 1 KB row; region row r -> bank r % 4, top row.
        assert_eq!(t.dram_row_of_slot(0), RowAddr::new(0, 0, 0, 1023));
        assert_eq!(t.dram_row_of_slot(1023), RowAddr::new(0, 0, 0, 1023));
        assert_eq!(t.dram_row_of_slot(1024), RowAddr::new(0, 0, 1, 1023));
        assert_eq!(t.dram_row_of_slot(4095), RowAddr::new(0, 0, 3, 1023));
    }

    #[test]
    fn reserved_index_round_trips_dram_row() {
        let t = RowCountTable::new(MemGeometry::isca22_baseline(), 1);
        // 2 M entries -> 256 region rows over 16 banks: 16 top rows per bank.
        for slot in [0u64, 8192, 8192 * 17, 2 * 1024 * 1024 - 1] {
            let row = t.dram_row_of_slot(slot);
            assert!(t.is_reserved(row), "slot {slot} -> {row}");
            assert_eq!(
                t.reserved_index(row) as u64,
                slot / 8192,
                "slot {slot} -> {row}"
            );
        }
    }

    #[test]
    fn init_group_sets_all_entries() {
        let mut t = rct();
        let rows = t.init_group(128, 128, 77);
        for slot in 128..256 {
            assert_eq!(t.peek(slot), 77);
        }
        assert_eq!(t.peek(127), 0);
        assert_eq!(t.peek(256), 0);
        // 128 one-byte entries span 2 lines, both within one reserved row.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], RowAddr::new(0, 0, 0, 1023));
    }

    #[test]
    fn lines_per_group_matches_paper() {
        assert_eq!(RowCountTable::lines_per_group(128), 2);
        assert_eq!(RowCountTable::lines_per_group(64), 1);
        assert_eq!(RowCountTable::lines_per_group(65), 2);
        assert_eq!(RowCountTable::lines_per_group(256), 4);
    }

    #[test]
    fn baseline_rct_is_2mb_per_channel() {
        let t = RowCountTable::new(MemGeometry::isca22_baseline(), 0);
        // 2 M rows per channel × 1 B = 2 MB; ×2 channels = the paper's 4 MB.
        assert_eq!(t.dram_bytes(), 2 * 1024 * 1024);
        // 2 MB / 8 KB rows = 256 reserved rows; ×2 channels = 512 (Sec. 5.2.2).
        assert_eq!(t.reserved_row_count(), 256);
    }

    #[test]
    #[should_panic(expected = "one byte")]
    fn oversized_count_panics() {
        let mut t = rct();
        t.write(0, 256);
    }

    #[test]
    fn write_and_spill_accept_the_one_byte_ceiling() {
        let mut t = rct();
        t.write(3, 255);
        assert_eq!(t.peek(3), 255);
        let rows = t.init_group(0, 4, 255);
        assert!(!rows.is_empty());
        for slot in 0..4 {
            assert_eq!(t.peek(slot), 255);
        }
    }

    #[test]
    fn slot_to_row_mapping_stays_inside_the_geometry() {
        let t = rct();
        let geom = MemGeometry::tiny();
        for slot in [0, 1, 4095, t.entry_count() - 1] {
            let row = t.dram_row_of_slot(slot);
            assert!(row.rank < geom.ranks_per_channel());
            assert!(row.bank < geom.banks_per_rank());
            assert!(row.row < geom.rows_per_bank());
        }
    }
}
