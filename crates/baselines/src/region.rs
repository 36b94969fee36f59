//! Layout of a per-row counter table stored in a reserved region of DRAM.
//!
//! Shared by CRA (whose whole design is such a table) and by tests. The
//! region occupies the top rows of the channel's banks, striped round-robin
//! across all (rank, bank) pairs — exactly like Hydra's RCT — so counter
//! traffic enjoys bank-level parallelism.

use hydra_types::addr::RowAddr;
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;

/// Maps counter indices to the DRAM lines/rows that store them.
///
/// # Example
///
/// ```
/// use hydra_baselines::CounterRegion;
/// use hydra_types::MemGeometry;
/// let geom = MemGeometry::tiny();
/// // One 1-byte counter per row of channel 0.
/// let region = CounterRegion::new(geom, 0, geom.rows_per_channel(), 1)?;
/// assert_eq!(region.reserved_rows(), 4);
/// # Ok::<(), hydra_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CounterRegion {
    geometry: MemGeometry,
    channel: u8,
    entries: u64,
    bytes_per_entry: u64,
    reserved_rows: u32,
    channel_banks: u32,
}

impl CounterRegion {
    /// Creates a region holding `entries` counters of `bytes_per_entry`
    /// bytes each in channel `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the region does not fit within one bank or
    /// the parameters are degenerate.
    pub fn new(
        geometry: MemGeometry,
        channel: u8,
        entries: u64,
        bytes_per_entry: u64,
    ) -> Result<Self, ConfigError> {
        if channel >= geometry.channels() {
            return Err(ConfigError::new("channel out of range"));
        }
        if entries == 0 || bytes_per_entry == 0 {
            return Err(ConfigError::new("entries and entry size must be nonzero"));
        }
        let bytes = entries * bytes_per_entry;
        let reserved_rows = u32::try_from(bytes.div_ceil(geometry.row_bytes())).unwrap_or(u32::MAX);
        let channel_banks =
            u32::from(geometry.ranks_per_channel()) * u32::from(geometry.banks_per_rank());
        if reserved_rows.div_ceil(channel_banks) > geometry.rows_per_bank() {
            return Err(ConfigError::new(format!(
                "counter region ({reserved_rows} rows) exceeds the channel"
            )));
        }
        Ok(CounterRegion {
            geometry,
            channel,
            entries,
            bytes_per_entry,
            reserved_rows,
            channel_banks,
        })
    }

    /// Number of counters.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// DRAM bytes occupied.
    pub fn dram_bytes(&self) -> u64 {
        self.entries * self.bytes_per_entry
    }

    /// Rows reserved for the table.
    pub fn reserved_rows(&self) -> u32 {
        self.reserved_rows
    }

    /// Counters per 64-byte line.
    pub fn entries_per_line(&self) -> u64 {
        (64 / self.bytes_per_entry).max(1)
    }

    /// The line (within the region) holding counter `index`.
    pub fn line_of_entry(&self, index: u64) -> u64 {
        index / self.entries_per_line()
    }

    /// The DRAM row storing counter `index`. Region row `r` lives in flat
    /// bank `r % banks` at depth `r / banks` from the top of that bank.
    ///
    /// # Panics
    ///
    /// Panics if `index >= entries()`.
    pub fn dram_row_of_entry(&self, index: u64) -> RowAddr {
        assert!(index < self.entries, "counter index out of range");
        let byte = index * self.bytes_per_entry;
        let region_row = u32::try_from(byte / self.geometry.row_bytes()).unwrap_or(u32::MAX);
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

    /// True if `row` lies inside the region.
    pub fn contains(&self, row: RowAddr) -> bool {
        if row.channel != self.channel {
            return false;
        }
        let flat_bank =
            u32::from(row.rank) * u32::from(self.geometry.banks_per_rank()) + u32::from(row.bank);
        let used = self.reserved_rows / self.channel_banks
            + u32::from(flat_bank < self.reserved_rows % self.channel_banks);
        used > 0 && row.row >= self.geometry.rows_per_bank() - used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_stripes_top_rows_across_banks() {
        let geom = MemGeometry::tiny();
        let r = CounterRegion::new(geom, 0, 4096, 1).unwrap();
        assert_eq!(r.reserved_rows(), 4);
        for bank in 0..4u8 {
            assert!(r.contains(RowAddr::new(0, 0, bank, 1023)), "bank {bank}");
            assert!(!r.contains(RowAddr::new(0, 0, bank, 1022)));
        }
        assert_eq!(r.dram_row_of_entry(0), RowAddr::new(0, 0, 0, 1023));
        assert_eq!(r.dram_row_of_entry(1024), RowAddr::new(0, 0, 1, 1023));
        assert_eq!(r.dram_row_of_entry(4095), RowAddr::new(0, 0, 3, 1023));
    }

    #[test]
    fn entries_per_line_respects_entry_size() {
        let geom = MemGeometry::tiny();
        let r1 = CounterRegion::new(geom, 0, 1024, 1).unwrap();
        let r2 = CounterRegion::new(geom, 0, 1024, 2).unwrap();
        assert_eq!(r1.entries_per_line(), 64);
        assert_eq!(r2.entries_per_line(), 32);
        assert_eq!(r1.line_of_entry(63), 0);
        assert_eq!(r1.line_of_entry(64), 1);
    }

    #[test]
    fn rejects_oversized_region() {
        let geom = MemGeometry::tiny();
        // The whole channel is 4 MB; ask for 8 MB of counters.
        assert!(CounterRegion::new(geom, 0, 8 * 1024 * 1024, 1).is_err());
    }

    #[test]
    fn rejects_degenerate_params() {
        let geom = MemGeometry::tiny();
        assert!(CounterRegion::new(geom, 9, 10, 1).is_err());
        assert!(CounterRegion::new(geom, 0, 0, 1).is_err());
        assert!(CounterRegion::new(geom, 0, 10, 0).is_err());
    }

    #[test]
    fn entry_rows_stay_inside_the_geometry() {
        let geom = MemGeometry::tiny();
        let r = CounterRegion::new(geom, 0, 4096, 1).unwrap();
        // The rank/bank of every counter row comes out of a checked
        // narrowing; the results must always be real geometry coordinates.
        for index in [0, 1, 1023, 1024, 4095] {
            let row = r.dram_row_of_entry(index);
            assert!(row.rank < geom.ranks_per_channel());
            assert!(row.bank < geom.banks_per_rank());
            assert!(row.row < geom.rows_per_bank());
        }
    }
}
