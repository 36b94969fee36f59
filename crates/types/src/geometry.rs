//! Memory-system geometry and the physical-address ↔ DRAM-address mapping.
//!
//! The geometry owns every "how big is the memory" question in the workspace:
//! how many channels/ranks/banks/rows there are, how a flat cache-line address
//! decodes into a DRAM coordinate, and how dense per-row table indices are
//! computed.
//!
//! The line → DRAM mapping interleaves, from least-significant bit upward:
//! channel, column, bank, rank, row. Channel interleaving at line granularity
//! maximizes channel-level parallelism for streaming accesses; placing the
//! column bits below the bank bits gives sequential accesses row-buffer
//! locality within a channel, matching the open-page baseline the paper
//! simulates with USIMM.

use crate::addr::{LineAddr, RowAddr};
use crate::error::ConfigError;

/// The shape of the simulated memory system.
///
/// All dimension fields must be powers of two so the address mapping is a
/// simple bit-field split.
///
/// # Example
///
/// ```
/// use hydra_types::geometry::MemGeometry;
/// let geom = MemGeometry::isca22_baseline();
/// assert_eq!(geom.capacity_bytes(), 32 * (1u64 << 30));
/// assert_eq!(geom.total_banks(), 32);
/// assert_eq!(geom.rows_per_bank(), 131_072);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemGeometry {
    channels: u8,
    ranks_per_channel: u8,
    banks_per_rank: u8,
    rows_per_bank: u32,
    row_bytes: u64,
}

impl MemGeometry {
    /// Creates a geometry, validating that every dimension is a nonzero power
    /// of two and that a row holds at least one 64-byte line.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero, not a power of two,
    /// or if `row_bytes < 64`.
    pub fn new(
        channels: u8,
        ranks_per_channel: u8,
        banks_per_rank: u8,
        rows_per_bank: u32,
        row_bytes: u64,
    ) -> Result<Self, ConfigError> {
        fn check_pow2(name: &str, v: u64) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::new(format!(
                    "{name} must be a nonzero power of two, got {v}"
                )))
            } else {
                Ok(())
            }
        }
        check_pow2("channels", channels as u64)?;
        check_pow2("ranks_per_channel", ranks_per_channel as u64)?;
        check_pow2("banks_per_rank", banks_per_rank as u64)?;
        check_pow2("rows_per_bank", rows_per_bank as u64)?;
        check_pow2("row_bytes", row_bytes)?;
        if row_bytes < LineAddr::LINE_BYTES {
            return Err(ConfigError::new(format!(
                "row_bytes must be at least one line (64 B), got {row_bytes}"
            )));
        }
        Ok(MemGeometry {
            channels,
            ranks_per_channel,
            banks_per_rank,
            rows_per_bank,
            row_bytes,
        })
    }

    /// The paper's baseline (Table 2): 32 GB DDR4, 2 channels × 1 rank ×
    /// 16 banks, 8 KB rows → 131,072 rows per bank, 4 M rows total.
    pub fn isca22_baseline() -> Self {
        // Literal construction: every dimension is a power of two by
        // inspection, so the `new` validation cannot fail.
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 16,
            rows_per_bank: 131_072,
            row_bytes: 8192,
        }
    }

    /// A DDR5-style 32 GB system (Table 5's comparison point): 2 channels ×
    /// 1 rank × **32 banks**, 8 KB rows. Same capacity and row count as the
    /// DDR4 baseline — which is why Hydra's row-indexed structures cost the
    /// same on DDR5 while per-bank trackers double.
    pub fn ddr5_32gb() -> Self {
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 32,
            rows_per_bank: 65_536,
            row_bytes: 8192,
        }
    }

    /// A small geometry for unit tests and fast property tests:
    /// 1 channel × 1 rank × 4 banks × 1024 rows × 1 KB rows (4 MB).
    pub fn tiny() -> Self {
        MemGeometry {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 1024,
            row_bytes: 1024,
        }
    }

    /// Resolves a preset by its command-line name: `tiny`,
    /// `isca22` ([`isca22_baseline`](Self::isca22_baseline)) or `ddr5`
    /// ([`ddr5_32gb`](Self::ddr5_32gb)). `None` for any other name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "isca22" => Some(Self::isca22_baseline()),
            "ddr5" => Some(Self::ddr5_32gb()),
            _ => None,
        }
    }

    /// The [`tiny`](Self::tiny) geometry widened to `channels` memory
    /// channels — the shape used by the sharded multi-channel engine tests,
    /// where each channel gets its own tracker instance.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `channels` is zero or not a power of two.
    pub fn tiny_with_channels(channels: u8) -> Result<Self, ConfigError> {
        MemGeometry::new(channels, 1, 4, 1024, 1024)
    }

    /// Number of channels.
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Ranks per channel.
    pub fn ranks_per_channel(&self) -> u8 {
        self.ranks_per_channel
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> u8 {
        self.banks_per_rank
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Bytes per row (the row-buffer size).
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Cache lines per row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / LineAddr::LINE_BYTES
    }

    /// Total banks across the whole system.
    pub fn total_banks(&self) -> u32 {
        u32::from(self.channels)
            * u32::from(self.ranks_per_channel)
            * u32::from(self.banks_per_rank)
    }

    /// Total rows across the whole system.
    pub fn total_rows(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows_per_bank)
    }

    /// Rows per channel (across all its ranks and banks).
    pub fn rows_per_channel(&self) -> u64 {
        self.total_rows() / u64::from(self.channels)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes
    }

    /// Total cache lines in the system.
    pub fn total_lines(&self) -> u64 {
        self.capacity_bytes() / LineAddr::LINE_BYTES
    }

    /// Decodes a flat line address into its DRAM row coordinate.
    ///
    /// Bit layout of the line index, LSB first: channel, column, bank, rank,
    /// row. The line address is taken modulo the system capacity so synthetic
    /// address streams never fall off the end.
    #[inline]
    pub fn row_of_line(&self, line: LineAddr) -> RowAddr {
        let mut v = line.index() % self.total_lines();
        let channel = (v % u64::from(self.channels)) as u8;
        v /= u64::from(self.channels);
        v /= self.lines_per_row(); // discard column bits
        let bank = (v % u64::from(self.banks_per_rank)) as u8;
        v /= u64::from(self.banks_per_rank);
        let rank = (v % u64::from(self.ranks_per_channel)) as u8;
        v /= u64::from(self.ranks_per_channel);
        let row = (v % u64::from(self.rows_per_bank)) as u32;
        RowAddr {
            channel,
            rank,
            bank,
            row,
        }
    }

    /// Extracts the column (line-within-row index) of a flat line address.
    #[inline]
    pub fn column_of_line(&self, line: LineAddr) -> u32 {
        let v = (line.index() % self.total_lines()) / u64::from(self.channels);
        (v % self.lines_per_row()) as u32
    }

    /// Encodes a DRAM row coordinate plus a column back into a flat line
    /// address. Inverse of [`Self::row_of_line`] / [`Self::column_of_line`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any coordinate is out of range.
    #[inline]
    pub fn line_of_row(&self, row: RowAddr, column: u32) -> LineAddr {
        debug_assert!(row.channel < self.channels);
        debug_assert!(row.rank < self.ranks_per_channel);
        debug_assert!(row.bank < self.banks_per_rank);
        debug_assert!(row.row < self.rows_per_bank);
        debug_assert!(u64::from(column) < self.lines_per_row());
        let mut v = u64::from(row.row);
        v = v * u64::from(self.ranks_per_channel) + u64::from(row.rank);
        v = v * u64::from(self.banks_per_rank) + u64::from(row.bank);
        v = v * self.lines_per_row() + u64::from(column);
        v = v * u64::from(self.channels) + u64::from(row.channel);
        LineAddr::new(v)
    }

    /// A dense index for a row, in `[0, total_rows())`, suitable for indexing
    /// per-row tables. Rows of the same bank are contiguous, banks of the same
    /// rank are contiguous, and so on: `(((channel·R + rank)·B + bank)·rows) + row`.
    #[inline]
    pub fn flat_row_index(&self, row: RowAddr) -> u64 {
        let mut v = u64::from(row.channel);
        v = v * u64::from(self.ranks_per_channel) + u64::from(row.rank);
        v = v * u64::from(self.banks_per_rank) + u64::from(row.bank);
        v * u64::from(self.rows_per_bank) + u64::from(row.row)
    }

    /// Inverse of [`Self::flat_row_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_rows()`.
    #[inline]
    pub fn row_of_flat_index(&self, index: u64) -> RowAddr {
        assert!(
            index < self.total_rows(),
            "flat row index {index} out of range ({} rows)",
            self.total_rows()
        );
        let row = (index % u64::from(self.rows_per_bank)) as u32;
        let v = index / u64::from(self.rows_per_bank);
        let bank = (v % u64::from(self.banks_per_rank)) as u8;
        let v = v / u64::from(self.banks_per_rank);
        let rank = (v % u64::from(self.ranks_per_channel)) as u8;
        let channel = (v / u64::from(self.ranks_per_channel)) as u8;
        RowAddr {
            channel,
            rank,
            bank,
            row,
        }
    }

    /// A dense index for a row *within its channel*, in
    /// `[0, rows_per_channel())`. Hydra instantiates one tracker per channel
    /// ("structures are evenly divided across the two channels", Sec. 6), and
    /// those trackers index their tables with this value.
    #[inline]
    pub fn channel_row_index(&self, row: RowAddr) -> u64 {
        let mut v = u64::from(row.rank);
        v = v * u64::from(self.banks_per_rank) + u64::from(row.bank);
        v * u64::from(self.rows_per_bank) + u64::from(row.row)
    }

    /// The maximum number of activations a single bank can receive within a
    /// refresh window, given the row-cycle time — the quantity the paper's
    /// Sec. 4.1 calls `ACT_max` (≈1.36 M for tRC = 45 ns and a 64 ms window,
    /// after discounting refresh time).
    ///
    /// `refresh_overhead` is the fraction of the window spent refreshing
    /// (e.g. tRFC/tREFI ≈ 0.0448 for the baseline).
    pub fn max_activations_per_bank(window_ms: f64, trc_ns: f64, refresh_overhead: f64) -> u64 {
        let usable_ns = window_ms * 1e6 * (1.0 - refresh_overhead);
        (usable_ns / trc_ns) as u64
    }
}

impl Default for MemGeometry {
    fn default() -> Self {
        MemGeometry::isca22_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_table2() {
        let g = MemGeometry::isca22_baseline();
        assert_eq!(g.capacity_bytes(), 32 << 30);
        assert_eq!(g.total_rows(), 4 * 1024 * 1024);
        assert_eq!(g.lines_per_row(), 128);
        assert_eq!(g.rows_per_channel(), 2 * 1024 * 1024);
    }

    #[test]
    fn by_name_resolves_exactly_the_three_presets() {
        assert_eq!(MemGeometry::by_name("tiny"), Some(MemGeometry::tiny()));
        assert_eq!(
            MemGeometry::by_name("isca22"),
            Some(MemGeometry::isca22_baseline())
        );
        assert_eq!(MemGeometry::by_name("ddr5"), Some(MemGeometry::ddr5_32gb()));
        assert_eq!(MemGeometry::by_name("ddr4"), None);
        assert_eq!(MemGeometry::by_name("Tiny"), None);
    }

    #[test]
    fn act_max_is_about_1_36_million() {
        // Sec. 2.1: "a bank can encounter up to 1.36 million activations" in
        // 64 ms after discounting refresh.
        let act_max = MemGeometry::max_activations_per_bank(64.0, 45.0, 350.0 / 7812.5);
        assert!(
            (1_350_000..=1_430_000).contains(&act_max),
            "ACT_max = {act_max}"
        );
    }

    #[test]
    fn ddr5_same_capacity_same_rows_double_banks() {
        let d4 = MemGeometry::isca22_baseline();
        let d5 = MemGeometry::ddr5_32gb();
        assert_eq!(d4.capacity_bytes(), d5.capacity_bytes());
        assert_eq!(d4.total_rows(), d5.total_rows());
        assert_eq!(d5.banks_per_rank(), 2 * d4.banks_per_rank());
    }

    #[test]
    fn line_row_round_trip() {
        let g = MemGeometry::tiny();
        for idx in [0u64, 1, 63, 64, 1000, g.total_lines() - 1] {
            let line = LineAddr::new(idx);
            let row = g.row_of_line(line);
            let col = g.column_of_line(line);
            assert_eq!(g.line_of_row(row, col), line, "line index {idx}");
        }
    }

    #[test]
    fn flat_row_index_round_trip() {
        let g = MemGeometry::tiny();
        for idx in [0u64, 1, 1023, 1024, g.total_rows() - 1] {
            let row = g.row_of_flat_index(idx);
            assert_eq!(g.flat_row_index(row), idx);
        }
    }

    #[test]
    fn consecutive_lines_alternate_channels() {
        let g = MemGeometry::isca22_baseline();
        let a = g.row_of_line(LineAddr::new(0));
        let b = g.row_of_line(LineAddr::new(1));
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn same_row_lines_share_row_coordinate() {
        let g = MemGeometry::isca22_baseline();
        // Lines 0 and 2 are consecutive columns of the same row on channel 0.
        let a = g.row_of_line(LineAddr::new(0));
        let b = g.row_of_line(LineAddr::new(2));
        assert_eq!(a, b);
        assert_ne!(
            g.column_of_line(LineAddr::new(0)),
            g.column_of_line(LineAddr::new(2))
        );
    }

    #[test]
    fn channel_row_index_is_dense_per_channel() {
        let g = MemGeometry::tiny();
        let r = RowAddr::new(0, 0, 3, 1023);
        assert_eq!(g.channel_row_index(r), g.rows_per_channel() - 1);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(MemGeometry::new(3, 1, 16, 1024, 8192).is_err());
        assert!(MemGeometry::new(2, 1, 16, 1000, 8192).is_err());
        assert!(MemGeometry::new(2, 1, 16, 1024, 32).is_err());
        assert!(MemGeometry::new(0, 1, 16, 1024, 8192).is_err());
    }

    #[test]
    fn row_of_line_wraps_at_capacity() {
        let g = MemGeometry::tiny();
        let wrapped = g.row_of_line(LineAddr::new(g.total_lines()));
        assert_eq!(wrapped, g.row_of_line(LineAddr::new(0)));
    }
}
