//! Activation-accounting statistics for Hydra.
//!
//! These counters produce Figure 6 of the paper (the GCT-only / RCC-hit /
//! RCT-access breakdown) and the mitigation/spill diagnostics used by the
//! other experiments.

use std::fmt;

/// Applies a macro to every counter field of [`HydraStats`], in declaration
/// order. Single source of truth keeping [`HydraStats::FIELD_NAMES`],
/// [`HydraStats::fields`], [`HydraStats::delta_since`],
/// [`HydraStats::accumulate`] and the `Display` impl in sync with the
/// struct — adding a counter without updating this list is a compile error
/// (the struct literal in `fields` would be missing a field).
macro_rules! for_each_stat {
    ($m:ident) => {
        $m!(
            activations,
            gct_only,
            rcc_hits,
            rct_accesses,
            group_spills,
            mitigations,
            rit_mitigations,
            reserved_activations,
            side_reads,
            side_writes,
            window_resets,
            near_misses,
            watermark_advances
        );
    };
}

/// Cumulative Hydra event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HydraStats {
    /// Total activations reported to the tracker.
    pub activations: u64,
    /// Activations fully handled by the GCT (entry below `T_G`).
    pub gct_only: u64,
    /// Activations that took the per-row path and hit in the RCC.
    pub rcc_hits: u64,
    /// Activations that took the per-row path and missed in the RCC,
    /// requiring a DRAM RCT access.
    pub rct_accesses: u64,
    /// Group spills (a GCT entry reached `T_G`; RCT entries initialized).
    pub group_spills: u64,
    /// Mitigations issued for ordinary rows.
    pub mitigations: u64,
    /// Mitigations issued for RCT (reserved) rows by RIT-ACT.
    pub rit_mitigations: u64,
    /// Activations landing on reserved (RCT) rows.
    pub reserved_activations: u64,
    /// Metadata line reads sent to DRAM (RCC miss fills + spill reads).
    pub side_reads: u64,
    /// Metadata line writes sent to DRAM (RCC evictions + spill writes).
    pub side_writes: u64,
    /// Tracking-window resets performed.
    pub window_resets: u64,
    /// Per-row count observations that landed in the near-miss band
    /// `[T_H - max(1, T_H/8), T_H)` without triggering a mitigation —
    /// how often rows came within 12.5 % of the threshold and stopped.
    pub near_misses: u64,
    /// Times an unmitigated per-row count observation raised the highest
    /// count seen in the current window.
    pub watermark_advances: u64,
}

macro_rules! stat_field_methods {
    ($($f:ident),+ $(,)?) => {
        /// Names of every counter field, in declaration order.
        pub const FIELD_NAMES: [&'static str; HydraStats::FIELD_COUNT] =
            [$(stringify!($f)),+];

        /// `(name, value)` pairs for every counter, in declaration order.
        ///
        /// The destructuring pattern makes this exhaustive: a counter added
        /// to the struct but not to `for_each_stat!` fails to compile.
        pub fn fields(&self) -> [(&'static str, u64); HydraStats::FIELD_COUNT] {
            let HydraStats { $($f),+ } = *self;
            [$((stringify!($f), $f)),+]
        }

        /// Counter-wise difference `self - earlier`.
        ///
        /// With `earlier` a prior snapshot of the same monotonically
        /// increasing counters this is the per-interval delta; the
        /// subtraction wraps rather than panicking if the arguments are
        /// swapped.
        pub fn delta_since(&self, earlier: &HydraStats) -> HydraStats {
            HydraStats { $($f: self.$f.wrapping_sub(earlier.$f)),+ }
        }

        /// Adds every counter of `other` into `self` (aggregation across
        /// channels or windows).
        pub fn accumulate(&mut self, other: &HydraStats) {
            $(self.$f += other.$f;)+
        }
    };
}

impl HydraStats {
    /// Number of counter fields (length of [`HydraStats::FIELD_NAMES`]).
    pub const FIELD_COUNT: usize = 13;

    for_each_stat!(stat_field_methods);

    /// Merges another instance's counters into `self`.
    ///
    /// This is the reduction used when per-channel shards of a multi-channel
    /// run are combined into system-wide totals (`hydra-engine`). It is the
    /// same counter-wise sum as [`accumulate`](Self::accumulate) — named
    /// separately because the sharded-merge contract is stronger than "add
    /// windows up": merge is commutative and associative (u64 addition per
    /// field, checked by proptest in `crates/core/tests/stats_merge.rs`), so
    /// shard results can be combined in any completion order and still
    /// produce bit-identical totals.
    pub fn merge(&mut self, other: &HydraStats) {
        self.accumulate(other);
    }

    /// Fraction of activations handled by the GCT alone (Fig. 6's "GCT-Only",
    /// ≈90.7 % on average in the paper).
    pub fn gct_only_fraction(&self) -> f64 {
        self.fraction(self.gct_only)
    }

    /// Fraction handled by an RCC hit (Fig. 6's "RCC-Hit", ≈9.0 %).
    pub fn rcc_hit_fraction(&self) -> f64 {
        self.fraction(self.rcc_hits)
    }

    /// Fraction requiring a DRAM RCT access (Fig. 6's "RCT-Access", ≈0.3 %).
    pub fn rct_access_fraction(&self) -> f64 {
        self.fraction(self.rct_accesses)
    }

    /// Fraction of activations landing on reserved (RCT-storage) rows and
    /// therefore tracked by RIT-ACT instead of the GCT/RCT path.
    ///
    /// Together with the three path fractions this partitions all
    /// activations:
    /// `gct_only + rcc_hits + rct_accesses + reserved_activations ==
    /// activations` (when mitigation-refresh activations are counted, the
    /// default).
    pub fn reserved_fraction(&self) -> f64 {
        self.fraction(self.reserved_activations)
    }

    fn fraction(&self, part: u64) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            part as f64 / self.activations as f64
        }
    }

    /// Total extra DRAM accesses (reads + writes) generated by tracking.
    pub fn side_accesses(&self) -> u64 {
        self.side_reads + self.side_writes
    }
}

impl fmt::Display for HydraStats {
    /// Renders an aligned two-column table of every counter; the four
    /// activation buckets additionally show their share of all activations.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24} {:>14}", "counter", "value")?;
        writeln!(f, "{:-<24} {:->14}", "", "")?;
        for (name, value) in self.fields() {
            write!(f, "{name:<24} {value:>14}")?;
            let is_bucket = matches!(
                name,
                "gct_only" | "rcc_hits" | "rct_accesses" | "reserved_activations"
            );
            if is_bucket && self.activations > 0 {
                let share = value as f64 / self.activations as f64 * 100.0;
                write!(f, "  {share:5.1}%")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_exhaustive() {
        let s = HydraStats {
            activations: 100,
            gct_only: 90,
            rcc_hits: 9,
            rct_accesses: 1,
            ..Default::default()
        };
        let sum = s.gct_only_fraction() + s.rcc_hit_fraction() + s.rct_access_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_activations_give_zero_fractions() {
        let s = HydraStats::default();
        assert_eq!(s.gct_only_fraction(), 0.0);
        assert_eq!(s.rct_access_fraction(), 0.0);
    }

    #[test]
    fn side_accesses_adds_reads_and_writes() {
        let s = HydraStats {
            side_reads: 3,
            side_writes: 4,
            ..Default::default()
        };
        assert_eq!(s.side_accesses(), 7);
    }

    #[test]
    fn reserved_fraction_completes_the_partition() {
        let s = HydraStats {
            activations: 100,
            gct_only: 85,
            rcc_hits: 9,
            rct_accesses: 1,
            reserved_activations: 5,
            ..Default::default()
        };
        let sum = s.gct_only_fraction()
            + s.rcc_hit_fraction()
            + s.rct_access_fraction()
            + s.reserved_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(HydraStats::default().reserved_fraction(), 0.0);
    }

    #[test]
    fn fields_cover_every_counter_in_order() {
        let s = HydraStats {
            activations: 1,
            window_resets: 11,
            near_misses: 12,
            watermark_advances: 13,
            ..Default::default()
        };
        let fields = s.fields();
        assert_eq!(fields.len(), HydraStats::FIELD_COUNT);
        assert_eq!(fields[0], ("activations", 1));
        assert_eq!(fields[10], ("window_resets", 11));
        assert_eq!(fields[11], ("near_misses", 12));
        assert_eq!(fields[12], ("watermark_advances", 13));
        for (i, (name, _)) in fields.iter().enumerate() {
            assert_eq!(*name, HydraStats::FIELD_NAMES[i]);
        }
    }

    #[test]
    fn delta_since_and_accumulate_roundtrip() {
        let earlier = HydraStats {
            activations: 10,
            gct_only: 7,
            side_reads: 2,
            ..Default::default()
        };
        let later = HydraStats {
            activations: 25,
            gct_only: 18,
            side_reads: 5,
            mitigations: 3,
            ..Default::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.activations, 15);
        assert_eq!(delta.gct_only, 11);
        assert_eq!(delta.side_reads, 3);
        assert_eq!(delta.mitigations, 3);
        // earlier + delta == later, field for field.
        let mut rebuilt = earlier;
        rebuilt.accumulate(&delta);
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn display_renders_aligned_rows_with_bucket_shares() {
        let s = HydraStats {
            activations: 200,
            gct_only: 180,
            rcc_hits: 15,
            rct_accesses: 5,
            ..Default::default()
        };
        let text = s.to_string();
        let lines: Vec<&str> = text.lines().collect();
        // Header + rule + one line per counter.
        assert_eq!(lines.len(), 2 + HydraStats::FIELD_COUNT);
        assert!(lines[0].starts_with("counter"));
        assert!(lines[2].starts_with("activations"));
        let gct_line = lines
            .iter()
            .find(|l| l.starts_with("gct_only"))
            .expect("gct_only row");
        assert!(gct_line.contains("90.0%"), "share column: {gct_line}");
        // Fixed-width columns: every counter row spans name + gap + value.
        assert!(lines[2].len() >= 24 + 1 + 14);
    }
}
