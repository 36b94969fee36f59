//! Seeded input generation. Every workload builds its inputs here from the
//! `--seed` argument alone; the program under test only sees the result.

use hydra_types::{MemGeometry, RowAddr};
use hydra_workloads::trace::TraceSource;
use hydra_workloads::{registry, AttackPattern};

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which Hydra path a generated row is meant to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Table-3 programs (`mcf`, `parest`): mostly GCT-only activations.
    Benign,
    /// Many-sided and Half-Double hammering: hot rows living in the RCC.
    Attack,
    /// Rows scattered over a few saturated row groups: RCC misses and RCT
    /// accesses.
    Thrash,
}

impl RowKind {
    /// Lower-case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            RowKind::Benign => "benign",
            RowKind::Attack => "attack",
            RowKind::Thrash => "thrash",
        }
    }
}

/// A generated activation stream, each row tagged with its kind. Rows of
/// one kind come in contiguous segments of equal length.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Demand activations, in order.
    pub rows: Vec<RowAddr>,
    /// `kinds[i]` is the kind of `rows[i]`.
    pub kinds: Vec<RowKind>,
    /// Length of every segment.
    pub segment: usize,
}

/// Rows a thrash segment scatters over: sixteen 128-row groups at the
/// isca22 geometry.
const THRASH_SPAN: u32 = 2048;

/// The segment schedule of one round: benign and attack segments
/// alternate, and a thrash segment closes the round.
const ROUND: [(&str, RowKind); 5] = [
    ("mcf", RowKind::Benign),
    ("many_sided", RowKind::Attack),
    ("parest", RowKind::Benign),
    ("half_double", RowKind::Attack),
    ("thrash", RowKind::Thrash),
];

/// Builds `rounds` rounds of the segment schedule, `segment` rows each.
/// Attack victims are drawn from the seed (channel, bank and a row with
/// room for every aggressor); with `channel0_only` every row is pinned to
/// channel 0, as single-instance replays need.
pub fn mixed_stream(
    geometry: MemGeometry,
    seed: u64,
    segment: usize,
    rounds: usize,
    channel0_only: bool,
) -> Stream {
    let mut rng = SplitMix64::new(seed);
    let mut rows = Vec::with_capacity(segment * ROUND.len() * rounds);
    let mut kinds = Vec::with_capacity(rows.capacity());
    let channels = if channel0_only {
        1
    } else {
        u64::from(geometry.channels())
    };
    let rows_per_bank = geometry.rows_per_bank();
    for _ in 0..rounds {
        for (name, kind) in ROUND {
            let segment_seed = rng.next_u64();
            let mut next: Box<dyn FnMut() -> RowAddr> = match kind {
                RowKind::Benign => {
                    let spec = registry::by_name(name).expect("benign programs are registered");
                    let mut trace = spec.build(geometry, 256, segment_seed);
                    Box::new(move || geometry.row_of_line(trace.next_op().addr))
                }
                RowKind::Attack => {
                    let victim = RowAddr::new(
                        rng.below(channels) as u8,
                        0,
                        rng.below(u64::from(geometry.banks_per_rank())) as u8,
                        64 + rng.below(u64::from(rows_per_bank - 128)) as u32,
                    );
                    let pattern = if name == "many_sided" {
                        AttackPattern::ManySided {
                            first: victim,
                            n: 16,
                        }
                    } else {
                        AttackPattern::HalfDouble { victim, ratio: 8 }
                    };
                    let mut attack = pattern.rows(geometry);
                    Box::new(move || attack.next_row())
                }
                RowKind::Thrash => {
                    // Rows drawn uniformly from one span of consecutive
                    // rows: its few row groups saturate their GCT entries
                    // early in each window, after which most activations
                    // open a row the RCC has not seen and go to the RCT.
                    let span = THRASH_SPAN.min(rows_per_bank);
                    let channel = rng.below(channels) as u8;
                    let bank = rng.below(u64::from(geometry.banks_per_rank())) as u8;
                    let base = rng.below(u64::from(rows_per_bank / span)) as u32 * span;
                    let mut local = SplitMix64::new(segment_seed);
                    Box::new(move || {
                        RowAddr::new(channel, 0, bank, base + local.below(u64::from(span)) as u32)
                    })
                }
            };
            for _ in 0..segment {
                let mut row = next();
                if channel0_only {
                    row.channel = 0;
                }
                rows.push(row);
                kinds.push(kind);
            }
        }
    }
    Stream {
        rows,
        kinds,
        segment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let g = MemGeometry::tiny();
        let a = mixed_stream(g, 7, 100, 2, true);
        let b = mixed_stream(g, 7, 100, 2, true);
        let c = mixed_stream(g, 8, 100, 2, true);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, c.rows);
        assert_eq!(a.rows.len(), 1000);
        assert!(a.rows.iter().all(|r| r.channel == 0));
    }

    #[test]
    fn every_kind_appears_in_contiguous_segments() {
        let s = mixed_stream(MemGeometry::isca22_baseline(), 1, 50, 1, false);
        for (i, chunk) in s.kinds.chunks(s.segment).enumerate() {
            assert!(chunk.iter().all(|k| *k == ROUND[i].1));
        }
    }
}
