//! Row-Count Cache (RCC): the second head of Hydra.
//!
//! A small set-associative SRAM cache of *individual* RCT entries. Unlike a
//! conventional metadata cache it caches at single-counter granularity (not
//! 64-byte lines) and tags by row address, because accesses to distinct hot
//! rows have poor spatial locality (Sec. 4.4). Replacement is SRRIP — the
//! paper's Table 4 budgets 2 SRRIP bits per entry.
//!
//! Every valid entry is dirty by construction (an entry is only installed to
//! be incremented), so every eviction writes back to the RCT in DRAM.

use hydra_types::counter::index;

/// One RCC entry: the cached activation count for a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RccEntry {
    /// The row's slot index (tag + set reconstruct this).
    pub slot: u64,
    /// Cached activation count.
    pub count: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    count: u32,
    rrpv: u8,
}

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u8 = 3;
/// RRPV assigned on insertion ("long re-reference interval").
const RRPV_INSERT: u8 = 2;

/// The Row-Count Cache.
///
/// Keys are *slot indices* (the possibly-permuted row index used throughout
/// Hydra; see [`crate::indexing::GroupIndexer`]).
///
/// # Example
///
/// ```
/// use hydra_core::rcc::RowCountCache;
/// let mut rcc = RowCountCache::new(8, 2);
/// assert_eq!(rcc.lookup_mut(42), None);
/// let evicted = rcc.insert(42, 200);
/// assert_eq!(evicted, None);
/// assert_eq!(*rcc.lookup_mut(42).unwrap(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct RowCountCache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RowCountCache {
    /// Creates an RCC with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two, `ways` is zero,
    /// or `ways` does not divide `entries`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "RCC entries must be a positive power of two, got {entries}"
        );
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "ways must divide entries"
        );
        let nsets = entries / ways;
        assert!(
            nsets.is_power_of_two(),
            "RCC set count must be a power of two"
        );
        RowCountCache {
            sets: vec![vec![Way::default(); ways]; nsets],
            ways,
            set_mask: (nsets as u64) - 1,
            set_bits: nsets.trailing_zeros(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions (write-backs) so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    #[inline]
    fn set_and_tag(&self, slot: u64) -> (usize, u64) {
        (index(slot & self.set_mask), slot >> self.set_bits)
    }

    /// Looks up a slot; on a hit, promotes the entry (SRRIP: RRPV ← 0) and
    /// returns a mutable reference to its count.
    pub fn lookup_mut(&mut self, slot: u64) -> Option<&mut u32> {
        let (set, tag) = self.set_and_tag(slot);
        let ways = &mut self.sets[set];
        for way in ways.iter_mut() {
            if way.valid && way.tag == tag {
                way.rrpv = 0;
                self.hits += 1;
                return Some(&mut way.count);
            }
        }
        self.misses += 1;
        None
    }

    /// Checks for presence without updating replacement state or counters.
    pub fn contains(&self, slot: u64) -> bool {
        let (set, tag) = self.set_and_tag(slot);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Inserts `(slot, count)`, returning the evicted entry if a valid one
    /// had to make room. Valid entries are always dirty, so the caller must
    /// write any returned entry back to the RCT.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slot is already present — callers
    /// must use [`Self::lookup_mut`] first.
    pub fn insert(&mut self, slot: u64, count: u32) -> Option<RccEntry> {
        debug_assert!(!self.contains(slot), "insert of resident slot {slot}");
        let (set, tag) = self.set_and_tag(slot);
        let set_bits = self.set_bits;
        let ways = &mut self.sets[set];

        // Prefer an invalid way.
        if let Some(way) = ways.iter_mut().find(|w| !w.valid) {
            *way = Way {
                valid: true,
                tag,
                count,
                rrpv: RRPV_INSERT,
            };
            return None;
        }

        // SRRIP victim search: age until some way reaches RRPV_MAX.
        loop {
            if let Some(way) = ways.iter_mut().find(|w| w.rrpv >= RRPV_MAX) {
                let victim = RccEntry {
                    slot: (way.tag << set_bits) | set as u64,
                    count: way.count,
                };
                *way = Way {
                    valid: true,
                    tag,
                    count,
                    rrpv: RRPV_INSERT,
                };
                self.evictions += 1;
                return Some(victim);
            }
            for way in ways.iter_mut() {
                way.rrpv = way.rrpv.saturating_add(1);
            }
        }
    }

    /// Invalidates everything (tracking-window reset, Sec. 4.6). Dirty counts
    /// are intentionally dropped: stale RCT values are overwritten by the
    /// next group spill before they can be read.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for way in set.iter_mut() {
                *way = Way::default();
            }
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of valid entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }

    /// SRAM bits: entries × (valid + tag + 2 SRRIP + 8 count). `tag_bits`
    /// should be the row-index width minus the set-index width; the paper's
    /// Table 4 uses a 13-bit tag for a 24-bit entry.
    pub fn sram_bits(&self, tag_bits: u32) -> u64 {
        self.entries() as u64 * (1 + u64::from(tag_bits) + 2 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut rcc = RowCountCache::new(16, 4);
        rcc.insert(100, 5);
        assert_eq!(*rcc.lookup_mut(100).unwrap(), 5);
        assert_eq!(rcc.hits(), 1);
    }

    #[test]
    fn lookup_miss_counts() {
        let mut rcc = RowCountCache::new(16, 4);
        assert!(rcc.lookup_mut(1).is_none());
        assert_eq!(rcc.misses(), 1);
    }

    #[test]
    fn counts_are_mutable_in_place() {
        let mut rcc = RowCountCache::new(16, 4);
        rcc.insert(7, 10);
        *rcc.lookup_mut(7).unwrap() += 1;
        assert_eq!(*rcc.lookup_mut(7).unwrap(), 11);
    }

    #[test]
    fn eviction_returns_resident_entry() {
        // 1 set of 2 ways: third distinct slot in the set evicts.
        let mut rcc = RowCountCache::new(2, 2);
        assert!(rcc.insert(0, 1).is_none());
        assert!(rcc.insert(1, 2).is_none());
        let evicted = rcc.insert(2, 3).expect("must evict");
        assert!(evicted.slot == 0 || evicted.slot == 1);
        assert_eq!(rcc.occupancy(), 2);
        assert_eq!(rcc.evictions(), 1);
        // The evicted slot is gone; the new one is present.
        assert!(rcc.contains(2));
        assert!(!rcc.contains(evicted.slot));
    }

    #[test]
    fn evicted_entry_reconstructs_slot_and_count() {
        let mut rcc = RowCountCache::new(4, 1); // 4 sets, direct-mapped
        rcc.insert(5, 77); // set 1
        let evicted = rcc.insert(9, 1).expect("conflict in set 1");
        assert_eq!(evicted.slot, 5);
        assert_eq!(evicted.count, 77);
    }

    #[test]
    fn srrip_protects_rehit_entries() {
        let mut rcc = RowCountCache::new(2, 2);
        rcc.insert(0, 1);
        rcc.insert(1, 2);
        // Re-hit slot 0 so its RRPV drops to 0; slot 1 stays at insert RRPV.
        let _ = rcc.lookup_mut(0);
        let evicted = rcc.insert(2, 3).unwrap();
        assert_eq!(evicted.slot, 1, "the non-rehit way must be victimized");
        assert!(rcc.contains(0));
    }

    #[test]
    fn reset_invalidates_all() {
        let mut rcc = RowCountCache::new(8, 2);
        for s in 0..8u32 {
            rcc.insert(u64::from(s), s);
        }
        assert_eq!(rcc.occupancy(), 8);
        rcc.reset();
        assert_eq!(rcc.occupancy(), 0);
        assert!(!rcc.contains(0));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut rcc = RowCountCache::new(8, 2); // 4 sets
        rcc.insert(0, 1); // set 0
        rcc.insert(1, 2); // set 1
        rcc.insert(2, 3); // set 2
        rcc.insert(3, 4); // set 3
        assert_eq!(rcc.occupancy(), 4);
        assert_eq!(rcc.evictions(), 0);
    }

    #[test]
    fn sram_bits_match_table4() {
        // 8K entries × 24 bits = 24 KB.
        let rcc = RowCountCache::new(8 * 1024, 16);
        assert_eq!(rcc.sram_bits(13), 8 * 1024 * 24);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_panic() {
        let _ = RowCountCache::new(12, 3);
    }

    #[test]
    fn sustained_conflict_pressure_always_finds_a_victim() {
        let mut rcc = RowCountCache::new(8, 2);
        // A conflict stream into one set: every insert past the two ways
        // must age the residents until one reaches RRPV_MAX. If aging
        // wrapped instead of saturating, a resident could look young
        // forever and the victim search would spin.
        let sets = rcc.num_sets() as u64;
        for i in 0..64 {
            assert!(!rcc.contains(i * sets));
            rcc.insert(i * sets, 1);
        }
        assert_eq!(rcc.evictions(), 62);
    }
}
