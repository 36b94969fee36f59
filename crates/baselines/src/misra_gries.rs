//! The Misra-Gries frequent-items summary used by Graphene.
//!
//! Maintains up to `N` (item, count) pairs plus a *spillover* counter. The
//! invariant that makes it useful for Row-Hammer tracking: for every item,
//! `estimate(item) >= true_count(item)` — where `estimate` is the item's
//! tabled count if present, else the spillover count. A threshold check on
//! the estimate therefore never misses a true aggressor. (Graphene paper,
//! MICRO 2020.)

use hydra_types::counter::Sat;
use hydra_types::hash::RowMap;
use std::hash::Hash;

/// A Misra-Gries summary over items of type `K`.
///
/// # Example
///
/// ```
/// use hydra_baselines::MisraGries;
/// let mut mg = MisraGries::new(2);
/// mg.increment(&"a");
/// mg.increment(&"a");
/// mg.increment(&"b");
/// assert_eq!(mg.estimate(&"a"), 2);
/// assert!(mg.estimate(&"c") <= mg.spillover() );
/// ```
#[derive(Debug, Clone)]
pub struct MisraGries<K> {
    entries: RowMap<K, Sat<u64>>,
    capacity: usize,
    spillover: Sat<u64>,
}

impl<K: Eq + Hash + Clone> MisraGries<K> {
    /// Creates a summary with room for `capacity` tracked items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Misra-Gries needs at least one entry");
        MisraGries {
            entries: RowMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            spillover: Sat::default(),
        }
    }

    /// Tracked-entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current spillover count (lower bound for untracked items' estimates).
    pub fn spillover(&self) -> u64 {
        self.spillover.get()
    }

    /// Number of tracked items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one occurrence of `item` and returns its new estimate.
    ///
    /// The classic update: if tracked, bump its count. Otherwise, if an
    /// entry sits at the spillover floor, replace it (the newcomer inherits
    /// `spillover + 1`). Otherwise bump the spillover counter.
    pub fn increment(&mut self, item: &K) -> u64 {
        if let Some(c) = self.entries.get_mut(item) {
            c.increment();
            return c.get();
        }
        let mut seeded = self.spillover;
        seeded.increment();
        if self.entries.len() < self.capacity {
            self.entries.insert(item.clone(), seeded);
            return seeded.get();
        }
        // Replace a floor entry if one exists.
        let spill = self.spillover;
        let floor_key = self
            .entries
            .iter()
            .find(|(_, &c)| c <= spill)
            .map(|(k, _)| k.clone());
        if let Some(key) = floor_key {
            self.entries.remove(&key);
            self.entries.insert(item.clone(), seeded);
        } else {
            self.spillover = seeded;
        }
        seeded.get()
    }

    /// The over-approximate count for `item`.
    pub fn estimate(&self, item: &K) -> u64 {
        self.entries
            .get(item)
            .copied()
            .unwrap_or(self.spillover)
            .get()
    }

    /// True if `item` currently has a tracked entry.
    pub fn is_tracked(&self, item: &K) -> bool {
        self.entries.contains_key(item)
    }

    /// Iterates over the tracked `(item, count)` pairs in an unspecified
    /// order that depends only on the operations applied (the map uses the
    /// fixed [`hydra_types::hash::RowHasher`]).
    ///
    /// Counts carry the usual Misra-Gries over-approximation (up to
    /// [`Self::spillover`] phantom occurrences); heavy-hitter consumers
    /// like the forensics attribution engine sort and threshold these.
    pub fn entries(&self) -> impl Iterator<Item = (&K, u64)> {
        self.entries.iter().map(|(k, c)| (k, c.get()))
    }

    /// Sets a tracked item's count (used by Graphene after mitigation: the
    /// count restarts from the spillover floor so the estimate invariant is
    /// preserved for the *post-mitigation* true count of zero).
    pub fn reset_item(&mut self, item: &K) {
        let spill = self.spillover;
        if let Some(c) = self.entries.get_mut(item) {
            *c = spill;
        }
    }

    /// Clears everything (window reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.spillover = Sat::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_types::hash::RowMap as Map;

    #[test]
    fn tracks_up_to_capacity_exactly() {
        let mut mg = MisraGries::new(3);
        for item in ["a", "b", "c"] {
            mg.increment(&item);
        }
        assert_eq!(mg.len(), 3);
        assert_eq!(mg.estimate(&"a"), 1);
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn overflow_bumps_spillover() {
        let mut mg = MisraGries::new(2);
        mg.increment(&1);
        mg.increment(&2);
        mg.increment(&3); // no floor entry (both at 1 > spill 0)? floor = c <= 0: none
        assert_eq!(mg.spillover(), 1);
        // Now items at count 1 == spillover are replaceable.
        mg.increment(&4);
        assert!(mg.is_tracked(&4));
        assert_eq!(mg.estimate(&4), 2);
    }

    #[test]
    fn estimate_never_underestimates() {
        // The Misra-Gries guarantee, checked against exact counts on an
        // adversarial interleaving.
        let mut mg = MisraGries::new(4);
        let mut exact: Map<u32, u64> = Map::default();
        let stream: Vec<u32> = (0..2000u32).map(|i| (i * 7) % 23).collect();
        for item in stream {
            *exact.entry(item).or_insert(0) += 1;
            mg.increment(&item);
            for (k, &true_count) in &exact {
                assert!(
                    mg.estimate(k) >= true_count,
                    "estimate({k}) = {} < true {true_count}",
                    mg.estimate(k)
                );
            }
        }
    }

    #[test]
    fn reset_item_floors_at_spillover() {
        let mut mg = MisraGries::new(1);
        for _ in 0..10 {
            mg.increment(&"hot");
        }
        mg.increment(&"other"); // spillover -> 1
        mg.reset_item(&"hot");
        assert_eq!(mg.estimate(&"hot"), mg.spillover());
    }

    #[test]
    fn entries_exposes_tracked_pairs() {
        let mut mg = MisraGries::new(4);
        for _ in 0..3 {
            mg.increment(&"hot");
        }
        mg.increment(&"cold");
        let mut pairs: Vec<(&str, u64)> = mg.entries().map(|(k, c)| (*k, c)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![("cold", 1), ("hot", 3)]);
    }

    #[test]
    fn clear_resets_all_state() {
        let mut mg = MisraGries::new(2);
        mg.increment(&1);
        mg.increment(&2);
        mg.increment(&3);
        mg.clear();
        assert!(mg.is_empty());
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn two_summaries_fed_one_stream_agree_entry_for_entry() {
        // Which floor entry gets evicted follows map iteration order; under
        // the fixed row hasher that order is the same in every instance
        // (and every process), so replays agree entry for entry.
        let stream: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 97)
            .collect();
        let (mut a, mut b) = (MisraGries::new(8), MisraGries::new(8));
        for item in &stream {
            assert_eq!(a.increment(item), b.increment(item));
        }
        let pairs = |mg: &MisraGries<u32>| mg.entries().map(|(&k, c)| (k, c)).collect::<Vec<_>>();
        assert_eq!(pairs(&a), pairs(&b));
        for item in 0..97 {
            assert_eq!(a.estimate(&item), b.estimate(&item));
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MisraGries::<u32>::new(0);
    }

    #[test]
    fn resident_counts_climb_exactly_below_capacity() {
        let mut mg = MisraGries::new(4);
        for expected in 1..=300u64 {
            assert_eq!(mg.increment(&"hot"), expected);
        }
        assert_eq!(mg.estimate(&"hot"), 300);
        assert_eq!(mg.spillover(), 0);
    }
}
