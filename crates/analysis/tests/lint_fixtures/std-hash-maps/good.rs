#![forbid(unsafe_code)]
//! Known-good: row-keyed maps use the fixed row hasher. Naming `HashMap`
//! in a comment like this one never fires the rule, and neither does a
//! std map in a test module.

use hydra_types::hash::RowMap;

/// Counts activations per row.
pub fn count(rows: &[u32]) -> RowMap<u32, u64> {
    let mut counts = RowMap::default();
    for &row in rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    #[test]
    fn std_maps_are_fine_in_tests() {
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(1u32));
    }
}
