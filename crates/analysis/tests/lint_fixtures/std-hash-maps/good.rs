#![forbid(unsafe_code)]
//! Known-good: row-keyed maps use the fixed row hasher. Naming `HashMap`
//! in a comment like this one never fires the rule.

use hydra_types::hash::RowMap;

/// Counts activations per row.
pub fn count(rows: &[u32]) -> RowMap<u32, u64> {
    let mut counts = RowMap::default();
    for &row in rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

