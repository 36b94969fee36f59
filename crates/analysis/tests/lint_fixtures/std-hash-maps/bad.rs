#![forbid(unsafe_code)]
//! Known-bad: a row-keyed map under std's randomly keyed SipHash in a
//! simulation crate.

use std::collections::HashMap;

/// Counts activations per row.
pub fn count(rows: &[u32]) -> HashMap<u32, u64> {
    let mut counts = HashMap::new();
    for &row in rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}
