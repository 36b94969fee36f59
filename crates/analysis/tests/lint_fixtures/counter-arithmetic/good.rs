#![forbid(unsafe_code)]
use hydra_types::counter::{index, SatCounters};

pub fn bump(counts: &mut SatCounters<u8>, slot: u64) {
    counts.increment(index(slot));
}
pub fn advance(pos: &mut usize) {
    // Parser cursors are not row counters.
    *pos += 1;
}
pub fn narrow(count: u32) -> u8 {
    u8::try_from(count).unwrap_or(u8::MAX)
}
