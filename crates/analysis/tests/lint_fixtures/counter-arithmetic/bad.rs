#![forbid(unsafe_code)]
// The narrowing half of the rule. The wrapping half (`+=`, `*`,
// `wrapping_add`, index assignment) cannot be written on a counter at all:
// see the `compile_fail` examples in `hydra_types::counter`.
pub fn narrow(count: u32) -> u8 {
    count as u8
}
pub fn index(slot: u64) -> usize {
    slot as usize
}
