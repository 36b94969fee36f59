// No `#![forbid(unsafe_code)]` of its own: the crate-root lint set forbids
// this block.
pub fn f() -> u32 {
    let x = 7;
    unsafe { *std::ptr::addr_of!(x) }
}
