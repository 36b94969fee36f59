#![forbid(unsafe_code)]
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
