#![forbid(unsafe_code)]
pub fn second(xs: &[u32]) -> u32 {
    *xs.get(1).expect("two elements")
}
