#![forbid(unsafe_code)]
pub fn elapsed_micros() -> u128 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_micros()
}
