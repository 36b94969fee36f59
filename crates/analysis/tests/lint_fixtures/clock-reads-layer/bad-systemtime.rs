#![forbid(unsafe_code)]
pub fn wall_clock() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
