#![forbid(unsafe_code)]
pub fn report(n: u32) {
    println!("saw {n}");
    print!("no newline");
}
