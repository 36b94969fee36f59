#![forbid(unsafe_code)]
pub fn report(n: u32) {
    eprintln!("saw {n}");
    eprint!("nor here");
}
