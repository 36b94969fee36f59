#![forbid(unsafe_code)]
pub fn report(n: u32) {
    println!("saw {n}");
    eprintln!("twice");
    print!("no newline");
    eprint!("nor here");
}
