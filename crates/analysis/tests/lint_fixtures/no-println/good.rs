#![forbid(unsafe_code)]
pub fn report(n: u32) -> String {
    format!("saw {n}")
}
#[cfg(test)]
mod tests {
    #[test]
    fn printing_is_fine_in_tests() {
        println!("{}", super::report(1));
        print!("{}", super::report(2));
    }
}
