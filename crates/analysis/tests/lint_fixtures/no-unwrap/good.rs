#![forbid(unsafe_code)]
pub fn first(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0)
}
#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_and_expect_are_fine_in_tests() {
        assert_eq!(super::first(&[3]), [3u32].first().copied().unwrap());
        assert_eq!(super::first(&[4]), [4u32].first().copied().expect("one"));
    }
}
