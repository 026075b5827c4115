//! The second same-named test-only `pub fn` (see `lib_a/src/twin.rs`):
//! flagged.

pub fn twin() -> u32 {
    10
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::twin(), 10);
    }
}
