//! One of two same-named test-only `pub fn`s (the other is in
//! `lib_b`): each definition names `twin`, but a definition is no
//! use, so both are flagged.

pub fn twin() -> u32 {
    9
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::twin(), 9);
    }
}
