//! Fixture library for U1: one `pub fn` per referrer shape.

/// Called only from `tests/` and `#[cfg(test)]` code: flagged.
pub fn only_tests() -> u32 {
    1
}

/// Also called from library code below: silent.
pub fn used_in_lib() -> u32 {
    2
}

/// Called only from the nested workspace's `src/`: silent.
pub fn bench_only() -> u32 {
    3
}

/// Called only from a `#[cfg(not(test))]` item, which is library
/// code: silent.
pub fn production_only() -> u32 {
    4
}

// bcc-lint: allow(U1): reference oracle that the tests compare against
pub fn justified_oracle() -> u32 {
    5
}

// bcc-lint: allow(U1)
pub fn bare_allow() -> u32 {
    6
}

fn internal() -> u32 {
    used_in_lib()
}

#[cfg(not(test))]
fn production_path() -> u32 {
    production_only()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_tests(), 1);
        assert_eq!(super::justified_oracle(), 5);
    }
}
