//! A clean, fully-registered experiment module.

pub fn jobs() -> Vec<u32> {
    vec![1, 2, 3]
}

pub fn reduce(jobs: Vec<u32>) -> u32 {
    jobs.into_iter().sum()
}

#[cfg(test)]
mod tests {
    // Panics in test code are fine: no P1 here.
    #[test]
    fn reduce_sums() {
        assert_eq!(super::reduce(super::jobs()), 6);
        let v: Option<u32> = Some(1);
        v.unwrap();
    }
}
