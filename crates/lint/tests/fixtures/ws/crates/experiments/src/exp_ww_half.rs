//! A complete experiment module whose REGISTRY row forgets `reduce`:
//! one R1 finding, on lib.rs.

pub fn jobs() -> Vec<u32> {
    vec![4, 5]
}

pub fn reduce(jobs: Vec<u32>) -> u32 {
    jobs.into_iter().max().unwrap_or(0)
}
