//! Fixture workspace: a miniature experiments crate with one
//! well-registered module, one broken one, and one whose REGISTRY row
//! names `jobs` but not `reduce`.

mod exp_ww_half;
mod exp_yy_broken;
mod exp_zz_good;

pub struct Experiment {
    pub id: &'static str,
    pub jobs: fn() -> Vec<u32>,
    pub reduce: fn(Vec<u32>) -> u32,
}

pub static REGISTRY: [Experiment; 2] = [
    Experiment { id: "zz", jobs: exp_zz_good::jobs, reduce: exp_zz_good::reduce },
    Experiment { id: "ww", jobs: exp_ww_half::jobs, reduce: |js| js.len() as u32 },
];
