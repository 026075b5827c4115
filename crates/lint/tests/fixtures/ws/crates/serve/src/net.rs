//! The D2 carve-out file: this exact path may read the monotonic
//! clock (the accept loop's post-drain watchdog), but OS entropy
//! stays forbidden even here.

use std::time::Instant;

fn watchdog_start() -> Instant {
    Instant::now() // carved out: must NOT be a D2 finding
}

fn bad_entropy() -> u64 {
    let _rng = OsRng; // seeded D2: entropy is forbidden even in the carve-out
    7
}
