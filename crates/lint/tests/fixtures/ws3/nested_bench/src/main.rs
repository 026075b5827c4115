//! A nested workspace: not linted, but its `src/` counts as a
//! non-test referrer.

fn main() {
    let _ = lib_a::bench_only();
}
