//! A file with nothing to report: ordered collections, typed errors,
//! string/comment decoys for the lexer.

use std::collections::BTreeMap;

/// The string below spells a violation but must stay inert.
pub const DECOY: &str = "HashMap::new() and x.unwrap() and Instant::now()";

// A comment mentioning HashMap and unwrap() is not a finding either.

fn count(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
