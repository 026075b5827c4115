//! Fixture: bit-accounting arithmetic (acct). One unchecked add, one
//! checked add, one justified allow, one bare allow, and two unchecked
//! round counts: a `rounds_` name, and a count reached through a
//! method call.

pub fn grow(bits_sent: usize, n: usize) -> usize {
    bits_sent + n
}

pub fn safe(bits_sent: usize, n: usize) -> usize {
    bits_sent.saturating_add(n)
}

pub fn bump(round: usize) -> usize {
    // bcc-lint: allow(A1): round is bounded by the phase width
    round + 1
}

pub fn sneaky(round: usize) -> usize {
    // bcc-lint: allow(A1)
    round + 1
}

pub struct Stats {
    pub rounds: usize,
}

pub struct Outcome(Stats);

impl Outcome {
    pub fn stats(&self) -> &Stats {
        &self.0
    }
}

pub fn count(limit: usize) -> usize {
    let mut rounds_run = 0;
    while rounds_run < limit {
        rounds_run += 1;
    }
    rounds_run
}

pub fn total(outs: &[Outcome]) -> usize {
    let mut x = 0;
    for out in outs {
        x += out.stats().rounds;
    }
    x
}
