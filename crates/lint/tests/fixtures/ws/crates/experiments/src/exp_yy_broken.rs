//! Seeded violations: D1, D2, P1, and (by omitting `jobs`/`reduce`,
//! any lib.rs reference to them, and the id literal) five R1 findings.

use std::collections::HashMap; // seeded D1
use std::time::Instant;

pub fn census(xs: &[u32]) -> usize {
    let mut m: HashMap<u32, u32> = HashMap::new(); // seeded D1 (x2 on this line counts once per token)
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m.len()
}

pub fn timed() -> u64 {
    let t = Instant::now(); // seeded D2
    t.elapsed().as_nanos() as u64
}

pub fn risky(v: Option<u32>) -> u32 {
    v.unwrap() // seeded P1
}

pub fn suppressed(v: Option<u32>) -> u32 {
    // bcc-lint: allow(P1)
    v.unwrap()
}

pub fn allowed_set() -> usize {
    let s: std::collections::HashSet<u32> = Default::default(); // bcc-lint: allow(D1)
    s.len()
}

pub fn sneaky_trace(events: &[u8]) -> usize {
    let mut sink = JsonlSink::new(events); // seeded O1
    sink.write_event(0); // seeded O1
    0
}

pub fn suppressed_trace() -> usize {
    // bcc-lint: allow(O1)
    let _ = NullSink::default();
    0
}

pub fn sneaky_metrics(dump: &[u8]) -> usize {
    let mut sink = MetricsJsonlSink::new(dump); // seeded O2
    sink.write_metric(0); // seeded O2
    0
}

pub fn suppressed_metrics() -> usize {
    // bcc-lint: allow(O2)
    let _ = MetricsSummarySink::default();
    0
}
