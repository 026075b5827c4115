//! G1 fixture: reads of the artifact store's process-global counters.
//! The module is never compiled; only `bcc-lint` reads it.

use bcc_engine::ArtifactStore;
use bcc_metrics::MetricsBuf;

/// Feeds a metrics dump from the shared store's total: fires G1.
fn record_cache(store: &ArtifactStore, metrics: &mut MetricsBuf) {
    metrics.counter("cache.lookups", store.lookups());
}

/// Feeds a report line from the shared store's hits: fires G1.
fn report_line(store: &ArtifactStore) -> String {
    format!("cache hits {}", store.hits())
}

/// A justified read: silent.
fn live_misses(store: &ArtifactStore) -> u64 {
    // bcc-lint: allow(G1): a live snapshot for one client, never an artifact
    store.misses()
}

/// A bare allow: reported as unjustified.
fn bare_allow(store: &ArtifactStore) -> u64 {
    // bcc-lint: allow(G1)
    store.misses()
}

/// A field of the same name, not a call: silent.
fn field_read(stats: &Stats) -> u64 {
    stats.hits
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_in_tests_are_silent() {
        let store = bcc_engine::ArtifactStore::in_memory();
        assert_eq!(store.hits(), 0);
    }
}
