//! The per-unit recording buffer: plain map updates, no locks, no
//! clocks.

use crate::hist::HistogramSnapshot;
use crate::level::MetricsLevel;
use std::collections::BTreeMap;

/// Order-insensitive aggregate of a gauge series.
///
/// A deterministic merge cannot keep "last written value" — which
/// buffer is last depends on thread scheduling — so a gauge is
/// summarized by the commutative aggregates `count`/`min`/`max`/`sum`
/// instead. That is exactly the information a report needs (range and
/// mean of lane occupancy, queue depth, …) and none it cannot have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeStat {
    /// Number of observations.
    pub count: u64,
    /// Smallest observed value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Default for GaugeStat {
    fn default() -> Self {
        GaugeStat {
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }
}

impl GaugeStat {
    /// An empty aggregate.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another aggregate in. Commutative and associative, so
    /// merged results are independent of buffer arrival order.
    pub fn merge_from(&mut self, other: &GaugeStat) {
        if other.count == 0 {
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A per-unit metrics buffer. One buffer belongs to exactly one
/// logical unit (a job, the suite) and is written from exactly one
/// thread at a time, so recording is a plain `BTreeMap` update — the
/// only lock in the whole pipeline is the one `MetricsHub::absorb`
/// takes per *buffer*.
///
/// Metric names are dotted paths (`sim.bits_broadcast`,
/// `cache.lookups`); the maps are `BTreeMap` so iteration — and hence
/// every rendered byte — is ordered by name, never by insertion or
/// hashing.
#[derive(Debug, Clone)]
pub struct MetricsBuf {
    level: MetricsLevel,
    unit: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeStat>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsBuf {
    /// A buffer for `unit` recording at `level`.
    pub fn new(level: MetricsLevel, unit: impl Into<String>) -> Self {
        MetricsBuf {
            level,
            unit: unit.into(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// A buffer that records nothing (the default for unmeasured
    /// runs).
    pub fn disabled() -> Self {
        MetricsBuf::new(MetricsLevel::Off, "")
    }

    /// The recording level.
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// The owning unit.
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// True when core counters/gauges/histograms are kept.
    pub fn core_enabled(&self) -> bool {
        self.level >= MetricsLevel::Core
    }

    /// True when per-observation detail is kept.
    pub fn full_enabled(&self) -> bool {
        self.level >= MetricsLevel::Full
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&mut self, name: &str, delta: u64) {
        if self.core_enabled() {
            let c = self.counters.entry(name.to_string()).or_insert(0);
            *c = c.saturating_add(delta);
        }
    }

    /// Folds one gauge observation into `name`.
    pub fn gauge(&mut self, name: &str, value: u64) {
        if self.core_enabled() {
            self.gauges
                .entry(name.to_string())
                .or_default()
                .observe(value);
        }
    }

    /// Records one histogram sample under `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if self.core_enabled() {
            self.hists
                .entry(name.to_string())
                .or_default()
                .observe(value);
        }
    }

    /// [`observe`](Self::observe), kept only at [`MetricsLevel::Full`].
    pub fn full_observe(&mut self, name: &str, value: u64) {
        if self.full_enabled() {
            self.observe(name, value);
        }
    }

    /// Number of distinct metrics held.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Consumes the buffer into its three metric maps.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        BTreeMap<String, u64>,
        BTreeMap<String, GaugeStat>,
        BTreeMap<String, HistogramSnapshot>,
    ) {
        (self.counters, self.gauges, self.hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buf_records_nothing() {
        let mut b = MetricsBuf::disabled();
        b.counter("c", 2);
        b.gauge("g", 3);
        b.observe("h", 4);
        b.full_observe("fh", 1);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn core_keeps_core_drops_full() {
        let mut b = MetricsBuf::new(MetricsLevel::Core, "u");
        b.counter("c", 2);
        b.counter("c", 3);
        b.gauge("g", 7);
        b.observe("h", 9);
        b.full_observe("fh", 1);
        let (c, g, h) = b.into_parts();
        assert_eq!(c.get("c"), Some(&5));
        assert_eq!(g.get("g").map(|s| s.max), Some(7));
        assert_eq!(h.get("h").map(|s| s.count), Some(1));
        assert!(!h.contains_key("fh"));
    }

    #[test]
    fn full_keeps_everything() {
        let mut b = MetricsBuf::new(MetricsLevel::Full, "u");
        b.counter("c", 1);
        b.full_observe("fh", 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn gauge_stat_aggregates() {
        let mut g = GaugeStat::empty();
        for v in [4u64, 1, 9] {
            g.observe(v);
        }
        assert_eq!((g.count, g.min, g.max, g.sum), (3, 1, 9, 14));
        let mut other = GaugeStat::empty();
        other.observe(0);
        let mut ab = g;
        ab.merge_from(&other);
        let mut ba = other;
        ba.merge_from(&g);
        assert_eq!(ab, ba);
        assert_eq!((ab.count, ab.min, ab.max, ab.sum), (4, 0, 9, 14));
        // Merging an empty aggregate leaves the sentinel min alone.
        let mut with_empty = g;
        with_empty.merge_from(&GaugeStat::empty());
        assert_eq!(with_empty, g);
    }

    #[test]
    fn counters_saturate() {
        let mut b = MetricsBuf::new(MetricsLevel::Core, "u");
        b.counter("c", u64::MAX);
        b.counter("c", 5);
        let (c, _, _) = b.into_parts();
        assert_eq!(c.get("c"), Some(&u64::MAX));
    }
}
