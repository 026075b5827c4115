//! The deterministic hub: per-unit buffers in, one merged dump out.

use crate::buf::{GaugeStat, MetricsBuf};
use crate::hist::HistogramSnapshot;
use crate::json;
use crate::level::MetricsLevel;
use crate::sink::{render_lines, MetricsJsonlSink, MetricsSummarySink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Collects [`MetricsBuf`]s from any number of threads and merges
/// them into one deterministic [`MetricsDump`].
///
/// The merge is a fold of commutative aggregates keyed by metric
/// name — counters add, gauges fold their `count`/`min`/`max`/`sum`,
/// histograms add bucket-wise — so the result is a pure function of
/// the *set* of absorbed buffers, never of thread interleaving:
/// `--jobs 1` and `--jobs 8` produce byte-identical dumps.
///
/// Cloning shares the underlying store (`Arc`), so a hub can be
/// handed to a pool and finished by the caller.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    level: MetricsLevel,
    store: Arc<Mutex<Vec<MetricsBuf>>>,
}

impl MetricsHub {
    /// A hub recording at `level`.
    pub fn new(level: MetricsLevel) -> Self {
        MetricsHub {
            level,
            store: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A hub that records nothing.
    pub fn disabled() -> Self {
        MetricsHub::new(MetricsLevel::Off)
    }

    /// The recording level handed to new buffers.
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// True when this hub keeps any records at all.
    pub fn enabled(&self) -> bool {
        self.level != MetricsLevel::Off
    }

    /// A fresh buffer for the logical unit `unit`, recording at the
    /// hub's level.
    pub fn buf(&self, unit: impl Into<String>) -> MetricsBuf {
        MetricsBuf::new(self.level, unit)
    }

    /// Absorbs a finished buffer: one short lock per buffer, never
    /// per metric. Empty buffers are dropped without locking.
    pub fn absorb(&self, buf: MetricsBuf) {
        if buf.is_empty() {
            return;
        }
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buf);
    }

    /// Absorbs counters recorded by a *foreign* buffer — one that
    /// lived in another process and crossed a wire — namespacing
    /// every name under `prefix` (e.g. `transport.worker:1.`) so
    /// cross-process contributions can never collide with, or be
    /// mistaken for, driver-side metrics. A no-op when the hub is
    /// disabled or `counters` is empty.
    pub fn absorb_foreign(
        &self,
        unit: impl Into<String>,
        prefix: &str,
        counters: &[(String, u64)],
    ) {
        if !self.enabled() || counters.is_empty() {
            return;
        }
        let mut buf = self.buf(unit);
        for (name, delta) in counters {
            buf.counter(&format!("{prefix}{name}"), *delta);
        }
        self.absorb(buf);
    }

    /// Merges everything absorbed so far into a [`MetricsDump`],
    /// draining the store.
    pub fn finish(&self) -> MetricsDump {
        let bufs = self
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .split_off(0);
        let mut dump = MetricsDump::empty(self.level);
        for buf in bufs {
            dump.units += 1;
            let (counters, gauges, hists) = buf.into_parts();
            for (name, delta) in counters {
                let c = dump.counters.entry(name).or_insert(0);
                *c = c.saturating_add(delta);
            }
            for (name, g) in gauges {
                dump.gauges.entry(name).or_default().merge_from(&g);
            }
            for (name, h) in hists {
                dump.hists.entry(name).or_default().merge_from(&h);
            }
        }
        dump
    }
}

/// The merged result of a measured run: every metric, aggregated over
/// all units, keyed and ordered by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDump {
    level: MetricsLevel,
    units: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeStat>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsDump {
    /// An empty dump at `level`.
    pub fn empty(level: MetricsLevel) -> Self {
        MetricsDump {
            level,
            units: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// The level the dump was recorded at.
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// Number of (non-empty) unit buffers merged in.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// The merged counters, ordered by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The merged gauge aggregates, ordered by name.
    pub fn gauges(&self) -> &BTreeMap<String, GaugeStat> {
        &self.gauges
    }

    /// The merged histograms, ordered by name.
    pub fn hists(&self) -> &BTreeMap<String, HistogramSnapshot> {
        &self.hists
    }

    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// True when no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Writes the dump as JSONL: one meta line, then one line per
    /// metric, ordered by kind then name. This is the facade over the
    /// rendering internals (lint rule O2); equal dumps render
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut sink = MetricsJsonlSink::new(w);
        for line in render_lines(self) {
            sink.write_metric(&line)?;
        }
        sink.finish()
    }

    /// The JSONL rendering as one in-memory string.
    pub fn to_jsonl_string(&self) -> String {
        let mut lines = render_lines(self);
        lines.push(String::new()); // trailing newline
        lines.join("\n")
    }

    /// The compact human-readable summary.
    pub fn summary(&self) -> String {
        MetricsSummarySink::render(self)
    }

    /// Parses a dump back from its JSONL rendering. Derived fields
    /// (means, percentiles) are recomputed from the merged aggregates,
    /// so `parse_jsonl(d.to_jsonl_string()) == d` for every dump `d`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_jsonl(text: &str) -> Result<MetricsDump, String> {
        let mut dump = MetricsDump::empty(MetricsLevel::Off);
        let mut saw_meta = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            saw_meta |= dump
                .parse_line(line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        if !saw_meta {
            return Err("dump has no meta line".to_string());
        }
        Ok(dump)
    }

    /// Folds one dump line into `self`; true when it was the meta line.
    fn parse_line(&mut self, line: &str) -> Result<bool, String> {
        let v = json::parse(line)?;
        match v.str_field("type")? {
            "meta" => {
                let level_name = v.str_field("level")?;
                self.level = MetricsLevel::from_name(level_name)
                    .ok_or_else(|| format!("bad level '{level_name}'"))?;
                self.units = v.u64_field("units")?;
                return Ok(true);
            }
            "counter" => {
                self.counters
                    .insert(v.str_field("name")?.to_string(), v.u64_field("value")?);
            }
            "gauge" => {
                let stat = GaugeStat {
                    count: v.u64_field("count")?,
                    min: v.u64_field("min")?,
                    max: v.u64_field("max")?,
                    sum: v.u64_field("sum")?,
                };
                self.gauges.insert(v.str_field("name")?.to_string(), stat);
            }
            "hist" => {
                let mut h = HistogramSnapshot::empty();
                h.count = v.u64_field("count")?;
                h.sum = v.u64_field("sum")?;
                h.max = v.u64_field("max")?;
                for pair in v.arr_field("buckets")? {
                    let bucket = match pair.as_arr() {
                        Some([i, c]) => i.as_u64().zip(c.as_u64()),
                        _ => None,
                    };
                    match bucket {
                        Some((i, c)) if (i as usize) < h.buckets.len() => {
                            h.buckets[i as usize] = c;
                        }
                        _ => return Err("bad bucket pair".to_string()),
                    }
                }
                self.hists.insert(v.str_field("name")?.to_string(), h);
            }
            other => return Err(format!("unknown type '{other}'")),
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hub(level: MetricsLevel) -> MetricsHub {
        let hub = MetricsHub::new(level);
        let mut a = hub.buf("job-a");
        a.counter("sim.bits", 10);
        a.gauge("engine.occupancy", 4);
        a.observe("sim.round_bits", 3);
        let mut b = hub.buf("job-b");
        b.counter("sim.bits", 5);
        b.gauge("engine.occupancy", 9);
        b.observe("sim.round_bits", 100);
        hub.absorb(a);
        hub.absorb(b);
        hub
    }

    #[test]
    fn merge_is_deterministic_regardless_of_absorb_order() {
        let ab = sample_hub(MetricsLevel::Core).finish();
        // Same records, reversed absorb order.
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut a = hub.buf("job-a");
        a.counter("sim.bits", 10);
        a.gauge("engine.occupancy", 4);
        a.observe("sim.round_bits", 3);
        let mut b = hub.buf("job-b");
        b.counter("sim.bits", 5);
        b.gauge("engine.occupancy", 9);
        b.observe("sim.round_bits", 100);
        hub.absorb(b);
        hub.absorb(a);
        let ba = hub.finish();
        assert_eq!(ab, ba);
        assert_eq!(ab.to_jsonl_string(), ba.to_jsonl_string());
        assert_eq!(ab.counter("sim.bits"), Some(15));
        assert_eq!(ab.units(), 2);
    }

    #[test]
    fn disabled_hub_stays_empty() {
        let hub = MetricsHub::disabled();
        assert!(!hub.enabled());
        let mut b = hub.buf("u");
        b.counter("c", 1);
        hub.absorb(b);
        let dump = hub.finish();
        assert!(dump.is_empty());
        assert_eq!(dump.units(), 0);
    }

    #[test]
    fn clones_share_the_store() {
        let hub = MetricsHub::new(MetricsLevel::Core);
        let clone = hub.clone();
        let mut b = clone.buf("u");
        b.counter("c", 1);
        clone.absorb(b);
        assert_eq!(hub.finish().counter("c"), Some(1));
    }

    #[test]
    fn absorb_foreign_prefixes_and_counts_as_a_unit() {
        let hub = MetricsHub::new(MetricsLevel::Core);
        hub.absorb_foreign(
            "worker:1",
            "transport.worker:1.",
            &[("frames".to_string(), 12), ("rounds".to_string(), 3)],
        );
        let dump = hub.finish();
        assert_eq!(dump.units(), 1);
        assert_eq!(dump.counter("transport.worker:1.frames"), Some(12));
        assert_eq!(dump.counter("transport.worker:1.rounds"), Some(3));
        assert_eq!(dump.counter("frames"), None);
    }

    #[test]
    fn absorb_foreign_is_noop_when_disabled_or_empty() {
        let off = MetricsHub::disabled();
        off.absorb_foreign("worker:0", "transport.", &[("frames".to_string(), 1)]);
        assert!(off.finish().is_empty());
        let on = MetricsHub::new(MetricsLevel::Core);
        on.absorb_foreign("worker:0", "transport.", &[]);
        assert_eq!(on.finish().units(), 0);
    }

    #[test]
    fn jsonl_round_trips() {
        let dump = sample_hub(MetricsLevel::Full).finish();
        let text = dump.to_jsonl_string();
        let parsed = MetricsDump::parse_jsonl(&text).unwrap();
        assert_eq!(parsed, dump);
        assert_eq!(parsed.to_jsonl_string(), text);
    }

    #[test]
    fn jsonl_shape_is_pinned() {
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut b = hub.buf("u");
        b.counter("cache.lookups", 7);
        hub.absorb(b);
        let text = hub.finish().to_jsonl_string();
        assert_eq!(
            text,
            "{\"type\":\"meta\",\"schema\":1,\"level\":\"core\",\"units\":1,\"counters\":1,\"gauges\":0,\"hists\":0}\n\
             {\"type\":\"counter\",\"name\":\"cache.lookups\",\"value\":7}\n"
        );
    }

    #[test]
    fn jsonl_round_trips_past_2_pow_53() {
        let big = (1u64 << 53) + 1;
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut b = hub.buf("u");
        b.counter("sim.bits", big);
        b.gauge("engine.occupancy", big);
        hub.absorb(b);
        let dump = hub.finish();
        let parsed = MetricsDump::parse_jsonl(&dump.to_jsonl_string()).unwrap();
        assert_eq!(parsed.counter("sim.bits"), Some(big));
        assert_eq!(parsed.gauges()["engine.occupancy"].sum, big);
        assert_eq!(parsed, dump);
    }

    #[test]
    fn parse_rejects_malformed_dumps() {
        assert!(MetricsDump::parse_jsonl("").is_err()); // no meta
        assert!(MetricsDump::parse_jsonl("{\"type\":\"what\"}").is_err());
        assert!(MetricsDump::parse_jsonl("{\"type\":\"counter\",\"name\":\"x\"}").is_err());
        let bad_bucket = "{\"type\":\"meta\",\"schema\":1,\"level\":\"core\",\"units\":1,\"counters\":0,\"gauges\":0,\"hists\":1}\n\
                          {\"type\":\"hist\",\"name\":\"h\",\"count\":1,\"mean\":1.0,\"p50_le\":1,\"p90_le\":1,\"p99_le\":1,\"max\":1,\"sum\":1,\"buckets\":[[999,1]]}";
        assert!(MetricsDump::parse_jsonl(bad_bucket).is_err());
    }

    #[test]
    fn summary_renders_counts() {
        let s = sample_hub(MetricsLevel::Core).finish().summary();
        assert!(s.contains("sim.bits"), "summary was: {s}");
        assert!(s.contains("15"), "summary was: {s}");
        assert!(s.contains("engine.occupancy"), "summary was: {s}");
    }
}
