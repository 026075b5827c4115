//! Rendering internals: from a merged dump to bytes.
//!
//! Everything here is the *private back half* of the facade on
//! [`MetricsDump`]. Code outside `crates/metrics`
//! must not name these types or call [`MetricsJsonlSink::write_metric`]
//! directly (lint rule O2, the metrics mirror of O1): the facade is
//! the only blessed route from recorded metrics to rendered bytes, so
//! every dump in the tree goes through the same deterministic merge
//! and the same stable line format.

use crate::hub::MetricsDump;
use crate::json::escape;
use std::io::Write;

/// Renders every line of a dump, in the fixed order the codec pins:
/// one meta line, then counters, gauges, and histograms, each sorted
/// by metric name (the maps are `BTreeMap`s, so iteration is sorted).
pub(crate) fn render_lines(dump: &MetricsDump) -> Vec<String> {
    let mut lines =
        Vec::with_capacity(1 + dump.counters().len() + dump.gauges().len() + dump.hists().len());
    lines.push(format!(
        "{{\"type\":\"meta\",\"schema\":1,\"level\":\"{}\",\"units\":{},\"counters\":{},\"gauges\":{},\"hists\":{}}}",
        dump.level().name(),
        dump.units(),
        dump.counters().len(),
        dump.gauges().len(),
        dump.hists().len(),
    ));
    for (name, value) in dump.counters() {
        lines.push(format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape(name)
        ));
    }
    for (name, g) in dump.gauges() {
        lines.push(format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"count\":{},\"min\":{},\"max\":{},\"sum\":{}}}",
            escape(name),
            g.count,
            // An empty gauge never renders (observe precedes insert),
            // so `min` is always a real observation here.
            g.min,
            g.max,
            g.sum,
        ));
    }
    for (name, h) in dump.hists() {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{i},{c}]"))
            .collect();
        lines.push(format!(
            "{{\"type\":\"hist\",\"name\":\"{}\",{},\"sum\":{},\"buckets\":[{}]}}",
            escape(name),
            h.fields_json(""),
            h.sum,
            buckets.join(","),
        ));
    }
    lines
}

/// Writes pre-rendered dump lines to a byte stream, one per line.
pub struct MetricsJsonlSink<'w> {
    w: &'w mut dyn Write,
}

impl<'w> MetricsJsonlSink<'w> {
    /// A sink writing to `w`.
    pub fn new(w: &'w mut dyn Write) -> Self {
        MetricsJsonlSink { w }
    }

    /// Writes one metric line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_metric(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.w, "{line}")
    }

    /// Flushes the underlying stream.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

/// Renders the compact human-readable summary of a dump.
pub struct MetricsSummarySink;

impl MetricsSummarySink {
    /// The full summary text.
    pub fn render(dump: &MetricsDump) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "-- metrics ({}) --  units {}\n",
            dump.level().name(),
            dump.units()
        ));
        for (name, value) in dump.counters() {
            out.push_str(&format!("counter {name:<32} {value}\n"));
        }
        for (name, g) in dump.gauges() {
            out.push_str(&format!(
                "gauge   {name:<32} n={} min={} max={} mean={:.1}\n",
                g.count,
                g.min,
                g.max,
                g.mean()
            ));
        }
        for (name, h) in dump.hists() {
            out.push_str(&format!(
                "hist    {name:<32} n={} mean={:.1} p50<={} p99<={} max={}\n",
                h.count,
                h.mean(),
                h.quantile_upper(0.50),
                h.quantile_upper(0.99),
                h.max
            ));
        }
        out
    }
}
