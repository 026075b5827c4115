//! The wall-clock sidecar: coarse timing bands per unit, written to a
//! *separate* file with a *separate* schema key so wall time can
//! never contaminate a deterministic artifact.
//!
//! This crate never reads a clock (lint rule D2 applies to it in
//! full); the durations come from the runner's per-job latency
//! measurements — the one place the workspace is allowed to time
//! things. Latencies vary run to run, which is exactly why they ride
//! in a sidecar: the deterministic profile stays byte-identical, the
//! sidecar annotates it for humans hunting real-time anomalies.
//! Durations are collapsed into power-of-two microsecond bands to
//! make the file diffable-in-the-large: two healthy runs usually
//! land in the same bands even though their raw latencies differ.

use bcc_metrics::json;
use std::fmt::Write as _;
use std::time::Duration;

/// Schema key of the sidecar header line — deliberately distinct
/// from the profile's `bcc_prof` so neither parser accepts the
/// other's bytes.
pub const WALL_SCHEMA_VERSION: u64 = 1;

/// The power-of-two band index of a duration: 0 for sub-microsecond,
/// otherwise `floor(log2(micros)) + 1`.
pub fn band(d: Duration) -> u32 {
    let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
    if micros == 0 {
        0
    } else {
        64 - micros.leading_zeros()
    }
}

/// Human-readable band label: `"<1us"` or `"[2^k, 2^k+1) us"`.
pub fn band_label(band: u32) -> String {
    if band == 0 {
        "<1us".to_string()
    } else {
        format!("[2^{}, 2^{}) us", band - 1, band)
    }
}

/// Renders the sidecar: a header line, then one line per unit with
/// its band (entries are sorted by unit for a stable layout; the
/// band values themselves are wall-clock and thus not deterministic).
pub fn wall_sidecar_to_jsonl(entries: &[(String, Duration)]) -> String {
    let mut sorted: Vec<&(String, Duration)> = entries.iter().collect();
    sorted.sort_by(|x, y| x.0.cmp(&y.0));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"bcc_prof_wall\":{WALL_SCHEMA_VERSION},\"entries\":{}}}",
        sorted.len()
    );
    for (unit, d) in sorted {
        let b = band(*d);
        out.push_str("{\"unit\":");
        json::push_quoted(&mut out, unit);
        let _ = writeln!(
            out,
            ",\"band\":{b},\"label\":\"{}\",\"micros\":{}}}",
            band_label(b),
            d.as_micros().min(u128::from(u64::MAX)) as u64
        );
    }
    out
}

/// Writes the sidecar bytes to `w`.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_wall_sidecar(
    entries: &[(String, Duration)],
    w: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    w.write_all(wall_sidecar_to_jsonl(entries).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_are_log2_buckets() {
        assert_eq!(band(Duration::from_nanos(500)), 0);
        assert_eq!(band(Duration::from_micros(1)), 1);
        assert_eq!(band(Duration::from_micros(2)), 2);
        assert_eq!(band(Duration::from_micros(3)), 2);
        assert_eq!(band(Duration::from_micros(4)), 3);
        assert_eq!(band(Duration::from_millis(1)), 10);
        assert_eq!(band_label(0), "<1us");
        assert_eq!(band_label(2), "[2^1, 2^2) us");
    }

    #[test]
    fn sidecar_is_sorted_and_schema_tagged() {
        let entries = vec![
            ("e2/b".to_string(), Duration::from_micros(3)),
            ("e2/a".to_string(), Duration::from_micros(1)),
        ];
        let text = wall_sidecar_to_jsonl(&entries);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"bcc_prof_wall\":1,\"entries\":2}"));
        assert!(lines[1].contains("\"unit\":\"e2/a\""));
        assert!(lines[2].contains("\"unit\":\"e2/b\""));
        // A profile parser must reject sidecar bytes.
        assert!(crate::codec::parse_profile_jsonl(&text).is_err());
    }
}
