//! The `--wall` sidecar: everything wall-clock-shaped a run measured,
//! in a *separate* file under a *separate* schema key, so wall time
//! can never contaminate a deterministic artifact.
//!
//! Two kinds of row follow the header: per-job latencies measured by
//! the runner, and the transport factory's wall-ish stats (spawn
//! counts, accept-loop ticks). Rows are sorted by job id and stat
//! name, so the file's *shape* is stable; its values vary run to run,
//! which is the whole reason they ride here. Latencies also carry a
//! power-of-two microsecond band, so two healthy runs usually land in
//! the same bands even though their raw latencies differ.
//!
//! Layout (one JSON object per line):
//!
//! ```text
//! {"bcc_wall":1,"jobs":J,"stats":S}                  header
//! {"job":id,"band":b,"label":l,"micros":m}           ×J, by id
//! {"stat":name,"value":v}                            ×S, by name
//! ```
//!
//! No deterministic reader accepts these bytes: the profile, metrics
//! dump and postmortem parsers all reject the header.

use bcc_metrics::json;
use std::fmt::Write as _;
use std::time::Duration;

/// Schema version stamped into the header's `bcc_wall` key.
pub const WALL_SCHEMA_VERSION: u64 = 1;

/// The power-of-two band index of a duration: 0 for sub-microsecond,
/// otherwise `floor(log2(micros)) + 1`.
fn band(micros: u64) -> u32 {
    64 - micros.leading_zeros()
}

/// Human-readable band label: `"<1us"` or `"[2^k, 2^k+1) us"`.
fn band_label(band: u32) -> String {
    if band == 0 {
        "<1us".to_string()
    } else {
        format!("[2^{}, 2^{}) us", band - 1, band)
    }
}

/// Renders the sidecar from per-job latencies and transport stats.
pub fn to_jsonl(jobs: &[(String, Duration)], stats: &[(String, u64)]) -> String {
    let mut jobs: Vec<&(String, Duration)> = jobs.iter().collect();
    jobs.sort_by(|x, y| x.0.cmp(&y.0));
    let mut stats: Vec<&(String, u64)> = stats.iter().collect();
    stats.sort();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"bcc_wall\":{WALL_SCHEMA_VERSION},\"jobs\":{},\"stats\":{}}}",
        jobs.len(),
        stats.len()
    );
    for (id, latency) in jobs {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let b = band(micros);
        out.push_str("{\"job\":");
        json::push_quoted(&mut out, id);
        let _ = writeln!(
            out,
            ",\"band\":{b},\"label\":\"{}\",\"micros\":{micros}}}",
            band_label(b)
        );
    }
    for (name, value) in stats {
        out.push_str("{\"stat\":");
        json::push_quoted(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_are_log2_buckets() {
        assert_eq!(band(0), 0);
        assert_eq!(band(1), 1);
        assert_eq!(band(2), 2);
        assert_eq!(band(3), 2);
        assert_eq!(band(4), 3);
        assert_eq!(band(1000), 10);
        assert_eq!(band_label(0), "<1us");
        assert_eq!(band_label(2), "[2^1, 2^2) us");
    }

    #[test]
    fn sidecar_bytes_are_pinned_and_no_deterministic_reader_accepts_them() {
        let jobs = [
            ("e2/b".to_string(), Duration::from_micros(3)),
            ("e2/a".to_string(), Duration::from_nanos(500)),
        ];
        let stats = [("spawns".to_string(), 1), ("accept_ticks".to_string(), 3)];
        let text = to_jsonl(&jobs, &stats);
        assert_eq!(
            text,
            "{\"bcc_wall\":1,\"jobs\":2,\"stats\":2}\n\
             {\"job\":\"e2/a\",\"band\":0,\"label\":\"<1us\",\"micros\":0}\n\
             {\"job\":\"e2/b\",\"band\":2,\"label\":\"[2^1, 2^2) us\",\"micros\":3}\n\
             {\"stat\":\"accept_ticks\",\"value\":3}\n\
             {\"stat\":\"spawns\",\"value\":1}\n"
        );
        assert!(bcc_prof::parse_profile_jsonl(&text).is_err());
        assert!(bcc_metrics::MetricsDump::parse_jsonl(&text).is_err());
        assert!(bcc_model::postmortem::parse_jsonl(&text).is_err());
    }
}
