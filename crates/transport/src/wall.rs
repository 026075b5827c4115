//! The `--transport-wall` sidecar: wall-clock-ish transport
//! quantities (spawn counts, accept-loop ticks, shutdown-time worker
//! lifetime totals) as JSONL with its own schema key.
//!
//! Mirrors the `bcc-prof` wall sidecar's isolation contract: the
//! header's `bcc_transport_wall` key makes the file mutually
//! exclusive with every deterministic artifact parser (the metrics
//! and postmortem readers reject it), so nondeterministic quantities
//! can never leak into a byte-compared dump.

use bcc_metrics::json::escape;
use std::io::{self, Write};

/// Schema version stamped into the sidecar header.
pub const TRANSPORT_WALL_SCHEMA_VERSION: u64 = 1;

/// Writes the sidecar: a header line
/// `{"bcc_transport_wall":1,"entries":N}` followed by one
/// `{"stat":"<name>","value":N}` line per entry, sorted by name so
/// the file shape is stable (the *values* are wall-dependent; that is
/// the whole point of the sidecar).
pub fn write_transport_wall<W: Write>(entries: &[(String, u64)], w: &mut W) -> io::Result<()> {
    let mut sorted: Vec<&(String, u64)> = entries.iter().collect();
    sorted.sort();
    writeln!(
        w,
        "{{\"bcc_transport_wall\":{TRANSPORT_WALL_SCHEMA_VERSION},\"entries\":{}}}",
        sorted.len()
    )?;
    for (name, value) in sorted {
        writeln!(w, "{{\"stat\":\"{}\",\"value\":{value}}}", escape(name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_shape_is_pinned_and_sorted() {
        let entries = vec![
            ("worker:0.lifetime.frames".to_string(), 12),
            ("accept_ticks".to_string(), 3),
            ("spawns".to_string(), 1),
        ];
        let mut out = Vec::new();
        write_transport_wall(&entries, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"bcc_transport_wall\":1,\"entries\":3}\n\
             {\"stat\":\"accept_ticks\",\"value\":3}\n\
             {\"stat\":\"spawns\",\"value\":1}\n\
             {\"stat\":\"worker:0.lifetime.frames\",\"value\":12}\n"
        );
    }

    #[test]
    fn deterministic_artifact_parsers_reject_the_sidecar() {
        let mut out = Vec::new();
        write_transport_wall(&[("spawns".to_string(), 1)], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(bcc_model::postmortem::parse_jsonl(&text).is_err());
    }
}
