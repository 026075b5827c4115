//! Typed postmortem artifacts for transport failures.
//!
//! When a multi-process transport backend loses a worker (or trips a
//! wire-protocol violation), the driver-side flight recorder — a
//! fixed-size ring of the last wire events exchanged with each
//! worker — is frozen into a [`Postmortem`]: which backend failed,
//! the typed error detail, and every worker's health plus its ring.
//! The artifact serializes as JSONL under its own `bcc_postmortem`
//! schema key so no other parser in the workspace accepts its bytes
//! (the same isolation trick the `bcc_prof_wall` sidecar uses), and
//! `bcc-report --postmortem` renders it for humans.
//!
//! [`TransportHealth`] is the live-observation subset of the same
//! shape: per-worker health without the rings, cheap enough for
//! `bcc-serve` to embed in every `observe` snapshot.

use bcc_metrics::json::{self, escape, JsonValue};
use std::fmt::Write as _;

/// Schema version of the postmortem JSONL artifact.
pub const POSTMORTEM_SCHEMA_VERSION: u64 = 1;

/// How many wire events the flight recorder retains per worker.
/// Old events are evicted oldest-first once a worker's ring is full.
pub const FLIGHT_RING_CAPACITY: usize = 32;

/// One wire-level event as seen from the driver side of a worker
/// link. Everything here is derived from the rendered line itself —
/// never from a clock — so rings are deterministic for a fixed
/// command interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// `"send"` (driver → worker) or `"recv"` (worker → driver).
    pub dir: String,
    /// Wire message kind (`open`, `round`, `view`, `closed`, ...).
    pub kind: String,
    /// Session id the message belonged to (0 for sessionless kinds
    /// such as `hello`, `shutdown`, `bye`).
    pub session: u64,
    /// Round number for `round`/`view` messages (0 otherwise).
    pub round: u64,
    /// Length in bytes of the rendered JSONL line.
    pub bytes: u64,
}

/// One worker's health snapshot plus (in postmortems) its flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Worker rank within its group.
    pub rank: usize,
    /// Whether the worker process was still reachable when the
    /// snapshot was taken.
    pub alive: bool,
    /// How many times this rank's group has been respawned by its
    /// factory since the factory was created.
    pub respawns: u64,
    /// Number of sessions currently open on this worker.
    pub sessions: u64,
    /// The flight-recorder ring, oldest event first. Empty in live
    /// health snapshots; populated (up to [`FLIGHT_RING_CAPACITY`]
    /// events) in postmortems.
    pub ring: Vec<WireEvent>,
}

/// Live transport health: the backend label and one entry per
/// worker. Rings are omitted — this is the cheap shape `bcc-serve`
/// streams in `observe` snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportHealth {
    /// Backend label, e.g. `"sockets:4"`.
    pub backend: String,
    /// Per-worker health, in rank order.
    pub workers: Vec<WorkerHealth>,
}

/// A frozen failure record: the backend, the error that fired, and
/// every worker's health including its flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// Backend label, e.g. `"sockets:4"`.
    pub backend: String,
    /// Display rendering of the `TransportError` that triggered the
    /// dump.
    pub error: String,
    /// Per-worker health with rings, in rank order.
    pub workers: Vec<WorkerHealth>,
}

/// Renders a list of incidents as the JSONL postmortem artifact: a
/// header line, then per incident one `incident` line, one `worker`
/// line per worker, and one `wire` line per retained ring event. Key
/// order is fixed, so equal inputs render byte-identically.
pub fn postmortems_to_jsonl(incidents: &[Postmortem]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"bcc_postmortem\",\"schema\":{POSTMORTEM_SCHEMA_VERSION},\"incidents\":{}}}",
        incidents.len()
    );
    for (index, pm) in incidents.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"type\":\"incident\",\"index\":{index},\"backend\":\"{}\",\"error\":\"{}\"}}",
            escape(&pm.backend),
            escape(&pm.error)
        );
        for w in &pm.workers {
            let _ = writeln!(
                out,
                "{{\"type\":\"worker\",\"incident\":{index},\"rank\":{},\"alive\":{},\
                 \"respawns\":{},\"sessions\":{},\"ring\":{}}}",
                w.rank,
                w.alive,
                w.respawns,
                w.sessions,
                w.ring.len()
            );
            for e in &w.ring {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"wire\",\"incident\":{index},\"rank\":{},\"dir\":\"{}\",\
                     \"kind\":\"{}\",\"session\":{},\"round\":{},\"bytes\":{}}}",
                    w.rank,
                    escape(&e.dir),
                    escape(&e.kind),
                    e.session,
                    e.round,
                    e.bytes
                );
            }
        }
    }
    out
}

/// Parses a postmortem artifact previously rendered by
/// [`postmortems_to_jsonl`].
///
/// # Errors
///
/// Rejects missing/foreign headers (so profile, metrics, and wall
/// files can never be mistaken for postmortems), unknown line types,
/// out-of-range incident indices, and malformed fields — each with a
/// line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Postmortem>, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty postmortem input")?;
    let header = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
    match header.get("type").and_then(JsonValue::as_str) {
        Some("bcc_postmortem") => {}
        _ => return Err("line 1: not a bcc_postmortem header".to_string()),
    }
    let header_u64 = |key| header.u64_field(key).map_err(|e| format!("line 1: {e}"));
    let schema = header_u64("schema")?;
    if schema != POSTMORTEM_SCHEMA_VERSION {
        return Err(format!("line 1: unsupported schema {schema}"));
    }
    let expected = header_u64("incidents")? as usize;

    let mut incidents: Vec<Postmortem> = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        parse_line(&mut incidents, line).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    if incidents.len() != expected {
        return Err(format!(
            "header promised {expected} incidents, found {}",
            incidents.len()
        ));
    }
    Ok(incidents)
}

/// Folds one body line into `incidents`.
fn parse_line(incidents: &mut Vec<Postmortem>, line: &str) -> Result<(), String> {
    let obj = json::parse(line)?;
    match obj.str_field("type")? {
        "incident" => {
            let index = obj.u64_field("index")? as usize;
            if index != incidents.len() {
                return Err(format!("incident index {index} out of order"));
            }
            incidents.push(Postmortem {
                backend: obj.str_field("backend")?.to_string(),
                error: obj.str_field("error")?.to_string(),
                workers: Vec::new(),
            });
        }
        "worker" => {
            let incident = obj.u64_field("incident")? as usize;
            let pm = incidents
                .get_mut(incident)
                .ok_or_else(|| format!("worker for unknown incident {incident}"))?;
            pm.workers.push(WorkerHealth {
                rank: obj.u64_field("rank")? as usize,
                alive: obj.bool_field("alive")?,
                respawns: obj.u64_field("respawns")?,
                sessions: obj.u64_field("sessions")?,
                ring: Vec::new(),
            });
        }
        "wire" => {
            let incident = obj.u64_field("incident")? as usize;
            let rank = obj.u64_field("rank")? as usize;
            let pm = incidents
                .get_mut(incident)
                .ok_or_else(|| format!("wire for unknown incident {incident}"))?;
            let worker = pm
                .workers
                .iter_mut()
                .find(|w| w.rank == rank)
                .ok_or_else(|| format!("wire for unknown rank {rank}"))?;
            worker.ring.push(WireEvent {
                dir: obj.str_field("dir")?.to_string(),
                kind: obj.str_field("kind")?.to_string(),
                session: obj.u64_field("session")?,
                round: obj.u64_field("round")?,
                bytes: obj.u64_field("bytes")?,
            });
        }
        other => return Err(format!("unknown type '{other}'")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Postmortem> {
        vec![Postmortem {
            backend: "sockets:2".to_string(),
            error: "worker 1 died: connection reset".to_string(),
            workers: vec![
                WorkerHealth {
                    rank: 0,
                    alive: true,
                    respawns: 0,
                    sessions: 1,
                    ring: vec![WireEvent {
                        dir: "send".to_string(),
                        kind: "round".to_string(),
                        session: 3,
                        round: 2,
                        bytes: 118,
                    }],
                },
                WorkerHealth {
                    rank: 1,
                    alive: false,
                    respawns: 1,
                    sessions: 1,
                    ring: vec![WireEvent {
                        dir: "recv".to_string(),
                        kind: "view".to_string(),
                        session: 3,
                        round: 1,
                        bytes: 204,
                    }],
                },
            ],
        }]
    }

    #[test]
    fn round_trips() {
        let incidents = sample();
        let text = postmortems_to_jsonl(&incidents);
        assert_eq!(parse_jsonl(&text).unwrap(), incidents);
    }

    #[test]
    fn empty_artifact_still_parses() {
        let text = postmortems_to_jsonl(&[]);
        assert_eq!(parse_jsonl(&text).unwrap(), vec![]);
    }

    #[test]
    fn header_line_shape_is_pinned() {
        let text = postmortems_to_jsonl(&[]);
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"type\":\"bcc_postmortem\",\"schema\":1,\"incidents\":0}"
        );
    }

    #[test]
    fn foreign_headers_are_rejected() {
        for foreign in [
            "{\"type\":\"meta\",\"schema\":1,\"level\":\"core\"}",
            "{\"bcc_prof_wall\":1,\"entries\":0}",
            "{\"bcc_prof\":1}",
        ] {
            assert!(parse_jsonl(foreign).is_err(), "accepted {foreign}");
        }
    }

    #[test]
    fn unknown_line_types_are_rejected() {
        let text = format!("{}{{\"type\":\"surprise\"}}\n", postmortems_to_jsonl(&[]));
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.contains("unknown type 'surprise'"), "{err}");
    }

    #[test]
    fn incident_count_mismatch_is_rejected() {
        let text = "{\"type\":\"bcc_postmortem\",\"schema\":1,\"incidents\":2}\n";
        let err = parse_jsonl(text).unwrap_err();
        assert!(err.contains("promised 2"), "{err}");
    }

    #[test]
    fn error_detail_is_escaped() {
        let incidents = vec![Postmortem {
            backend: "sockets:1".to_string(),
            error: "line with \"quotes\"\nand newline".to_string(),
            workers: vec![],
        }];
        let text = postmortems_to_jsonl(&incidents);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_jsonl(&text).unwrap(), incidents);
    }
}
