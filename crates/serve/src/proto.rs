//! The JSONL wire protocol: one JSON object per line in each
//! direction, read and written through the workspace's single JSON
//! codec ([`bcc_metrics::json`]: its parser, and its `escape` with a
//! fixed key order on the write side) so a reply is a pure function
//! of the request stream and transcripts can be pinned byte-for-byte.
//!
//! Responses never contain wall-clock quantities: latencies live in
//! the runner's profiling layer (lint rule D2), and everything a
//! `result` line carries — shard counts, cache lookups, the reduced
//! report — is a deterministic function of `(experiment, quick,
//! seed)` plus admission order.

use bcc_metrics::json::{self, escape, JsonValue};
use bcc_model::postmortem::TransportHealth;

/// Protocol version announced in `welcome`.
pub const PROTO_VERSION: u64 = 1;

/// One submitted experiment run: the payload of a `submit` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReq {
    /// Experiment id (`"e2"`, …); validated against the registry at
    /// admission.
    pub experiment: String,
    /// Trim instance sizes (defaults to `true`: a service exists for
    /// repeat queries, not one-off deep runs).
    pub quick: bool,
    /// Suite seed; `None` lets the server fill its default.
    pub seed: Option<u64>,
    /// Larger runs first; FIFO within a priority class.
    pub priority: u64,
    /// Optional per-job wall-clock deadline, enforced by the runner.
    pub timeout_secs: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Names the connection; the name keys quotas and per-connection
    /// `serve.*` metrics units.
    Hello {
        /// Client-chosen name (stable across reconnects).
        client: String,
    },
    /// Submit one experiment run.
    Submit(SubmitReq),
    /// Frame: the next `n` lines are `submit`s admitted under one
    /// admission-lock hold, so the queue-depth observations they
    /// produce are a deterministic ramp.
    Batch {
        /// How many `submit` lines follow.
        n: u64,
    },
    /// Block until the result for a previously accepted request is
    /// ready, then deliver it.
    Await {
        /// Server-assigned request id from the `accepted` reply.
        req: u64,
    },
    /// Cancel a queued or running request.
    Cancel {
        /// Server-assigned request id.
        req: u64,
    },
    /// Live server counters (queue depth, cache stats, …).
    Stats,
    /// Stream `count` stats snapshots, one every `every` logical
    /// ticks (a tick = one request reaching a terminal state), then a
    /// terminating `observed` line. Ends early when the server
    /// drains. Snapshots are keyed to the logical tick counter, never
    /// to wall-clock, so an `observe` transcript of a sequential
    /// script is deterministic.
    Observe {
        /// Ticks between snapshots (≥ 1).
        every: u64,
        /// Snapshots to stream (≥ 1).
        count: u64,
    },
    /// Liveness probe; echoed back in `pong`.
    Ping {
        /// Echo value.
        nonce: u64,
    },
    /// Begin graceful drain: refuse new work, finish everything
    /// admitted, flush dumps, reply `bye`, exit.
    Shutdown,
}

/// A typed protocol error: the `code` is stable vocabulary, the
/// message is advisory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code (`bad_json`, `bad_request`,
    /// `unknown_type`, `line_too_long`, `unknown_req`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// A `bad_request` error with the given detail.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtoError {
            code: "bad_request",
            message: message.into(),
        }
    }
}

pub(crate) fn field_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError::bad_request(format!("field {key:?} must be a u64"))),
    }
}

pub(crate) fn field_bool(v: &JsonValue, key: &str) -> Result<Option<bool>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ProtoError::bad_request(format!(
            "field {key:?} must be a bool"
        ))),
    }
}

pub(crate) fn field_str(v: &JsonValue, key: &str) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ProtoError::bad_request(format!("field {key:?} must be a string"))),
    }
}

pub(crate) fn require<T>(value: Option<T>, key: &str) -> Result<T, ProtoError> {
    value.ok_or_else(|| ProtoError::bad_request(format!("missing field {key:?}")))
}

/// Parses a `submit` object (already identified by its `type`).
pub fn parse_submit(v: &JsonValue) -> Result<SubmitReq, ProtoError> {
    Ok(SubmitReq {
        experiment: require(field_str(v, "experiment")?, "experiment")?,
        quick: field_bool(v, "quick")?.unwrap_or(true),
        seed: field_u64(v, "seed")?,
        priority: field_u64(v, "priority")?.unwrap_or(0),
        timeout_secs: field_u64(v, "timeout_secs")?,
    })
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = json::parse(line).map_err(|e| ProtoError {
            code: "bad_json",
            message: e,
        })?;
        if v.as_obj().is_none() {
            return Err(ProtoError::bad_request("request must be a JSON object"));
        }
        let ty = require(field_str(&v, "type")?, "type")?;
        match ty.as_str() {
            "hello" => Ok(Request::Hello {
                client: field_str(&v, "client")?.unwrap_or_else(|| "anon".to_string()),
            }),
            "submit" => Ok(Request::Submit(parse_submit(&v)?)),
            "batch" => Ok(Request::Batch {
                n: require(field_u64(&v, "n")?, "n")?,
            }),
            "await" => Ok(Request::Await {
                req: require(field_u64(&v, "req")?, "req")?,
            }),
            "cancel" => Ok(Request::Cancel {
                req: require(field_u64(&v, "req")?, "req")?,
            }),
            "stats" => Ok(Request::Stats),
            "observe" => {
                let every = field_u64(&v, "every")?.unwrap_or(1);
                let count = field_u64(&v, "count")?.unwrap_or(1);
                if every == 0 || count == 0 {
                    return Err(ProtoError::bad_request(
                        "observe fields \"every\" and \"count\" must be >= 1",
                    ));
                }
                Ok(Request::Observe { every, count })
            }
            "ping" => Ok(Request::Ping {
                nonce: field_u64(&v, "nonce")?.unwrap_or(0),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError {
                code: "unknown_type",
                message: format!("unknown request type {other:?}"),
            }),
        }
    }
}

/// Why an admission was refused; rendered as a `reject` line with a
/// logical `retry_after_ticks` (completions to wait for, not
/// seconds — the protocol never promises wall-clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is at capacity.
    QueueFull {
        /// Current depth; retry after this many completions.
        depth: u64,
    },
    /// The client has too many outstanding requests.
    QuotaExceeded {
        /// The client's outstanding count.
        outstanding: u64,
    },
    /// The server is draining and refuses new work.
    Draining,
    /// The experiment id is not in the registry.
    UnknownExperiment {
        /// The offending id.
        id: String,
    },
}

impl Reject {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            Reject::QueueFull { .. } => "queue_full",
            Reject::QuotaExceeded { .. } => "quota_exceeded",
            Reject::Draining => "draining",
            Reject::UnknownExperiment { .. } => "unknown_experiment",
        }
    }

    /// Completions the client should wait for before retrying
    /// (0 = do not retry).
    pub fn retry_after_ticks(&self) -> u64 {
        match self {
            Reject::QueueFull { depth } => *depth,
            Reject::QuotaExceeded { outstanding } => *outstanding,
            Reject::Draining | Reject::UnknownExperiment { .. } => 0,
        }
    }

    fn message(&self) -> String {
        match self {
            Reject::QueueFull { depth } => {
                format!("admission queue full (depth {depth})")
            }
            Reject::QuotaExceeded { outstanding } => {
                format!("per-client quota exceeded ({outstanding} outstanding)")
            }
            Reject::Draining => "server is draining".to_string(),
            Reject::UnknownExperiment { id } => format!("unknown experiment {id:?}"),
        }
    }
}

/// Terminal state of a request, carried by its `result` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultStatus {
    /// Ran to a reduced report (possibly degraded by lost shards).
    Done,
    /// Cancelled before any shard was scheduled.
    Cancelled,
}

/// The payload of a `result` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultMsg {
    /// Server-assigned request id.
    pub req: u64,
    /// Experiment id.
    pub experiment: String,
    /// Terminal state.
    pub status: ResultStatus,
    /// Whether every report check passed (`None` when cancelled).
    pub passed: Option<bool>,
    /// Shards scheduled on the pool.
    pub scheduled: u64,
    /// Shards that produced output.
    pub completed: u64,
    /// Shards reported cancelled.
    pub cancelled: u64,
    /// Artifact-store lookups this request performed (hits + misses:
    /// deterministic regardless of cache warmth or thread count).
    pub cache_lookups: u64,
    /// The reduced report, pre-rendered as a JSON object.
    pub report_json: Option<String>,
}

/// Live server counters for a `stats` reply. With a single-threaded
/// pool and a quiescent sequential script these are deterministic;
/// under concurrency they are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsMsg {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests refused (all reject codes).
    pub rejected: u64,
    /// Requests run to a result.
    pub completed: u64,
    /// Requests cancelled before completion.
    pub cancelled: u64,
    /// Requests that were still queued when drain began.
    pub drained: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Artifact-store lookups since process start.
    pub cache_lookups: u64,
    /// Artifact-store hits since process start.
    pub cache_hits: u64,
    /// Artifacts resident in the store.
    pub cache_entries: u64,
}

/// Renders transport-backend health for a `snapshot` line: the
/// backend label and, per worker in rank order, liveness as the
/// coordinator last observed it, respawn count of the worker group,
/// and currently open sessions. Flight rings are never rendered.
fn transport_json(t: &TransportHealth) -> String {
    let workers: Vec<String> = t
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"rank\":{},\"alive\":{},\"respawns\":{},\"sessions\":{}}}",
                w.rank, w.alive, w.respawns, w.sessions
            )
        })
        .collect();
    format!(
        "{{\"backend\":\"{}\",\"workers\":[{}]}}",
        escape(&t.backend),
        workers.join(",")
    )
}

/// A response line, rendered with fixed key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `hello`.
    Welcome,
    /// A `submit` was admitted.
    Accepted {
        /// Server-assigned request id.
        req: u64,
        /// Queue depth observed at admission (after the push).
        queue_depth: u64,
    },
    /// A `submit` was refused with explicit backpressure.
    Rejected(Reject),
    /// A finished request, delivered via `await`.
    Result(ResultMsg),
    /// Reply to `cancel`; `state` is `cancelled`, `done`, or
    /// `unknown`.
    Cancelled {
        /// The request id.
        req: u64,
        /// What the cancel found.
        state: &'static str,
    },
    /// Reply to `stats`.
    Stats(StatsMsg),
    /// One streamed `observe` snapshot: the stats at a logical tick.
    Snapshot {
        /// The logical tick (completions + cancellations so far) this
        /// snapshot was taken at.
        tick: u64,
        /// The counters at that tick.
        stats: StatsMsg,
        /// Transport-backend worker health, when the installed
        /// backend tracks workers (`None` on the local backend, which
        /// keeps the rendered line byte-identical to the
        /// pre-telemetry protocol there).
        transport: Option<TransportHealth>,
    },
    /// Terminates an `observe` stream.
    Observed {
        /// Snapshots actually streamed (may be fewer than requested
        /// when the server drained mid-stream).
        snapshots: u64,
        /// The tick at termination.
        tick: u64,
    },
    /// Reply to `ping`.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Reply to `shutdown`, sent after the drain + flush completed.
    Bye {
        /// Requests that were still queued when drain began.
        drained: u64,
    },
    /// A typed protocol error (the connection stays usable except
    /// after `line_too_long`).
    Error(ProtoError),
}

impl Response {
    /// Renders this response as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Welcome => format!(
                "{{\"type\":\"welcome\",\"server\":\"bcc-serve\",\"proto\":{PROTO_VERSION}}}"
            ),
            Response::Accepted { req, queue_depth } => {
                format!("{{\"type\":\"accepted\",\"req\":{req},\"queue_depth\":{queue_depth}}}")
            }
            Response::Rejected(reject) => format!(
                "{{\"type\":\"reject\",\"code\":\"{}\",\"retry_after_ticks\":{},\"message\":\"{}\"}}",
                reject.code(),
                reject.retry_after_ticks(),
                escape(&reject.message())
            ),
            Response::Result(r) => {
                let status = match r.status {
                    ResultStatus::Done => "done",
                    ResultStatus::Cancelled => "cancelled",
                };
                let passed = match r.passed {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                let report = r.report_json.as_deref().unwrap_or("null");
                format!(
                    "{{\"type\":\"result\",\"req\":{},\"experiment\":\"{}\",\"status\":\"{}\",\
                     \"passed\":{},\"scheduled\":{},\"completed\":{},\"cancelled\":{},\
                     \"cache_lookups\":{},\"report\":{}}}",
                    r.req,
                    escape(&r.experiment),
                    status,
                    passed,
                    r.scheduled,
                    r.completed,
                    r.cancelled,
                    r.cache_lookups,
                    report
                )
            }
            Response::Cancelled { req, state } => {
                format!("{{\"type\":\"cancelled\",\"req\":{req},\"state\":\"{state}\"}}")
            }
            Response::Stats(s) => format!(
                "{{\"type\":\"stats\",\"accepted\":{},\"rejected\":{},\"completed\":{},\
                 \"cancelled\":{},\"drained\":{},\"queue_depth\":{},\"draining\":{},\
                 \"cache_lookups\":{},\"cache_hits\":{},\"cache_entries\":{}}}",
                s.accepted,
                s.rejected,
                s.completed,
                s.cancelled,
                s.drained,
                s.queue_depth,
                s.draining,
                s.cache_lookups,
                s.cache_hits,
                s.cache_entries
            ),
            Response::Snapshot {
                tick,
                stats: s,
                transport,
            } => {
                let transport = match transport {
                    Some(t) => format!(",\"transport\":{}", transport_json(t)),
                    None => String::new(),
                };
                format!(
                    "{{\"type\":\"snapshot\",\"tick\":{tick},\"accepted\":{},\"rejected\":{},\
                     \"completed\":{},\"cancelled\":{},\"drained\":{},\"queue_depth\":{},\
                     \"draining\":{},\"cache_lookups\":{},\"cache_hits\":{},\"cache_entries\":{}\
                     {transport}}}",
                    s.accepted,
                    s.rejected,
                    s.completed,
                    s.cancelled,
                    s.drained,
                    s.queue_depth,
                    s.draining,
                    s.cache_lookups,
                    s.cache_hits,
                    s.cache_entries
                )
            }
            Response::Observed { snapshots, tick } => {
                format!("{{\"type\":\"observed\",\"snapshots\":{snapshots},\"tick\":{tick}}}")
            }
            Response::Pong { nonce } => format!("{{\"type\":\"pong\",\"nonce\":{nonce}}}"),
            Response::Bye { drained } => {
                format!("{{\"type\":\"bye\",\"drained\":{drained}}}")
            }
            Response::Error(e) => format!(
                "{{\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
                e.code,
                escape(&e.message)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_model::postmortem::WorkerHealth;

    #[test]
    fn parses_each_request_type() {
        assert_eq!(
            Request::parse(r#"{"type":"hello","client":"ci"}"#).unwrap(),
            Request::Hello {
                client: "ci".into()
            }
        );
        assert_eq!(
            Request::parse(r#"{"type":"submit","experiment":"e2","seed":7}"#).unwrap(),
            Request::Submit(SubmitReq {
                experiment: "e2".into(),
                quick: true,
                seed: Some(7),
                priority: 0,
                timeout_secs: None,
            })
        );
        assert_eq!(
            Request::parse(r#"{"type":"batch","n":3}"#).unwrap(),
            Request::Batch { n: 3 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"await","req":2}"#).unwrap(),
            Request::Await { req: 2 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"cancel","req":2}"#).unwrap(),
            Request::Cancel { req: 2 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse(r#"{"type":"ping","nonce":9}"#).unwrap(),
            Request::Ping { nonce: 9 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"observe"}"#).unwrap(),
            Request::Observe { every: 1, count: 1 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"observe","every":2,"count":5}"#).unwrap(),
            Request::Observe { every: 2, count: 5 }
        );
        assert_eq!(
            Request::parse(r#"{"type":"observe","every":0}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            Request::parse(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn typed_errors_for_bad_lines() {
        assert_eq!(Request::parse("{oops").unwrap_err().code, "bad_json");
        assert_eq!(Request::parse("[1,2]").unwrap_err().code, "bad_request");
        assert_eq!(
            Request::parse(r#"{"type":"warp"}"#).unwrap_err().code,
            "unknown_type"
        );
        assert_eq!(
            Request::parse(r#"{"type":"submit"}"#).unwrap_err().code,
            "bad_request"
        );
        assert_eq!(
            Request::parse(r#"{"type":"submit","experiment":"e2","seed":-1}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
    }

    #[test]
    fn responses_render_stable_json() {
        assert_eq!(
            Response::Accepted {
                req: 4,
                queue_depth: 2
            }
            .to_json(),
            r#"{"type":"accepted","req":4,"queue_depth":2}"#
        );
        let line = Response::Rejected(Reject::QueueFull { depth: 16 }).to_json();
        assert!(line.contains("\"code\":\"queue_full\""));
        assert!(line.contains("\"retry_after_ticks\":16"));
        let bye = Response::Bye { drained: 3 }.to_json();
        assert_eq!(bye, r#"{"type":"bye","drained":3}"#);
        // Every rendered response parses back as JSON.
        for r in [
            Response::Welcome,
            Response::Pong { nonce: 1 },
            Response::Stats(StatsMsg::default()),
            Response::Snapshot {
                tick: 3,
                stats: StatsMsg::default(),
                transport: None,
            },
            Response::Snapshot {
                tick: 3,
                stats: StatsMsg::default(),
                transport: Some(TransportHealth {
                    backend: "sockets:2".into(),
                    workers: vec![WorkerHealth {
                        rank: 0,
                        alive: true,
                        respawns: 0,
                        sessions: 2,
                        ring: Vec::new(),
                    }],
                }),
            },
            Response::Observed {
                snapshots: 2,
                tick: 3,
            },
            Response::Error(ProtoError::bad_request("x\"y")),
        ] {
            assert!(json::parse(&r.to_json()).is_ok(), "bad: {}", r.to_json());
        }
        let snap = Response::Snapshot {
            tick: 3,
            stats: StatsMsg {
                completed: 3,
                ..Default::default()
            },
            transport: None,
        }
        .to_json();
        assert!(snap.starts_with(r#"{"type":"snapshot","tick":3,"#));
        assert!(snap.contains("\"completed\":3"));
        // Without transport health, the rendered line is unchanged
        // from the pre-telemetry protocol: local-backend transcripts
        // stay pinned byte-for-byte.
        assert!(!snap.contains("transport"));
        assert_eq!(
            Response::Observed {
                snapshots: 2,
                tick: 3
            }
            .to_json(),
            r#"{"type":"observed","snapshots":2,"tick":3}"#
        );
    }

    #[test]
    fn snapshot_renders_transport_health_when_present() {
        let line = Response::Snapshot {
            tick: 2,
            stats: StatsMsg::default(),
            transport: Some(TransportHealth {
                backend: "sockets:2".into(),
                workers: vec![
                    WorkerHealth {
                        rank: 0,
                        alive: true,
                        respawns: 0,
                        sessions: 1,
                        ring: Vec::new(),
                    },
                    WorkerHealth {
                        rank: 1,
                        alive: false,
                        respawns: 1,
                        sessions: 0,
                        ring: Vec::new(),
                    },
                ],
            }),
        }
        .to_json();
        assert!(line.contains("\"transport\":{\"backend\":\"sockets:2\",\"workers\":["));
        assert!(line.contains("{\"rank\":1,\"alive\":false,\"respawns\":1,\"sessions\":0}"));
        assert!(json::parse(&line).is_ok(), "bad: {line}");
    }

    #[test]
    fn result_renders_null_report_when_cancelled() {
        let r = Response::Result(ResultMsg {
            req: 1,
            experiment: "e2".into(),
            status: ResultStatus::Cancelled,
            passed: None,
            scheduled: 0,
            completed: 0,
            cancelled: 0,
            cache_lookups: 0,
            report_json: None,
        });
        let line = r.to_json();
        assert!(line.contains("\"status\":\"cancelled\""));
        assert!(line.contains("\"passed\":null"));
        assert!(line.contains("\"report\":null"));
        assert!(json::parse(&line).is_ok());
    }
}
