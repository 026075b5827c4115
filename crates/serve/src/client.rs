//! The deterministic load generator: parses a JSONL script, replays
//! it against a daemon on **logical ticks** (script order — the
//! client never sleeps or reads a clock), and records a transcript of
//! every line sent and received.
//!
//! Because the protocol is strictly request→response (results are
//! *pulled* with `await`, never pushed), a transcript is a pure
//! function of the script, the seed, and the daemon's admission
//! state — two same-seed runs against fresh daemons produce
//! byte-identical transcripts.
//!
//! Script grammar (one JSON object per line, `#`-lines and blank
//! lines skipped):
//!
//! ```text
//! {"op":"hello","client":"ci"}
//! {"op":"submit","experiment":"e2","quick":true,"priority":1}
//! {"op":"batch","submits":[{"experiment":"e1"},{"experiment":"e3"}]}
//! {"op":"await","submit":0}        // 0-based submit index in script order
//! {"op":"cancel","submit":1}
//! {"op":"stats"}
//! {"op":"ping","nonce":7}
//! {"op":"observe","every":1,"count":3}
//! {"op":"shutdown"}
//! ```
//!
//! A `submit` without a `"seed"` uses the client's `--seed`; an
//! optional `"tick"` must be nondecreasing and defaults to the step
//! index.

use crate::proto::{field_str, field_u64, parse_submit, require, ProtoError, SubmitReq};
use bcc_metrics::json::{self, escape, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One script operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Name the connection.
    Hello {
        /// Client name.
        client: String,
    },
    /// Submit one run.
    Submit(SubmitReq),
    /// Submit several runs under one admission-lock hold.
    Batch {
        /// The framed submits, in order.
        submits: Vec<SubmitReq>,
    },
    /// Collect the result of an earlier submit.
    Await {
        /// 0-based index into the script's submits (batch entries
        /// count individually, in order).
        submit: u64,
    },
    /// Cancel an earlier submit.
    Cancel {
        /// 0-based submit index.
        submit: u64,
    },
    /// Ask for live counters.
    Stats,
    /// Liveness probe.
    Ping {
        /// Echo value.
        nonce: u64,
    },
    /// Stream stats snapshots on logical ticks until the terminating
    /// `observed` line.
    Observe {
        /// Ticks between snapshots.
        every: u64,
        /// Snapshots to request.
        count: u64,
    },
    /// Drain the daemon and collect its `bye`.
    Shutdown,
}

/// One script step: a logical tick plus an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Logical time; ordering only, never waited on.
    pub tick: u64,
    /// The operation.
    pub op: Op,
}

/// A parsed script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Steps in replay order.
    pub steps: Vec<Step>,
}

/// Parses one script line's operation.
fn parse_op(v: &JsonValue) -> Result<Op, ProtoError> {
    Ok(match require(field_str(v, "op")?, "op")?.as_str() {
        "hello" => Op::Hello {
            client: field_str(v, "client")?.unwrap_or_else(|| "bcc-client".to_string()),
        },
        "submit" => Op::Submit(parse_submit(v)?),
        "batch" => Op::Batch {
            submits: v
                .arr_field("submits")
                .map_err(ProtoError::bad_request)?
                .iter()
                .map(parse_submit)
                .collect::<Result<_, _>>()?,
        },
        "await" => Op::Await {
            submit: require(field_u64(v, "submit")?, "submit")?,
        },
        "cancel" => Op::Cancel {
            submit: require(field_u64(v, "submit")?, "submit")?,
        },
        "stats" => Op::Stats,
        "observe" => {
            let every = field_u64(v, "every")?.unwrap_or(1);
            let count = field_u64(v, "count")?.unwrap_or(1);
            if every == 0 || count == 0 {
                return Err(ProtoError::bad_request(
                    "observe \"every\" and \"count\" must be >= 1",
                ));
            }
            Op::Observe { every, count }
        }
        "ping" => Op::Ping {
            nonce: field_u64(v, "nonce")?.unwrap_or(0),
        },
        "shutdown" => Op::Shutdown,
        other => return Err(ProtoError::bad_request(format!("unknown op {other:?}"))),
    })
}

/// Parses a script from JSONL text.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input or
/// a decreasing tick.
pub fn parse_script(text: &str) -> Result<Script, String> {
    let mut steps = Vec::new();
    let mut last_tick = 0u64;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("script line {}: {e}", lineno + 1);
        let v = json::parse(line).map_err(at)?;
        let op = parse_op(&v).map_err(|e| at(e.message))?;
        let tick = field_u64(&v, "tick")
            .map_err(|e| at(e.message))?
            .unwrap_or(steps.len() as u64);
        if tick < last_tick {
            return Err(at(format!("tick {tick} decreases (previous {last_tick})")));
        }
        last_tick = tick;
        steps.push(Step { tick, op });
    }
    Ok(Script { steps })
}

/// Why a replay stopped.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The script itself is unusable at this step (e.g. awaiting a
    /// rejected submit).
    Script(String),
    /// `--strict` and the daemon answered with `error` or `reject`.
    Strict(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Script(m) => write!(f, "script: {m}"),
            ClientError::Strict(m) => write!(f, "strict: {m}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn render_submit(s: &SubmitReq, default_seed: u64) -> String {
    let seed = s.seed.unwrap_or(default_seed);
    let timeout = match s.timeout_secs {
        Some(t) => format!(",\"timeout_secs\":{t}"),
        None => String::new(),
    };
    format!(
        "{{\"type\":\"submit\",\"experiment\":\"{}\",\"quick\":{},\"seed\":{},\"priority\":{}{}}}",
        escape(&s.experiment),
        s.quick,
        seed,
        s.priority,
        timeout
    )
}

/// A replay transcript: alternating `sent`/`recv` records, one JSONL
/// line each, with the raw wire bytes embedded verbatim.
#[derive(Debug, Default)]
pub struct Transcript {
    /// Rendered transcript lines.
    pub lines: Vec<String>,
    /// Responses with type `error` or `reject` seen during replay.
    pub anomalies: u64,
}

impl Transcript {
    fn sent(&mut self, tick: u64, line: &str) {
        self.lines
            .push(format!("{{\"tick\":{tick},\"sent\":{line}}}"));
    }

    fn recv(&mut self, tick: u64, line: &str) {
        self.lines
            .push(format!("{{\"tick\":{tick},\"recv\":{line}}}"));
    }

    /// The transcript as JSONL text (one record per line, trailing
    /// newline included when nonempty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

fn response_req_id(line: &str) -> Option<u64> {
    let v = json::parse(line).ok()?;
    match v.get("type").and_then(JsonValue::as_str)? {
        "accepted" => v.get("req").and_then(JsonValue::as_u64),
        _ => None,
    }
}

fn response_type(line: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get("type")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

fn response_is_anomaly(line: &str) -> bool {
    json::parse(line)
        .ok()
        .and_then(|v| {
            v.get("type")
                .and_then(JsonValue::as_str)
                .map(|t| t == "error" || t == "reject")
        })
        .unwrap_or(true)
}

/// Replays `script` against `addr` (`host:port`), filling omitted
/// seeds with `default_seed`.
///
/// # Errors
///
/// Transport failures and unusable script steps abort the replay;
/// `error`/`reject` responses are only counted (see
/// [`Transcript::anomalies`]) so backpressure scripts can be
/// replayed deliberately.
pub fn run_script(
    addr: &str,
    script: &Script,
    default_seed: u64,
) -> Result<Transcript, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let reader_half = stream.try_clone()?;
    let mut wire = Wire {
        reader: BufReader::new(reader_half),
        writer: stream,
    };
    let mut transcript = Transcript::default();
    // Server req id for each script submit, in script order; None for
    // rejected/errored slots.
    let mut submit_ids: Vec<Option<u64>> = Vec::new();

    let roundtrip = |wire: &mut Wire,
                     transcript: &mut Transcript,
                     tick: u64,
                     line: &str|
     -> Result<String, ClientError> {
        wire.send(line)?;
        transcript.sent(tick, line);
        let reply = wire.recv()?;
        transcript.recv(tick, &reply);
        if response_is_anomaly(&reply) {
            transcript.anomalies += 1;
        }
        Ok(reply)
    };

    for step in &script.steps {
        let tick = step.tick;
        match &step.op {
            Op::Hello { client } => {
                let line = format!("{{\"type\":\"hello\",\"client\":\"{}\"}}", escape(client));
                roundtrip(&mut wire, &mut transcript, tick, &line)?;
            }
            Op::Submit(submit) => {
                let line = render_submit(submit, default_seed);
                let reply = roundtrip(&mut wire, &mut transcript, tick, &line)?;
                submit_ids.push(response_req_id(&reply));
            }
            Op::Batch { submits } => {
                let header = format!("{{\"type\":\"batch\",\"n\":{}}}", submits.len());
                wire.send(&header)?;
                transcript.sent(tick, &header);
                for submit in submits {
                    let line = render_submit(submit, default_seed);
                    wire.send(&line)?;
                    transcript.sent(tick, &line);
                }
                for _ in submits {
                    let reply = wire.recv()?;
                    transcript.recv(tick, &reply);
                    if response_is_anomaly(&reply) {
                        transcript.anomalies += 1;
                    }
                    submit_ids.push(response_req_id(&reply));
                }
            }
            Op::Await { submit } | Op::Cancel { submit } => {
                let req = submit_ids
                    .get(*submit as usize)
                    .copied()
                    .ok_or_else(|| {
                        ClientError::Script(format!(
                            "step references submit #{submit} before it ran"
                        ))
                    })?
                    .ok_or_else(|| {
                        ClientError::Script(format!(
                            "submit #{submit} was rejected; cannot target it"
                        ))
                    })?;
                let ty = match step.op {
                    Op::Await { .. } => "await",
                    _ => "cancel",
                };
                let line = format!("{{\"type\":\"{ty}\",\"req\":{req}}}");
                roundtrip(&mut wire, &mut transcript, tick, &line)?;
            }
            Op::Stats => {
                roundtrip(&mut wire, &mut transcript, tick, "{\"type\":\"stats\"}")?;
            }
            Op::Ping { nonce } => {
                let line = format!("{{\"type\":\"ping\",\"nonce\":{nonce}}}");
                roundtrip(&mut wire, &mut transcript, tick, &line)?;
            }
            Op::Observe { every, count } => {
                // One request, a stream of replies: snapshots until
                // the `observed` terminator.
                let line = format!("{{\"type\":\"observe\",\"every\":{every},\"count\":{count}}}");
                wire.send(&line)?;
                transcript.sent(tick, &line);
                loop {
                    let reply = wire.recv()?;
                    transcript.recv(tick, &reply);
                    if response_is_anomaly(&reply) {
                        transcript.anomalies += 1;
                    }
                    if response_type(&reply).as_deref() != Some("snapshot") {
                        break;
                    }
                }
            }
            Op::Shutdown => {
                roundtrip(&mut wire, &mut transcript, tick, "{\"type\":\"shutdown\"}")?;
            }
        }
    }
    Ok(transcript)
}

/// The `--watch` mode: a dedicated connection that streams `count`
/// stats snapshots (one every `every` logical ticks) to `out` as raw
/// JSONL, returning how many snapshots arrived. Ends early when the
/// daemon drains.
///
/// # Errors
///
/// Transport failures abort the watch.
pub fn watch(addr: &str, every: u64, count: u64, out: &mut dyn Write) -> Result<u64, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let reader_half = stream.try_clone()?;
    let mut wire = Wire {
        reader: BufReader::new(reader_half),
        writer: stream,
    };
    wire.send(&format!(
        "{{\"type\":\"observe\",\"every\":{every},\"count\":{count}}}"
    ))?;
    let mut snapshots = 0u64;
    loop {
        let reply = wire.recv()?;
        writeln!(out, "{reply}").map_err(ClientError::Io)?;
        out.flush().map_err(ClientError::Io)?;
        match response_type(&reply).as_deref() {
            Some("snapshot") => snapshots += 1,
            _ => return Ok(snapshots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_script() {
        let text = "\
# warm-cache demo
{\"op\":\"hello\",\"client\":\"ci\"}
{\"op\":\"submit\",\"experiment\":\"e2\"}
{\"op\":\"await\",\"submit\":0}
{\"op\":\"batch\",\"submits\":[{\"experiment\":\"e1\",\"priority\":2},{\"experiment\":\"e3\"}]}
{\"op\":\"stats\"}
{\"op\":\"ping\",\"nonce\":7}
{\"op\":\"shutdown\"}
";
        let script = parse_script(text).unwrap();
        assert_eq!(script.steps.len(), 7);
        assert!(matches!(script.steps[0].op, Op::Hello { .. }));
        assert!(matches!(
            &script.steps[3].op,
            Op::Batch { submits } if submits.len() == 2 && submits[0].priority == 2
        ));
        // Default ticks are the step index.
        assert_eq!(script.steps[6].tick, 6);
    }

    #[test]
    fn parses_observe_with_defaults() {
        let script = parse_script("{\"op\":\"observe\"}").unwrap();
        assert_eq!(script.steps[0].op, Op::Observe { every: 1, count: 1 });
        let script = parse_script("{\"op\":\"observe\",\"every\":2,\"count\":4}").unwrap();
        assert_eq!(script.steps[0].op, Op::Observe { every: 2, count: 4 });
        assert!(parse_script("{\"op\":\"observe\",\"count\":0}").is_err());
    }

    #[test]
    fn rejects_bad_scripts() {
        assert!(parse_script("{\"op\":\"warp\"}").is_err());
        assert!(parse_script("{\"op\":\"await\"}").is_err());
        assert!(parse_script("{\"op\":\"submit\"}").is_err());
        assert!(
            parse_script("{\"op\":\"ping\",\"tick\":5}\n{\"op\":\"ping\",\"tick\":4}").is_err()
        );
        assert!(parse_script("not json").is_err());
    }

    #[test]
    fn submit_rendering_fills_default_seed() {
        let s = SubmitReq {
            experiment: "e2".into(),
            quick: true,
            seed: None,
            priority: 3,
            timeout_secs: Some(10),
        };
        assert_eq!(
            render_submit(&s, 99),
            "{\"type\":\"submit\",\"experiment\":\"e2\",\"quick\":true,\"seed\":99,\
             \"priority\":3,\"timeout_secs\":10}"
        );
    }
}
