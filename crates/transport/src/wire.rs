//! The JSONL wire protocol between a [`SocketTransport`] coordinator
//! and its worker subprocesses — the same hand-rolled codec
//! discipline as `crates/serve`: one JSON object per line, fixed key
//! order on the write side, tolerant typed parsing on the read side
//! (via `bcc_metrics::json`), and every malformed line surfaced as a
//! typed error, never a panic.
//!
//! Messages are the `{0, 1, ⊥}` alphabet rendered as the ASCII
//! string `'0' | '1' | '_'` per symbol. Port labels ride as JSON
//! integers and round-trip exactly through `u64::MAX`.
//!
//! [`SocketTransport`]: crate::socket::SocketTransport

use bcc_metrics::json::{self, escape, JsonValue};
use bcc_model::{Message, Symbol};

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Registers one run's delivery plan under a session id. The
    /// worker receives only its own node range `lo..hi`
    /// (`routes[i]` = ports of node `lo + i`).
    Open {
        /// Session id, unique per coordinator.
        session: u64,
        /// Total vertex count of the instance.
        n: usize,
        /// First node owned by this worker.
        lo: usize,
        /// One past the last node owned by this worker.
        hi: usize,
        /// `(port_label, peer)` pairs per owned node, port order.
        routes: Vec<Vec<(u64, usize)>>,
    },
    /// Delivers one round: the full outbox, one message per vertex.
    Round {
        /// Session the round belongs to.
        session: u64,
        /// Round number (echoed back in the view).
        round: usize,
        /// `outbox[v]` = vertex `v`'s broadcast.
        outbox: Vec<Message>,
    },
    /// Ends a session.
    Close {
        /// Session to drop.
        session: u64,
    },
    /// Asks the worker to exit cleanly.
    Shutdown,
}

/// The telemetry block a worker ships back with a [`Reply::Closed`]:
/// logical counters (frames routed, symbols forwarded, rounds
/// served) plus a compact numeric session summary from which the
/// coordinator synthesizes the session's trace events at flush time.
/// Shipping five integers instead of serialized event lines keeps
/// the close path allocation-light — the ≤ 2% `BENCH_PR10.json`
/// budget is won here. Everything on this surface is a pure function
/// of the commands served; nothing wall-clock-shaped is allowed
/// (those quantities stay driver-side, in the `--transport-wall`
/// sidecar).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerTelemetry {
    /// `(name, value)` counter pairs in the worker's canonical
    /// (sorted) order.
    pub counters: Vec<(String, u64)>,
    /// The session's trace summary; `None` when telemetry is
    /// disabled worker-side.
    pub span: Option<SessionSpan>,
}

/// One closed session's numeric trace summary. The coordinator
/// renders it as a `session` span (`n`/`nodes` fields on the start,
/// `rounds` on the end) holding `frames` and `symbols` counter
/// events, under the owning `transport/worker:<rank>` unit. Ordered
/// field-by-field so a rank's sessions sort canonically,
/// independent of close order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SessionSpan {
    /// Total vertex count of the instance.
    pub n: u64,
    /// Nodes owned by this worker (`hi - lo`).
    pub nodes: u64,
    /// Rounds served in the session.
    pub rounds: u64,
    /// Inbox entries assembled.
    pub frames: u64,
    /// Symbols forwarded inside those frames.
    pub symbols: u64,
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// First line after connecting: which rank this worker is.
    Hello {
        /// The worker's rank, `0..workers`.
        rank: usize,
    },
    /// `Open`/`Close` acknowledged.
    Ok {
        /// The session acknowledged.
        session: u64,
    },
    /// One round's deliveries for the worker's node range.
    View {
        /// Session echoed.
        session: u64,
        /// Round echoed.
        round: usize,
        /// `(port_label, message)` entries per owned node, in node
        /// order `lo..hi`.
        inboxes: Vec<Vec<(u64, Message)>>,
    },
    /// `Close` acknowledged, carrying the session's telemetry. This
    /// is the close-path counterpart of [`Reply::Ok`]: the session is
    /// dropped worker-side and its trace/metrics buffers ride home in
    /// the acknowledgement.
    Closed {
        /// The session closed.
        session: u64,
        /// The session's telemetry block.
        telemetry: WorkerTelemetry,
    },
    /// Lifetime counter totals, sent once right before [`Reply::Bye`]
    /// when a shutdown is acknowledged — the coordinator's last
    /// chance to account for sessions that were never closed.
    Telemetry {
        /// The sending worker's rank.
        rank: usize,
        /// `(name, value)` lifetime totals, canonical order.
        counters: Vec<(String, u64)>,
    },
    /// Shutdown acknowledged; the worker exits after sending this.
    Bye,
    /// The command could not be served.
    Error {
        /// Human-readable cause.
        detail: String,
    },
}

/// Renders a [`Message`] as its wire alphabet (`0`, `1`, `_`).
pub fn encode_message(m: &Message) -> String {
    m.symbols()
        .iter()
        .map(|s| match s {
            Symbol::Zero => '0',
            Symbol::One => '1',
            Symbol::Silent => '_',
        })
        .collect()
}

/// Parses the wire alphabet back into a [`Message`].
///
/// # Errors
///
/// Returns an error naming the first character outside `0`/`1`/`_`.
pub fn decode_message(s: &str) -> Result<Message, String> {
    let symbols: Vec<Symbol> = s
        .chars()
        .map(|c| match c {
            '0' => Ok(Symbol::Zero),
            '1' => Ok(Symbol::One),
            '_' => Ok(Symbol::Silent),
            other => Err(format!("bad message character {other:?}")),
        })
        .collect::<Result<_, String>>()?;
    Ok(Message::from_symbols(symbols))
}

fn render_routes(routes: &[Vec<(u64, usize)>]) -> String {
    let nodes: Vec<String> = routes
        .iter()
        .map(|ports| {
            let entries: Vec<String> = ports
                .iter()
                .map(|&(label, peer)| format!("[{label},{peer}]"))
                .collect();
            format!("[{}]", entries.join(","))
        })
        .collect();
    format!("[{}]", nodes.join(","))
}

/// Renders a command as one JSONL line (no trailing newline).
pub fn render_command(cmd: &Command) -> String {
    match cmd {
        Command::Open {
            session,
            n,
            lo,
            hi,
            routes,
        } => format!(
            "{{\"type\":\"open\",\"session\":{session},\"n\":{n},\"lo\":{lo},\"hi\":{hi},\"routes\":{}}}",
            render_routes(routes)
        ),
        Command::Round {
            session,
            round,
            outbox,
        } => {
            let msgs: Vec<String> = outbox
                .iter()
                .map(|m| format!("\"{}\"", encode_message(m)))
                .collect();
            format!(
                "{{\"type\":\"round\",\"session\":{session},\"round\":{round},\"outbox\":[{}]}}",
                msgs.join(",")
            )
        }
        Command::Close { session } => {
            format!("{{\"type\":\"close\",\"session\":{session}}}")
        }
        Command::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
    }
}

/// Renders a reply as one JSONL line (no trailing newline).
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Hello { rank } => format!("{{\"type\":\"hello\",\"rank\":{rank}}}"),
        Reply::Ok { session } => format!("{{\"type\":\"ok\",\"session\":{session}}}"),
        Reply::View {
            session,
            round,
            inboxes,
        } => {
            let nodes: Vec<String> = inboxes
                .iter()
                .map(|entries| {
                    let items: Vec<String> = entries
                        .iter()
                        .map(|(label, m)| format!("[{label},\"{}\"]", encode_message(m)))
                        .collect();
                    format!("[{}]", items.join(","))
                })
                .collect();
            format!(
                "{{\"type\":\"view\",\"session\":{session},\"round\":{round},\"inboxes\":[{}]}}",
                nodes.join(",")
            )
        }
        Reply::Closed { session, telemetry } => {
            // The span is a fixed-position array, not a keyed object:
            // the close path runs once per session, and five bare
            // numbers parse with no per-key string allocations.
            let span = telemetry.span.as_ref().map_or_else(String::new, |s| {
                format!(
                    ",\"span\":[{},{},{},{},{}]",
                    s.n, s.nodes, s.rounds, s.frames, s.symbols
                )
            });
            // The counters key is omitted when empty (the common
            // case: the span carries the numbers), keeping the
            // close-path line short.
            let counters = if telemetry.counters.is_empty() {
                String::new()
            } else {
                format!(",\"counters\":{}", render_counters(&telemetry.counters))
            };
            format!("{{\"type\":\"closed\",\"session\":{session}{counters}{span}}}")
        }
        Reply::Telemetry { rank, counters } => format!(
            "{{\"type\":\"telemetry\",\"rank\":{rank},\"counters\":{}}}",
            render_counters(counters)
        ),
        Reply::Bye => "{\"type\":\"bye\"}".to_string(),
        Reply::Error { detail } => {
            format!("{{\"type\":\"error\",\"detail\":\"{}\"}}", escape(detail))
        }
    }
}

fn render_counters(counters: &[(String, u64)]) -> String {
    let entries: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!("[\"{}\",{value}]", escape(name)))
        .collect();
    format!("[{}]", entries.join(","))
}

fn parse_counters(v: &JsonValue, key: &str) -> Result<Vec<(String, u64)>, String> {
    v.arr_field(key)?
        .iter()
        .map(|entry| {
            let pair = entry.as_arr().ok_or("counter entry is not an array")?;
            if pair.len() != 2 {
                return Err(format!("counter entry has {} elements", pair.len()));
            }
            let name = pair[0].as_str().ok_or("counter name is not a string")?;
            let value = pair[1]
                .as_u64()
                .ok_or("counter value is not a non-negative integer")?;
            Ok((name.to_string(), value))
        })
        .collect()
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(v.u64_field(key)?).map_err(|_| format!("field {key:?} out of range"))
}

fn parse_label_pair(v: &JsonValue) -> Result<(u64, &JsonValue), String> {
    let pair = v.as_arr().ok_or("route/inbox entry is not an array")?;
    if pair.len() != 2 {
        return Err(format!("entry has {} elements, expected 2", pair.len()));
    }
    let label = pair[0]
        .as_u64()
        .ok_or("entry label is not a non-negative integer")?;
    Ok((label, &pair[1]))
}

/// Parses one command line.
///
/// # Errors
///
/// Returns a description of the first syntactic or shape problem.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let v = json::parse(line)?;
    match v.str_field("type")? {
        "open" => {
            let routes = v
                .arr_field("routes")?
                .iter()
                .map(|node| {
                    node.as_arr()
                        .ok_or_else(|| "route row is not an array".to_string())?
                        .iter()
                        .map(|entry| {
                            let (label, peer) = parse_label_pair(entry)?;
                            let peer = peer
                                .as_u64()
                                .and_then(|p| usize::try_from(p).ok())
                                .ok_or("route peer is not an index")?;
                            Ok((label, peer))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Command::Open {
                session: v.u64_field("session")?,
                n: field_usize(&v, "n")?,
                lo: field_usize(&v, "lo")?,
                hi: field_usize(&v, "hi")?,
                routes,
            })
        }
        "round" => {
            let outbox = v
                .arr_field("outbox")?
                .iter()
                .map(|m| decode_message(m.as_str().ok_or("outbox entry is not a string")?))
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Command::Round {
                session: v.u64_field("session")?,
                round: field_usize(&v, "round")?,
                outbox,
            })
        }
        "close" => Ok(Command::Close {
            session: v.u64_field("session")?,
        }),
        "shutdown" => Ok(Command::Shutdown),
        other => Err(format!("unknown command type {other:?}")),
    }
}

/// Parses one reply line.
///
/// # Errors
///
/// Returns a description of the first syntactic or shape problem.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = json::parse(line)?;
    match v.str_field("type")? {
        "hello" => Ok(Reply::Hello {
            rank: field_usize(&v, "rank")?,
        }),
        "ok" => Ok(Reply::Ok {
            session: v.u64_field("session")?,
        }),
        "view" => {
            let inboxes = v
                .arr_field("inboxes")?
                .iter()
                .map(|node| {
                    node.as_arr()
                        .ok_or_else(|| "inbox row is not an array".to_string())?
                        .iter()
                        .map(|entry| {
                            let (label, msg) = parse_label_pair(entry)?;
                            let msg = decode_message(
                                msg.as_str().ok_or("inbox message is not a string")?,
                            )?;
                            Ok((label, msg))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Reply::View {
                session: v.u64_field("session")?,
                round: field_usize(&v, "round")?,
                inboxes,
            })
        }
        "closed" => {
            let span = match v.get("span") {
                None => None,
                Some(s) => {
                    let nums = s.as_arr().ok_or("span is not an array")?;
                    let at = |i: usize| -> Result<u64, String> {
                        nums.get(i)
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("span element {i} is not a u64"))
                    };
                    if nums.len() != 5 {
                        return Err(format!("span has {} elements", nums.len()));
                    }
                    Some(SessionSpan {
                        n: at(0)?,
                        nodes: at(1)?,
                        rounds: at(2)?,
                        frames: at(3)?,
                        symbols: at(4)?,
                    })
                }
            };
            let counters = if v.get("counters").is_some() {
                parse_counters(&v, "counters")?
            } else {
                Vec::new()
            };
            Ok(Reply::Closed {
                session: v.u64_field("session")?,
                telemetry: WorkerTelemetry { counters, span },
            })
        }
        "telemetry" => Ok(Reply::Telemetry {
            rank: field_usize(&v, "rank")?,
            counters: parse_counters(&v, "counters")?,
        }),
        "bye" => Ok(Reply::Bye),
        "error" => Ok(Reply::Error {
            detail: v.str_field("detail")?.to_string(),
        }),
        other => Err(format!("unknown reply type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &str) -> Message {
        decode_message(s).unwrap()
    }

    #[test]
    fn message_codec_round_trips() {
        for text in ["", "0", "1", "_", "01_10", "___"] {
            assert_eq!(encode_message(&m(text)), text);
        }
        assert!(decode_message("01x").is_err());
    }

    #[test]
    fn commands_round_trip() {
        let cmds = [
            Command::Open {
                session: 7,
                n: 5,
                lo: 2,
                hi: 5,
                routes: vec![vec![(1, 0), (2, 3)], vec![(9, 4)], vec![]],
            },
            Command::Round {
                session: 7,
                round: 3,
                outbox: vec![m("0"), m("1_"), m("")],
            },
            Command::Close { session: 7 },
            Command::Shutdown,
        ];
        for cmd in cmds {
            let line = render_command(&cmd);
            assert_eq!(parse_command(&line), Ok(cmd), "line: {line}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Hello { rank: 3 },
            Reply::Ok { session: 9 },
            Reply::View {
                session: 9,
                round: 0,
                inboxes: vec![vec![(1, m("0")), (4, m("_"))], vec![]],
            },
            Reply::Closed {
                session: 9,
                telemetry: WorkerTelemetry {
                    counters: vec![("frames".to_string(), 12), ("rounds".to_string(), 3)],
                    span: Some(SessionSpan {
                        n: 5,
                        nodes: 2,
                        rounds: 3,
                        frames: 12,
                        symbols: 24,
                    }),
                },
            },
            Reply::Closed {
                session: 2,
                telemetry: WorkerTelemetry::default(),
            },
            Reply::Telemetry {
                rank: 1,
                counters: vec![("sessions".to_string(), 4)],
            },
            Reply::Bye,
            Reply::Error {
                detail: "bad \"stuff\"\nhappened".to_string(),
            },
        ];
        for reply in replies {
            let line = render_reply(&reply);
            assert!(!line.contains('\n'), "line breaks break JSONL: {line}");
            assert_eq!(parse_reply(&line), Ok(reply), "line: {line}");
        }
    }

    #[test]
    fn labels_round_trip_past_2_pow_53() {
        let label = (1u64 << 53) + 1;
        let cmd = Command::Open {
            session: u64::MAX,
            n: 2,
            lo: 0,
            hi: 2,
            routes: vec![vec![(label, 1)], vec![(u64::MAX, 0)]],
        };
        let line = render_command(&cmd);
        assert_eq!(parse_command(&line), Ok(cmd), "line: {line}");
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(parse_command("not json").is_err());
        assert!(parse_command("{\"type\":\"warp\"}").is_err());
        assert!(parse_command("{\"type\":\"round\",\"session\":1}").is_err());
        assert!(
            parse_reply("{\"type\":\"view\",\"session\":1,\"round\":0,\"inboxes\":[[[1,2]]]}")
                .is_err()
        );
    }
}
