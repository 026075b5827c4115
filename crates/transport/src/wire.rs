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
//! Labels travel downstream only, in the `open` routes. A `view`
//! reply carries one symbol string per owned node: the messages the
//! node received, concatenated in port order. The coordinator already
//! holds the routes it sent and the outbox it broadcast, so
//! [`split_view`] restores every `(port_label, message)` entry by
//! cutting each string at `outbox[peer].len()`. On a 24-vertex 1-bit
//! round, a 12-node slice's `view` line is about 360 B, where shipping
//! a `[label,"m"]` pair per entry took 2448 B.
//!
//! [`SocketTransport`]: crate::socket::SocketTransport

use bcc_metrics::json::{self, escape, push_quoted, JsonValue};
use bcc_model::transport::Routes;
use bcc_model::{Message, Symbol};
use std::fmt::Write as _;
use std::ops::Range;

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

/// One closed session's telemetry, shipped home with a
/// [`Reply::Closed`]: a compact numeric summary from which the
/// coordinator derives the session's `frames`/`rounds`/`symbols`
/// counters and synthesizes its trace events at flush time. It renders
/// as a `session` span (`n`/`nodes` fields on the start, `rounds` on
/// the end) holding `frames` and `symbols` counter events, under the
/// owning `transport/worker:<rank>` unit. Shipping five integers
/// instead of serialized event lines keeps the close path
/// allocation-light — the ≤ 2% budget of the `telemetry` pair in
/// `BENCH.json` is won here. Everything here is a pure function of the
/// commands served; nothing wall-clock-shaped is allowed (those
/// quantities stay driver-side, in the `--wall` sidecar). Ordered
/// field-by-field so a rank's sessions sort canonically, independent
/// of close order.
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
        /// One string per owned node, in node order `lo..hi`: the
        /// node's received messages in the wire alphabet,
        /// concatenated in port order. [`split_view`] turns it back
        /// into `(port_label, message)` entries.
        inboxes: Vec<String>,
    },
    /// `Close` acknowledged, carrying the session's telemetry. This
    /// is the close-path counterpart of [`Reply::Ok`]: the session is
    /// dropped worker-side and its trace/metrics buffers ride home in
    /// the acknowledgement.
    Closed {
        /// The session closed.
        session: u64,
        /// The session's telemetry; `None` when telemetry is
        /// disabled worker-side.
        span: Option<SessionSpan>,
    },
    /// Shutdown acknowledged; the worker exits after sending this.
    Bye,
    /// The command could not be served.
    Error {
        /// Human-readable cause.
        detail: String,
    },
}

/// Appends a [`Message`] in its wire alphabet (`0`, `1`, `_`).
pub fn push_message(out: &mut String, m: &Message) {
    out.extend(m.symbols().iter().map(|s| match s {
        Symbol::Zero => '0',
        Symbol::One => '1',
        Symbol::Silent => '_',
    }));
}

fn decode_symbols(bytes: &[u8]) -> Result<Message, String> {
    let mut symbols = Vec::with_capacity(bytes.len());
    for &b in bytes {
        symbols.push(match b {
            b'0' => Symbol::Zero,
            b'1' => Symbol::One,
            b'_' => Symbol::Silent,
            b if b.is_ascii() => return Err(format!("bad message character {:?}", char::from(b))),
            b => return Err(format!("bad message byte {b:#04x}")),
        });
    }
    Ok(Message::from_symbols(symbols))
}

/// Parses the wire alphabet back into a [`Message`].
///
/// # Errors
///
/// Returns an error naming the first character outside `0`/`1`/`_`.
pub fn decode_message(s: &str) -> Result<Message, String> {
    decode_symbols(s.as_bytes())
}

/// Restores the `(port_label, message)` entries of one `view` reply
/// covering `nodes`: each node's string is cut, in port order, at
/// `outbox[peer].len()` symbols per port, and each piece is labelled
/// with the port's label from `routes`.
///
/// # Errors
///
/// Returns an error when the reply has the wrong number of strings,
/// a string is shorter or longer than its node's ports require, a
/// string holds a character outside `0`/`1`/`_`, or a route names a
/// peer outside `outbox`.
pub fn split_view(
    routes: &Routes,
    nodes: Range<usize>,
    outbox: &[Message],
    inboxes: &[String],
) -> Result<Vec<Vec<(u64, Message)>>, String> {
    if inboxes.len() != nodes.len() {
        return Err(format!(
            "view has {} inboxes for node range {}..{}",
            inboxes.len(),
            nodes.start,
            nodes.end
        ));
    }
    let mut restored = Vec::with_capacity(inboxes.len());
    for (v, text) in nodes.zip(inboxes) {
        let ports = routes.ports(v);
        let mut expected = 0;
        for &(_, peer) in ports {
            expected += outbox
                .get(peer)
                .ok_or_else(|| format!("route peer {peer} of node {v} is outside the outbox"))?
                .len();
        }
        if text.len() != expected {
            return Err(format!(
                "inbox of node {v} has {} symbols, expected {expected}",
                text.len()
            ));
        }
        // The length check above makes every cut below in bounds.
        let mut rest = text.as_bytes();
        let mut entries = Vec::with_capacity(ports.len());
        for &(label, peer) in ports {
            let (head, tail) = rest.split_at(outbox[peer].len());
            rest = tail;
            let m = decode_symbols(head).map_err(|e| format!("inbox of node {v}: {e}"))?;
            entries.push((label, m));
        }
        restored.push(entries);
    }
    Ok(restored)
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
            let symbols: usize = outbox.iter().map(Message::len).sum();
            let mut line = String::with_capacity(64 + symbols + 3 * outbox.len());
            let _ = write!(
                line,
                "{{\"type\":\"round\",\"session\":{session},\"round\":{round},\"outbox\":["
            );
            for (i, m) in outbox.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                push_message(&mut line, m);
                line.push('"');
            }
            line.push_str("]}");
            line
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
            let symbols: usize = inboxes.iter().map(String::len).sum();
            let mut line = String::with_capacity(64 + symbols + 3 * inboxes.len());
            let _ = write!(
                line,
                "{{\"type\":\"view\",\"session\":{session},\"round\":{round},\"inboxes\":["
            );
            for (i, text) in inboxes.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_quoted(&mut line, text);
            }
            line.push_str("]}");
            line
        }
        Reply::Closed { session, span } => {
            // The span is a fixed-position array, not a keyed object:
            // the close path runs once per session, and five bare
            // numbers parse with no per-key string allocations.
            let span = span.as_ref().map_or_else(String::new, |s| {
                format!(
                    ",\"span\":[{},{},{},{},{}]",
                    s.n, s.nodes, s.rounds, s.frames, s.symbols
                )
            });
            format!("{{\"type\":\"closed\",\"session\":{session}{span}}}")
        }
        Reply::Bye => "{\"type\":\"bye\"}".to_string(),
        Reply::Error { detail } => {
            format!("{{\"type\":\"error\",\"detail\":\"{}\"}}", escape(detail))
        }
    }
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(v.u64_field(key)?).map_err(|_| format!("field {key:?} out of range"))
}

fn parse_label_pair(v: &JsonValue) -> Result<(u64, &JsonValue), String> {
    let pair = v.as_arr().ok_or("route entry is not an array")?;
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
                    node.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "inbox is not a string".to_string())
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
            Ok(Reply::Closed {
                session: v.u64_field("session")?,
                span,
            })
        }
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
            let mut out = String::new();
            push_message(&mut out, &m(text));
            assert_eq!(out, text);
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
                inboxes: vec!["0_".to_string(), String::new()],
            },
            Reply::Closed {
                session: 9,
                span: Some(SessionSpan {
                    n: 5,
                    nodes: 2,
                    rounds: 3,
                    frames: 12,
                    symbols: 24,
                }),
            },
            Reply::Closed {
                session: 2,
                span: None,
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
        assert!(parse_reply(
            "{\"type\":\"view\",\"session\":1,\"round\":0,\"inboxes\":[[1,\"0\"]]}"
        )
        .is_err());
    }

    /// A 4-vertex plan whose outbox mixes 0-, 1- and 2-symbol
    /// messages, so a split at one fixed width would go wrong.
    fn split_fixture() -> (Routes, Vec<Message>) {
        let routes = Routes::from_ports(vec![
            vec![(1, 1), (2, 2), (3, 3)],
            vec![(10, 3), (20, 0), (30, 2)],
            vec![(u64::MAX, 0)],
            vec![],
        ]);
        let outbox = vec![m("1"), m("0_"), m(""), m("__")];
        (routes, outbox)
    }

    fn texts(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn split_view_restores_labels_in_port_order() {
        let (routes, outbox) = split_fixture();
        let entries = split_view(&routes, 0..3, &outbox, &texts(&["0___", "__1", "1"])).unwrap();
        assert_eq!(
            entries,
            vec![
                vec![(1, m("0_")), (2, m("")), (3, m("__"))],
                vec![(10, m("__")), (20, m("1")), (30, m(""))],
                vec![(u64::MAX, m("1"))],
            ]
        );
        let tail = split_view(&routes, 2..4, &outbox, &texts(&["1", ""])).unwrap();
        assert_eq!(tail, vec![vec![(u64::MAX, m("1"))], vec![]]);
    }

    #[test]
    fn split_view_rejects_every_malformed_slice() {
        let (routes, outbox) = split_fixture();
        let bad: [(&[&str], &str); 7] = [
            (&["0___", "__1"], "inbox count"),
            (&["0___", "__1", "1", ""], "inbox count"),
            (&["0__", "__1", "1"], "one symbol short"),
            (&["0___", "__1", "10"], "one symbol long"),
            (&["0___", "_x1", "1"], "bad character"),
            (&["0___", "_\u{e9}", "1"], "non-ASCII byte"),
            (&["0___", "__1", ""], "empty string for a ported node"),
        ];
        for (parts, what) in bad {
            let verdict = split_view(&routes, 0..3, &outbox, &texts(parts));
            assert!(verdict.is_err(), "{what}: {parts:?} was accepted");
        }
        let short = split_view(&routes, 0..3, &outbox[..3], &texts(&["0___", "__1", "1"]));
        assert!(short.is_err(), "a peer outside the outbox must be rejected");
    }

    #[test]
    fn split_view_handles_empty_ranges_and_one_node() {
        let (routes, outbox) = split_fixture();
        assert_eq!(split_view(&routes, 1..1, &outbox, &[]), Ok(Vec::new()));
        assert!(split_view(&routes, 1..1, &outbox, &texts(&[""])).is_err());

        let single = Routes::from_ports(vec![vec![]]);
        let one = [m("1")];
        assert_eq!(
            split_view(&single, 0..1, &one, &texts(&[""])),
            Ok(vec![vec![]])
        );
        assert!(split_view(&single, 0..1, &one, &texts(&["1"])).is_err());
        assert!(split_view(&single, 0..1, &one, &[]).is_err());
    }
}
