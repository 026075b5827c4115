//! The JSONL wire protocol between a [`SocketTransport`] coordinator
//! and its worker subprocesses — the same hand-rolled codec
//! discipline as `crates/serve`: one JSON object per line, fixed key
//! order on the write side, tolerant typed parsing on the read side
//! (via `bcc_metrics::json`), and every malformed line surfaced as a
//! typed error, never a panic.
//!
//! Messages are the `{0, 1, ⊥}` alphabet rendered as the ASCII
//! string `'0' | '1' | '_'` per symbol.
//!
//! A round is a scatter and a gather of the board. The coordinator
//! sends each rank a `round` line carrying the broadcasts of the
//! sender rows the rank owns, and the rank answers with a `view` line
//! carrying that segment of the board, which the coordinator reads
//! back in rank order. Nothing else travels: no labels, no routes and
//! no per-receiver copies, so a round moves `n` messages each way,
//! not `n(n−1)`.
//!
//! `round` gets exactly one reply, as does `shutdown` (`bye`); any
//! line a worker cannot serve is answered with `error`. Workers keep
//! no per-session state, so a session exists only at the coordinator,
//! which counts its traffic from the views it reads.
//!
//! [`SocketTransport`]: crate::socket::SocketTransport

use bcc_metrics::json::{self, escape, JsonValue};
use bcc_model::{Message, Symbol};
use std::fmt::Write as _;

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Delivers one round's segment: the broadcasts of the rows the
    /// worker owns this round.
    Round {
        /// Session the round belongs to (echoed back in the view).
        session: u64,
        /// Round number (echoed back in the view).
        round: usize,
        /// The owned rows' broadcasts, in row order.
        outbox: Vec<Message>,
    },
    /// Asks the worker to exit cleanly.
    Shutdown,
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// First line after connecting: which rank this worker is.
    Hello {
        /// The worker's rank, `0..workers`.
        rank: usize,
    },
    /// One round's segment of the board.
    View {
        /// Session echoed.
        session: u64,
        /// Round echoed.
        round: usize,
        /// The delivered messages of the worker's rows, in row order.
        board: Vec<Message>,
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
    out.extend(m.symbols().map(|s| match s {
        Symbol::Zero => '0',
        Symbol::One => '1',
        Symbol::Silent => '_',
    }));
}

fn decode_symbol(b: u8) -> Result<Symbol, String> {
    match b {
        b'0' => Ok(Symbol::Zero),
        b'1' => Ok(Symbol::One),
        b'_' => Ok(Symbol::Silent),
        b if b.is_ascii() => Err(format!("bad message character {:?}", char::from(b))),
        b => Err(format!("bad message byte {b:#04x}")),
    }
}

/// Parses the wire alphabet back into a [`Message`], straight into
/// the message's word pair (no intermediate symbol vector up to 64
/// symbols).
///
/// # Errors
///
/// Returns an error naming the first character outside `0`/`1`/`_`.
pub fn decode_message(s: &str) -> Result<Message, String> {
    s.bytes().map(decode_symbol).collect()
}

/// One `round` or `view` line: its header fields, then `key` holding
/// `messages` as an array of wire strings.
fn render_messages(
    kind: &str,
    session: u64,
    round: usize,
    key: &str,
    messages: &[Message],
) -> String {
    let symbols: usize = messages.iter().map(Message::len).sum();
    let mut line = String::with_capacity(64 + symbols + 3 * messages.len());
    let _ = write!(
        line,
        "{{\"type\":\"{kind}\",\"session\":{session},\"round\":{round},\"{key}\":["
    );
    for (i, m) in messages.iter().enumerate() {
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

/// Renders the `round` line carrying `outbox`, one worker's segment,
/// without building a [`Command`] (no trailing newline).
pub fn render_round(session: u64, round: usize, outbox: &[Message]) -> String {
    render_messages("round", session, round, "outbox", outbox)
}

/// Renders a command as one JSONL line (no trailing newline).
pub fn render_command(cmd: &Command) -> String {
    match cmd {
        Command::Round {
            session,
            round,
            outbox,
        } => render_round(*session, *round, outbox),
        Command::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
    }
}

/// Renders a reply as one JSONL line (no trailing newline).
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Hello { rank } => format!("{{\"type\":\"hello\",\"rank\":{rank}}}"),
        Reply::View {
            session,
            round,
            board,
        } => render_messages("view", *session, *round, "board", board),
        Reply::Bye => "{\"type\":\"bye\"}".to_string(),
        Reply::Error { detail } => {
            format!("{{\"type\":\"error\",\"detail\":\"{}\"}}", escape(detail))
        }
    }
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(v.u64_field(key)?).map_err(|_| format!("field {key:?} out of range"))
}

/// The messages of array field `key`, each a wire string.
fn messages_field(v: &JsonValue, key: &str) -> Result<Vec<Message>, String> {
    v.arr_field(key)?
        .iter()
        .map(|m| {
            decode_message(
                m.as_str()
                    .ok_or_else(|| format!("{key} entry is not a string"))?,
            )
        })
        .collect()
}

/// Parses one command line.
///
/// # Errors
///
/// Returns a description of the first syntactic or shape problem.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let v = json::parse(line)?;
    match v.str_field("type")? {
        "round" => Ok(Command::Round {
            session: v.u64_field("session")?,
            round: field_usize(&v, "round")?,
            outbox: messages_field(&v, "outbox")?,
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
        "view" => Ok(Reply::View {
            session: v.u64_field("session")?,
            round: field_usize(&v, "round")?,
            board: messages_field(&v, "board")?,
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
            let mut out = String::new();
            push_message(&mut out, &m(text));
            assert_eq!(out, text);
        }
        assert!(decode_message("01x").is_err());
        assert!(decode_message("0\u{e9}").is_err());
    }

    #[test]
    fn commands_round_trip() {
        let cmds = [
            Command::Round {
                session: u64::MAX,
                round: 3,
                outbox: vec![m("0"), m("1_"), m("")],
            },
            Command::Round {
                session: 7,
                round: 0,
                outbox: Vec::new(),
            },
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
            Reply::View {
                session: 9,
                round: 0,
                board: vec![m("0_"), m("")],
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
    fn view_line_carries_one_message_per_row() {
        // Rank 0 of two on a 24-vertex 1-bit round owns 12 rows; its
        // view line holds those 12 messages and nothing else.
        let board: Vec<Message> = (0..12u64).map(|v| Message::from_bits(v & 1, 1)).collect();
        let reply = Reply::View {
            session: 1000,
            round: 10,
            board,
        };
        let line = render_reply(&reply);
        assert!(line.len() <= 100, "{} B view line: {line}", line.len());
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(parse_command("not json").is_err());
        assert!(parse_command("{\"type\":\"warp\"}").is_err());
        assert!(parse_command("{\"type\":\"round\",\"session\":1}").is_err());
        assert!(parse_command(
            "{\"type\":\"round\",\"session\":1,\"round\":0,\"outbox\":[\"0x\"]}"
        )
        .is_err());
        assert!(
            parse_reply("{\"type\":\"view\",\"session\":1,\"round\":0,\"board\":[[1,\"0\"]]}")
                .is_err()
        );
        assert!(
            parse_reply("{\"type\":\"view\",\"session\":1,\"round\":0,\"board\":[\"2\"]}").is_err()
        );
        // The retired session commands and replies are unknown types.
        assert!(parse_command("{\"type\":\"open\",\"session\":1}").is_err());
        assert!(parse_command("{\"type\":\"close\",\"session\":1}").is_err());
        assert!(parse_reply("{\"type\":\"ok\",\"session\":1}").is_err());
        let legacy = "{\"type\":\"closed\",\"session\":1,\"span\":[5,2,3,12,24]}";
        assert!(parse_reply(legacy).is_err());
    }
}
