//! The worker side of the multi-process backend: a blocking JSONL
//! read loop over one TCP connection to the coordinator.
//!
//! A worker is pure routing — it holds each open session's node range
//! and routes, and answers every `round` command with one symbol
//! string per owned node: the messages of the node's peers, taken
//! from the full outbox it was sent and concatenated in port order.
//! It never looks at a clock and never touches the simulation state;
//! the only records it keeps are *logical* telemetry (frames routed,
//! symbols forwarded, rounds served per session) — pure functions of
//! the commands served — which ride home inside the `closed`
//! acknowledgement and are absorbed by the driver in rank order
//! (DESIGN.md §15). Determinism of the merged
//! run stays the coordinator's job; the worker has no state that
//! could perturb it.
//!
//! EOF on the command stream is a clean shutdown (the coordinator
//! dropped the group); every malformed or unserviceable command is
//! answered with a wire-level `error` reply rather than a crash.

use crate::wire::{self, Command, Reply, SessionSpan, WorkerTelemetry};
use bcc_model::Message;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Test knob: when set to `N`, the worker serves `N` `round` commands
/// and then exits abruptly (no reply, no goodbye) on the next one —
/// simulating a mid-run crash for dead-worker tests. The form `N@R`
/// restricts the crash to rank `R`, so surviving-worker paths (buffer
/// salvage, truncation marking) are testable too.
pub const EXIT_AFTER_ENV: &str = "BCC_TRANSPORT_WORKER_EXIT_AFTER";

/// Telemetry knob: set to `0` or `off` to disable worker-side
/// trace/metrics recording entirely (the overhead-measurement
/// baseline for `BENCH_PR10.json`). Any other value — including
/// unset — leaves telemetry on.
pub const TELEMETRY_ENV: &str = "BCC_TRANSPORT_TELEMETRY";

/// The unit-class prefix of worker-origin telemetry: a worker's
/// trace events land under `transport/worker:<rank>`, so the
/// profiler files them under the `transport` unit class while the
/// rank stays visible in the unit name.
pub fn worker_unit(rank: usize) -> String {
    format!("transport/worker:{rank}")
}

struct SessionTelemetry {
    /// Instance size and owned-node count, captured at open for the
    /// session's trace summary.
    n: u64,
    nodes: u64,
    rounds: u64,
    frames: u64,
    symbols: u64,
}

struct Session {
    n: usize,
    /// `routes[i]` = `(port_label, peer)` pairs of node `lo + i`.
    routes: Vec<Vec<(u64, usize)>>,
    telemetry: Option<SessionTelemetry>,
}

/// Lifetime totals across every session the worker ever served;
/// shipped as a `telemetry` reply right before `bye`.
#[derive(Default)]
struct Lifetime {
    frames: u64,
    rounds: u64,
    sessions: u64,
    symbols: u64,
}

impl Lifetime {
    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("frames".to_string(), self.frames),
            ("rounds".to_string(), self.rounds),
            ("sessions".to_string(), self.sessions),
            ("symbols".to_string(), self.symbols),
        ]
    }
}

/// Entry point for the worker process: `args` are the argv elements
/// after the worker flag, i.e. `[port, rank]`. Returns the process
/// exit code.
pub fn run_from_args(args: &[String]) -> i32 {
    match parse_and_serve(args) {
        Ok(()) => 0,
        Err(detail) => {
            eprintln!("bcc-transport-worker: {detail}");
            1
        }
    }
}

fn parse_and_serve(args: &[String]) -> Result<(), String> {
    let port: u16 = args
        .first()
        .ok_or("missing port argument")?
        .parse()
        .map_err(|_| "port argument is not a u16".to_string())?;
    let rank: usize = args
        .get(1)
        .ok_or("missing rank argument")?
        .parse()
        .map_err(|_| "rank argument is not an integer".to_string())?;
    serve(port, rank)
}

/// Parses the crash knob for this rank: `"N"` applies to every rank,
/// `"N@R"` only to rank `R`.
fn exit_after_for(value: &str, rank: usize) -> Option<u64> {
    match value.split_once('@') {
        None => value.parse().ok(),
        Some((rounds, target)) => {
            let target: usize = target.parse().ok()?;
            if target == rank {
                rounds.parse().ok()
            } else {
                None
            }
        }
    }
}

fn telemetry_enabled() -> bool {
    !matches!(
        std::env::var(TELEMETRY_ENV).ok().as_deref(),
        Some("0") | Some("off")
    )
}

fn serve(port: u16, rank: usize) -> Result<(), String> {
    let stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect failed: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("stream clone failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    send(&mut writer, &Reply::Hello { rank })?;

    let telemetry_on = telemetry_enabled();
    let mut sessions: BTreeMap<u64, Session> = BTreeMap::new();
    let mut lifetime = Lifetime::default();
    let mut rounds_left: Option<u64> = std::env::var(EXIT_AFTER_ENV)
        .ok()
        .and_then(|v| exit_after_for(&v, rank));

    loop {
        let mut line = String::new();
        let bytes = reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        if bytes == 0 {
            // Coordinator closed the connection: clean shutdown.
            return Ok(());
        }
        let reply = match wire::parse_command(line.trim_end()) {
            Ok(Command::Open {
                session,
                n,
                lo,
                hi,
                routes,
            }) => match validate_open(n, lo, hi, &routes) {
                Ok(()) => {
                    // No session ids in the recorded content: ids
                    // depend on how runs interleave on the driver,
                    // which would break byte-identity under --jobs.
                    let telemetry = telemetry_on.then(|| SessionTelemetry {
                        n: n as u64,
                        nodes: (hi - lo) as u64,
                        rounds: 0,
                        frames: 0,
                        symbols: 0,
                    });
                    lifetime.sessions += 1;
                    sessions.insert(
                        session,
                        Session {
                            n,
                            routes,
                            telemetry,
                        },
                    );
                    Reply::Ok { session }
                }
                Err(detail) => Reply::Error { detail },
            },
            Ok(Command::Round {
                session,
                round,
                outbox,
            }) => {
                if let Some(left) = rounds_left.as_mut() {
                    if *left == 0 {
                        // Simulated mid-run crash (see EXIT_AFTER_ENV).
                        return Ok(());
                    }
                    *left -= 1;
                }
                match handle_round(&mut sessions, session, round, &outbox, &mut lifetime) {
                    Ok(reply) => reply,
                    Err(detail) => Reply::Error { detail },
                }
            }
            Ok(Command::Close { session }) => {
                let telemetry = sessions
                    .remove(&session)
                    .and_then(|s| s.telemetry)
                    .map_or_else(WorkerTelemetry::default, close_telemetry);
                Reply::Closed { session, telemetry }
            }
            Ok(Command::Shutdown) => {
                // Best-effort goodbyes: the coordinator may already
                // have dropped its end by the time these are written.
                if telemetry_on {
                    let _ = send(
                        &mut writer,
                        &Reply::Telemetry {
                            rank,
                            counters: lifetime.counters(),
                        },
                    );
                }
                let _ = send(&mut writer, &Reply::Bye);
                return Ok(());
            }
            Err(detail) => Reply::Error { detail },
        };
        send(&mut writer, &reply)?;
    }
}

/// Seals a session's telemetry: one compact numeric summary. The
/// coordinator derives the session's `frames`/`rounds`/`symbols`
/// counters from it and turns it into a `session` trace span at
/// flush time, so nothing is shipped twice (the counters vec stays
/// empty on this path; the wire still carries explicit counters for
/// the lifetime `telemetry` reply).
fn close_telemetry(t: SessionTelemetry) -> WorkerTelemetry {
    WorkerTelemetry {
        counters: Vec::new(),
        span: Some(SessionSpan {
            n: t.n,
            nodes: t.nodes,
            rounds: t.rounds,
            frames: t.frames,
            symbols: t.symbols,
        }),
    }
}

/// Writes one reply line and its newline in a single `write_all`, so
/// the line leaves as one segment on the no-delay socket.
fn send(writer: &mut TcpStream, reply: &Reply) -> Result<(), String> {
    let mut line = wire::render_reply(reply);
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write failed: {e}"))
}

/// Shape checks at open time, so round handling can trust the routes.
fn validate_open(
    n: usize,
    lo: usize,
    hi: usize,
    routes: &[Vec<(u64, usize)>],
) -> Result<(), String> {
    if lo > hi || hi > n {
        return Err(format!("bad node range {lo}..{hi} for n={n}"));
    }
    if routes.len() != hi - lo {
        return Err(format!(
            "got {} route rows for node range {lo}..{hi}",
            routes.len()
        ));
    }
    for ports in routes {
        for &(_, peer) in ports {
            if peer >= n {
                return Err(format!("route peer {peer} out of range for n={n}"));
            }
        }
    }
    Ok(())
}

fn handle_round(
    sessions: &mut BTreeMap<u64, Session>,
    session: u64,
    round: usize,
    outbox: &[Message],
    lifetime: &mut Lifetime,
) -> Result<Reply, String> {
    let s = sessions
        .get_mut(&session)
        .ok_or_else(|| format!("round for unknown session {session}"))?;
    if outbox.len() != s.n {
        return Err(format!(
            "outbox has {} entries for an instance with {} nodes",
            outbox.len(),
            s.n
        ));
    }
    // Peers were range-checked at open and the outbox length just
    // now, so indexing cannot fail. Only symbols are shipped: the
    // coordinator restores labels from the routes it sent.
    let width = outbox.first().map_or(0, Message::len);
    let inboxes: Vec<String> = s
        .routes
        .iter()
        .map(|ports| {
            let mut text = String::with_capacity(ports.len() * width);
            for &(_, peer) in ports {
                wire::push_message(&mut text, &outbox[peer]);
            }
            text
        })
        .collect();
    if let Some(t) = s.telemetry.as_mut() {
        let frames: u64 = s.routes.iter().map(|ports| ports.len() as u64).sum();
        let symbols: u64 = inboxes.iter().map(|text| text.len() as u64).sum();
        t.rounds = t.rounds.saturating_add(1);
        t.frames += frames;
        t.symbols += symbols;
        lifetime.rounds = lifetime.rounds.saturating_add(1);
        lifetime.frames += frames;
        lifetime.symbols += symbols;
    }
    Ok(Reply::View {
        session,
        round,
        inboxes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_after_knob_parses_global_and_per_rank_forms() {
        assert_eq!(exit_after_for("3", 0), Some(3));
        assert_eq!(exit_after_for("3", 7), Some(3));
        assert_eq!(exit_after_for("1@0", 0), Some(1));
        assert_eq!(exit_after_for("1@0", 1), None);
        assert_eq!(exit_after_for("garbage", 0), None);
        assert_eq!(exit_after_for("2@x", 0), None);
    }

    #[test]
    fn view_line_of_a_half_slice_stays_compact() {
        // A 24-vertex 1-bit round on two workers: rank 0 owns nodes
        // 0..12, each hearing 23 peers on KT-0 ports labelled p + 1.
        // Shipping a `[label,"m"]` pair per entry made this line
        // 2448 B; one symbol string per node keeps it under 400 B.
        let n = 24;
        let routes: Vec<Vec<(u64, usize)>> = (0..12)
            .map(|v| {
                (0..n)
                    .filter(|&peer| peer != v)
                    .enumerate()
                    .map(|(p, peer)| (p as u64 + 1, peer))
                    .collect()
            })
            .collect();
        let mut sessions = BTreeMap::new();
        let telemetry = Some(SessionTelemetry {
            n: n as u64,
            nodes: 12,
            rounds: 0,
            frames: 0,
            symbols: 0,
        });
        sessions.insert(
            1000,
            Session {
                n,
                routes,
                telemetry,
            },
        );
        let outbox: Vec<Message> = (0..n as u64).map(|v| Message::from_bits(v, 1)).collect();
        let mut lifetime = Lifetime::default();
        let reply = handle_round(&mut sessions, 1000, 10, &outbox, &mut lifetime).unwrap();
        let line = wire::render_reply(&reply);
        assert!(line.len() <= 400, "{} B view line: {line}", line.len());
        assert_eq!((lifetime.frames, lifetime.symbols), (12 * 23, 12 * 23));
    }
}
