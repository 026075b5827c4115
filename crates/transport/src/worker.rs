//! The worker side of the multi-process backend: a blocking JSONL
//! read loop over one TCP connection to the coordinator.
//!
//! A worker is one rank of the board's scatter and gather: it answers
//! every `round` command with a `view` carrying the segment of the
//! board it was sent, the broadcasts of the sender rows it owns that
//! round. It keeps no routes and no per-session state, never looks at
//! a clock, never touches the simulation state, and counts nothing:
//! the coordinator tallies each rank's traffic from the views it reads
//! (DESIGN.md §15). Every command is answered once, in the order the
//! commands arrived. A batch's rows are its lanes' vertices side by
//! side; to the worker they are just rows.
//!
//! EOF on the command stream is a clean shutdown (the coordinator
//! dropped the group); every malformed or unserviceable command is
//! answered with a wire-level `error` reply rather than a crash.

use crate::wire::{self, Command, Reply};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Test knob: when set to `N`, the worker serves `N` `round` commands
/// and then exits abruptly (no reply, no goodbye) on the next one —
/// simulating a mid-run crash for dead-worker tests. The form `N@R`
/// restricts the crash to rank `R`, so surviving-worker paths
/// (truncation marking, postmortem rings) are testable too. Any other
/// value makes the worker exit before it connects, so a mistyped
/// fault injection surfaces as a spawn error instead of injecting
/// nothing.
pub const EXIT_AFTER_ENV: &str = "BCC_TRANSPORT_WORKER_EXIT_AFTER";

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
/// `"N@R"` only to rank `R`; `None` when another rank is targeted.
///
/// # Errors
///
/// Returns an error when either number is missing or not an integer.
fn exit_after_for(value: &str, rank: usize) -> Result<Option<u64>, String> {
    let (rounds, target) = match value.split_once('@') {
        None => (value, None),
        Some((rounds, target)) => (rounds, Some(target)),
    };
    let bad = || format!("{EXIT_AFTER_ENV}={value:?} is not N or N@RANK");
    let rounds: u64 = rounds.parse().map_err(|_| bad())?;
    match target.map(str::parse::<usize>) {
        None => Ok(Some(rounds)),
        Some(Ok(target)) => Ok((target == rank).then_some(rounds)),
        Some(Err(_)) => Err(bad()),
    }
}

fn serve(port: u16, rank: usize) -> Result<(), String> {
    let mut rounds_left = match std::env::var(EXIT_AFTER_ENV) {
        Ok(value) => exit_after_for(&value, rank)?,
        Err(_) => None,
    };
    let stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect failed: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("stream clone failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    send(&mut writer, &Reply::Hello { rank })?;

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
                // The rank's segment of the board is the broadcasts
                // it was sent.
                Reply::View {
                    session,
                    round,
                    board: outbox,
                }
            }
            Ok(Command::Shutdown) => {
                // Best-effort goodbye: the coordinator may already
                // have dropped its end by the time this is written.
                let _ = send(&mut writer, &Reply::Bye);
                return Ok(());
            }
            Err(detail) => Reply::Error { detail },
        };
        send(&mut writer, &reply)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_after_knob_parses_global_and_per_rank_forms() {
        assert_eq!(exit_after_for("3", 0), Ok(Some(3)));
        assert_eq!(exit_after_for("3", 7), Ok(Some(3)));
        assert_eq!(exit_after_for("1@0", 0), Ok(Some(1)));
        assert_eq!(exit_after_for("1@0", 1), Ok(None));
        // Garbage is an error on every rank, never a silent no-op.
        for bad in ["garbage", "2@x", "x", "1@", "1@y", "x@0", "", "-1", "@0"] {
            for rank in [0, 1] {
                assert!(exit_after_for(bad, rank).is_err(), "{bad:?} on rank {rank}");
            }
        }
    }
}
