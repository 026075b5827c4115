//! Per-connection protocol handling: a bounded JSONL line reader and
//! the request dispatch loop.
//!
//! Every malformed input maps to a typed `error` line — a daemon must
//! never panic on a client's bytes. Only an oversized line closes the
//! connection (the remainder of the line cannot be trusted as a
//! framing boundary); every other error leaves it usable.
//!
//! On disconnect (EOF or transport error) the handler cancels every
//! request this connection admitted but never collected, so an
//! abandoned client cannot pin queue slots or quota.

use crate::proto::{ProtoError, Request, Response, SubmitReq};
use crate::server::Server;
use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Outcome of one bounded line read.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the configured maximum.
    TooLong,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Invalid
/// UTF-8 is replaced lossily — the JSON parser then reports it as a
/// `bad_json` error rather than the daemon dying on it.
pub fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut out: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF; a partial trailing line is dropped rather than
            // parsed — the client never finished framing it.
            return Ok(LineRead::Eof);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if out.len() + i > max {
                    reader.consume(i + 1);
                    return Ok(LineRead::TooLong);
                }
                out.extend_from_slice(&chunk[..i]);
                reader.consume(i + 1);
                return Ok(LineRead::Line(String::from_utf8_lossy(&out).into_owned()));
            }
            None => {
                let len = chunk.len();
                if out.len() + len > max {
                    reader.consume(len);
                    return Ok(LineRead::TooLong);
                }
                out.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Largest batch frame a single `batch` header may announce.
pub const MAX_BATCH: u64 = 256;

struct Conn<'a, R: BufRead, W: Write> {
    server: &'a Arc<Server>,
    reader: R,
    writer: W,
    client: String,
    /// Requests admitted here and not yet delivered via `await`.
    undelivered: BTreeSet<u64>,
}

impl<R: BufRead, W: Write> Conn<'_, R, W> {
    fn send(&mut self, response: &Response) -> std::io::Result<()> {
        writeln!(self.writer, "{}", response.to_json())?;
        self.writer.flush()
    }

    /// Records one countable connection event under this connection's
    /// metrics unit and absorbs it immediately, so the dump flushed at
    /// drain already contains everything up to the shutdown request.
    fn record(&self, f: impl FnOnce(&mut bcc_metrics::MetricsBuf)) {
        let hub = self.server.hub();
        if !hub.enabled() {
            return;
        }
        let mut buf = hub.buf(format!("serve/conn/{}", self.client));
        f(&mut buf);
        hub.absorb(buf);
    }

    fn admit(&mut self, submits: Vec<SubmitReq>) -> Vec<Response> {
        let outcomes = self.server.admit(&self.client, submits);
        let mut responses = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(acc) => {
                    self.undelivered.insert(acc.req);
                    self.record(|buf| {
                        buf.counter("serve.accepted", 1);
                        buf.observe("serve.queue.depth", acc.depth);
                    });
                    responses.push(Response::Accepted {
                        req: acc.req,
                        queue_depth: acc.depth,
                    });
                }
                Err(reject) => {
                    self.record(|buf| {
                        buf.counter("serve.rejected", 1);
                        buf.counter(&format!("serve.rejected.{}", reject.code()), 1);
                    });
                    responses.push(Response::Rejected(reject));
                }
            }
        }
        responses
    }

    fn protocol_error(&mut self, err: ProtoError) -> std::io::Result<()> {
        self.record(|buf| {
            buf.counter("serve.errors", 1);
            buf.counter(&format!("serve.errors.{}", err.code), 1);
        });
        self.send(&Response::Error(err))
    }

    /// Reads the `n` submit lines of a batch frame. Lines that fail
    /// to parse as `submit` get an error slot; the valid ones are
    /// admitted under one lock hold and every slot is answered in
    /// line order.
    fn handle_batch(&mut self, n: u64) -> std::io::Result<bool> {
        if n == 0 || n > MAX_BATCH {
            self.protocol_error(ProtoError::bad_request(format!(
                "batch n must be in 1..={MAX_BATCH}, got {n}"
            )))?;
            return Ok(true);
        }
        let max = self.server.config().max_line_bytes;
        let mut slots: Vec<Result<SubmitReq, ProtoError>> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match read_bounded_line(&mut self.reader, max)? {
                LineRead::Eof => return Ok(false),
                LineRead::TooLong => {
                    self.protocol_error(ProtoError {
                        code: "line_too_long",
                        message: format!("request line exceeds {max} bytes"),
                    })?;
                    return Ok(false);
                }
                LineRead::Line(line) => slots.push(match Request::parse(&line) {
                    Ok(Request::Submit(s)) => Ok(s),
                    Ok(_) => Err(ProtoError::bad_request(
                        "batch frames may contain only submit lines",
                    )),
                    Err(e) => Err(e),
                }),
            }
        }
        let submits: Vec<SubmitReq> = slots.iter().filter_map(|s| s.clone().ok()).collect();
        let mut admitted = self.admit(submits).into_iter();
        for slot in slots {
            match slot {
                Ok(_) => {
                    if let Some(response) = admitted.next() {
                        self.send(&response)?;
                    }
                }
                Err(err) => self.protocol_error(err)?,
            }
        }
        Ok(true)
    }

    /// Streams `count` stats snapshots, one every `every` logical
    /// ticks, then an `observed` terminator. The first snapshot is
    /// sent immediately at the current tick; the stream ends early
    /// (with the terminator) when the server drains. Blocking here
    /// only parks this connection's thread — the scheduler and every
    /// other connection keep running, which is why `bcc-client
    /// --watch` uses a dedicated connection.
    fn handle_observe(&mut self, every: u64, count: u64) -> std::io::Result<bool> {
        self.record(|buf| buf.counter("serve.observers", 1));
        let mut tick = self.server.tick();
        self.send(&Response::Snapshot {
            tick,
            stats: self.server.stats(),
            transport: bcc_model::transport::default_factory().health(),
        })?;
        let mut sent = 1u64;
        while sent < count {
            let target = tick + every;
            match self.server.wait_tick(target - 1) {
                Some(now) => {
                    tick = now;
                    self.send(&Response::Snapshot {
                        tick,
                        stats: self.server.stats(),
                        transport: bcc_model::transport::default_factory().health(),
                    })?;
                    sent += 1;
                }
                None => break,
            }
        }
        self.send(&Response::Observed {
            snapshots: sent,
            tick: self.server.tick(),
        })?;
        Ok(true)
    }

    /// Dispatches one parsed request; `false` means close the
    /// connection.
    fn handle(&mut self, request: Request) -> std::io::Result<bool> {
        self.record(|buf| buf.counter("serve.requests", 1));
        match request {
            Request::Hello { client } => {
                self.client = client;
                self.send(&Response::Welcome)?;
            }
            Request::Submit(submit) => {
                let responses = self.admit(vec![submit]);
                for response in responses {
                    self.send(&response)?;
                }
            }
            Request::Batch { n } => return self.handle_batch(n),
            Request::Await { req } => match self.server.await_result(req) {
                Some(msg) => {
                    self.undelivered.remove(&req);
                    self.send(&Response::Result(msg))?;
                }
                None => {
                    self.protocol_error(ProtoError {
                        code: "unknown_req",
                        message: format!("request {req} was never accepted or already delivered"),
                    })?;
                }
            },
            Request::Cancel { req } => {
                let state = self.server.cancel(req);
                self.send(&Response::Cancelled { req, state })?;
            }
            Request::Stats => {
                let stats = self.server.stats();
                self.send(&Response::Stats(stats))?;
            }
            Request::Observe { every, count } => return self.handle_observe(every, count),
            Request::Ping { nonce } => self.send(&Response::Pong { nonce })?,
            Request::Shutdown => {
                let drained = self.server.drain();
                self.send(&Response::Bye { drained })?;
            }
        }
        Ok(true)
    }

    fn run(&mut self) -> std::io::Result<()> {
        let max = self.server.config().max_line_bytes;
        loop {
            match read_bounded_line(&mut self.reader, max)? {
                LineRead::Eof => return Ok(()),
                LineRead::TooLong => {
                    self.protocol_error(ProtoError {
                        code: "line_too_long",
                        message: format!("request line exceeds {max} bytes"),
                    })?;
                    return Ok(());
                }
                LineRead::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match Request::parse(&line) {
                        Ok(request) => {
                            if !self.handle(request)? {
                                return Ok(());
                            }
                        }
                        Err(err) => self.protocol_error(err)?,
                    }
                }
            }
        }
    }
}

/// Runs one connection to completion. Transport errors end the
/// connection quietly; undelivered requests are cancelled on the way
/// out so a vanished client releases its queue and quota footprint.
pub fn handle_connection<R: BufRead, W: Write>(server: &Arc<Server>, reader: R, writer: W) {
    let mut conn = Conn {
        server,
        reader,
        writer,
        client: "anon".to_string(),
        undelivered: BTreeSet::new(),
    };
    let _ = conn.run();
    for req in std::mem::take(&mut conn.undelivered) {
        conn.server.release_abandoned(req);
    }
}
