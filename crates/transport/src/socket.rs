//! The coordinator side of the multi-process backend: spawns worker
//! subprocesses, hands each a contiguous node range, and drives one
//! JSONL request/reply exchange per round over loopback TCP.
//!
//! Determinism obligations (DESIGN.md §14) are met by construction:
//! the coordinator sends the round to every worker and then reads the
//! replies **in rank order**, so the merged [`RoundView`] is the
//! rank-0 slice followed by rank-1's, etc. — exactly node order,
//! independent of which worker answered first. No wall-clock value
//! ever crosses the wire; all accounting stays in the driver.
//!
//! Cross-process telemetry (DESIGN.md §15) rides the same wire:
//! workers ship a compact numeric session summary home inside the
//! `closed` acknowledgement, the factory accumulates the summaries
//! per rank in a [`TelemetryStore`], and one `flush_telemetry` call
//! per run set derives counters and synthesizes trace events from
//! them — rank order, session spans canonically sorted — into the
//! shared `Collector`/`MetricsHub` as the `transport.*` counter
//! family under `worker:<rank>` units. Wall-clock-ish
//! quantities (accept ticks, spawn counts) never touch those sinks;
//! they surface only through [`TransportFactory::wall_stats`] for the
//! `--wall` sidecar.
//!
//! Any worker failure — spawn error, mid-run death, malformed reply —
//! becomes a typed [`TransportError`], never a panic, and marks the
//! whole group dead so later sessions fail fast. On the way down the
//! coordinator salvages what it can: surviving workers are asked to
//! close every open session so their telemetry is merged rather than
//! dropped, the dead rank's missing contribution is marked with an
//! explicit `truncated` counter, and the per-link flight-recorder
//! rings (last [`FLIGHT_RING_CAPACITY`] wire events each) are frozen
//! into a [`Postmortem`] that travels on the error itself.

use crate::wire::{self, Command, Reply, SessionSpan};
use bcc_model::postmortem::{
    Postmortem, TransportHealth, WireEvent, WorkerHealth, FLIGHT_RING_CAPACITY,
};
use bcc_model::transport::{RoundView, Routes, Transport, TransportError, TransportFactory};
use bcc_model::Message;
use bcc_trace::{field, Collector, Event, EventKind, FieldValue};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How long a blocking read on a worker link may stall before the
/// worker is declared dead. Generous: a healthy worker answers a
/// round in microseconds.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Read patience during best-effort teardown: long enough for a
/// healthy worker's goodbye, short enough that a hung worker cannot
/// stall `Drop` noticeably.
const SHUTDOWN_READ_TIMEOUT: Duration = Duration::from_secs(1);

/// Accept-loop patience: `ACCEPT_TICKS × ACCEPT_TICK` bounds how long
/// spawn waits for all workers to connect.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
const ACCEPT_TICKS: u32 = 2000;

/// How many stale replies the salvage path will skip per link while
/// hunting the `closed` acknowledgement it asked for (pending round
/// views queue ahead of it on a surviving worker's stream).
const SALVAGE_SKIP_LIMIT: usize = 64;

/// How a worker subprocess is launched.
#[derive(Debug, Clone)]
pub enum WorkerCmd {
    /// Re-exec the current executable with
    /// [`WORKER_FLAG`](crate::WORKER_FLAG) as `argv[1]` — the default
    /// for binaries that call
    /// [`maybe_run_worker`](crate::maybe_run_worker) first thing in
    /// `main`.
    SelfExec,
    /// Launch the given binary (which must also dispatch on the
    /// worker flag). Used by integration tests to point at the
    /// dedicated `bcc-transport-worker` binary.
    Bin(PathBuf),
}

fn spawn_err(detail: String) -> TransportError {
    TransportError::Spawn { detail }
}

/// Computes rank `r`'s node range `lo..hi` out of `n` nodes split
/// over `w` workers: contiguous, ascending, covering `0..n` exactly
/// (empty ranges when `w > n`).
pub fn node_range(n: usize, w: usize, r: usize) -> (usize, usize) {
    if w == 0 {
        return (0, 0);
    }
    (r * n / w, (r + 1) * n / w)
}

/// Ring metadata of one wire line, derived from message content only.
struct WireMeta {
    kind: &'static str,
    session: u64,
    round: u64,
}

impl WireMeta {
    fn of_command(cmd: &Command) -> WireMeta {
        match cmd {
            Command::Open { session, .. } => WireMeta {
                kind: "open",
                session: *session,
                round: 0,
            },
            Command::Round { session, round, .. } => WireMeta {
                kind: "round",
                session: *session,
                round: *round as u64,
            },
            Command::Close { session } => WireMeta {
                kind: "close",
                session: *session,
                round: 0,
            },
            Command::Shutdown => WireMeta {
                kind: "shutdown",
                session: 0,
                round: 0,
            },
        }
    }

    fn of_reply(reply: &Reply) -> WireMeta {
        match reply {
            Reply::Hello { .. } => WireMeta {
                kind: "hello",
                session: 0,
                round: 0,
            },
            Reply::Ok { session } => WireMeta {
                kind: "ok",
                session: *session,
                round: 0,
            },
            Reply::View { session, round, .. } => WireMeta {
                kind: "view",
                session: *session,
                round: *round as u64,
            },
            Reply::Closed { session, .. } => WireMeta {
                kind: "closed",
                session: *session,
                round: 0,
            },
            Reply::Bye => WireMeta {
                kind: "bye",
                session: 0,
                round: 0,
            },
            Reply::Error { .. } => WireMeta {
                kind: "error",
                session: 0,
                round: 0,
            },
        }
    }
}

/// Everything one rank has shipped home since the last flush.
///
/// The routed-traffic sums are plain fields, not map entries:
/// `record_closed` runs once per session close while the store's
/// mutex is held, so the hot path must not allocate (string-keyed
/// accumulation measurably showed up in `BENCH.json`'s `telemetry`
/// pair).
#[derive(Default)]
struct RankTelemetry {
    /// Summed span-derived per-session counters.
    frames: u64,
    rounds: u64,
    symbols: u64,
    /// Sessions closed with a telemetry block.
    sessions: u64,
    /// One numeric summary per closed session, in arrival order;
    /// canonically sorted at flush so the merged trace is
    /// independent of session interleaving.
    spans: Vec<SessionSpan>,
    /// Open sessions whose telemetry was lost to a worker death.
    truncated: u64,
}

impl RankTelemetry {
    /// The rank's counter list in canonical (name-sorted) order,
    /// ready to absorb into a `MetricsHub`.
    fn counters(&self) -> Vec<(String, u64)> {
        [
            ("frames", self.frames),
            ("rounds", self.rounds),
            ("sessions", self.sessions),
            ("symbols", self.symbols),
            ("truncated", self.truncated),
        ]
        .into_iter()
        .filter(|&(_, value)| value > 0)
        .map(|(name, value)| (name.to_string(), value))
        .collect()
    }
}

#[derive(Default)]
struct TelemetryState {
    ranks: BTreeMap<usize, RankTelemetry>,
    incidents: Vec<Postmortem>,
    /// Wall-clock-ish counters for the `--wall` sidecar.
    wall: BTreeMap<String, u64>,
}

/// The factory-owned accumulator for everything workers report:
/// deterministic telemetry (drained by `flush_telemetry`), frozen
/// postmortems (drained by `take_postmortems`), and wall-ish stats.
/// Shared with every [`WorkerGroup`] the factory spawns, so
/// accumulations survive a respawn.
pub(crate) struct TelemetryStore {
    inner: Mutex<TelemetryState>,
}

impl TelemetryStore {
    fn new() -> Arc<TelemetryStore> {
        Arc::new(TelemetryStore {
            inner: Mutex::new(TelemetryState::default()),
        })
    }

    fn state(&self) -> MutexGuard<'_, TelemetryState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wall_add(&self, key: &str, delta: u64) {
        let mut state = self.state();
        *state.wall.entry(key.to_string()).or_insert(0) += delta;
    }

    fn wall_get(&self, key: &str) -> u64 {
        self.state().wall.get(key).copied().unwrap_or(0)
    }

    /// Records one closed session's telemetry for `rank`. A session
    /// without telemetry (disabled worker-side) is dropped so a
    /// disabled run's dumps stay indistinguishable from local runs.
    fn record_closed(&self, rank: usize, span: Option<SessionSpan>) {
        let Some(span) = span else {
            return;
        };
        // The span doubles as the session's counters so the wire ships
        // each number exactly once, and the accumulation is three
        // integer adds — no allocation while the store lock is held.
        let mut state = self.state();
        let entry = state.ranks.entry(rank).or_default();
        entry.frames += span.frames;
        entry.rounds = entry.rounds.saturating_add(span.rounds);
        entry.symbols += span.symbols;
        entry.sessions += 1;
        entry.spans.push(span);
    }

    fn add_truncated(&self, rank: usize, count: u64) {
        if count == 0 {
            return;
        }
        let mut state = self.state();
        state.ranks.entry(rank).or_default().truncated += count;
    }

    fn record_incident(&self, pm: Postmortem) {
        self.state().incidents.push(pm);
    }

    fn take_incidents(&self) -> Vec<Postmortem> {
        self.state().incidents.split_off(0)
    }

    fn wall_stats(&self) -> Vec<(String, u64)> {
        self.state()
            .wall
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Drains the per-rank accumulations into the run's shared sinks:
    /// group totals under unit `transport`, then each rank in
    /// ascending order under `transport/worker:<rank>`, its session
    /// trace blocks canonically sorted and wrapped in a
    /// `worker:<rank>` span so profiler frames file under the
    /// `transport` unit class. The store is drained first (one short
    /// lock) and only then absorbed, keeping the lock order
    /// factory-side locks → sinks.
    fn drain_into(&self, collector: &Collector, hub: &bcc_metrics::MetricsHub) {
        let drained: Vec<(usize, RankTelemetry)> = {
            let mut state = self.state();
            let ranks = std::mem::take(&mut state.ranks);
            ranks.into_iter().collect()
        };
        if drained.is_empty() {
            return;
        }
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (_, t) in &drained {
            for (name, value) in t.counters() {
                *totals.entry(name).or_insert(0) += value;
            }
        }
        let totals: Vec<(String, u64)> = totals.into_iter().collect();
        hub.absorb_foreign("transport", "transport.", &totals);
        for (rank, t) in drained {
            let counters = t.counters();
            let unit = format!("transport/worker:{rank}");
            hub.absorb_foreign(&unit, &format!("transport.worker:{rank}."), &counters);
            if !collector.enabled() {
                continue;
            }
            let mut spans = t.spans;
            spans.sort();
            if spans.is_empty() {
                continue;
            }
            let wrapper = format!("worker:{rank}");
            let mut events: Vec<Event> = Vec::with_capacity(4 * spans.len() + 2);
            events.push(synthetic_event(EventKind::SpanStart, &wrapper, Vec::new()));
            for s in spans {
                events.push(synthetic_event(
                    EventKind::SpanStart,
                    "session",
                    vec![field("n", s.n), field("nodes", s.nodes)],
                ));
                events.push(synthetic_event(
                    EventKind::Counter,
                    "frames",
                    vec![field("delta", s.frames)],
                ));
                events.push(synthetic_event(
                    EventKind::Counter,
                    "symbols",
                    vec![field("delta", s.symbols)],
                ));
                events.push(synthetic_event(
                    EventKind::SpanEnd,
                    "session",
                    vec![field("rounds", s.rounds)],
                ));
            }
            events.push(synthetic_event(EventKind::SpanEnd, &wrapper, Vec::new()));
            collector.absorb_foreign(unit, events);
        }
    }
}

/// An event synthesized from worker-shipped session summaries; unit,
/// sequence, and path are rewritten by `absorb_foreign`.
fn synthetic_event(kind: EventKind, name: &str, fields: Vec<(String, FieldValue)>) -> Event {
    Event {
        unit: String::new(),
        seq: 0,
        path: String::new(),
        kind,
        name: name.to_string(),
        fields,
    }
}

/// Renders a command as one wire line with its newline, ready for a
/// single write: a line and its newline written separately leave as
/// two segments on a no-delay socket.
fn framed(cmd: &Command) -> String {
    let mut line = wire::render_command(cmd);
    line.push('\n');
    line
}

fn attach_postmortem(err: TransportError, pm: &Postmortem) -> TransportError {
    match err {
        TransportError::WorkerDead { rank, detail, .. } => TransportError::WorkerDead {
            rank,
            detail,
            postmortem: Some(Box::new(pm.clone())),
        },
        TransportError::Protocol { detail, .. } => TransportError::Protocol {
            detail,
            postmortem: Some(Box::new(pm.clone())),
        },
        other => other,
    }
}

struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Flight recorder: the last [`FLIGHT_RING_CAPACITY`] wire events
    /// on this link, oldest first.
    ring: VecDeque<WireEvent>,
}

impl Link {
    fn record_wire(&mut self, dir: &str, meta: &WireMeta, bytes: usize) {
        if self.ring.len() == FLIGHT_RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(WireEvent {
            dir: dir.to_string(),
            kind: meta.kind.to_string(),
            session: meta.session,
            round: meta.round,
            bytes: bytes as u64,
        });
    }
}

enum RawError {
    Dead(String),
    Protocol(String),
}

struct GroupInner {
    /// One link per worker, index = rank.
    links: Vec<Link>,
    children: Vec<Child>,
    next_session: u64,
    /// Sessions opened and not yet closed — the salvage worklist.
    open_sessions: BTreeSet<u64>,
    /// Per-rank liveness as far as the coordinator knows.
    alive: Vec<bool>,
    /// Factory label (`sockets:N`), echoed into postmortems.
    backend: String,
    telemetry: Arc<TelemetryStore>,
    /// Set on first failure; every later call returns it.
    dead: Option<TransportError>,
}

impl GroupInner {
    /// Poisons the group: salvages surviving workers' telemetry for
    /// every open session, freezes the flight rings into a
    /// [`Postmortem`], attaches it to the error, and records the
    /// incident on the factory store.
    fn fail(&mut self, err: TransportError) -> TransportError {
        if let Some(existing) = &self.dead {
            return existing.clone();
        }
        if let TransportError::WorkerDead { rank, .. } = &err {
            if let Some(alive) = self.alive.get_mut(*rank) {
                *alive = false;
            }
        }
        let open_before_salvage = self.open_sessions.len() as u64;
        self.salvage();
        let pm = self.build_postmortem(&err.to_string(), open_before_salvage);
        let err = attach_postmortem(err, &pm);
        self.telemetry.record_incident(pm);
        self.dead = Some(err.clone());
        err
    }

    /// Best-effort recovery after a failure: every rank still
    /// believed alive is asked to close each open session, and the
    /// telemetry blocks that come back are merged as usual. Ranks
    /// that cannot deliver (the dead one, or peers that died with it)
    /// get their open sessions counted as `truncated` instead of
    /// silently dropped.
    fn salvage(&mut self) {
        let sessions: Vec<u64> = self.open_sessions.iter().copied().collect();
        if sessions.is_empty() {
            return;
        }
        for rank in 0..self.links.len() {
            if !self.alive[rank] {
                self.telemetry.add_truncated(rank, sessions.len() as u64);
                continue;
            }
            let mut recovered = 0u64;
            for &session in &sessions {
                let cmd = Command::Close { session };
                let line = framed(&cmd);
                if self
                    .send_raw(rank, &line, &WireMeta::of_command(&cmd))
                    .is_err()
                {
                    self.alive[rank] = false;
                    break;
                }
            }
            if self.alive[rank] {
                for &session in &sessions {
                    match self.salvage_read_closed(rank, session) {
                        Some(span) => {
                            self.telemetry.record_closed(rank, span);
                            recovered += 1;
                        }
                        None => {
                            self.alive[rank] = false;
                            break;
                        }
                    }
                }
            }
            self.telemetry
                .add_truncated(rank, sessions.len() as u64 - recovered);
        }
        self.open_sessions.clear();
    }

    /// Reads replies off `rank`'s link until the `closed`
    /// acknowledgement for `session` arrives, skipping whatever was
    /// already queued ahead of it (pending round views, error
    /// replies), and returns the session's span, itself `None` when
    /// telemetry is off. `None` when the link dies or the skip budget
    /// runs out.
    fn salvage_read_closed(&mut self, rank: usize, session: u64) -> Option<Option<SessionSpan>> {
        for _ in 0..SALVAGE_SKIP_LIMIT {
            match self.read_raw(rank) {
                Ok(Reply::Closed { session: s, span }) if s == session => return Some(span),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
        None
    }

    fn build_postmortem(&self, error: &str, open_sessions: u64) -> Postmortem {
        let respawns = self.telemetry.wall_get("spawns").saturating_sub(1);
        Postmortem {
            backend: self.backend.clone(),
            error: error.to_string(),
            workers: self
                .links
                .iter()
                .enumerate()
                .map(|(rank, link)| WorkerHealth {
                    rank,
                    alive: self.alive.get(rank).copied().unwrap_or(false),
                    respawns,
                    sessions: open_sessions,
                    ring: link.ring.iter().cloned().collect(),
                })
                .collect(),
        }
    }

    fn health(&self, backend: &str) -> TransportHealth {
        let respawns = self.telemetry.wall_get("spawns").saturating_sub(1);
        let sessions = self.open_sessions.len() as u64;
        TransportHealth {
            backend: backend.to_string(),
            workers: self
                .links
                .iter()
                .enumerate()
                .map(|(rank, _)| WorkerHealth {
                    rank,
                    alive: self.alive.get(rank).copied().unwrap_or(false),
                    respawns,
                    sessions,
                    ring: Vec::new(),
                })
                .collect(),
        }
    }

    /// Writes one newline-terminated line (see [`framed`]) in a
    /// single `write_all`; the flight recorder counts its bytes
    /// without the newline.
    fn send_raw(&mut self, rank: usize, line: &str, meta: &WireMeta) -> Result<(), RawError> {
        let link = self
            .links
            .get_mut(rank)
            .ok_or_else(|| RawError::Protocol(format!("no link for worker rank {rank}")))?;
        link.record_wire("send", meta, line.strip_suffix('\n').unwrap_or(line).len());
        link.writer
            .write_all(line.as_bytes())
            .and_then(|()| link.writer.flush())
            .map_err(|e| RawError::Dead(format!("write failed: {e}")))
    }

    fn read_raw(&mut self, rank: usize) -> Result<Reply, RawError> {
        let link = self
            .links
            .get_mut(rank)
            .ok_or_else(|| RawError::Protocol(format!("no link for worker rank {rank}")))?;
        let mut line = String::new();
        match link.reader.read_line(&mut line) {
            Ok(0) => Err(RawError::Dead("connection closed".to_string())),
            Ok(_) => {
                let line = line.trim_end();
                match wire::parse_reply(line) {
                    Ok(reply) => {
                        link.record_wire("recv", &WireMeta::of_reply(&reply), line.len());
                        Ok(reply)
                    }
                    Err(detail) => Err(RawError::Protocol(format!(
                        "bad reply from worker {rank}: {detail}"
                    ))),
                }
            }
            Err(e) => Err(RawError::Dead(format!("read failed: {e}"))),
        }
    }

    fn send_line(
        &mut self,
        rank: usize,
        line: &str,
        meta: &WireMeta,
    ) -> Result<(), TransportError> {
        self.send_raw(rank, line, meta).map_err(|e| {
            let err = match e {
                RawError::Dead(detail) => TransportError::WorkerDead {
                    rank,
                    detail,
                    postmortem: None,
                },
                RawError::Protocol(detail) => TransportError::Protocol {
                    detail,
                    postmortem: None,
                },
            };
            self.fail(err)
        })
    }

    fn read_reply(&mut self, rank: usize) -> Result<Reply, TransportError> {
        self.read_raw(rank).map_err(|e| {
            let err = match e {
                RawError::Dead(detail) => TransportError::WorkerDead {
                    rank,
                    detail,
                    postmortem: None,
                },
                RawError::Protocol(detail) => TransportError::Protocol {
                    detail,
                    postmortem: None,
                },
            };
            self.fail(err)
        })
    }
}

impl Drop for GroupInner {
    fn drop(&mut self) {
        // Best-effort graceful shutdown: ask every worker to exit,
        // wait briefly for its `bye`, then reap unconditionally.
        let line = framed(&Command::Shutdown);
        for link in &mut self.links {
            let _ = link
                .writer
                .write_all(line.as_bytes())
                .and_then(|()| link.writer.flush());
            let _ = link
                .reader
                .get_ref()
                .set_read_timeout(Some(SHUTDOWN_READ_TIMEOUT));
        }
        for rank in 0..self.links.len() {
            if !self.alive.get(rank).copied().unwrap_or(false) {
                continue;
            }
            let _ = self.read_raw(rank);
        }
        self.links.clear();
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A pool of connected worker subprocesses, shared by every
/// [`SocketTransport`] the owning [`SocketFactory`] creates. Runs are
/// multiplexed over it as independent sessions.
pub struct WorkerGroup {
    workers: usize,
    inner: Mutex<GroupInner>,
}

fn kill_all(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

impl WorkerGroup {
    fn spawn(
        workers: usize,
        cmd: &WorkerCmd,
        backend: String,
        telemetry: Arc<TelemetryStore>,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| spawn_err(format!("bind failed: {e}")))?;
        let port = listener
            .local_addr()
            .map_err(|e| spawn_err(format!("local_addr failed: {e}")))?
            .port();
        listener
            .set_nonblocking(true)
            .map_err(|e| spawn_err(format!("set_nonblocking failed: {e}")))?;

        let mut children: Vec<Child> = Vec::with_capacity(workers);
        for rank in 0..workers {
            let exe = match cmd {
                WorkerCmd::SelfExec => std::env::current_exe().map_err(|e| {
                    kill_all(&mut children);
                    spawn_err(format!("current_exe failed: {e}"))
                })?,
                WorkerCmd::Bin(path) => path.clone(),
            };
            match std::process::Command::new(&exe)
                .arg(crate::WORKER_FLAG)
                .arg(port.to_string())
                .arg(rank.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
            {
                Ok(child) => children.push(child),
                Err(e) => {
                    kill_all(&mut children);
                    return Err(spawn_err(format!(
                        "failed to exec worker {rank} ({}): {e}",
                        exe.display()
                    )));
                }
            }
        }

        // Nonblocking accept loop with a liveness check, so a worker
        // that dies before connecting (wrong binary, crash on start)
        // fails fast with a typed error instead of hanging.
        let mut pending: Vec<TcpStream> = Vec::with_capacity(workers);
        let mut ticks = 0u32;
        while pending.len() < workers {
            match listener.accept() {
                Ok((stream, _)) => pending.push(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    for (rank, child) in children.iter_mut().enumerate() {
                        if let Ok(Some(status)) = child.try_wait() {
                            kill_all(&mut children);
                            return Err(spawn_err(format!(
                                "worker {rank} exited before connecting: {status}"
                            )));
                        }
                    }
                    if ticks >= ACCEPT_TICKS {
                        kill_all(&mut children);
                        return Err(spawn_err(
                            "timed out waiting for workers to connect".to_string(),
                        ));
                    }
                    ticks += 1;
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) => {
                    kill_all(&mut children);
                    return Err(spawn_err(format!("accept failed: {e}")));
                }
            }
        }

        // Handshake: each worker announces its rank; links are stored
        // rank-indexed so reply order is always rank order.
        let mut slots: Vec<Option<Link>> = (0..workers).map(|_| None).collect();
        for stream in pending {
            let link = (|| -> Result<(usize, Link), String> {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("set_nonblocking failed: {e}"))?;
                stream
                    .set_read_timeout(Some(READ_TIMEOUT))
                    .map_err(|e| format!("set_read_timeout failed: {e}"))?;
                let _ = stream.set_nodelay(true);
                let writer = stream
                    .try_clone()
                    .map_err(|e| format!("try_clone failed: {e}"))?;
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader
                    .read_line(&mut line)
                    .map_err(|e| format!("handshake read failed: {e}"))?;
                let line = line.trim_end();
                match wire::parse_reply(line) {
                    Ok(Reply::Hello { rank }) if rank < workers => {
                        let mut link = Link {
                            reader,
                            writer,
                            ring: VecDeque::new(),
                        };
                        link.record_wire(
                            "recv",
                            &WireMeta {
                                kind: "hello",
                                session: 0,
                                round: 0,
                            },
                            line.len(),
                        );
                        Ok((rank, link))
                    }
                    Ok(Reply::Hello { rank }) => {
                        Err(format!("hello with out-of-range rank {rank}"))
                    }
                    Ok(other) => Err(format!("expected hello, got {other:?}")),
                    Err(e) => Err(format!("bad hello: {e}")),
                }
            })();
            match link {
                Ok((rank, link)) => {
                    if slots[rank].is_some() {
                        kill_all(&mut children);
                        return Err(spawn_err(format!("duplicate hello for rank {rank}")));
                    }
                    slots[rank] = Some(link);
                }
                Err(detail) => {
                    kill_all(&mut children);
                    return Err(spawn_err(detail));
                }
            }
        }
        let mut links = Vec::with_capacity(workers);
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(link) => links.push(link),
                None => {
                    kill_all(&mut children);
                    return Err(spawn_err(format!("no hello from rank {rank}")));
                }
            }
        }

        telemetry.wall_add("spawns", 1);
        telemetry.wall_add("accept_ticks", u64::from(ticks));

        Ok(WorkerGroup {
            workers,
            inner: Mutex::new(GroupInner {
                links,
                children,
                next_session: 1,
                open_sessions: BTreeSet::new(),
                alive: vec![true; workers],
                backend,
                telemetry,
                dead: None,
            }),
        })
    }

    fn locked(&self) -> MutexGuard<'_, GroupInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn is_dead(&self) -> bool {
        self.locked().dead.is_some()
    }

    fn check_live(inner: &GroupInner) -> Result<(), TransportError> {
        match &inner.dead {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    fn open_session(&self, routes: &Routes) -> Result<u64, TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        let session = inner.next_session;
        inner.next_session += 1;
        let n = routes.num_nodes();
        for rank in 0..self.workers {
            let (lo, hi) = node_range(n, self.workers, rank);
            let cmd = Command::Open {
                session,
                n,
                lo,
                hi,
                routes: (lo..hi).map(|v| routes.ports(v).to_vec()).collect(),
            };
            let line = framed(&cmd);
            inner.send_line(rank, &line, &WireMeta::of_command(&cmd))?;
        }
        for rank in 0..self.workers {
            match inner.read_reply(rank)? {
                Reply::Ok { session: s } if s == session => {}
                Reply::Error { detail } => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail,
                        postmortem: None,
                    }))
                }
                other => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail: format!("unexpected reply to open from worker {rank}: {other:?}"),
                        postmortem: None,
                    }))
                }
            }
        }
        inner.open_sessions.insert(session);
        Ok(session)
    }

    /// Sends one round and merges the replies. Each `view` carries
    /// only symbols; the entries' labels come back from `routes`, the
    /// plan this session was opened with.
    fn exchange(
        &self,
        session: u64,
        routes: &Routes,
        round: usize,
        outbox: &[Message],
    ) -> Result<RoundView, TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        let cmd = Command::Round {
            session,
            round,
            outbox: outbox.to_vec(),
        };
        let line = framed(&cmd);
        let meta = WireMeta::of_command(&cmd);
        for rank in 0..self.workers {
            inner.send_line(rank, &line, &meta)?;
        }
        // Rank-order reads make the merge deterministic: slices are
        // contiguous ascending node ranges, so concatenation in rank
        // order is node order.
        let n = routes.num_nodes();
        let mut inboxes: Vec<Vec<(u64, Message)>> = Vec::with_capacity(n);
        for rank in 0..self.workers {
            match inner.read_reply(rank)? {
                Reply::View {
                    session: s,
                    round: r,
                    inboxes: part,
                } if s == session && r == round => {
                    let (lo, hi) = node_range(n, self.workers, rank);
                    match wire::split_view(routes, lo..hi, outbox, &part) {
                        Ok(entries) => inboxes.extend(entries),
                        Err(detail) => {
                            return Err(inner.fail(TransportError::Protocol {
                                detail: format!("bad view from worker {rank}: {detail}"),
                                postmortem: None,
                            }))
                        }
                    }
                }
                Reply::Error { detail } => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail,
                        postmortem: None,
                    }))
                }
                other => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail: format!("unexpected reply to round from worker {rank}: {other:?}"),
                        postmortem: None,
                    }))
                }
            }
        }
        Ok(RoundView::new(inboxes))
    }

    fn close_session(&self, session: u64) -> Result<(), TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        let cmd = Command::Close { session };
        let line = framed(&cmd);
        let meta = WireMeta::of_command(&cmd);
        for rank in 0..self.workers {
            inner.send_line(rank, &line, &meta)?;
        }
        for rank in 0..self.workers {
            match inner.read_reply(rank)? {
                Reply::Closed { session: s, span } if s == session => {
                    inner.telemetry.record_closed(rank, span);
                }
                Reply::Error { detail } => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail,
                        postmortem: None,
                    }))
                }
                other => {
                    return Err(inner.fail(TransportError::Protocol {
                        detail: format!("unexpected reply to close from worker {rank}: {other:?}"),
                        postmortem: None,
                    }))
                }
            }
        }
        inner.open_sessions.remove(&session);
        Ok(())
    }
}

/// A [`Transport`] whose `open` already failed at worker-spawn time;
/// it reports the spawn error on first use so failures surface
/// through the same typed path as mid-run deaths.
struct FailedTransport(TransportError);

impl Transport for FailedTransport {
    fn open(&mut self, _routes: &Routes) -> Result<(), TransportError> {
        Err(self.0.clone())
    }

    fn exchange(
        &mut self,
        _round: usize,
        _outbox: &[Message],
    ) -> Result<RoundView, TransportError> {
        Err(self.0.clone())
    }
}

/// One run's view of the shared [`WorkerGroup`]: a session that is
/// opened with the run's routes and closed at the barrier. The routes
/// stay here for the session's lifetime, because `view` replies
/// carry symbols only and every exchange labels them from the routes.
pub struct SocketTransport {
    group: Arc<WorkerGroup>,
    session: Option<(u64, Routes)>,
}

impl Transport for SocketTransport {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        if self.session.is_some() {
            return Err(TransportError::Protocol {
                detail: "transport opened twice".to_string(),
                postmortem: None,
            });
        }
        let session = self.group.open_session(routes)?;
        self.session = Some((session, routes.clone()));
        Ok(())
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let (session, routes) = self
            .session
            .as_ref()
            .ok_or_else(|| TransportError::Protocol {
                detail: "exchange before open".to_string(),
                postmortem: None,
            })?;
        self.group.exchange(*session, routes, round, outbox)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        match self.session.take() {
            Some((session, _)) => self.group.close_session(session),
            None => Ok(()),
        }
    }

    fn teardown(&mut self) {
        if let Some((session, _)) = self.session.take() {
            let _ = self.group.close_session(session);
        }
    }
}

enum GroupSlot {
    Unspawned,
    Live(Arc<WorkerGroup>),
    Failed(TransportError),
}

/// [`TransportFactory`] for the multi-process backend. Workers are
/// spawned lazily on the first `create` and shared by every transport
/// the factory hands out; runs multiplex over the group as sessions.
///
/// A group whose workers died is respawned on the next `create` (the
/// failure was transient); a group that never spawned (bad binary) is
/// cached as failed so repeated runs fail fast instead of re-exec'ing
/// a broken command. The factory's [`TelemetryStore`] outlives both:
/// telemetry, postmortems, and wall stats accumulate across respawns
/// until drained through the [`TransportFactory`] observability
/// hooks.
pub struct SocketFactory {
    workers: usize,
    cmd: WorkerCmd,
    group: Mutex<GroupSlot>,
    telemetry: Arc<TelemetryStore>,
}

impl SocketFactory {
    /// A factory that re-execs the current binary as its workers. The
    /// binary must call [`maybe_run_worker`](crate::maybe_run_worker)
    /// before any other work.
    pub fn self_exec(workers: usize) -> Self {
        Self::with_command(workers, WorkerCmd::SelfExec)
    }

    /// A factory with an explicit worker launch command.
    pub fn with_command(workers: usize, cmd: WorkerCmd) -> Self {
        SocketFactory {
            workers: workers.max(1),
            cmd,
            group: Mutex::new(GroupSlot::Unspawned),
            telemetry: TelemetryStore::new(),
        }
    }

    fn group(&self) -> Result<Arc<WorkerGroup>, TransportError> {
        let mut slot = self.group.lock().unwrap_or_else(|e| e.into_inner());
        if let GroupSlot::Live(group) = &*slot {
            if !group.is_dead() {
                return Ok(Arc::clone(group));
            }
        }
        if let GroupSlot::Failed(err) = &*slot {
            return Err(err.clone());
        }
        match WorkerGroup::spawn(
            self.workers,
            &self.cmd,
            self.label(),
            Arc::clone(&self.telemetry),
        ) {
            Ok(group) => {
                let group = Arc::new(group);
                *slot = GroupSlot::Live(Arc::clone(&group));
                Ok(group)
            }
            Err(err) => {
                *slot = GroupSlot::Failed(err.clone());
                Err(err)
            }
        }
    }
}

impl TransportFactory for SocketFactory {
    fn create(&self) -> Box<dyn Transport> {
        match self.group() {
            Ok(group) => Box::new(SocketTransport {
                group,
                session: None,
            }),
            Err(err) => Box::new(FailedTransport(err)),
        }
    }

    fn label(&self) -> String {
        format!("sockets:{}", self.workers)
    }

    fn flush_telemetry(&self, collector: &Collector, hub: &bcc_metrics::MetricsHub) {
        self.telemetry.drain_into(collector, hub);
    }

    fn health(&self) -> Option<TransportHealth> {
        let backend = self.label();
        let slot = self.group.lock().unwrap_or_else(|e| e.into_inner());
        let health = match &*slot {
            GroupSlot::Live(group) => group.locked().health(&backend),
            GroupSlot::Unspawned | GroupSlot::Failed(_) => TransportHealth {
                backend,
                workers: Vec::new(),
            },
        };
        Some(health)
    }

    fn take_postmortems(&self) -> Vec<Postmortem> {
        self.telemetry.take_incidents()
    }

    fn wall_stats(&self) -> Vec<(String, u64)> {
        self.telemetry.wall_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ranges_partition() {
        for n in 0..12 {
            for w in 1..6 {
                let mut covered = 0;
                for r in 0..w {
                    let (lo, hi) = node_range(n, w, r);
                    assert!(lo <= hi && hi <= n);
                    assert_eq!(lo, covered, "ranges must be contiguous");
                    covered = hi;
                }
                assert_eq!(covered, n, "ranges must cover 0..{n}");
            }
        }
    }

    #[test]
    fn failed_transport_reports_spawn_error() {
        let err = TransportError::Spawn {
            detail: "nope".to_string(),
        };
        let mut t = FailedTransport(err.clone());
        assert_eq!(t.open(&Routes::from_ports(vec![])), Err(err.clone()));
        assert_eq!(t.exchange(0, &[]), Err(err));
    }

    #[test]
    fn flight_ring_evicts_oldest() {
        let stream = || {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            (client, server)
        };
        let (client, server) = stream();
        let mut link = Link {
            reader: BufReader::new(server),
            writer: client,
            ring: VecDeque::new(),
        };
        for i in 0..(FLIGHT_RING_CAPACITY + 3) {
            link.record_wire(
                "send",
                &WireMeta {
                    kind: "round",
                    session: 1,
                    round: i as u64,
                },
                10,
            );
        }
        assert_eq!(link.ring.len(), FLIGHT_RING_CAPACITY);
        assert_eq!(link.ring.front().unwrap().round, 3);
        assert_eq!(
            link.ring.back().unwrap().round,
            (FLIGHT_RING_CAPACITY + 2) as u64
        );
    }

    #[test]
    fn telemetry_store_flush_is_rank_ordered_and_one_shot() {
        use bcc_metrics::{MetricsHub, MetricsLevel};
        use bcc_trace::TraceLevel;
        let store = TelemetryStore::new();
        let span = |rounds: u64, frames: u64| SessionSpan {
            n: 4,
            nodes: 2,
            rounds,
            frames,
            symbols: frames,
        };
        // Rank 1 recorded before rank 0; flush must still emit rank
        // order. Rank 0's two sessions arrive out of canonical order;
        // flush sorts the spans.
        store.record_closed(1, Some(span(2, 7)));
        store.record_closed(0, Some(span(9, 5)));
        store.record_closed(0, Some(span(1, 3)));
        store.add_truncated(1, 1);
        let collector = Collector::new(TraceLevel::Events);
        let hub = MetricsHub::new(MetricsLevel::Core);
        store.drain_into(&collector, &hub);
        // Second flush drains nothing.
        store.drain_into(&collector, &hub);
        let dump = hub.finish();
        assert_eq!(dump.counter("transport.frames"), Some(15));
        assert_eq!(dump.counter("transport.rounds"), Some(12));
        assert_eq!(dump.counter("transport.sessions"), Some(3));
        assert_eq!(dump.counter("transport.truncated"), Some(1));
        assert_eq!(dump.counter("transport.worker:0.frames"), Some(8));
        assert_eq!(dump.counter("transport.worker:0.sessions"), Some(2));
        assert_eq!(dump.counter("transport.worker:0.truncated"), None);
        assert_eq!(dump.counter("transport.worker:1.frames"), Some(7));
        assert_eq!(dump.counter("transport.worker:1.truncated"), Some(1));
        // The trace holds one wrapped unit per rank, sessions sorted
        // canonically (rank 0's rounds=1 session before rounds=9).
        let trace = collector.finish();
        let w0: Vec<(EventKind, String)> = trace
            .events()
            .iter()
            .filter(|e| e.unit == "transport/worker:0")
            .map(|e| (e.kind, e.name.clone()))
            .collect();
        assert_eq!(w0.len(), 10, "wrapper pair + 2 sessions x 4 events");
        assert_eq!(w0[0], (EventKind::SpanStart, "worker:0".to_string()));
        assert_eq!(w0[1], (EventKind::SpanStart, "session".to_string()));
        assert_eq!(w0[2], (EventKind::Counter, "frames".to_string()));
        assert_eq!(w0[9], (EventKind::SpanEnd, "worker:0".to_string()));
        let first_end = trace
            .events()
            .iter()
            .find(|e| {
                e.unit == "transport/worker:0"
                    && e.kind == EventKind::SpanEnd
                    && e.name == "session"
            })
            .unwrap();
        assert_eq!(
            first_end.field("rounds"),
            Some(&FieldValue::UInt(1)),
            "canonical sort puts the rounds=1 session first"
        );
    }

    #[test]
    fn empty_worker_telemetry_is_not_recorded() {
        let store = TelemetryStore::new();
        store.record_closed(0, None);
        use bcc_metrics::{MetricsHub, MetricsLevel};
        use bcc_trace::TraceLevel;
        let collector = Collector::new(TraceLevel::Events);
        let hub = MetricsHub::new(MetricsLevel::Core);
        store.drain_into(&collector, &hub);
        assert!(hub.finish().is_empty());
        assert!(collector.finish().is_empty());
    }
}
