//! The coordinator side of the multi-process backend: spawns worker
//! subprocesses and delivers each round as a scatter and a gather of
//! the board over loopback TCP: one JSONL `round` line out to each
//! worker, carrying the broadcasts of the contiguous range of sender
//! rows it owns, and one `view` line back with that segment.
//!
//! Determinism obligations (DESIGN.md §14) are met by construction:
//! the coordinator sends every worker its segment and then reads the
//! replies **in rank order**, so the gathered [`RoundView`] board is
//! the rank-0 segment followed by rank-1's, etc. — exactly row order,
//! independent of which worker answered first. No wall-clock value
//! ever crosses the wire; all accounting stays in the driver.
//!
//! Many sessions share one group (concurrent runs in one process),
//! and each holds the group's lock for a whole round trip, from its
//! `round` lines to its last view. So the only reply ever waiting on
//! a link is the lock holder's, and a reply naming any other session
//! or round is a protocol failure.
//!
//! That includes the transport's own accounting (DESIGN.md §15): a
//! session exists only here, workers keep none. Each open session
//! holds one `SessionSpan` per rank, and every view the coordinator
//! accepts adds its round, frames (messages) and symbols to its
//! rank's span. A closed session's spans go to the
//! factory's `TelemetryStore`, and one `flush_telemetry` call per
//! run set derives counters and synthesizes trace events from them —
//! rank order, spans canonically sorted — into the shared
//! `Collector`/`MetricsHub` as the `transport.*` counter family under
//! `worker:<rank>` units. Wall-clock-ish quantities (accept ticks,
//! spawn counts) never touch those sinks; they surface only through
//! [`TransportFactory::wall_stats`] for the `--wall` sidecar.
//!
//! Any worker failure — spawn error, mid-run death, malformed reply —
//! becomes a typed [`TransportError`], never a panic, and marks the
//! whole group dead so later sessions fail fast. Failing does no IO:
//! each open session's spans are recorded on the ranks still alive
//! and counted `truncated` on dead ones, and the per-link
//! flight-recorder rings (last [`FLIGHT_RING_CAPACITY`] wire events
//! each) are frozen into a [`Postmortem`] that travels on the error
//! itself.

use crate::wire::{self, Command, Reply};
use bcc_model::postmortem::{
    Postmortem, TransportHealth, WireEvent, WorkerHealth, FLIGHT_RING_CAPACITY,
};
use bcc_model::transport::{RoundView, Routes, Transport, TransportError, TransportFactory};
use bcc_model::Message;
use bcc_trace::{field, Collector};
use std::collections::{BTreeMap, VecDeque};
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

/// The unit of rank `rank`'s transport telemetry. Filed under the
/// `transport` unit class by the profiler, with the rank kept visible
/// in the unit name.
pub fn worker_unit(rank: usize) -> String {
    format!("transport/worker:{rank}")
}

/// Computes rank `r`'s row range `lo..hi` out of `n` board rows split
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
    fn of_reply(reply: &Reply) -> WireMeta {
        match reply {
            Reply::Hello { .. } => WireMeta {
                kind: "hello",
                session: 0,
                round: 0,
            },
            Reply::View { session, round, .. } => WireMeta {
                kind: "view",
                session: *session,
                round: *round as u64,
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

/// One session's traffic through one rank, counted by the coordinator
/// from the views it reads: a pure function of the outboxes. It
/// renders as a `session` span (`n` on the start, `rounds` on the end)
/// holding `frames` and `symbols` counter events. Ordered
/// field-by-field so a rank's sessions sort canonically, independent
/// of close order; it carries no session id, since ids depend on how
/// runs interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
struct SessionSpan {
    /// Vertex count of the session's instances (its plan's).
    n: u64,
    /// Views read from the rank.
    rounds: u64,
    /// Board messages read from those views.
    frames: u64,
    /// Symbols inside those messages.
    symbols: u64,
}

/// Everything counted for one rank since the last flush.
#[derive(Default)]
struct RankTelemetry {
    /// Summed per-session counters.
    frames: u64,
    rounds: u64,
    symbols: u64,
    /// Sessions recorded whole.
    sessions: u64,
    /// One span per recorded session, in arrival order; canonically
    /// sorted at flush so the merged trace is independent of session
    /// interleaving.
    spans: Vec<SessionSpan>,
    /// Sessions the rank died holding.
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

/// The factory-owned accumulator of everything the coordinator
/// observes: deterministic telemetry (drained by `flush_telemetry`),
/// frozen postmortems (drained by `take_postmortems`), and wall-ish stats.
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

    /// Records one ended session: `spans[rank]` for every rank still
    /// alive, a `truncated` count for every rank that died holding it.
    fn record_closed(&self, spans: &[SessionSpan], alive: &[bool]) {
        let mut state = self.state();
        for (rank, (span, &alive)) in spans.iter().zip(alive).enumerate() {
            let entry = state.ranks.entry(rank).or_default();
            if alive {
                entry.frames += span.frames;
                entry.rounds = entry.rounds.saturating_add(span.rounds);
                entry.symbols += span.symbols;
                entry.sessions += 1;
                entry.spans.push(*span);
            } else {
                entry.truncated += 1;
            }
        }
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
        let mut totals = hub.buf("transport");
        for (_, t) in &drained {
            for (name, value) in t.counters() {
                totals.counter(&format!("transport.{name}"), value);
            }
        }
        hub.absorb(totals);
        for (rank, t) in drained {
            let unit = worker_unit(rank);
            let mut metrics = hub.buf(unit.as_str());
            for (name, value) in t.counters() {
                metrics.counter(&format!("transport.worker:{rank}.{name}"), value);
            }
            hub.absorb(metrics);
            let mut spans = t.spans;
            if spans.is_empty() {
                continue;
            }
            spans.sort();
            let wrapper = format!("worker:{rank}");
            let mut trace = collector.buf(unit);
            trace.span_start(&wrapper, Vec::new());
            for s in spans {
                trace.span_start("session", vec![field("n", s.n)]);
                trace.counter("frames", s.frames);
                trace.counter("symbols", s.symbols);
                trace.span_end("session", vec![field("rounds", s.rounds)]);
            }
            trace.span_end(&wrapper, Vec::new());
            collector.absorb(trace);
        }
    }
}

/// Appends the newline to a rendered wire line, so line and newline
/// go out in a single write: written separately they leave as two
/// segments on a no-delay socket.
fn framed(mut line: String) -> String {
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
    fn new(reader: BufReader<TcpStream>, writer: TcpStream) -> Link {
        Link {
            reader,
            writer,
            ring: VecDeque::new(),
        }
    }

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

impl RawError {
    /// The typed error of a failed read or write on `rank`'s link.
    fn at(self, rank: usize) -> TransportError {
        match self {
            RawError::Dead(detail) => TransportError::WorkerDead {
                rank,
                detail,
                postmortem: None,
            },
            RawError::Protocol(detail) => TransportError::Protocol {
                detail,
                postmortem: None,
            },
        }
    }
}

struct GroupInner {
    /// One link per worker, index = rank.
    links: Vec<Link>,
    children: Vec<Child>,
    next_session: u64,
    /// Sessions opened and not yet closed, each with one span per
    /// rank. Workers hold no sessions; these are the only record.
    open_sessions: BTreeMap<u64, Vec<SessionSpan>>,
    /// Per-rank liveness as far as the coordinator knows.
    alive: Vec<bool>,
    /// Factory label (`sockets:N`), echoed into postmortems.
    backend: String,
    telemetry: Arc<TelemetryStore>,
    /// Set on first failure; every later call returns it.
    dead: Option<TransportError>,
}

impl GroupInner {
    /// Poisons the group without touching the wire: records every
    /// open session (whole on live ranks, `truncated` on dead ones),
    /// freezes the flight rings into a [`Postmortem`], attaches it to
    /// the error, and records the incident on the factory store.
    fn fail(&mut self, err: TransportError) -> TransportError {
        if let Some(existing) = &self.dead {
            return existing.clone();
        }
        if let TransportError::WorkerDead { rank, .. } = &err {
            if let Some(alive) = self.alive.get_mut(*rank) {
                *alive = false;
            }
        }
        let open = std::mem::take(&mut self.open_sessions);
        for spans in open.values() {
            self.telemetry.record_closed(spans, &self.alive);
        }
        let pm = self.build_postmortem(&err.to_string(), open.len() as u64);
        let err = attach_postmortem(err, &pm);
        self.telemetry.record_incident(pm);
        self.dead = Some(err.clone());
        err
    }

    fn build_postmortem(&self, error: &str, open_sessions: u64) -> Postmortem {
        Postmortem {
            backend: self.backend.clone(),
            error: error.to_string(),
            workers: self.workers(open_sessions, |link| link.ring.iter().cloned().collect()),
        }
    }

    fn health(&self, backend: &str) -> TransportHealth {
        TransportHealth {
            backend: backend.to_string(),
            workers: self.workers(self.open_sessions.len() as u64, |_| Vec::new()),
        }
    }

    /// One health row per rank: its liveness, the group's respawns,
    /// `sessions`, and `ring` of its link.
    fn workers(&self, sessions: u64, ring: impl Fn(&Link) -> Vec<WireEvent>) -> Vec<WorkerHealth> {
        let respawns = self.telemetry.wall_get("spawns").saturating_sub(1);
        self.links
            .iter()
            .enumerate()
            .map(|(rank, link)| WorkerHealth {
                rank,
                alive: self.alive.get(rank).copied().unwrap_or(false),
                respawns,
                sessions,
                ring: ring(link),
            })
            .collect()
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

    fn read_reply(&mut self, rank: usize) -> Result<Reply, TransportError> {
        self.read_raw(rank).map_err(|e| self.fail(e.at(rank)))
    }

    /// Fails the group on a reply that is not the one expected: an
    /// `error` carries its own detail, anything else is named.
    fn reject(&mut self, rank: usize, reply: Reply) -> TransportError {
        let detail = match reply {
            Reply::Error { detail } => detail,
            other => format!("unexpected reply to round from worker {rank}: {other:?}"),
        };
        self.fail(TransportError::Protocol {
            detail,
            postmortem: None,
        })
    }
}

impl Drop for GroupInner {
    fn drop(&mut self) {
        // Best-effort graceful shutdown: ask every worker to exit,
        // wait briefly for its `bye`, then reap unconditionally.
        let line = framed(wire::render_command(&Command::Shutdown));
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

/// A nonblocking loopback listener for workers to connect to, and
/// its port.
fn listen() -> Result<(TcpListener, u16), TransportError> {
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| spawn_err(format!("bind failed: {e}")))?;
    let port = listener
        .local_addr()
        .map_err(|e| spawn_err(format!("local_addr failed: {e}")))?
        .port();
    listener
        .set_nonblocking(true)
        .map_err(|e| spawn_err(format!("set_nonblocking failed: {e}")))?;
    Ok((listener, port))
}

/// Starts one worker process per rank, pointed at `port`. The caller
/// reaps `children` on failure.
fn launch(
    workers: usize,
    cmd: &WorkerCmd,
    port: u16,
    children: &mut Vec<Child>,
) -> Result<(), TransportError> {
    for rank in 0..workers {
        let exe = match cmd {
            WorkerCmd::SelfExec => std::env::current_exe()
                .map_err(|e| spawn_err(format!("current_exe failed: {e}")))?,
            WorkerCmd::Bin(path) => path.clone(),
        };
        let child = std::process::Command::new(&exe)
            .arg(crate::WORKER_FLAG)
            .arg(port.to_string())
            .arg(rank.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| {
                spawn_err(format!(
                    "failed to exec worker {rank} ({}): {e}",
                    exe.display()
                ))
            })?;
        children.push(child);
    }
    Ok(())
}

/// Accepts `workers` connections and reads each one's `hello`,
/// returning the links in rank order and the accept ticks spent.
///
/// The accept loop is nonblocking with a liveness check on
/// `children`, so a worker that dies before connecting (wrong binary,
/// crash on start) fails fast with a typed error instead of hanging.
fn accept_links(
    listener: &TcpListener,
    workers: usize,
    children: &mut [Child],
) -> Result<(Vec<Link>, u32), TransportError> {
    let mut pending: Vec<TcpStream> = Vec::with_capacity(workers);
    let mut ticks = 0u32;
    while pending.len() < workers {
        match listener.accept() {
            Ok((stream, _)) => pending.push(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (rank, child) in children.iter_mut().enumerate() {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!(
                            "worker {rank} exited before connecting: {status}"
                        )));
                    }
                }
                if ticks >= ACCEPT_TICKS {
                    return Err(spawn_err(
                        "timed out waiting for workers to connect".to_string(),
                    ));
                }
                ticks += 1;
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) => return Err(spawn_err(format!("accept failed: {e}"))),
        }
    }

    // Handshake: each worker announces its rank; links are stored
    // rank-indexed so reply order is always rank order.
    let mut slots: Vec<Option<Link>> = (0..workers).map(|_| None).collect();
    for stream in pending {
        let (rank, link) = handshake(stream, workers).map_err(spawn_err)?;
        if slots[rank].is_some() {
            return Err(spawn_err(format!("duplicate hello for rank {rank}")));
        }
        slots[rank] = Some(link);
    }
    let mut links = Vec::with_capacity(workers);
    for (rank, slot) in slots.into_iter().enumerate() {
        links.push(slot.ok_or_else(|| spawn_err(format!("no hello from rank {rank}")))?);
    }
    Ok((links, ticks))
}

/// Reads one connection's `hello` and wraps it as that rank's link.
fn handshake(stream: TcpStream, workers: usize) -> Result<(usize, Link), String> {
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
            let mut link = Link::new(reader, writer);
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
        Ok(Reply::Hello { rank }) => Err(format!("hello with out-of-range rank {rank}")),
        Ok(other) => Err(format!("expected hello, got {other:?}")),
        Err(e) => Err(format!("bad hello: {e}")),
    }
}

impl WorkerGroup {
    fn spawn(
        workers: usize,
        cmd: &WorkerCmd,
        backend: String,
        telemetry: Arc<TelemetryStore>,
    ) -> Result<Self, TransportError> {
        let (listener, port) = listen()?;
        let mut children: Vec<Child> = Vec::with_capacity(workers);
        let connected = launch(workers, cmd, port, &mut children)
            .and_then(|()| accept_links(&listener, workers, &mut children));
        match connected {
            Ok((links, ticks)) => {
                telemetry.wall_add("spawns", 1);
                telemetry.wall_add("accept_ticks", u64::from(ticks));
                Ok(WorkerGroup::assemble(links, children, backend, telemetry))
            }
            Err(err) => {
                kill_all(&mut children);
                Err(err)
            }
        }
    }

    /// A group over connected, handshaken links (index = rank).
    fn assemble(
        links: Vec<Link>,
        children: Vec<Child>,
        backend: String,
        telemetry: Arc<TelemetryStore>,
    ) -> WorkerGroup {
        let workers = links.len();
        WorkerGroup {
            workers,
            inner: Mutex::new(GroupInner {
                links,
                children,
                next_session: 1,
                open_sessions: BTreeMap::new(),
                alive: vec![true; workers],
                backend,
                telemetry,
                dead: None,
            }),
        }
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

    /// Opens a session of instances with `n` vertices. Workers keep
    /// no sessions, so nothing goes on the wire: the session is an id
    /// and one span per rank.
    fn open_session(&self, n: usize) -> Result<u64, TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        let session = inner.next_session;
        inner.next_session += 1;
        let span = SessionSpan {
            n: n as u64,
            ..SessionSpan::default()
        };
        inner
            .open_sessions
            .insert(session, vec![span; self.workers]);
        Ok(session)
    }

    /// Delivers one round under the group lock: each rank's `round`
    /// line, carrying the broadcasts of the rows it owns, then every
    /// rank's view, read in rank order and gathered into `view`'s
    /// board. A write that fails is not reported by itself: a broken
    /// link fails its read, and reads go in rank order, so the rank a
    /// failure names never depends on which write noticed first. Every
    /// rank gets a line each round, even an empty segment, so a
    /// worker's served-round count is the session's round count. Each
    /// accepted view is counted on its rank's span at once, so a later
    /// rank's failure leaves the earlier ranks' views counted.
    fn exchange_round(
        &self,
        session: u64,
        round: usize,
        outbox: &[Message],
        view: &mut RoundView,
    ) -> Result<(), TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        let rows = outbox.len();
        let meta = WireMeta {
            kind: "round",
            session,
            round: round as u64,
        };
        for rank in 0..self.workers {
            let (lo, hi) = node_range(rows, self.workers, rank);
            let line = framed(wire::render_round(session, round, &outbox[lo..hi]));
            let _ = inner.send_raw(rank, &line, &meta);
        }
        // Rank-order reads make the gather deterministic: segments are
        // contiguous ascending row ranges, so appending them in rank
        // order is row order.
        let board = view.refill();
        for rank in 0..self.workers {
            let segment = match inner.read_reply(rank)? {
                Reply::View {
                    session: s,
                    round: r,
                    board,
                } if s == session && r == round => board,
                other => return Err(inner.reject(rank, other)),
            };
            let (lo, hi) = node_range(rows, self.workers, rank);
            if segment.len() != hi - lo {
                return Err(inner.fail(TransportError::Protocol {
                    detail: format!(
                        "bad view from worker {rank}: {} messages for rows {lo}..{hi}",
                        segment.len()
                    ),
                    postmortem: None,
                }));
            }
            let spans = inner.open_sessions.get_mut(&session);
            if let Some(span) = spans.and_then(|spans| spans.get_mut(rank)) {
                span.rounds = span.rounds.saturating_add(1);
                span.frames += segment.len() as u64;
                span.symbols += segment.iter().map(Message::len).sum::<usize>() as u64;
            }
            board.extend(segment);
        }
        Ok(())
    }

    /// Ends a session: its spans go to the store. Nothing goes on
    /// the wire.
    fn close_session(&self, session: u64) -> Result<(), TransportError> {
        let mut inner = self.locked();
        Self::check_live(&inner)?;
        if let Some(spans) = inner.open_sessions.remove(&session) {
            inner.telemetry.record_closed(&spans, &inner.alive);
        }
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

/// One run's (or one batch's) session on the shared [`WorkerGroup`]:
/// opened with the plan's vertex count and closed at the barrier.
pub struct SocketTransport {
    group: Arc<WorkerGroup>,
    session: Option<u64>,
}

fn misuse(detail: String) -> TransportError {
    TransportError::Protocol {
        detail,
        postmortem: None,
    }
}

impl Transport for SocketTransport {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        if self.session.is_some() {
            return Err(misuse("transport opened twice".to_string()));
        }
        self.session = Some(self.group.open_session(routes.num_nodes())?);
        Ok(())
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let mut view = RoundView::default();
        self.exchange_into(round, outbox, &mut view)?;
        Ok(view)
    }

    fn exchange_into(
        &mut self,
        round: usize,
        outbox: &[Message],
        view: &mut RoundView,
    ) -> Result<(), TransportError> {
        let session = self
            .session
            .ok_or_else(|| misuse("exchange before open".to_string()))?;
        self.group.exchange_round(session, round, outbox, view)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        match self.session.take() {
            Some(session) => self.group.close_session(session),
            None => Ok(()),
        }
    }

    fn teardown(&mut self) {
        if let Some(session) = self.session.take() {
            let _ = self.group.close_session(session);
        }
    }
}

impl Drop for SocketTransport {
    /// A run that unwinds without reaching `teardown` still closes its
    /// session, so its spans are recorded.
    fn drop(&mut self) {
        self.teardown();
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
/// a broken command. The factory's `TelemetryStore` outlives both:
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
    use bcc_trace::{EventKind, FieldValue};

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
        let mut link = Link::new(BufReader::new(server), client);
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
        let span = |rounds: u64, frames: u64| SessionSpan {
            n: 4,
            rounds,
            frames,
            symbols: frames,
        };
        // Rank 0's two sessions arrive out of canonical order; flush
        // sorts the spans. Rank 1 dies holding the second session.
        let filled = || {
            let store = TelemetryStore::new();
            store.record_closed(&[span(9, 5), span(2, 7)], &[true, true]);
            store.record_closed(&[span(1, 3), span(4, 4)], &[true, false]);
            store
        };
        let store = filled();
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
        assert_eq!(dump.units(), 3, "group totals plus one unit per rank");
        // The trace holds one wrapped unit per rank, sessions sorted
        // canonically (rank 0's rounds=1 session before rounds=9),
        // numbered and pathed as the unit's own buffer records them.
        let trace = collector.finish();
        let seq_paths: Vec<(u64, &str)> = trace
            .events()
            .iter()
            .filter(|e| e.unit == "transport/worker:0")
            .map(|e| (e.seq, e.path.as_str()))
            .collect();
        let (w, s) = ("worker:0", "worker:0/session");
        let paths = ["", w, s, s, w, w, s, s, w, ""];
        assert_eq!(seq_paths, (0..10).zip(paths).collect::<Vec<_>>());
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
        // A spans-only collector keeps the span records, densely
        // numbered, and a disabled hub or collector keeps nothing.
        let spans_only = Collector::new(TraceLevel::Spans);
        let off = MetricsHub::disabled();
        filled().drain_into(&spans_only, &off);
        let kept: Vec<(u64, EventKind)> = spans_only
            .finish()
            .events()
            .iter()
            .filter(|e| e.unit == "transport/worker:0")
            .map(|e| (e.seq, e.kind))
            .collect();
        let (start, end) = (EventKind::SpanStart, EventKind::SpanEnd);
        let kinds = [start, start, end, start, end, end];
        assert_eq!(kept, (0..6).zip(kinds).collect::<Vec<_>>());
        assert_eq!(off.finish().units(), 0);
        let disabled = Collector::disabled();
        filled().drain_into(&disabled, &MetricsHub::new(MetricsLevel::Core));
        assert!(disabled.finish().is_empty());
    }

    #[test]
    fn dead_rank_counts_truncated_and_emits_no_trace_unit() {
        use bcc_metrics::{MetricsHub, MetricsLevel};
        use bcc_trace::TraceLevel;
        let store = TelemetryStore::new();
        let span = SessionSpan {
            n: 4,
            rounds: 1,
            frames: 2,
            symbols: 2,
        };
        store.record_closed(&[span, span], &[false, true]);
        let collector = Collector::new(TraceLevel::Events);
        let hub = MetricsHub::new(MetricsLevel::Core);
        store.drain_into(&collector, &hub);
        let dump = hub.finish();
        assert_eq!(dump.counter("transport.worker:0.truncated"), Some(1));
        assert_eq!(dump.counter("transport.worker:0.sessions"), None);
        assert_eq!(dump.counter("transport.worker:1.sessions"), Some(1));
        let trace = collector.finish();
        assert!(trace.events().iter().all(|e| e.unit == worker_unit(1)));
    }
}
