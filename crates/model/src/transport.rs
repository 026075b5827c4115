//! The round-delivery surface of the model: who hands round-`r`
//! broadcasts to whom.
//!
//! The paper's model is communication-first — every bound is stated
//! in bits broadcast per round on the clique — so delivery is an
//! explicit, swappable API rather than a loop buried in the
//! simulator. In `BCC(b)` a round is `n` broadcasts, and every vertex
//! hears all of them: only the port wiring differs. So a
//! [`Transport`] receives the full per-round outbox (one [`Message`]
//! per vertex, already bandwidth-normalized) and returns a
//! [`RoundView`] holding the *board*, one message per sender row. The
//! driver — scalar simulator or the batched engine — hands each vertex
//! an [`Inbox`](crate::Inbox) that reads the board through the
//! vertex's own [`Routes`] row, and owns *all* accounting (trace
//! spans, `sim.*` metrics, transcripts); a transport only moves
//! symbols. That split is what makes a multi-process socket run
//! byte-identical to the in-process oracle: observability never
//! crosses the wire, so there is nothing wall-clock-shaped to diverge
//! (DESIGN.md §14).
//!
//! Determinism contract, in order of obligation:
//!
//! 1. `exchange` is a pure function of the outbox — same inputs, same
//!    board, across processes and runs — and `exchange_into` fully
//!    overwrites the view it is lent with that same result. A
//!    conforming board *is* the outbox, row for row.
//! 2. Port order holds by construction: an inbox's port `p` reads
//!    `board[peer]` for the `(label, peer)` at position `p` of the
//!    vertex's routes row, so no transport can reorder a vertex's
//!    messages. The driver checks the board's length once
//!    ([`RoundView::board_of`]) before any program reads it.
//! 3. Failure is a typed [`TransportError`], never a panic: a dead
//!    worker surfaces as [`TransportError::WorkerDead`] and the run
//!    degrades, carrying the error in
//!    [`RunOutcome::transport_failure`](crate::RunOutcome::transport_failure).

use crate::network::Network;
use crate::postmortem::{Postmortem, TransportHealth};
use crate::symbol::Message;
use bcc_metrics::MetricsHub;
use bcc_trace::Collector;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// A delivery failure. Every variant is a condition the driver can
/// report and degrade on; transports must never panic on I/O or
/// protocol trouble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Worker processes could not be launched or connected.
    Spawn {
        /// Human-readable cause (exec error, handshake timeout, …).
        detail: String,
    },
    /// A worker died or stopped responding mid-run.
    WorkerDead {
        /// The rank of the dead worker.
        rank: usize,
        /// Human-readable cause (EOF, read timeout, exit status, …).
        detail: String,
        /// Flight-recorder dump frozen when the failure fired; `None`
        /// for backends without a recorder. Boxed to keep the happy
        /// path's error size small.
        postmortem: Option<Box<Postmortem>>,
    },
    /// The transport was driven outside its contract or answered
    /// outside the wire protocol (wrong shape, bad handshake, use
    /// before `open`).
    Protocol {
        /// Human-readable cause.
        detail: String,
        /// Flight-recorder dump frozen when the failure fired; `None`
        /// for backends without a recorder.
        postmortem: Option<Box<Postmortem>>,
    },
}

impl TransportError {
    /// The flight-recorder dump attached to this error, if any.
    pub fn postmortem(&self) -> Option<&Postmortem> {
        match self {
            TransportError::Spawn { .. } => None,
            TransportError::WorkerDead { postmortem, .. }
            | TransportError::Protocol { postmortem, .. } => postmortem.as_deref(),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Spawn { detail } => {
                write!(f, "transport spawn failed: {detail}")
            }
            TransportError::WorkerDead { rank, detail, .. } => {
                write!(f, "transport worker {rank} died: {detail}")
            }
            TransportError::Protocol { detail, .. } => {
                write!(f, "transport protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// The delivery plan of one instance: for every vertex `v` and port
/// `p`, the label the vertex sees on that port and the peer whose
/// broadcast arrives there. Drivers read a round's board through it
/// (row `v` is vertex `v`'s [`Inbox`](crate::Inbox)); a transport is
/// shown it at [`open`](Transport::open) but delivers without it, so
/// workers never reconstruct a [`Network`] and network construction
/// stays private to this crate.
///
/// The table is stored row-compressed and shared: one flat slice of
/// `(port_label, peer)` pairs and one slice of row offsets, both
/// behind an `Arc`. Building a plan with [`of`](Self::of) allocates
/// twice, and cloning one allocates nothing. Rows may differ in
/// length, so any raw table [`from_ports`](Self::from_ports) accepts
/// stays representable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routes {
    /// Every vertex's `(port_label, peer)` pairs, rows concatenated in
    /// vertex order, each row in port-index order.
    entries: Arc<[(u64, usize)]>,
    /// Row `v` is `entries[offsets[v]..offsets[v + 1]]`; one more
    /// offset than vertices.
    offsets: Arc<[usize]>,
}

impl Routes {
    /// Extracts the delivery plan of a network.
    pub fn of(network: &Network) -> Routes {
        let n = network.num_vertices();
        let ports = n.saturating_sub(1);
        // An exact-length iterator, so the `Arc` slice is collected in
        // one allocation with no intermediate `Vec`. The cursor steps
        // port, then vertex, which keeps divisions out of the
        // per-entry work (dividing the flat index made `of` about 40%
        // slower at n = 7).
        let (mut v, mut p) = (0, 0);
        let entries = (0..n * ports)
            .map(|_| {
                let entry = (network.port_label(v, p), network.peer_of(v, p));
                p += 1;
                if p == ports {
                    (p, v) = (0, v + 1);
                }
                entry
            })
            .collect();
        Routes {
            entries,
            offsets: (0..=n).map(|row| row * ports).collect(),
        }
    }

    /// Builds a plan from a raw port table (`ports[v][p] =
    /// (port_label, peer)`); peers must index into `0..ports.len()`.
    // bcc-lint: allow(U1): builds plans no network yields (the two-party simulation's index-labelled clique, ragged rows and extreme labels in tests)
    pub fn from_ports(ports: Vec<Vec<(u64, usize)>>) -> Routes {
        let offsets = std::iter::once(0)
            .chain(ports.iter().scan(0, |end, row| {
                *end += row.len();
                Some(*end)
            }))
            .collect();
        Routes {
            entries: ports.into_iter().flatten().collect(),
            offsets,
        }
    }

    /// Number of vertices in the plan.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(port_label, peer)` pairs of vertex `v` in port-index
    /// order; empty when `v` is out of range.
    pub fn ports(&self, v: usize) -> &[(u64, usize)] {
        match (self.offsets.get(v), self.offsets.get(v + 1)) {
            (Some(&lo), Some(&hi)) => &self.entries[lo..hi],
            _ => &[],
        }
    }
}

/// One round's delivery: the board, one [`Message`] per sender row,
/// in row order. Produced by [`Transport::exchange`] or refilled in
/// place by [`Transport::exchange_into`]. A conforming board is the
/// outbox itself; a batch's outbox holds its lanes' rows side by
/// side, lane `l`'s vertices at rows `l·n..(l + 1)·n`, and so does
/// its board.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundView {
    board: Vec<Message>,
}

impl RoundView {
    /// Wraps a board (row order).
    pub fn new(board: Vec<Message>) -> RoundView {
        RoundView { board }
    }

    /// The delivered messages, one per row.
    pub fn board(&self) -> &[Message] {
        &self.board
    }

    /// Empties the board, keeping its capacity, and returns it for a
    /// transport to refill.
    pub fn refill(&mut self) -> &mut Vec<Message> {
        self.board.clear();
        &mut self.board
    }

    /// The board, checked to hold exactly `rows` messages: the one
    /// shape check both drivers make before any program reads a round.
    ///
    /// # Errors
    ///
    /// A [`TransportError::Protocol`] naming both lengths when the
    /// board is shorter or longer.
    pub fn board_of(&self, rows: usize) -> Result<&[Message], TransportError> {
        if self.board.len() == rows {
            return Ok(&self.board);
        }
        Err(TransportError::Protocol {
            detail: format!("round view covers {} of {rows} nodes", self.board.len()),
            postmortem: None,
        })
    }
}

/// A round-delivery backend. Drivers call [`open`](Self::open) once
/// per run (or once per batch) with a [`Routes`], then deliver each
/// round with [`exchange_into`](Self::exchange_into), then call
/// [`barrier`](Self::barrier) after the last round and
/// [`teardown`](Self::teardown) when the transport is dropped from
/// service. [`exchange`](Self::exchange) is the same delivery into a
/// fresh view. See the module docs for the determinism contract.
pub trait Transport {
    /// Opens one session, called exactly once, before the first round
    /// is delivered. `routes` is the wiring of the session's instance;
    /// a batch passes its first lane's, and every lane has the same
    /// vertex count, `routes.num_nodes()`. Delivery does not depend on
    /// it: every vertex hears every broadcast, and the driver reads
    /// each vertex's ports from its own instance. So a transport may
    /// ignore the plan, or keep its vertex count as the size of the
    /// session's instances; an outbox holds any whole number of them,
    /// one per lane.
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError>;

    /// Delivers round `round`: `outbox[r]` is row `r`'s broadcast,
    /// already normalized to the configured bandwidth. Returns the
    /// board, one message per row.
    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError>;

    /// Delivers round `round` into `view`, which the caller lends so
    /// it can reuse one board's buffer across rounds. On success a
    /// conforming implementation has fully overwritten `view`: it
    /// holds exactly what [`exchange`](Self::exchange) would have
    /// returned, and nothing of what it held before. On error the
    /// view's contents are unspecified. The default body is
    /// `exchange`.
    fn exchange_into(
        &mut self,
        round: usize,
        outbox: &[Message],
        view: &mut RoundView,
    ) -> Result<(), TransportError> {
        *view = self.exchange(round, outbox)?;
        Ok(())
    }

    /// Quiesces the transport after the final round: a conforming
    /// implementation returns only once every in-flight delivery of
    /// this run has been acknowledged.
    fn barrier(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Releases resources; best-effort, never fails.
    fn teardown(&mut self) {}
}

/// Builds [`Transport`] instances for runs. Factories are shared
/// (`Arc<dyn TransportFactory>`) between the scalar simulator, the
/// batched engine (one transport per batch), and the process-wide
/// default installed by `--transport`.
pub trait TransportFactory: Send + Sync {
    /// Creates a fresh transport for one run (or one batch).
    /// Infallible by design: backends whose setup can fail return a
    /// transport whose `open` reports the stored error.
    fn create(&self) -> Box<dyn Transport>;

    /// A short human-readable tag (`"local"`, `"sockets:4"`).
    fn label(&self) -> String;

    /// Drains any transport telemetry the factory has accumulated
    /// (per-worker trace spans and `transport.*` counters) into the
    /// run's shared sinks, in rank order. Backends without workers
    /// have nothing to flush. Callers must flush at most once per
    /// collector lifetime — foreign events are re-sequenced per call,
    /// so a second flush into the same collector would collide.
    fn flush_telemetry(&self, _collector: &Collector, _hub: &MetricsHub) {}

    /// Live per-worker health (no flight rings), for observation
    /// surfaces such as `bcc-serve`'s `observe` snapshots. `None` for
    /// backends without workers.
    fn health(&self) -> Option<TransportHealth> {
        None
    }

    /// Drains the postmortems recorded by this factory's flight
    /// recorder since the last call (empty for backends without one).
    fn take_postmortems(&self) -> Vec<Postmortem> {
        Vec::new()
    }

    /// Wall-clock-ish transport counters (spawns, accept-loop ticks)
    /// for the `--wall` sidecar. Never merged into deterministic
    /// artifacts.
    fn wall_stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// The in-process oracle: the board is the outbox, copied row for
/// row. This is the extracted form of the historical simulator loop
/// and the reference every other backend is pinned against —
/// byte-identical traces, metrics, and outcomes.
#[derive(Debug, Clone, Default)]
pub struct LocalTransport {
    opened: bool,
}

impl LocalTransport {
    /// A transport awaiting `open`.
    pub fn new() -> LocalTransport {
        LocalTransport { opened: false }
    }
}

impl Transport for LocalTransport {
    fn open(&mut self, _routes: &Routes) -> Result<(), TransportError> {
        self.opened = true;
        Ok(())
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let mut view = RoundView::default();
        self.exchange_into(round, outbox, &mut view)?;
        Ok(view)
    }

    fn exchange_into(
        &mut self,
        _round: usize,
        outbox: &[Message],
        view: &mut RoundView,
    ) -> Result<(), TransportError> {
        if !self.opened {
            return Err(TransportError::Protocol {
                detail: "exchange before open".to_string(),
                postmortem: None,
            });
        }
        view.refill().extend_from_slice(outbox);
        Ok(())
    }
}

/// Factory for [`LocalTransport`] — the process-wide default when
/// nothing else is installed.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalFactory;

impl TransportFactory for LocalFactory {
    fn create(&self) -> Box<dyn Transport> {
        Box::new(LocalTransport::new())
    }

    fn label(&self) -> String {
        "local".to_string()
    }
}

/// A parsed `--transport` selector. The model crate only defines the
/// vocabulary; `bcc-transport` maps a spec to a concrete factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSpec {
    /// In-process delivery ([`LocalTransport`]).
    Local,
    /// `N` worker subprocesses over loopback TCP, each owning a
    /// contiguous node range.
    Sockets(usize),
}

impl TransportSpec {
    /// Parses `"local"` or `"sockets:N"` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything else.
    pub fn parse(s: &str) -> Result<TransportSpec, String> {
        if s == "local" {
            return Ok(TransportSpec::Local);
        }
        if let Some(n) = s.strip_prefix("sockets:") {
            let workers: usize = n
                .parse()
                .map_err(|_| format!("--transport sockets:N needs a count, got {n:?}"))?;
            if workers == 0 {
                return Err("--transport sockets:N needs N >= 1".to_string());
            }
            return Ok(TransportSpec::Sockets(workers));
        }
        Err(format!(
            "unknown transport {s:?} (expected local or sockets:N)"
        ))
    }
}

impl fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportSpec::Local => write!(f, "local"),
            TransportSpec::Sockets(n) => write!(f, "sockets:{n}"),
        }
    }
}

static DEFAULT_FACTORY: RwLock<Option<Arc<dyn TransportFactory>>> = RwLock::new(None);

/// Installs the process-wide default transport factory, used by every
/// run whose `SimConfig` has no explicit transport. `--transport`
/// flags funnel here (via `bcc_transport::install`).
pub fn set_default_factory(factory: Arc<dyn TransportFactory>) {
    let mut slot = DEFAULT_FACTORY.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(factory);
}

/// Clears the process-wide default back to [`LocalFactory`].
pub fn reset_default_factory() {
    let mut slot = DEFAULT_FACTORY.write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
}

/// The process-wide default factory: whatever
/// [`set_default_factory`] installed, else one shared [`LocalFactory`]
/// handle, built on first use.
pub fn default_factory() -> Arc<dyn TransportFactory> {
    static LOCAL: OnceLock<Arc<dyn TransportFactory>> = OnceLock::new();
    let slot = DEFAULT_FACTORY.read().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(f) => Arc::clone(f),
        None => Arc::clone(LOCAL.get_or_init(|| Arc::new(LocalFactory))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::symbol::Symbol;
    use bcc_graphs::generators;

    fn msg(bit: u8) -> Message {
        Message::single(if bit == 0 { Symbol::Zero } else { Symbol::One })
    }

    #[test]
    fn local_transport_delivers_the_outbox_as_the_board() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let routes = Routes::of(i.network());
        assert_eq!(routes.num_nodes(), 4);
        let mut t = LocalTransport::new();
        t.open(&routes).unwrap();
        let outbox: Vec<Message> = (0..4).map(|v| msg((v % 2) as u8)).collect();
        let view = t.exchange(0, &outbox).unwrap();
        assert_eq!(view.board(), outbox.as_slice());
        // A batch's outbox is any number of instances' rows.
        let batch: Vec<Message> = outbox.iter().chain(&outbox).cloned().collect();
        assert_eq!(t.exchange(1, &batch).unwrap().board(), batch.as_slice());
        t.barrier().unwrap();
        t.teardown();
    }

    #[test]
    fn board_of_checks_the_length_once() {
        let view = RoundView::new(vec![msg(0), msg(1), msg(1)]);
        assert_eq!(view.board_of(3).unwrap(), view.board());
        for (rows, want) in [
            (4, "round view covers 3 of 4 nodes"),
            (2, "round view covers 3 of 2 nodes"),
        ] {
            match view.board_of(rows) {
                Err(TransportError::Protocol { detail, .. }) => assert_eq!(detail, want),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_factory_shares_one_local_handle() {
        let local = default_factory();
        assert_eq!(local.label(), "local");
        assert!(Arc::ptr_eq(&local, &default_factory()));
        // An installed factory wins until reset; the shared local
        // handle comes back after. Installing a `LocalFactory` keeps
        // concurrent tests' runs unchanged.
        let installed: Arc<dyn TransportFactory> = Arc::new(LocalFactory);
        set_default_factory(Arc::clone(&installed));
        assert!(Arc::ptr_eq(&default_factory(), &installed));
        reset_default_factory();
        assert!(Arc::ptr_eq(&default_factory(), &local));
    }

    #[test]
    fn exchange_into_delivers_like_exchange() {
        let i = Instance::new_kt0(generators::cycle(5), 3).unwrap();
        let mut t = LocalTransport::new();
        t.open(&Routes::of(i.network())).unwrap();
        let outbox: Vec<Message> = (0..5).map(|v| msg((v % 2) as u8)).collect();
        let want = t.exchange(0, &outbox).unwrap();
        // A stale view of the wrong shape is fully overwritten.
        let mut view = RoundView::new(vec![msg(1); 7]);
        t.exchange_into(1, &outbox, &mut view).unwrap();
        assert_eq!(view, want);
    }

    #[test]
    fn exchange_before_open_is_typed_error() {
        let mut t = LocalTransport::new();
        let err = t.exchange(0, &[]).unwrap_err();
        assert!(matches!(err, TransportError::Protocol { .. }));
        assert!(err.to_string().contains("protocol"));
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        assert_eq!(TransportSpec::parse("local"), Ok(TransportSpec::Local));
        assert_eq!(
            TransportSpec::parse("sockets:4"),
            Ok(TransportSpec::Sockets(4))
        );
        assert_eq!(TransportSpec::Sockets(2).to_string(), "sockets:2");
        assert_eq!(TransportSpec::Local.to_string(), "local");
        assert!(TransportSpec::parse("sockets:0").is_err());
        assert!(TransportSpec::parse("sockets:x").is_err());
        assert!(TransportSpec::parse("carrier-pigeon").is_err());
    }

    #[test]
    fn default_factory_falls_back_to_local() {
        // Not exercised concurrently with installs: the suite never
        // installs a default inside the model crate's own tests.
        assert_eq!(default_factory().label(), "local");
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = TransportError::WorkerDead {
            rank: 1,
            detail: "EOF".to_string(),
            postmortem: None,
        };
        assert!(e.postmortem().is_none());
        assert_eq!(e.to_string(), "transport worker 1 died: EOF");
        let s = TransportError::Spawn {
            detail: "no exe".to_string(),
        };
        assert!(s.to_string().contains("spawn"));
    }
}
