//! The round-delivery surface of the model: who hands round-`r`
//! broadcasts to whom.
//!
//! The paper's model is communication-first — every bound is stated
//! in bits broadcast per round on the clique — so delivery is an
//! explicit, swappable API rather than a loop buried in the
//! simulator. A [`Transport`] receives the full per-round outbox
//! (one [`Message`] per vertex, already bandwidth-normalized) and
//! returns a [`RoundView`]: for every vertex, its `(port label,
//! message)` pairs. The driver — scalar simulator or the batched
//! engine — owns *all* accounting (trace spans, `sim.*` metrics,
//! transcripts); a transport only moves symbols. That split is what
//! makes a multi-process socket run byte-identical to the in-process
//! oracle: observability never crosses the wire, so there is nothing
//! wall-clock-shaped to diverge (DESIGN.md §14).
//!
//! Determinism contract, in order of obligation:
//!
//! 1. `exchange` is a pure function of `(routes, outbox)` — same
//!    inputs, same `RoundView`, across processes and runs — and
//!    `exchange_into` fully overwrites the view it is lent with that
//!    same result.
//! 2. Message *multiset* per vertex is fixed by the routes; delivery
//!    *order* inside a vertex's inbox is the transport's own. The
//!    driver canonicalizes with [`RoundView::canonicalize_inbox`]
//!    (stable sort by port label) before programs see an `Inbox`, so a
//!    transport that permutes entries is still conforming.
//! 3. Failure is a typed [`TransportError`], never a panic: a dead
//!    worker surfaces as [`TransportError::WorkerDead`] and the run
//!    degrades (see `SimConfig::try_run`).

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
/// broadcast arrives there. A `Routes` is the *only* topology a
/// transport receives — workers never reconstruct a [`Network`], so
/// the wire format is a plain table and network construction stays
/// private to this crate.
///
/// One plan can also carry several instances at once:
/// [`stacked`](Self::stacked) lays same-size plans side by side as
/// one disjoint union of cliques, which is how the batched engine
/// delivers a whole batch through one transport.
///
/// The table is stored row-compressed and shared: one flat slice of
/// `(port_label, peer)` pairs and one slice of row offsets, both
/// behind an `Arc`. Building a plan, with [`of`](Self::of) or
/// [`stacked`](Self::stacked), allocates twice, and cloning one (every
/// [`LocalTransport::open`] does) allocates nothing. Rows may differ in
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

    /// Several same-size plans side by side: plan `l`'s row `v` is row
    /// `l·n + v` of the result, and its peers are offset by `l·n`, so
    /// no message crosses from one plan to another. The rows are
    /// copied; the plans themselves are usually each instance's cached
    /// [`Instance::routes`](crate::Instance::routes).
    ///
    /// # Panics
    ///
    /// Panics if the plans differ in vertex count.
    pub fn stacked(plans: &[&Routes]) -> Routes {
        let n = plans.first().map_or(0, |plan| plan.num_nodes());
        assert!(
            plans.iter().all(|plan| plan.num_nodes() == n),
            "stacked plans must share one vertex count"
        );
        let total: usize = plans.iter().map(|plan| plan.entries.len()).sum();
        let rows = plans.len() * n;
        // Exact-length iterators again, one allocation per slice; the
        // cursors walk each plan in turn.
        let (mut lane, mut next) = (0, 0);
        let entries = (0..total)
            .map(|_| {
                while next == plans[lane].entries.len() {
                    (lane, next) = (lane + 1, 0);
                }
                let (label, peer) = plans[lane].entries[next];
                next += 1;
                (label, lane * n + peer)
            })
            .collect();
        // Row `l·n + v` starts where plan `l`'s row `v` does, shifted by
        // the entries of the plans before it.
        let (mut lane, mut v, mut base) = (0, 0, 0);
        let offsets = (0..rows)
            .map(|_| {
                let start = base + plans[lane].offsets[v];
                v += 1;
                if v == n {
                    (lane, v, base) = (lane + 1, 0, base + plans[lane].entries.len());
                }
                start
            })
            .chain(std::iter::once(total))
            .collect();
        Routes { entries, offsets }
    }

    /// Builds a plan from a raw port table (`ports[v][p] =
    /// (port_label, peer)`); peers must index into `0..ports.len()`.
    // bcc-lint: allow(U1): the only way for codec and transport tests to build plans no network yields (ragged rows, extreme labels)
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

/// One round's delivery result: for every vertex, its `(port label,
/// message)` pairs. Produced by [`Transport::exchange`] or refilled in
/// place by [`Transport::exchange_into`]; the driver canonicalizes
/// each inbox before building an `Inbox`. The view of a
/// [stacked](Routes::stacked) plan is stacked the same way: lane `l`'s
/// inboxes are `l·n..(l + 1)·n`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundView {
    inboxes: Vec<Vec<(u64, Message)>>,
}

impl RoundView {
    /// Wraps per-vertex inbox entries (vertex order).
    pub fn new(inboxes: Vec<Vec<(u64, Message)>>) -> RoundView {
        RoundView { inboxes }
    }

    /// Number of vertices covered.
    pub fn num_nodes(&self) -> usize {
        self.inboxes.len()
    }

    /// The entries of vertex `v`; empty when out of range.
    pub fn inbox(&self, v: usize) -> &[(u64, Message)] {
        self.inboxes.get(v).map_or(&[], Vec::as_slice)
    }

    /// The per-vertex entry vectors, for a driver that lends each one
    /// out and puts it back.
    pub fn inboxes_mut(&mut self) -> &mut [Vec<(u64, Message)>] {
        &mut self.inboxes
    }

    /// Empties the view down to `n` empty inboxes, keeping what the
    /// entry vectors have allocated, and returns them for refilling.
    pub fn reset(&mut self, n: usize) -> &mut [Vec<(u64, Message)>] {
        self.inboxes.resize_with(n, Vec::new);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        &mut self.inboxes
    }

    /// Stable-sorts one inbox's entries by port label. For every
    /// constructible [`Network`] this equals port-index order (KT-1
    /// ports are sorted by increasing peer ID; KT-0 labels are `p+1`),
    /// so canonicalization is a behavioral no-op for conforming
    /// transports — and the normative step that makes a permuting
    /// transport conforming too. An inbox already in order is left
    /// untouched, so the common case neither moves nor allocates.
    pub fn canonicalize_inbox(inbox: &mut [(u64, Message)]) {
        if !inbox.is_sorted_by_key(|&(label, _)| label) {
            inbox.sort_by_key(|&(label, _)| label);
        }
    }
}

/// A round-delivery backend. Drivers call [`open`](Self::open) once
/// per run (or once per batch, with a [stacked](Routes::stacked) plan)
/// with its [`Routes`], then deliver each round with
/// [`exchange_into`](Self::exchange_into), then call
/// [`barrier`](Self::barrier) after the last round and
/// [`teardown`](Self::teardown) when the transport is dropped from
/// service. [`exchange`](Self::exchange) is the same delivery into a
/// fresh view. See the module docs for the determinism contract.
pub trait Transport {
    /// Binds the transport to one delivery plan. Called exactly once,
    /// before the first round is delivered.
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError>;

    /// Delivers round `round`: `outbox[v]` is vertex `v`'s broadcast,
    /// already normalized to the configured bandwidth. Returns every
    /// vertex's `(port label, message)` entries.
    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError>;

    /// Delivers round `round` into `view`, which the caller lends so
    /// it can reuse one view's buffers across rounds. On success a
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

/// The in-process oracle: delivers straight out of the outbox slice
/// by the routes table. This is the extracted form of the historical
/// simulator loop and the reference every other backend is pinned
/// against — byte-identical traces, metrics, and outcomes.
#[derive(Debug, Clone, Default)]
pub struct LocalTransport {
    routes: Option<Routes>,
}

impl LocalTransport {
    /// A transport awaiting `open`.
    pub fn new() -> LocalTransport {
        LocalTransport { routes: None }
    }
}

impl Transport for LocalTransport {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        self.routes = Some(routes.clone());
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
        let routes = self
            .routes
            .as_ref()
            .ok_or_else(|| TransportError::Protocol {
                detail: "exchange before open".to_string(),
                postmortem: None,
            })?;
        let n = routes.num_nodes();
        if outbox.len() != n {
            return Err(TransportError::Protocol {
                detail: format!("outbox has {} entries for {n} nodes", outbox.len()),
                postmortem: None,
            });
        }
        for (v, inbox) in view.reset(n).iter_mut().enumerate() {
            inbox.extend(
                routes
                    .ports(v)
                    .iter()
                    .map(|&(label, peer)| (label, outbox[peer].clone())),
            );
        }
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
    fn local_transport_delivers_by_routes() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let routes = Routes::of(i.network());
        assert_eq!(routes.num_nodes(), 4);
        let mut t = LocalTransport::new();
        t.open(&routes).unwrap();
        let outbox: Vec<Message> = (0..4).map(|v| msg((v % 2) as u8)).collect();
        let view = t.exchange(0, &outbox).unwrap();
        assert_eq!(view.num_nodes(), 4);
        for v in 0..4 {
            let entries = view.inbox(v);
            assert_eq!(entries.len(), 3);
            for (i, &(label, ref m)) in entries.iter().enumerate() {
                let (want_label, peer) = routes.ports(v)[i];
                assert_eq!(label, want_label);
                assert_eq!(*m, outbox[peer]);
            }
        }
        t.barrier().unwrap();
        t.teardown();
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
        let mut view = RoundView::new(vec![vec![(9, msg(1))]; 7]);
        t.exchange_into(1, &outbox, &mut view).unwrap();
        assert_eq!(view, want);
    }

    #[test]
    fn stacked_rows_are_each_lanes_rows_offset_by_lane() {
        let lanes = [
            Instance::new_kt0(generators::cycle(5), 1).unwrap(),
            Instance::new_kt1(generators::path(5)).unwrap(),
            Instance::new_kt0(generators::cycle(5), 8).unwrap(),
        ];
        let plans: Vec<&Routes> = lanes.iter().map(Instance::routes).collect();
        let stacked = Routes::stacked(&plans);
        let n = 5;
        assert_eq!(stacked.num_nodes(), lanes.len() * n);
        for (l, inst) in lanes.iter().enumerate() {
            let own = Routes::of(inst.network());
            for v in 0..n {
                let offset: Vec<(u64, usize)> = own
                    .ports(v)
                    .iter()
                    .map(|&(label, peer)| (label, l * n + peer))
                    .collect();
                assert_eq!(
                    stacked.ports(l * n + v),
                    offset.as_slice(),
                    "lane {l} row {v}"
                );
            }
        }
        // One network stacked alone is its own plan, and the empty
        // stack is the empty plan.
        assert_eq!(Routes::stacked(&plans[..1]), Routes::of(lanes[0].network()));
        assert_eq!(Routes::stacked(&[]), Routes::from_ports(vec![]));
    }

    #[test]
    fn stacked_copies_ragged_rows() {
        let a = Routes::from_ports(vec![vec![(1, 1)], vec![], vec![(2, 0), (3, 1)]]);
        let b = Routes::from_ports(vec![vec![], vec![(4, 2), (5, 0)], vec![(6, 1)]]);
        let stacked = Routes::stacked(&[&a, &b, &a]);
        let want = Routes::from_ports(vec![
            vec![(1, 1)],
            vec![],
            vec![(2, 0), (3, 1)],
            vec![],
            vec![(4, 5), (5, 3)],
            vec![(6, 4)],
            vec![(1, 7)],
            vec![],
            vec![(2, 6), (3, 7)],
        ]);
        assert_eq!(stacked, want);
    }

    #[test]
    fn exchange_before_open_is_typed_error() {
        let mut t = LocalTransport::new();
        let err = t.exchange(0, &[]).unwrap_err();
        assert!(matches!(err, TransportError::Protocol { .. }));
        assert!(err.to_string().contains("protocol"));
    }

    #[test]
    fn wrong_outbox_shape_is_typed_error() {
        let i = Instance::new_kt1(generators::cycle(3)).unwrap();
        let mut t = LocalTransport::new();
        t.open(&Routes::of(i.network())).unwrap();
        let err = t.exchange(0, &[Message::silent(1)]).unwrap_err();
        assert!(matches!(err, TransportError::Protocol { .. }));
    }

    #[test]
    fn canonicalized_sorts_each_inbox_by_label() {
        let view = RoundView::new(vec![
            vec![(3, msg(1)), (1, msg(0)), (2, msg(1))],
            vec![(5, msg(0)), (4, msg(0))],
        ]);
        let labels = |v: usize| {
            let mut inbox = view.inbox(v).to_vec();
            RoundView::canonicalize_inbox(&mut inbox);
            inbox.iter().map(|e| e.0).collect::<Vec<_>>()
        };
        assert_eq!(labels(0), vec![1, 2, 3]);
        assert_eq!(labels(1), vec![4, 5]);
    }

    #[test]
    fn canonicalization_is_noop_on_constructible_networks() {
        for inst in [
            Instance::new_kt1(generators::cycle(6)).unwrap(),
            Instance::new_kt0(generators::two_cycles(3, 3), 7).unwrap(),
        ] {
            let routes = Routes::of(inst.network());
            let mut t = LocalTransport::new();
            t.open(&routes).unwrap();
            let outbox: Vec<Message> = (0..routes.num_nodes()).map(|_| msg(1)).collect();
            let view = t.exchange(0, &outbox).unwrap();
            for v in 0..routes.num_nodes() {
                let mut canon = view.inbox(v).to_vec();
                RoundView::canonicalize_inbox(&mut canon);
                assert_eq!(canon, view.inbox(v));
            }
        }
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
