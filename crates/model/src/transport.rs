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
//!    inputs, same `RoundView`, across processes and runs.
//! 2. Message *multiset* per vertex is fixed by the routes; delivery
//!    *order* inside a vertex's inbox is the transport's own. The
//!    driver canonicalizes with [`RoundView::canonicalized`] (stable
//!    sort by port label) before programs see an `Inbox`, so a
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
use std::sync::{Arc, RwLock};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routes {
    /// `ports[v][p] = (port_label, peer)` in port-index order.
    ports: Vec<Vec<(u64, usize)>>,
}

impl Routes {
    /// Extracts the delivery plan of a network.
    pub fn of(network: &Network) -> Routes {
        let n = network.num_vertices();
        Routes {
            ports: (0..n)
                .map(|v| {
                    (0..n.saturating_sub(1))
                        .map(|p| (network.port_label(v, p), network.peer_of(v, p)))
                        .collect()
                })
                .collect(),
        }
    }

    /// Builds a plan from a raw port table (`ports[v][p] =
    /// (port_label, peer)`). Used by transports that reconstruct the
    /// plan from the wire; peers must index into `0..ports.len()`.
    pub fn from_ports(ports: Vec<Vec<(u64, usize)>>) -> Routes {
        Routes { ports }
    }

    /// Number of vertices in the plan.
    pub fn num_nodes(&self) -> usize {
        self.ports.len()
    }

    /// The `(port_label, peer)` pairs of vertex `v` in port-index
    /// order; empty when `v` is out of range.
    pub fn ports(&self, v: usize) -> &[(u64, usize)] {
        self.ports.get(v).map_or(&[], Vec::as_slice)
    }
}

/// One round's delivery result: for every vertex, its `(port label,
/// message)` pairs. Produced by [`Transport::exchange`]; the driver
/// canonicalizes it before building an `Inbox`.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Consumes the view into its per-vertex entries.
    pub fn into_inboxes(self) -> Vec<Vec<(u64, Message)>> {
        self.inboxes
    }

    /// The canonical form: every vertex's entries stable-sorted by
    /// port label. For every constructible [`Network`] this equals
    /// port-index order (KT-1 ports are sorted by increasing peer ID;
    /// KT-0 labels are `p+1`), so canonicalization is a behavioral
    /// no-op for conforming transports — and the normative step that
    /// makes a permuting transport conforming too.
    #[must_use]
    pub fn canonicalized(mut self) -> RoundView {
        for inbox in &mut self.inboxes {
            inbox.sort_by_key(|&(label, _)| label);
        }
        self
    }
}

/// A round-delivery backend. Drivers call [`open`](Self::open) once
/// per run with the instance's [`Routes`], then
/// [`exchange`](Self::exchange) once per round, then
/// [`barrier`](Self::barrier) after the last round and
/// [`teardown`](Self::teardown) when the transport is dropped from
/// service. See the module docs for the determinism contract.
pub trait Transport {
    /// Binds the transport to one instance's delivery plan. Called
    /// exactly once before the first `exchange`.
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError>;

    /// Delivers round `round`: `outbox[v]` is vertex `v`'s broadcast,
    /// already normalized to the configured bandwidth. Returns every
    /// vertex's `(port label, message)` entries.
    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError>;

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
/// batched engine (one transport per lane), and the process-wide
/// default installed by `--transport`.
pub trait TransportFactory: Send + Sync {
    /// Creates a fresh transport for one run (or one lane).
    /// Infallible by design: backends whose setup can fail return a
    /// transport whose `open` reports the stored error.
    fn create(&self) -> Box<dyn Transport>;

    /// A short human-readable tag (`"local"`, `"sockets:4"`).
    fn label(&self) -> String;

    /// Drains any cross-process telemetry the factory has accumulated
    /// (worker-origin trace spans and `transport.*` counters) into the
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

    fn exchange(&mut self, _round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
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
        Ok(RoundView::new(
            (0..n)
                .map(|v| {
                    routes
                        .ports(v)
                        .iter()
                        .map(|&(label, peer)| (label, outbox[peer].clone()))
                        .collect()
                })
                .collect(),
        ))
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
/// [`set_default_factory`] installed, else [`LocalFactory`].
pub fn default_factory() -> Arc<dyn TransportFactory> {
    let slot = DEFAULT_FACTORY.read().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(f) => Arc::clone(f),
        None => Arc::new(LocalFactory),
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
        let canon = view.canonicalized();
        assert_eq!(
            canon.inbox(0).iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            canon.inbox(1).iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![4, 5]
        );
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
            assert_eq!(view.clone().canonicalized(), view);
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
