//! The synchronous executor and the per-vertex state it records.

use crate::error::ModelError;
use crate::instance::Instance;
use crate::program::{Algorithm, Decision, Inbox, NodeProgram};
use crate::symbol::Message;
use crate::transport::{
    default_factory, RoundView, Routes, Transport, TransportError, TransportFactory,
};
use bcc_metrics::MetricsBuf;
use bcc_trace::{field, Observer, TraceBuf};
use std::fmt;
use std::sync::Arc;

/// The full communication record of one vertex: what it broadcast and
/// what it received on each port, round by round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    /// Messages broadcast by this vertex, one per executed round.
    pub sent: Vec<Message>,
    /// Messages received, `received[round]` = `(port label, message)`
    /// pairs in port order (sorted by port label on every
    /// constructible network).
    pub received: Vec<Vec<(u64, Message)>>,
}

impl Transcript {
    /// Rounds recorded.
    pub fn rounds(&self) -> usize {
        self.sent.len()
    }
}

/// The *state of a vertex* after `t` rounds, in the exact sense of the
/// paper's indistinguishability definition: "the initial knowledge and
/// the transcript at that vertex". Two instances are indistinguishable
/// after `t` rounds iff every vertex has the same [`NodeView`] in both
/// (Section 3).
///
/// The transcript's received half is keyed and sorted by *port
/// label*, because the port label — not the peer's identity — is what
/// the vertex can see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// The vertex ID.
    pub id: u64,
    /// Sorted port labels (initial knowledge).
    pub port_labels: Vec<u64>,
    /// Sorted labels of input-edge ports (initial knowledge).
    pub input_port_labels: Vec<u64>,
    /// Broadcast and received messages, round by round.
    pub transcript: Transcript,
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Rounds actually executed.
    pub rounds: usize,
    /// Total non-silent symbols broadcast across all vertices and
    /// rounds.
    pub bits_broadcast: usize,
    /// Total messages delivered (`rounds · n · (n−1)`).
    pub messages_delivered: usize,
}

/// Mirrors a run's rounds, bits and decisions into round spans and
/// broadcast/decision events, and into the `sim.*` workload metrics,
/// when the caller asked for a trace or for metrics. It keeps no
/// statistics of its own: every number it records is read from the
/// [`RunState`] that counted it, so the statistics a report prints,
/// the events a trace records, and the counters a metrics dump merges
/// can never drift apart.
///
/// Every recorded value is logical (round numbers, node ids, bit
/// counts); the simulator never reads a clock, so equal-seed runs
/// produce byte-identical traces and dumps.
struct SimRecorder<'a> {
    trace: &'a mut TraceBuf,
    metrics: &'a mut MetricsBuf,
}

impl SimRecorder<'_> {
    fn run_start(&mut self, n: usize, bandwidth: usize, max_rounds: usize, coin_seed: u64) {
        if self.trace.spans_enabled() {
            self.trace.span_start(
                "sim",
                vec![
                    field("n", n),
                    field("bandwidth", bandwidth),
                    field("max_rounds", max_rounds),
                    field("coin_seed", coin_seed),
                ],
            );
        }
    }

    fn round_start(&mut self, round: usize) {
        if self.trace.spans_enabled() {
            self.trace.span_start(&format!("round={round}"), vec![]);
        }
    }

    fn broadcast(&mut self, v: usize, message: &Message) {
        let bits = message.bits_used();
        self.metrics.full_observe("sim.broadcast_bits", bits as u64);
        if self.trace.events_enabled() {
            self.trace.event(
                "broadcast",
                vec![
                    field("node", v),
                    field("bits", bits),
                    field("msg", message.to_string()),
                ],
            );
        }
    }

    fn round_end(&mut self, round: usize, round_bits: usize) {
        self.metrics
            .full_observe("sim.round_bits", round_bits as u64);
        // The per-round cost record carries the same canonical name as
        // the core `sim.bits_broadcast` workload counter, so the
        // profiler can join span-attributed costs against dump totals.
        if self.trace.costs_enabled() {
            self.trace.counter("sim.bits_broadcast", round_bits as u64);
        }
        if self.trace.spans_enabled() {
            self.trace.span_end(&format!("round={round}"), vec![]);
        }
    }

    /// Closes any open spans on a transport failure, so traced error
    /// paths stay balanced: the current `round=r` span (when the
    /// failure struck mid-round) and the `sim` span, tagged with the
    /// error text.
    fn abort(&mut self, open_round: Option<usize>, err: &TransportError) {
        if self.trace.events_enabled() {
            self.trace
                .event("transport.error", vec![field("error", err.to_string())]);
        }
        if self.trace.spans_enabled() {
            if let Some(round) = open_round {
                self.trace.span_end(&format!("round={round}"), vec![]);
            }
            self.trace
                .span_end("sim", vec![field("error", err.to_string())]);
        }
    }

    /// One `decision` event per vertex, the run's `sim.*` counters and
    /// the end of the `sim` span.
    fn run_end(&mut self, outcome: &RunOutcome) {
        if self.trace.events_enabled() {
            for (v, decision) in outcome.decisions.iter().enumerate() {
                let tag = match decision {
                    Decision::Yes => "yes",
                    Decision::No => "no",
                    Decision::Undecided => "undecided",
                };
                self.trace
                    .event("decision", vec![field("node", v), field("decision", tag)]);
            }
        }
        let stats = outcome.stats;
        self.metrics.counter("sim.runs", 1);
        self.metrics.counter("sim.rounds", stats.rounds as u64);
        self.metrics
            .counter("sim.bits_broadcast", stats.bits_broadcast as u64);
        self.metrics
            .counter("sim.messages_delivered", stats.messages_delivered as u64);
        if self.trace.spans_enabled() {
            self.trace.span_end(
                "sim",
                vec![
                    field("rounds", stats.rounds),
                    field("bits_broadcast", stats.bits_broadcast),
                    field("messages_delivered", stats.messages_delivered),
                    field("completed", outcome.all_done),
                ],
            );
        }
    }
}

/// The result of simulating an algorithm on an instance.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    decisions: Vec<Decision>,
    component_labels: Vec<Option<u64>>,
    spanning_edges: Vec<Option<Vec<(u64, u64)>>>,
    views: Vec<NodeView>,
    stats: RunStats,
    all_done: bool,
    recorded: bool,
    transport_failure: Option<TransportError>,
}

impl RunOutcome {
    /// Per-vertex decisions.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The system decision per Section 1.2: YES iff every vertex says
    /// YES, otherwise NO.
    pub fn system_decision(&self) -> Decision {
        Decision::system(self.decisions.iter().copied())
    }

    /// Per-vertex component labels (for `ConnectedComponents`).
    pub fn component_labels(&self) -> &[Option<u64>] {
        &self.component_labels
    }

    /// Per-vertex spanning-structure outputs (for MST-style
    /// algorithms); `None` entries for algorithms without one.
    pub fn spanning_edges(&self) -> &[Option<Vec<(u64, u64)>>] {
        &self.spanning_edges
    }

    /// The transcript of vertex `v`: an empty record when the run was
    /// not [recorded](Self::recorded).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn transcript(&self, v: usize) -> &Transcript {
        static UNRECORDED: Transcript = Transcript {
            sent: Vec::new(),
            received: Vec::new(),
        };
        if self.recorded {
            &self.views[v].transcript
        } else {
            assert!(
                v < self.decisions.len(),
                "vertex {v} out of range for {} vertices",
                self.decisions.len()
            );
            &UNRECORDED
        }
    }

    /// The state (view) of vertex `v` — the object compared by
    /// indistinguishability arguments.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, and for every `v` when the run
    /// was not [recorded](Self::recorded): an unrecorded outcome has
    /// no views (see [`views`](Self::views)).
    pub fn view(&self, v: usize) -> &NodeView {
        &self.views[v]
    }

    /// All views, in vertex order.
    pub fn views(&self) -> &[NodeView] {
        &self.views
    }

    /// Run statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Whether every program reported done before the round limit.
    pub fn completed(&self) -> bool {
        self.all_done
    }

    /// Whether transcripts and views were recorded for this run.
    /// `false` after [`SimConfig::transcripts`]`(false)`, in which
    /// case [`views`](Self::views) is empty and the outcome cannot
    /// take part in indistinguishability comparisons.
    pub fn recorded(&self) -> bool {
        self.recorded
    }

    /// The transport failure this outcome degraded on, if any. A
    /// failed outcome has every vertex [`Decision::Undecided`], no
    /// views, default stats, and [`completed`](Self::completed) false
    /// — the same "never answers" shape a run that exhausts its round
    /// budget without deciding has, but attributable.
    pub fn transport_failure(&self) -> Option<&TransportError> {
        self.transport_failure.as_ref()
    }

    /// The degraded outcome of a run whose transport failed: `n`
    /// undecided vertices and the typed error, never a panic. Used by
    /// [`SimConfig::run`] and the batched engine when delivery fails:
    /// the transport reports an error, or its board of a round has the
    /// wrong shape.
    pub fn transport_failed(n: usize, err: TransportError) -> Self {
        RunOutcome {
            decisions: vec![Decision::Undecided; n],
            component_labels: vec![None; n],
            spanning_edges: vec![None; n],
            views: Vec::new(),
            stats: RunStats::default(),
            all_done: false,
            recorded: false,
            transport_failure: Some(err),
        }
    }
}

/// Configuration of one synchronous `BCC(b)` execution — the single
/// entry point for running an [`Algorithm`] on an [`Instance`].
///
/// Built fluently from a model constructor, then reused for any
/// number of runs:
///
/// ```
/// use bcc_model::{Instance, SimConfig, Decision, testing};
/// use bcc_graphs::generators;
///
/// let instance = Instance::new_kt1(generators::two_cycles(3, 3)).unwrap();
/// let constant_no = testing::ConstantDecision::new(Decision::No);
/// let outcome = SimConfig::bcc1(4).run(&instance, &constant_no, 0);
/// assert_eq!(outcome.system_decision(), Decision::No);
/// assert_eq!(outcome.stats().rounds, 0); // decides instantly
/// ```
///
/// The observer set by [`observe`](Self::observe) is pure: the
/// returned outcome is identical whether it records or is off, and
/// everything recorded is a pure function of
/// `(instance, algorithm, coin_seed)`, never of wall-clock time.
///
/// Round delivery goes through a [`Transport`]: explicitly via
/// [`transport`](Self::transport), else the process-wide default
/// (`--transport`), else the in-process [`LocalTransport`] oracle.
/// All accounting stays driver-side, so the outcome, trace, and
/// metrics are byte-identical across conforming transports.
///
/// [`LocalTransport`]: crate::transport::LocalTransport
#[derive(Clone)]
pub struct SimConfig {
    max_rounds: usize,
    bandwidth: usize,
    record: bool,
    observer: Observer,
    transport: Option<Arc<dyn TransportFactory>>,
}

impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimConfig")
            .field("max_rounds", &self.max_rounds)
            .field("bandwidth", &self.bandwidth)
            .field("record", &self.record)
            .field("observer", &self.observer)
            .field("transport", &self.transport.as_ref().map(|t| t.label()))
            .finish()
    }
}

impl SimConfig {
    /// A `BCC(1)` configuration with the given round limit,
    /// transcripts on, tracing and metrics off.
    pub fn bcc1(max_rounds: usize) -> Self {
        SimConfig {
            max_rounds,
            bandwidth: 1,
            record: true,
            observer: Observer::off(),
            transport: None,
        }
    }

    /// Sets the per-round broadcast bandwidth `b` (`BCC(b)`).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is zero.
    #[must_use]
    pub fn bandwidth(mut self, bandwidth: usize) -> Self {
        assert!(bandwidth >= 1, "bandwidth must be at least 1");
        self.bandwidth = bandwidth;
        self
    }

    /// Enables or disables transcript/view recording. Recording costs
    /// `Θ(rounds·n²)` heap messages — prohibitive for large
    /// performance sweeps — and is only needed by the
    /// indistinguishability machinery. With recording off,
    /// [`RunOutcome::transcript`] returns an empty record,
    /// [`RunOutcome::views`] is empty, and [`RunOutcome::view`]
    /// panics.
    #[must_use]
    pub fn transcripts(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Attaches a trace and metrics destination. Each run records a
    /// `sim` span wrapping one `round=r` span per executed round, with
    /// per-node `broadcast` events, a per-round `sim.bits_broadcast`
    /// counter, and one final `decision` event per vertex (point
    /// events at `Events` level; the counter from `Costs`; spans alone
    /// at `Spans`). It adds its aggregate statistics to the `sim.*`
    /// counters (`sim.runs`, `sim.rounds`, `sim.bits_broadcast`,
    /// `sim.messages_delivered`) at core metrics level and observes
    /// per-broadcast and per-round bit histograms
    /// (`sim.broadcast_bits`, `sim.round_bits`) at full level. Only
    /// logical quantities are recorded.
    #[must_use]
    pub fn observe(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// The round limit.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The bandwidth `b`.
    pub fn bandwidth_per_round(&self) -> usize {
        self.bandwidth
    }

    /// The attached observer (off by default).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Attaches an explicit transport factory, overriding the
    /// process-wide default for runs from this config.
    #[must_use]
    pub fn transport(mut self, factory: Arc<dyn TransportFactory>) -> Self {
        self.transport = Some(factory);
        self
    }

    /// The factory runs from this config will draw transports from:
    /// the explicit [`transport`](Self::transport) override when set,
    /// else the process-wide default
    /// ([`crate::transport::default_factory`]).
    pub fn transport_factory(&self) -> Arc<dyn TransportFactory> {
        match &self.transport {
            Some(f) => Arc::clone(f),
            None => default_factory(),
        }
    }

    /// Runs `algorithm` on `instance` with the given public-coin
    /// seed, for at most [`max_rounds`](Self::max_rounds) rounds
    /// (stopping early once every vertex reports done).
    ///
    /// A transport failure degrades — never panics — into
    /// [`RunOutcome::transport_failed`]: all vertices undecided and
    /// the typed error retrievable from
    /// [`RunOutcome::transport_failure`]. Trace spans opened before
    /// the failure are closed, so traced error paths stay balanced.
    pub fn run(
        &self,
        instance: &Instance,
        algorithm: &dyn Algorithm,
        coin_seed: u64,
    ) -> RunOutcome {
        self.run_with(instance, algorithm, coin_seed, &mut RoundBuffers::default())
    }

    /// [`run`](Self::run) with borrowed round buffers. A sweep lends
    /// one set to every run, so after the first run no outbox and no
    /// board is allocated again. The outcome does not depend on
    /// what the buffers held before. The transport is still created,
    /// opened and torn down per run.
    pub fn run_with(
        &self,
        instance: &Instance,
        algorithm: &dyn Algorithm,
        coin_seed: u64,
        buffers: &mut RoundBuffers,
    ) -> RunOutcome {
        let mut transport = self.transport_factory().create();
        let result = self.observer.with(|trace, metrics| {
            try_run_impl(
                self,
                transport.as_mut(),
                instance,
                algorithm,
                coin_seed,
                buffers,
                SimRecorder { trace, metrics },
            )
        });
        transport.teardown();
        result.unwrap_or_else(|err| RunOutcome::transport_failed(instance.num_vertices(), err))
    }
}

/// The buffers a driver refills every round: the outbox it hands the
/// transport and the view the transport delivers the board into. The
/// scalar simulator and the lockstep kernel in `bcc-engine` both take
/// them by `&mut`, so a sweep lends one set to every run or batch and,
/// after the first, allocates no outbox and no board again. Every
/// round clears the outbox and the transport overwrites the view, so
/// nothing a buffer held before reaches an outcome.
#[derive(Debug, Default)]
pub struct RoundBuffers {
    /// The round's broadcasts, one per vertex (a batch's lanes side
    /// by side, `n` rows each).
    pub outbox: Vec<Message>,
    /// The round's delivered board, refilled in place.
    pub view: RoundView,
}

/// The driver-side state of one `(instance, coin_seed)` run: its node
/// programs, their transcripts, the run's [`RunStats`] and whether
/// every program reports done. Both drivers advance runs through it —
/// [`SimConfig::run`] one at a time, the lockstep kernel in
/// `bcc-engine` one per lane — so spawning, reading a delivered board
/// through the plan, transcript recording and outcome assembly exist
/// once, and the two cannot disagree on any of them.
///
/// A round is [`broadcast`](Self::broadcast) for every vertex,
/// [`sent`](Self::sent) with the round's outbox, the transport's
/// delivery of that outbox, then [`receive`](Self::receive) with the
/// delivered board. [`finish`](Self::finish) builds the outcome.
pub struct RunState {
    programs: Vec<Box<dyn NodeProgram>>,
    transcripts: Vec<Transcript>,
    stats: RunStats,
    all_done: bool,
    bandwidth: usize,
    record: bool,
}

// The per-round methods are `#[inline]`: the batched kernel calls
// them from another crate for every lane of every round, and without
// cross-crate inlining its multi-round `twoparty` benchmark workload
// measured about 7% slower.
impl RunState {
    /// Spawns one program per vertex of `instance`, with the
    /// bandwidth and transcript recording of `cfg`. Each program's
    /// knowledge comes from the instance's shared start table; with
    /// recording off no transcripts are allocated.
    pub fn spawn(
        cfg: &SimConfig,
        instance: &Instance,
        algorithm: &dyn Algorithm,
        coin_seed: u64,
    ) -> Self {
        let mut run = RunState {
            programs: Vec::new(),
            transcripts: Vec::new(),
            stats: RunStats::default(),
            all_done: false,
            bandwidth: cfg.bandwidth,
            record: cfg.record,
        };
        run.respawn(cfg, instance, algorithm, coin_seed);
        run
    }

    /// Points this run at another `(instance, coin_seed)`, leaving it
    /// as [`spawn`](Self::spawn) would: each program that
    /// [resets](NodeProgram::reset) is kept, the others are spawned
    /// afresh, as are the programs of vertices it did not have, and
    /// the statistics, transcripts and done flag start over. A sweep
    /// keeps its runs and respawns them for every batch. `algorithm`
    /// must be the one this run's programs were spawned by.
    pub fn respawn(
        &mut self,
        cfg: &SimConfig,
        instance: &Instance,
        algorithm: &dyn Algorithm,
        coin_seed: u64,
    ) {
        let n = instance.num_vertices();
        let knowledge = |v| instance.initial_knowledge(v, cfg.bandwidth, coin_seed);
        self.programs.truncate(n);
        for (v, program) in self.programs.iter_mut().enumerate() {
            let init = knowledge(v);
            if !program.reset(&init) {
                *program = algorithm.spawn(init);
            }
        }
        let kept = self.programs.len();
        self.programs
            .extend((kept..n).map(|v| algorithm.spawn(knowledge(v))));
        self.transcripts.clear();
        if cfg.record {
            self.transcripts.resize(n, Transcript::default());
        }
        self.stats = RunStats::default();
        self.all_done = self.programs.iter().all(|p| p.is_done());
        self.bandwidth = cfg.bandwidth;
        self.record = cfg.record;
    }

    /// Whether every program reports done. A run that is done before
    /// round 0 executes no rounds.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.all_done
    }

    /// Vertex `v`'s round-`round` broadcast, normalized to the
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, or if the program broadcasts
    /// more symbols than the bandwidth allows.
    #[inline]
    pub fn broadcast(&mut self, round: usize, v: usize) -> Message {
        self.programs[v].broadcast(round).normalized(self.bandwidth)
    }

    /// Accounts one round's outbox (`outbox[v]` is vertex `v`'s
    /// broadcast): adds its bits to the statistics, records it in the
    /// transcripts when recording is on, and returns the round's bits.
    #[inline]
    pub fn sent(&mut self, outbox: &[Message]) -> usize {
        let round_bits = outbox
            .iter()
            .map(Message::bits_used)
            .fold(0, usize::saturating_add);
        self.stats.bits_broadcast = self.stats.bits_broadcast.saturating_add(round_bits);
        if self.record {
            for (transcript, m) in self.transcripts.iter_mut().zip(outbox) {
                transcript.sent.push(m.clone());
            }
        }
        round_bits
    }

    /// Hands round `round`'s delivered board to the programs: `board`
    /// is the run's `n` rows, a whole checked board for a scalar run
    /// or one lane's slice of a batch's ([`RoundView::board_of`]), and
    /// vertex `v` reads it through row `v` of `routes`, the plan of
    /// the instance the run was spawned on, as an [`Inbox`]. The
    /// inboxes are recorded in the transcripts when recording is on.
    #[inline]
    pub fn receive(&mut self, round: usize, routes: &Routes, board: &[Message]) {
        for (v, program) in self.programs.iter_mut().enumerate() {
            let inbox = Inbox::new(routes.ports(v), board);
            if self.record {
                let received = inbox.iter().map(|(label, m)| (label, m.clone())).collect();
                self.transcripts[v].received.push(received);
            }
            program.receive(round, &inbox);
        }
        let n = self.programs.len();
        self.stats.messages_delivered = self
            .stats
            .messages_delivered
            .saturating_add(n.saturating_mul(n.saturating_sub(1)));
        self.stats.rounds = round.saturating_add(1);
        self.all_done = self.programs.iter().all(|p| p.is_done());
    }

    /// The system decision per Section 1.2 over the programs' current
    /// decisions: what [`finish`](Self::finish)'s outcome would
    /// report as [`RunOutcome::system_decision`], read without
    /// building the outcome.
    pub fn system_decision(&self) -> Decision {
        Decision::system(self.programs.iter().map(|p| p.decide()))
    }

    /// The run's outcome: every program's outputs and the statistics,
    /// and — when recording is on — each vertex's [`NodeView`], which
    /// takes over the vertex's transcript. Its initial knowledge is
    /// read from the start table of `instance` (the instance the run
    /// was spawned on) and `coin_seed`. The transcripts move into the
    /// outcome, so a finished run is left to be
    /// [respawned](Self::respawn), not finished again.
    pub fn finish(&mut self, instance: &Instance, coin_seed: u64) -> RunOutcome {
        let views = std::mem::take(&mut self.transcripts)
            .into_iter()
            .enumerate()
            .map(|(v, transcript)| {
                let ik = instance.initial_knowledge(v, self.bandwidth, coin_seed);
                let mut port_labels = ik.port_labels.to_vec();
                port_labels.sort_unstable();
                NodeView {
                    id: ik.id,
                    port_labels,
                    input_port_labels: ik.input_port_labels.to_vec(),
                    transcript,
                }
            })
            .collect();
        let programs = &self.programs;
        RunOutcome {
            decisions: programs.iter().map(|p| p.decide()).collect(),
            component_labels: programs.iter().map(|p| p.component_label()).collect(),
            spanning_edges: programs.iter().map(|p| p.spanning_edges()).collect(),
            views,
            stats: self.stats,
            all_done: self.all_done,
            recorded: self.record,
            transport_failure: None,
        }
    }
}

/// The scalar execution path every entry point funnels into —
/// [`SimConfig::run`] reaches it, and the lockstep kernel in
/// `bcc-engine` pins itself against it. Each round exchanges the
/// outbox through `transport` and reads the delivered board through
/// the instance's plan; everything observable (spans, events, `sim.*`
/// metrics, transcripts) is recorded on the driver side, so
/// conforming transports cannot perturb it.
fn try_run_impl(
    cfg: &SimConfig,
    transport: &mut dyn Transport,
    instance: &Instance,
    algorithm: &dyn Algorithm,
    coin_seed: u64,
    buffers: &mut RoundBuffers,
    mut recorder: SimRecorder<'_>,
) -> Result<RunOutcome, TransportError> {
    let n = instance.num_vertices();
    // Open before the `sim` span: a spawn/handshake failure leaves no
    // half-open span behind. The plan is the instance's cached one.
    transport.open(instance.routes())?;
    let mut run = RunState::spawn(cfg, instance, algorithm, coin_seed);
    recorder.run_start(n, cfg.bandwidth, cfg.max_rounds, coin_seed);
    // One outbox and one board, lent by the caller and refilled every
    // round.
    let RoundBuffers { outbox, view } = buffers;

    for round in 0..cfg.max_rounds {
        if run.is_done() {
            break;
        }
        recorder.round_start(round);
        outbox.clear();
        outbox.extend((0..n).map(|v| run.broadcast(round, v)));
        let round_bits = run.sent(outbox);
        for (v, m) in outbox.iter().enumerate() {
            recorder.broadcast(v, m);
        }
        let delivered = transport
            .exchange_into(round, outbox, view)
            .and_then(|()| view.board_of(n));
        match delivered {
            Ok(board) => run.receive(round, instance.routes(), board),
            Err(err) => {
                recorder.abort(Some(round), &err);
                return Err(err);
            }
        }
        recorder.round_end(round, round_bits);
    }

    if let Err(err) = transport.barrier() {
        recorder.abort(None, &err);
        return Err(err);
    }
    let outcome = run.finish(instance, coin_seed);
    recorder.run_end(&outcome);
    Ok(outcome)
}

/// Checks whether two runs are *indistinguishable*: every vertex has
/// an identical [`NodeView`] (initial knowledge + transcript) in both.
/// Vertices are matched by ID, per the paper's convention that the
/// "same" vertex appears in both instances.
///
/// Returns `false` — never a vacuous `true` — when either run was
/// produced with [`SimConfig::transcripts`]`(false)`: an unrecorded
/// run has no views, so nothing can be attested about it.
/// Use [`try_runs_indistinguishable`] to distinguish "distinguishable"
/// from "unanswerable" as a typed error.
pub fn runs_indistinguishable(a: &RunOutcome, b: &RunOutcome) -> bool {
    try_runs_indistinguishable(a, b).unwrap_or(false)
}

/// Fallible form of [`runs_indistinguishable`].
///
/// # Errors
///
/// Returns [`ModelError::UnrecordedRun`] when either outcome was
/// produced without transcript recording — the comparison would
/// otherwise be over empty view sets and trivially succeed.
pub fn try_runs_indistinguishable(a: &RunOutcome, b: &RunOutcome) -> Result<bool, ModelError> {
    if !a.recorded || !b.recorded {
        return Err(ModelError::UnrecordedRun);
    }
    if a.views.len() != b.views.len() {
        return Ok(false);
    }
    let mut b_by_id: std::collections::BTreeMap<u64, &NodeView> =
        b.views.iter().map(|v| (v.id, v)).collect();
    Ok(a.views
        .iter()
        .all(|va| b_by_id.remove(&va.id).is_some_and(|vb| va == vb)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ConstantDecision, EchoBit, IdBroadcast};
    use bcc_graphs::generators;
    use bcc_trace::TraceLevel;

    #[test]
    fn constant_algorithms_decide_immediately() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let yes = SimConfig::bcc1(5).run(&i, &ConstantDecision::yes(), 0);
        assert_eq!(yes.system_decision(), Decision::Yes);
        assert!(yes.completed());
        assert_eq!(yes.stats().rounds, 0);
        let no = SimConfig::bcc1(5).run(&i, &ConstantDecision::new(Decision::No), 0);
        assert_eq!(no.system_decision(), Decision::No);
    }

    #[test]
    fn echo_transcripts_recorded() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let out = SimConfig::bcc1(3).run(&i, &EchoBit, 0);
        assert_eq!(out.stats().rounds, 3);
        for v in 0..4 {
            let t = out.transcript(v);
            assert_eq!(t.rounds(), 3);
            assert_eq!(t.received[0].len(), 3);
        }
        // Every vertex broadcast one bit per round.
        assert_eq!(out.stats().bits_broadcast, 4 * 3);
        assert_eq!(out.stats().messages_delivered, 3 * 4 * 3);
    }

    #[test]
    fn id_broadcast_reaches_everyone() {
        // Each vertex broadcasts its id bit-serially; after ceil(log2 n)
        // rounds every vertex knows the id behind every port.
        let i = Instance::new_kt0(generators::cycle(6), 11).unwrap();
        let out = SimConfig::bcc1(10).run(&i, &IdBroadcast::new(), 0);
        assert!(out.completed());
        // 6 ids in 0..6 need 3 bits.
        assert_eq!(out.stats().rounds, 3);
    }

    #[test]
    fn identical_runs_indistinguishable() {
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let a = SimConfig::bcc1(4).run(&i, &EchoBit, 7);
        let b = SimConfig::bcc1(4).run(&i, &EchoBit, 7);
        assert!(runs_indistinguishable(&a, &b));
    }

    #[test]
    fn different_inputs_distinguishable_by_views() {
        let a = Instance::new_kt0_canonical(generators::cycle(6)).unwrap();
        let b = Instance::new_kt0_canonical(generators::two_cycles(3, 3)).unwrap();
        let ra = SimConfig::bcc1(1).run(&a, &EchoBit, 0);
        let rb = SimConfig::bcc1(1).run(&b, &EchoBit, 0);
        // Input-edge port sets differ at some vertex.
        assert!(!runs_indistinguishable(&ra, &rb));
    }

    #[test]
    fn unrecorded_runs_never_vacuously_indistinguishable() {
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let cfg = SimConfig::bcc1(4).transcripts(false);
        let a = cfg.run(&i, &EchoBit, 7);
        let b = cfg.run(&i, &EchoBit, 7);
        assert!(!a.recorded());
        assert!(!runs_indistinguishable(&a, &b));
        assert_eq!(
            try_runs_indistinguishable(&a, &b),
            Err(crate::error::ModelError::UnrecordedRun)
        );
        let recorded = SimConfig::bcc1(4).run(&i, &EchoBit, 7);
        assert!(recorded.recorded());
        assert_eq!(
            try_runs_indistinguishable(&recorded, &recorded.clone()),
            Ok(true)
        );
    }

    #[test]
    fn unrecorded_outcome_has_no_views_and_empty_transcripts() {
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let out = SimConfig::bcc1(3).transcripts(false).run(&i, &EchoBit, 7);
        assert_eq!(out.stats().rounds, 3);
        assert!(out.views().is_empty());
        for v in 0..5 {
            assert_eq!(*out.transcript(v), Transcript::default());
        }
    }

    #[test]
    fn traced_run_matches_untraced_outcome() {
        let i = Instance::new_kt0(generators::cycle(5), 3).unwrap();
        let plain = SimConfig::bcc1(4).run(&i, &EchoBit, 1);
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "test"),
            MetricsBuf::disabled(),
        );
        let traced = SimConfig::bcc1(4)
            .observe(scope.clone())
            .run(&i, &EchoBit, 1);
        let buf = scope.take().0;
        // Tracing is an observer: identical outcome.
        assert_eq!(plain.decisions(), traced.decisions());
        assert_eq!(plain.stats(), traced.stats());
        assert!(runs_indistinguishable(&plain, &traced));
        // The trace has the sim span, one round span pair + n
        // broadcasts + 1 counter per round, and n decisions.
        let events = buf.into_events();
        assert!(!events.is_empty());
        assert_eq!(events[0].name, "sim");
        let rounds = plain.stats().rounds;
        let broadcasts = events.iter().filter(|e| e.name == "broadcast").count();
        assert_eq!(broadcasts, 5 * rounds);
        let decisions = events.iter().filter(|e| e.name == "decision").count();
        assert_eq!(decisions, 5);
        // Broadcast events carry the logical position in their path.
        let b0 = events.iter().find(|e| e.name == "broadcast").unwrap();
        assert_eq!(b0.path, "sim/round=0");
        // Counter totals equal the stats the report sees.
        let counted: u64 = events
            .iter()
            .filter(|e| e.name == "sim.bits_broadcast")
            .filter_map(|e| match e.field("delta") {
                Some(bcc_trace::FieldValue::UInt(d)) => Some(*d),
                _ => None,
            })
            .sum();
        assert_eq!(counted, plain.stats().bits_broadcast as u64);
    }

    #[test]
    fn metered_run_matches_unmetered_outcome() {
        use bcc_metrics::MetricsLevel;
        let i = Instance::new_kt0(generators::cycle(5), 3).unwrap();
        let plain = SimConfig::bcc1(4).run(&i, &EchoBit, 1);
        let scope = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Full, "test"),
        );
        let metered = SimConfig::bcc1(4)
            .observe(scope.clone())
            .run(&i, &EchoBit, 1);
        // Metrics are an observer: identical outcome.
        assert_eq!(plain.decisions(), metered.decisions());
        assert_eq!(plain.stats(), metered.stats());
        assert!(runs_indistinguishable(&plain, &metered));
        // The counters equal the stats the report sees.
        let (counters, _, hists) = scope.take().1.into_parts();
        let stats = plain.stats();
        assert_eq!(counters.get("sim.runs"), Some(&1));
        assert_eq!(counters.get("sim.rounds"), Some(&(stats.rounds as u64)));
        assert_eq!(
            counters.get("sim.bits_broadcast"),
            Some(&(stats.bits_broadcast as u64))
        );
        assert_eq!(
            counters.get("sim.messages_delivered"),
            Some(&(stats.messages_delivered as u64))
        );
        // Full level: one round_bits sample per round, summing to the
        // total bits; one broadcast_bits sample per (node, round).
        let rb = hists.get("sim.round_bits").expect("round_bits hist");
        assert_eq!(rb.count, stats.rounds as u64);
        assert_eq!(rb.sum, stats.bits_broadcast as u64);
        let bb = hists
            .get("sim.broadcast_bits")
            .expect("broadcast_bits hist");
        assert_eq!(bb.count, (5 * stats.rounds) as u64);
        // Core level drops the histograms but keeps the counters.
        let core = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Core, "test"),
        );
        SimConfig::bcc1(4)
            .observe(core.clone())
            .run(&i, &EchoBit, 1);
        let (c, _, h) = core.take().1.into_parts();
        assert_eq!(c.get("sim.runs"), Some(&1));
        assert!(h.is_empty());
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let i = Instance::new_kt0(generators::two_cycles(3, 4), 9).unwrap();
        let run = || {
            let scope = Observer::new(
                TraceBuf::new(TraceLevel::Events, "u"),
                MetricsBuf::disabled(),
            );
            SimConfig::bcc1(6)
                .observe(scope.clone())
                .run(&i, &EchoBit, 42);
            scope.take().0.into_events()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spans_level_records_rounds_without_broadcasts() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Spans, "u"),
            MetricsBuf::disabled(),
        );
        SimConfig::bcc1(2)
            .observe(scope.clone())
            .run(&i, &EchoBit, 0);
        let events = scope.take().0.into_events();
        assert!(events.iter().all(|e| {
            matches!(
                e.kind,
                bcc_trace::EventKind::SpanStart | bcc_trace::EventKind::SpanEnd
            )
        }));
        assert!(events.iter().any(|e| e.name == "round=1"));
    }

    #[test]
    fn bandwidth_enforced() {
        let cfg = SimConfig::bcc1(2).bandwidth(4);
        assert_eq!(cfg.bandwidth_per_round(), 4);
        assert_eq!(cfg.max_rounds(), 2);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be at least 1")]
    fn zero_bandwidth_rejected() {
        let _ = SimConfig::bcc1(1).bandwidth(0);
    }

    #[test]
    fn explicit_local_transport_matches_default() {
        use crate::transport::LocalFactory;
        let i = Instance::new_kt0(generators::two_cycles(3, 4), 5).unwrap();
        let default = SimConfig::bcc1(6).run(&i, &EchoBit, 3);
        let explicit = SimConfig::bcc1(6)
            .transport(std::sync::Arc::new(LocalFactory))
            .run(&i, &EchoBit, 3);
        assert_eq!(default.decisions(), explicit.decisions());
        assert_eq!(default.stats(), explicit.stats());
        assert!(runs_indistinguishable(&default, &explicit));
        assert!(explicit.transport_failure().is_none());
    }

    /// A factory whose transports die on the configured round.
    struct DyingFactory {
        at_round: usize,
    }

    struct DyingTransport {
        inner: crate::transport::LocalTransport,
        at_round: usize,
    }

    impl crate::transport::Transport for DyingTransport {
        fn open(&mut self, routes: &crate::transport::Routes) -> Result<(), TransportError> {
            self.inner.open(routes)
        }

        fn exchange(
            &mut self,
            round: usize,
            outbox: &[Message],
        ) -> Result<crate::transport::RoundView, TransportError> {
            if round >= self.at_round {
                return Err(TransportError::WorkerDead {
                    rank: 0,
                    detail: "test kill".to_string(),
                    postmortem: None,
                });
            }
            self.inner.exchange(round, outbox)
        }
    }

    impl TransportFactory for DyingFactory {
        fn create(&self) -> Box<dyn crate::transport::Transport> {
            Box::new(DyingTransport {
                inner: crate::transport::LocalTransport::new(),
                at_round: self.at_round,
            })
        }

        fn label(&self) -> String {
            "dying".to_string()
        }
    }

    #[test]
    fn dead_transport_degrades_with_typed_error_and_balanced_spans() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let factory: Arc<dyn TransportFactory> = Arc::new(DyingFactory { at_round: 1 });
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "t"),
            MetricsBuf::disabled(),
        );
        let cfg = SimConfig::bcc1(5)
            .transport(Arc::clone(&factory))
            .observe(scope.clone());
        // The run degrades to all-undecided, never panics.
        let out = cfg.run(&i, &EchoBit, 0);
        assert!(matches!(
            out.transport_failure(),
            Some(TransportError::WorkerDead { rank: 0, .. })
        ));
        assert!(out.decisions().contains(&Decision::Undecided));
        assert_eq!(out.system_decision(), Decision::No);
        assert!(!out.completed());
        assert!(!out.recorded());
        // Every span the failing run opened was closed.
        let events = scope.take().0.into_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, bcc_trace::EventKind::SpanStart))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, bcc_trace::EventKind::SpanEnd))
            .count();
        assert_eq!(starts, ends);
        assert!(events.iter().any(|e| e.name == "transport.error"));
    }
}
