//! The batched lockstep kernel: up to 64 same-shape instances advance
//! through one shared round loop and one transport session.
//!
//! A [`BatchRun`] executes one [`Algorithm`] under one [`SimConfig`]
//! on a list of *lanes* — `(instance, coin_seed)` pairs — cut into
//! batches of `L ≤ 64` contiguous lanes over graphs with the same
//! vertex count. Each round every active lane writes its `n`
//! broadcasts into its slice of one `L·n` outbox, the batch is
//! delivered in one exchange as one `L·n` board, and each lane's
//! vertices read the lane's slice of the board through the lane's own
//! cached plan ([`Instance::routes`]). No plan is copied or stacked:
//! lanes never mix, because a lane only ever indexes its own slice.
//! The per-lane [`RunOutcome`]s are byte-identical to scalar
//! [`SimConfig::run`] calls (pinned by the equivalence proptests in
//! `tests/`): same decisions, transcripts, views, stats, in the same
//! per-lane round counts. Each lane is a [`RunState`], the per-run
//! state the scalar simulator drives too, so spawning, reading the
//! board, transcripts and outcome assembly are shared; the kernel owns
//! only the batching, the board's one length check, the active mask
//! and its `engine.*` records. A call keeps
//! one pool of runs from batch to batch and
//! [respawns](RunState::respawn) it, so programs that can
//! [reset](bcc_model::NodeProgram::reset) are not allocated again.
//!
//! Lanes retire independently: a lane whose programs all report done
//! drops out of the `u64` active mask and stops paying for rounds,
//! exactly as its scalar run would have stopped — it only pads its
//! outbox slice with empty messages — and the remaining lanes keep
//! going until the mask is empty or the round limit hits. What the
//! batch saves is the per-round control overhead and the transport
//! sessions: one per 64 runs instead of one per run.

use bcc_metrics::MetricsBuf;
use bcc_model::transport::{Transport, TransportError};
use bcc_model::{Algorithm, Instance, Message, RoundBuffers, RunOutcome, RunState, SimConfig};
use bcc_trace::{field, TraceBuf};

/// The lane-width ceiling: one bit per lane in the `u64` active mask.
pub const MAX_LANES: usize = 64;

/// One batch member: the instance to run and its public-coin seed.
pub type Lane<'a> = (&'a Instance, u64);

/// The batched executor. Construction is cheap; one value can run any
/// number of batches.
#[derive(Debug, Clone)]
pub struct BatchRun {
    cfg: SimConfig,
}

impl BatchRun {
    /// A batched executor with the given scalar-equivalent
    /// configuration (round limit, bandwidth, transcript recording,
    /// observer).
    pub fn new(cfg: SimConfig) -> Self {
        BatchRun { cfg }
    }

    /// Runs `algorithm` on every lane and returns one outcome per
    /// lane, in lane order. Each outcome is byte-identical to the
    /// configuration's scalar [`SimConfig::run`] of that lane's
    /// instance and seed.
    ///
    /// Any lane list is accepted: it is cut into maximal contiguous
    /// slices of at most [`MAX_LANES`] lanes with one vertex count,
    /// and each slice runs as one lockstep batch in its own transport
    /// session: each round is one exchange of an `L·n` outbox, and
    /// each active lane's vertices read its `n` rows of the board
    /// through the lane's cached plan ([`Instance::routes`]). The
    /// trace and all accounting stay driver-side, so outcomes do not
    /// depend on the backend. An empty list runs nothing.
    ///
    /// A batch whose transport fails — it reports an error, or
    /// delivers a board of the wrong length, a
    /// [`TransportError::Protocol`] — closes its open spans and
    /// degrades only its own lanes, to all-`Undecided`, unrecorded
    /// outcomes carrying the error in
    /// [`transport_failure`](RunOutcome::transport_failure).
    ///
    /// When the configuration's observer traces, each batch records
    /// a `batch` span wrapping one `round=r` span per executed round
    /// with `active_lanes` / `bits_broadcast` counters — an aggregate
    /// view, not the per-node scalar trace.
    pub fn run(&self, lanes: &[Lane<'_>], algorithm: &dyn Algorithm) -> Vec<RunOutcome> {
        let mut outcomes = Vec::with_capacity(lanes.len());
        self.sweep(lanes, algorithm, |batch, runs, result| match result {
            Ok(()) => outcomes.extend(
                runs.iter_mut()
                    .zip(batch)
                    .map(|(run, &(inst, seed))| run.finish(inst, seed)),
            ),
            Err(err) => {
                outcomes.extend(batch.iter().map(|(inst, _)| {
                    RunOutcome::transport_failed(inst.num_vertices(), err.clone())
                }))
            }
        });
        outcomes
    }

    /// The one batching loop: cuts `lanes` into maximal contiguous
    /// slices of at most [`MAX_LANES`] lanes sharing one vertex count,
    /// runs each as one batch, and hands `each` the slice, its
    /// finished runs (`runs[i]` is lane `i`'s) and the batch's result.
    /// Every batch refills one outbox and one board and respawns one
    /// pool of runs, so after the first batch a lane's programs are
    /// reset, not spawned, wherever they can be. On an error the runs
    /// hold no usable result.
    pub(crate) fn sweep(
        &self,
        lanes: &[Lane<'_>],
        algorithm: &dyn Algorithm,
        mut each: impl FnMut(&[Lane<'_>], &mut [RunState], Result<(), TransportError>),
    ) {
        let mut buffers = RoundBuffers::default();
        let mut runs = Vec::with_capacity(MAX_LANES.min(lanes.len()));
        let mut rest = lanes;
        while let Some(&(first, _)) = rest.first() {
            let n = first.num_vertices();
            let width = rest
                .iter()
                .take(MAX_LANES)
                .take_while(|(inst, _)| inst.num_vertices() == n)
                .count();
            let (batch, tail) = rest.split_at(width);
            let result = self.advance(batch, algorithm, &mut buffers, &mut runs);
            each(batch, &mut runs, result);
            rest = tail;
        }
    }

    /// Runs one batch in its own transport session and leaves lane
    /// `i`'s finished run in `runs[i]`. The runs `runs` already holds
    /// are [respawned](RunState::respawn) onto the lanes and the
    /// missing ones spawned; they must come from `algorithm`.
    fn advance(
        &self,
        lanes: &[Lane<'_>],
        algorithm: &dyn Algorithm,
        buffers: &mut RoundBuffers,
        runs: &mut Vec<RunState>,
    ) -> Result<(), TransportError> {
        runs.truncate(lanes.len());
        for (run, &(inst, seed)) in runs.iter_mut().zip(lanes) {
            run.respawn(&self.cfg, inst, algorithm, seed);
        }
        let kept = runs.len();
        runs.extend(
            lanes[kept..]
                .iter()
                .map(|&(inst, seed)| RunState::spawn(&self.cfg, inst, algorithm, seed)),
        );
        let mut transport = self.cfg.transport_factory().create();
        let result = self.cfg.observer().with(|trace, metrics| {
            run_batch_impl(
                &self.cfg,
                &mut *transport,
                lanes,
                runs,
                buffers,
                trace,
                metrics,
            )
        });
        transport.teardown();
        result
    }
}

/// Closes any open spans so a transport failure leaves the trace
/// balanced, mirroring the scalar simulator's abort path.
fn abort_batch(
    trace: &mut TraceBuf,
    open_round: Option<usize>,
    err: TransportError,
) -> TransportError {
    if trace.events_enabled() {
        trace.event("transport.error", vec![field("error", err.to_string())]);
    }
    if trace.spans_enabled() {
        if let Some(round) = open_round {
            trace.span_end(&format!("round={round}"), vec![]);
        }
        trace.span_end("batch", vec![field("error", err.to_string())]);
    }
    err
}

/// The one lockstep round loop: advances lane `i`'s freshly
/// (re)spawned `runs[i]` until every lane is done or the round limit
/// hits.
fn run_batch_impl(
    cfg: &SimConfig,
    transport: &mut dyn Transport,
    lanes: &[Lane<'_>],
    runs: &mut [RunState],
    buffers: &mut RoundBuffers,
    trace: &mut TraceBuf,
    metrics: &mut MetricsBuf,
) -> Result<(), TransportError> {
    // The sweep hands over 1..=MAX_LANES lanes with one vertex count.
    let l = lanes.len();
    let n = lanes[0].0.num_vertices();
    // The open happens before the batch span starts, so an open
    // failure returns with no spans to unwind. The session's plan is
    // the first lane's: every lane shares its vertex count, and each
    // lane reads the board through its own plan below.
    transport.open(lanes[0].0.routes())?;
    let b = cfg.bandwidth_per_round();
    // Executed rounds and their total broadcast bits, for the
    // end-of-batch `batch` span and `engine.*` counters.
    let (mut rounds_run, mut total_bits) = (0u64, 0u64);

    // A lane whose programs are done before round 0 executes zero
    // rounds, as its scalar run does.
    let mut active: u64 = (0..l)
        .filter(|&i| !runs[i].is_done())
        .fold(0, |m, i| m | 1 << i);

    if trace.spans_enabled() {
        trace.span_start(
            "batch",
            vec![
                field("lanes", l),
                field("n", n),
                field("bandwidth", b),
                field("max_rounds", cfg.max_rounds()),
            ],
        );
    }

    // One outbox and one board, lent by the caller and refilled every
    // round: lane `i`'s vertices are rows `i·n..(i + 1)·n` of both.
    let RoundBuffers { outbox, view } = buffers;
    outbox.clear();
    outbox.reserve(l * n);
    for round in 0..cfg.max_rounds() {
        if active == 0 {
            break;
        }
        if trace.spans_enabled() {
            trace.span_start(&format!("round={round}"), vec![]);
        }
        // Every active lane broadcasts into its slice of the outbox (a
        // retired lane sends empty messages), and the whole batch is
        // delivered in one exchange.
        outbox.clear();
        for (lane, run) in runs.iter_mut().enumerate() {
            if active >> lane & 1 == 0 {
                outbox.resize(outbox.len() + n, Message::silent(0));
            } else {
                outbox.extend((0..n).map(|v| run.broadcast(round, v)));
            }
        }
        // One length check covers every lane, retired ones included.
        let delivered = transport
            .exchange_into(round, outbox, view)
            .and_then(|()| view.board_of(l * n));
        let board = match delivered {
            Ok(board) => board,
            Err(err) => return Err(abort_batch(trace, Some(round), err)),
        };
        // Account each active lane's broadcasts and let its programs
        // read their own rows of the board.
        let mut round_bits = 0usize;
        for (lane, (run, &(inst, _))) in runs.iter_mut().zip(lanes).enumerate() {
            if active >> lane & 1 == 0 {
                continue;
            }
            let rows = lane * n..(lane + 1) * n;
            round_bits = round_bits.saturating_add(run.sent(&outbox[rows.clone()]));
            run.receive(round, inst.routes(), &board[rows]);
        }
        // Cost records carry the canonical dotted names so the
        // profiler can join them against the metrics dump.
        if trace.costs_enabled() {
            trace.counter("engine.active_lanes", u64::from(active.count_ones()));
            trace.counter("engine.round_bits", round_bits as u64);
        }
        // A lane-occupancy gauge sample per executed round and (at
        // full level) a per-round broadcast-bits histogram sample.
        metrics.gauge("engine.active_lanes", u64::from(active.count_ones()));
        metrics.full_observe("engine.round_bits", round_bits as u64);
        rounds_run = rounds_run.saturating_add(1);
        total_bits = total_bits.saturating_add(round_bits as u64);
        if trace.spans_enabled() {
            trace.span_end(&format!("round={round}"), vec![]);
        }
        // Retire lanes whose programs all finished this round.
        for (lane, run) in runs.iter().enumerate() {
            if run.is_done() {
                active &= !(1 << lane);
            }
        }
    }

    if let Err(err) = transport.barrier() {
        return Err(abort_batch(trace, None, err));
    }

    if trace.spans_enabled() {
        // Every executed round had an active lane, so the rounds run
        // are the longest lane's round count.
        trace.span_end(
            "batch",
            vec![
                field("rounds", rounds_run),
                field(
                    "completed_lanes",
                    runs.iter().filter(|r| r.is_done()).count(),
                ),
            ],
        );
    }
    metrics.counter("engine.batches", 1);
    metrics.counter("engine.lanes", l as u64);
    metrics.counter("engine.rounds", rounds_run);
    // Core-level total of the same quantity the full-level histogram
    // samples per round, so profile attribution can join against core
    // dumps too.
    metrics.counter("engine.round_bits", total_bits);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;
    use bcc_model::testing::{ConstantDecision, EchoBit, IdBroadcast, SymbolMix};
    use bcc_model::{runs_indistinguishable, Decision, Inbox, InitialKnowledge, NodeProgram};

    fn assert_outcomes_equal(batched: &RunOutcome, scalar: &RunOutcome) {
        assert_eq!(batched.decisions(), scalar.decisions());
        assert_eq!(batched.component_labels(), scalar.component_labels());
        assert_eq!(batched.spanning_edges(), scalar.spanning_edges());
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.completed(), scalar.completed());
        assert_eq!(batched.recorded(), scalar.recorded());
        if scalar.recorded() {
            assert!(runs_indistinguishable(batched, scalar));
            for v in 0..batched.decisions().len() {
                assert_eq!(batched.transcript(v), scalar.transcript(v));
            }
        }
    }

    #[test]
    fn single_lane_matches_scalar() {
        let i = Instance::new_kt0(generators::cycle(6), 11).unwrap();
        let cfg = SimConfig::bcc1(10);
        let batched = BatchRun::new(cfg.clone()).run(&[(&i, 0)], &IdBroadcast::new());
        let scalar = cfg.run(&i, &IdBroadcast::new(), 0);
        assert_outcomes_equal(&batched[0], &scalar);
    }

    /// Whether every span that opened in `events` also closed.
    fn spans_balanced(events: &[bcc_trace::Event]) -> bool {
        use bcc_trace::EventKind;
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        count(EventKind::SpanStart) == count(EventKind::SpanEnd)
    }

    /// Every vertex broadcasts `1` until `coin_seed` rounds have run,
    /// then reports done: lanes with different seeds retire at
    /// different rounds.
    struct RetiresAtSeed;

    struct RetiresAtSeedNode {
        rounds: u64,
        stop: u64,
    }

    impl Algorithm for RetiresAtSeed {
        fn name(&self) -> &str {
            "retires-at-seed"
        }

        fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
            Box::new(RetiresAtSeedNode {
                rounds: 0,
                stop: init.coin_seed,
            })
        }
    }

    impl NodeProgram for RetiresAtSeedNode {
        fn broadcast(&mut self, _round: usize) -> Message {
            Message::from_bits(1, 1)
        }

        fn receive(&mut self, _round: usize, _inbox: &Inbox) {
            self.rounds += 1;
        }

        fn decide(&self) -> Decision {
            Decision::Yes
        }

        fn is_done(&self) -> bool {
            self.rounds >= self.stop
        }
    }

    #[test]
    fn mixed_instances_retire_independently() {
        // Different n would be rejected; different inputs and seeds
        // are the point. `RetiresAtSeed` lanes finish at different
        // rounds.
        let a = Instance::new_kt0(generators::cycle(6), 3).unwrap();
        let b = Instance::new_kt0(generators::two_cycles(3, 3), 40).unwrap();
        let cfg = SimConfig::bcc1(12);
        let lanes: Vec<Lane<'_>> = vec![(&a, 0), (&b, 0), (&a, 9), (&b, 7)];
        let algorithms: [&dyn Algorithm; 2] = [&IdBroadcast::new(), &RetiresAtSeed];
        for algorithm in algorithms {
            let batched = BatchRun::new(cfg.clone()).run(&lanes, algorithm);
            for (lane, out) in lanes.iter().zip(&batched) {
                let scalar = cfg.run(lane.0, algorithm, lane.1);
                assert_outcomes_equal(out, &scalar);
            }
        }
    }

    #[test]
    fn instantly_done_lane_runs_zero_rounds() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let cfg = SimConfig::bcc1(5);
        let out = BatchRun::new(cfg.clone()).run(&[(&i, 0)], &ConstantDecision::yes());
        assert_eq!(out[0].stats().rounds, 0);
        assert_eq!(out[0].system_decision(), Decision::Yes);
        assert!(out[0].completed());
    }

    #[test]
    fn wide_bandwidth_lanes_match_scalar() {
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        // Narrow, the last inline width, and the first heap width.
        for b in [3, 64, 65] {
            let cfg = SimConfig::bcc1(4).bandwidth(b);
            let algorithms: [&dyn Algorithm; 2] = [&EchoBit, &SymbolMix];
            for algorithm in algorithms {
                let batched = BatchRun::new(cfg.clone()).run(&[(&i, 1), (&i, 2)], algorithm);
                for (lane, seed) in [(0usize, 1u64), (1, 2)] {
                    assert_outcomes_equal(&batched[lane], &cfg.run(&i, algorithm, seed));
                }
            }
        }
    }

    #[test]
    fn transcripts_off_produces_unrecorded_outcomes() {
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let cfg = SimConfig::bcc1(4).transcripts(false);
        let out = BatchRun::new(cfg.clone()).run(&[(&i, 7)], &EchoBit);
        assert!(!out[0].recorded());
        assert!(out[0].views().is_empty());
        assert_eq!(out[0].stats(), cfg.run(&i, &EchoBit, 7).stats());
    }

    /// `run` takes any lane list. These 70 lanes mix n = 5 and n = 4
    /// and run as four batches: 3 lanes at n = 5, 64 and 1 at n = 4,
    /// then 2 at n = 5. Every lane equals its scalar run, and a
    /// transport that dies in round 1 of the 64-lane batch degrades
    /// only that batch's lanes; the next batch respawns the pool from
    /// its half-run lanes. An empty list runs nothing.
    #[test]
    fn run_sweeps_mixed_lanes_and_degrades_per_batch() {
        use bcc_algorithms::HashVoteDecider;
        use bcc_model::transport::{
            LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
        };
        use bcc_trace::{Observer, TraceLevel};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Session 1 dies from round 1 on; the others deliver.
        struct Dying(LocalTransport, bool);
        impl Transport for Dying {
            fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
                self.0.open(routes)
            }
            fn exchange(
                &mut self,
                round: usize,
                outbox: &[Message],
            ) -> Result<RoundView, TransportError> {
                if self.1 && round >= 1 {
                    return Err(TransportError::WorkerDead {
                        rank: 0,
                        detail: "test".to_string(),
                        postmortem: None,
                    });
                }
                self.0.exchange(round, outbox)
            }
        }
        struct SecondDies(AtomicUsize);
        impl TransportFactory for SecondDies {
            fn create(&self) -> Box<dyn Transport> {
                let session = self.0.fetch_add(1, Ordering::Relaxed);
                Box::new(Dying(LocalTransport::new(), session == 1))
            }
            fn label(&self) -> String {
                "second-dies".to_string()
            }
        }

        let four: Vec<Instance> = (0..65)
            .map(|s| Instance::new_kt0(generators::cycle(4), s).unwrap())
            .collect();
        let five: Vec<Instance> = (0..5)
            .map(|s| Instance::new_kt0(generators::cycle(5), s).unwrap())
            .collect();
        let lanes: Vec<Lane<'_>> = five[..3]
            .iter()
            .chain(&four)
            .chain(&five[3..])
            .zip(0u64..)
            .collect();
        assert_eq!(lanes.len(), 70);
        let dead = 3..3 + MAX_LANES;
        let cfg = SimConfig::bcc1(4);
        let algorithms: [&dyn Algorithm; 2] = [&IdBroadcast::new(), &HashVoteDecider::new(3)];
        for algorithm in algorithms {
            let batched = BatchRun::new(cfg.clone()).run(&lanes, algorithm);
            assert_eq!(batched.len(), lanes.len());
            for (out, &(inst, seed)) in batched.iter().zip(&lanes) {
                assert_outcomes_equal(out, &cfg.run(inst, algorithm, seed));
            }

            let scope = Observer::new(
                TraceBuf::new(TraceLevel::Spans, "batch-test"),
                MetricsBuf::disabled(),
            );
            let dying = cfg
                .clone()
                .observe(scope.clone())
                .transport(Arc::new(SecondDies(AtomicUsize::new(0))));
            let degraded = BatchRun::new(dying).run(&lanes, algorithm);
            for (lane, (out, ok)) in degraded.iter().zip(&batched).enumerate() {
                if dead.contains(&lane) {
                    assert!(out.transport_failure().is_some(), "lane {lane}");
                    assert!(out.decisions().iter().all(|d| *d == Decision::Undecided));
                } else {
                    assert_outcomes_equal(out, ok);
                }
            }
            let events = scope.take().0.into_events();
            assert!(spans_balanced(&events));
            let batches = events.iter().filter(|e| e.name == "batch").count();
            assert_eq!(batches, 2 * 4, "four batch spans, opened and closed");
            assert!(BatchRun::new(cfg.clone()).run(&[], algorithm).is_empty());
        }
    }

    #[test]
    fn explicit_local_transport_matches_default() {
        use bcc_model::transport::LocalFactory;
        use std::sync::Arc;
        let i = Instance::new_kt0(generators::cycle(6), 11).unwrap();
        let cfg = SimConfig::bcc1(10);
        let explicit = BatchRun::new(cfg.clone().transport(Arc::new(LocalFactory)))
            .run(&[(&i, 0), (&i, 3)], &IdBroadcast::new());
        let default = BatchRun::new(cfg).run(&[(&i, 0), (&i, 3)], &IdBroadcast::new());
        for (a, b) in explicit.iter().zip(&default) {
            assert_outcomes_equal(a, b);
        }
    }

    #[test]
    fn dead_transport_degrades_every_lane_with_balanced_spans() {
        use bcc_model::transport::{
            RoundView, Routes, Transport, TransportError, TransportFactory,
        };
        use bcc_trace::{Observer, TraceLevel};

        struct Dying;
        impl Transport for Dying {
            fn open(&mut self, _: &Routes) -> Result<(), TransportError> {
                Ok(())
            }
            fn exchange(
                &mut self,
                _round: usize,
                _outbox: &[Message],
            ) -> Result<RoundView, TransportError> {
                Err(TransportError::WorkerDead {
                    rank: 0,
                    detail: "test".to_string(),
                    postmortem: None,
                })
            }
        }
        struct DyingFactory;
        impl TransportFactory for DyingFactory {
            fn create(&self) -> Box<dyn Transport> {
                Box::new(Dying)
            }
            fn label(&self) -> String {
                "dying".to_string()
            }
        }

        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "batch-test"),
            MetricsBuf::disabled(),
        );
        let cfg = SimConfig::bcc1(3)
            .observe(scope.clone())
            .transport(std::sync::Arc::new(DyingFactory));
        let out = BatchRun::new(cfg).run(&[(&i, 0), (&i, 1)], &EchoBit);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(matches!(
                o.transport_failure(),
                Some(TransportError::WorkerDead { .. })
            ));
            assert!(o.decisions().iter().all(|d| *d == Decision::Undecided));
            assert_eq!(o.system_decision(), Decision::No);
            assert!(!o.completed());
            assert!(!o.recorded());
        }
        let events = scope.take().0.into_events();
        assert!(spans_balanced(&events));
        assert!(events.iter().any(|e| e.name == "transport.error"));
    }

    #[test]
    fn board_of_the_wrong_length_is_a_protocol_error() {
        use bcc_model::transport::{
            LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
        };
        use bcc_trace::{Observer, TraceLevel};

        /// How a board differs from the oracle's.
        #[derive(Clone, Copy)]
        enum Skew {
            /// One stray message at the end.
            Extra,
            /// The last message is missing once the last lane has
            /// retired (its outbox slice is empty messages).
            DropRetired,
        }
        struct Skewed(LocalTransport, Skew);
        impl Transport for Skewed {
            fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
                self.0.open(routes)
            }
            fn exchange(
                &mut self,
                round: usize,
                outbox: &[Message],
            ) -> Result<RoundView, TransportError> {
                let mut board = self.0.exchange(round, outbox)?.board().to_vec();
                match self.1 {
                    Skew::Extra => board.push(board[0].clone()),
                    Skew::DropRetired => {
                        if outbox.last().is_some_and(Message::is_empty) {
                            board.pop();
                        }
                    }
                }
                Ok(RoundView::new(board))
            }
        }
        struct SkewedFactory(Skew);
        impl TransportFactory for SkewedFactory {
            fn create(&self) -> Box<dyn Transport> {
                Box::new(Skewed(LocalTransport::new(), self.0))
            }
            fn label(&self) -> String {
                "skewed".to_string()
            }
        }

        let ring = Instance::new_kt0(generators::cycle(5), 4).unwrap();
        let a = Instance::new_kt0(generators::cycle(6), 3).unwrap();
        let b = Instance::new_kt0(generators::two_cycles(3, 3), 40).unwrap();
        let cases: [(Skew, Vec<Lane<'_>>, &dyn Algorithm, &str); 2] = [
            (
                Skew::Extra,
                vec![(&ring, 0), (&ring, 1)],
                &EchoBit,
                "round view covers 11 of 10 nodes",
            ),
            // The last lane retires after round 0 and the first after
            // round 2, so round 1 cuts the board inside a retired lane,
            // which the one length check still sees.
            (
                Skew::DropRetired,
                vec![(&a, 3), (&b, 1)],
                &RetiresAtSeed,
                "round view covers 11 of 12 nodes",
            ),
        ];
        for (skew, lanes, algorithm, want) in cases {
            let scope = Observer::new(
                TraceBuf::new(TraceLevel::Events, "batch-test"),
                MetricsBuf::disabled(),
            );
            let cfg = SimConfig::bcc1(3)
                .observe(scope.clone())
                .transport(std::sync::Arc::new(SkewedFactory(skew)));
            let out = BatchRun::new(cfg).run(&lanes, algorithm);
            for o in &out {
                match o.transport_failure() {
                    Some(TransportError::Protocol { detail, .. }) => assert_eq!(detail, want),
                    other => panic!("expected a protocol error, got {other:?}"),
                }
            }
            let events = scope.take().0.into_events();
            assert!(spans_balanced(&events), "{want}: unbalanced spans");
        }
    }

    #[test]
    fn batch_metrics_record_shape_and_occupancy() {
        use bcc_metrics::MetricsLevel;
        use bcc_trace::Observer;
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let scope = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Full, "batch-test"),
        );
        let cfg = SimConfig::bcc1(3).observe(scope.clone());
        let out = BatchRun::new(cfg.clone()).run(&[(&i, 0), (&i, 1)], &EchoBit);
        // Metrics are an observer: outcome identical to unmetered.
        let plain = BatchRun::new(SimConfig::bcc1(3)).run(&[(&i, 0), (&i, 1)], &EchoBit);
        assert_eq!(out[0].decisions(), plain[0].decisions());
        assert_eq!(out[1].stats(), plain[1].stats());
        let (counters, gauges, hists) = scope.take().1.into_parts();
        assert_eq!(counters.get("engine.batches"), Some(&1));
        assert_eq!(counters.get("engine.lanes"), Some(&2));
        let rounds = *counters.get("engine.rounds").unwrap();
        assert_eq!(
            rounds,
            plain.iter().map(|o| o.stats().rounds).max().unwrap() as u64
        );
        let occ = gauges.get("engine.active_lanes").expect("occupancy gauge");
        assert_eq!(occ.count, rounds);
        assert_eq!(occ.max, 2);
        let rb = hists.get("engine.round_bits").expect("round_bits hist");
        assert_eq!(rb.count, rounds);
        assert_eq!(
            rb.sum,
            plain
                .iter()
                .map(|o| o.stats().bits_broadcast as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn batch_trace_records_round_spans() {
        use bcc_trace::{Observer, TraceLevel};
        let i = Instance::new_kt0(generators::cycle(5), 2).unwrap();
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "batch-test"),
            MetricsBuf::disabled(),
        );
        let cfg = SimConfig::bcc1(3).observe(scope.clone());
        let out = BatchRun::new(cfg.clone()).run(&[(&i, 0), (&i, 1)], &EchoBit);
        let events = scope.take().0.into_events();
        assert_eq!(events[0].name, "batch");
        assert!(events.iter().any(|e| e.name == "round=2"));
        assert!(events.iter().any(|e| e.name == "engine.active_lanes"));
        assert!(events.iter().any(|e| e.name == "engine.round_bits"));
        // Tracing is an observer: outcome identical to untraced batch.
        let plain = BatchRun::new(SimConfig::bcc1(3)).run(&[(&i, 0), (&i, 1)], &EchoBit);
        assert_eq!(out[0].decisions(), plain[0].decisions());
        assert_eq!(out[1].stats(), plain[1].stats());
    }
}
