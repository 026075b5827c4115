//! The batched lockstep kernel: up to 64 same-shape instances advance
//! through one shared round loop, with every broadcast character
//! bit-packed across lanes.
//!
//! A [`BatchRun`] executes one [`Algorithm`] under one [`SimConfig`]
//! on `L ≤ 64` *lanes* — `(instance, coin_seed)` pairs over graphs
//! with the same vertex count. Each round, the kernel packs the
//! `{0, 1, ⊥}` broadcast of every lane into two `u64` words per
//! `(node, symbol position)` — a `ones` word and a `silent` word, one
//! bit per lane — and then *reconstructs* every delivered message from
//! those words. The packed words are the real data path, not a side
//! channel, so the per-lane [`RunOutcome`]s are byte-identical to `L`
//! scalar [`SimConfig::run`] calls (pinned by the equivalence
//! proptests in `tests/`): same decisions, transcripts, views, stats,
//! in the same per-lane round counts. Each lane is a [`RunState`], the
//! per-run state the scalar simulator drives too, so spawning, view
//! checks, transcripts and outcome assembly are shared; the kernel
//! owns only the packing, the active mask and its `engine.*` records.
//!
//! Lanes retire independently: a lane whose programs all report done
//! drops out of the active mask and stops paying for rounds, exactly
//! as its scalar run would have stopped — the remaining lanes keep
//! going until the mask is empty or the round limit hits. What the
//! batch saves is the per-round control overhead and the cache
//! locality of touching each round's machinery once for 64 runs
//! instead of 64 times.

use bcc_metrics::MetricsBuf;
use bcc_model::transport::{RoundView, Routes, Transport, TransportError};
use bcc_model::{Algorithm, Instance, Message, RunOutcome, RunState, SimConfig, Symbol};
use bcc_trace::{field, TraceBuf};

/// The lane-width ceiling: one bit per lane in a `u64` word.
pub const MAX_LANES: usize = 64;

/// One batch member: the instance to run and its public-coin seed.
pub type Lane<'a> = (&'a Instance, u64);

/// The broadcast characters of one round, bit-packed across lanes:
/// `words[v * bandwidth + k]` holds the `(ones, silent)` pair for
/// symbol position `k` of node `v`, bit `i` describing lane `i`.
/// A lane's symbol is `⊥` if its `silent` bit is set, else the bit in
/// `ones`. Inactive lanes keep both bits clear; their slots are never
/// read back.
#[derive(Debug, Clone)]
struct PackedRound {
    words: Vec<(u64, u64)>,
    bandwidth: usize,
}

impl PackedRound {
    fn new(n: usize, bandwidth: usize) -> Self {
        PackedRound {
            words: vec![(0, 0); n * bandwidth],
            bandwidth,
        }
    }

    fn clear(&mut self) {
        for w in &mut self.words {
            *w = (0, 0);
        }
    }

    fn pack(&mut self, lane: usize, v: usize, message: &Message) {
        for (k, s) in message.symbols().enumerate() {
            let (ones, silent) = &mut self.words[v * self.bandwidth + k];
            match s {
                Symbol::One => *ones |= 1 << lane,
                Symbol::Silent => *silent |= 1 << lane,
                Symbol::Zero => {}
            }
        }
    }

    /// Lane `lane`'s broadcast of node `v`: a gather of one bit per
    /// position into a word pair, or a symbol vector past 64 positions.
    fn unpack(&self, lane: usize, v: usize) -> Message {
        let words = &self.words[v * self.bandwidth..(v + 1) * self.bandwidth];
        if self.bandwidth > 64 {
            return words
                .iter()
                .map(|&(ones, silent)| {
                    if silent >> lane & 1 == 1 {
                        Symbol::Silent
                    } else {
                        Symbol::bit(ones >> lane & 1 == 1)
                    }
                })
                .collect();
        }
        let (mut ones, mut silent) = (0u64, 0u64);
        for (k, &(o, s)) in words.iter().enumerate() {
            ones |= (o >> lane & 1) << k;
            silent |= (s >> lane & 1) << k;
        }
        Message::from_words(ones, silent, self.bandwidth)
    }
}

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

    /// The underlying configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Like [`try_run`](Self::try_run), but degrades a transport
    /// failure into one all-`Undecided`, unrecorded outcome per lane
    /// (each carrying the error in
    /// [`transport_failure`](RunOutcome::transport_failure)) instead
    /// of returning `Err` — mirroring the scalar
    /// [`SimConfig::run`] / `try_run` split.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, has more than [`MAX_LANES`]
    /// entries, or mixes instances with different vertex counts.
    pub fn run(&self, lanes: &[Lane<'_>], algorithm: &dyn Algorithm) -> Vec<RunOutcome> {
        match self.try_run(lanes, algorithm) {
            Ok(outcomes) => outcomes,
            Err(err) => lanes
                .iter()
                .map(|(inst, _)| RunOutcome::transport_failed(inst.num_vertices(), err.clone()))
                .collect(),
        }
    }

    /// Runs `algorithm` on every lane in lockstep and returns one
    /// outcome per lane, in lane order. Each outcome is byte-identical
    /// to `self.config().run(instance, algorithm, seed)` for that
    /// lane.
    ///
    /// Message delivery routes through one [`Transport`] from the
    /// configuration's factory, opened with the lanes' networks
    /// [stacked](Routes::stacked) into one plan: each round is one
    /// exchange of an `L·n` outbox, and each active lane receives its
    /// own `n` inboxes of the view. The trace and all accounting stay
    /// driver-side, so outcomes do not depend on the backend. A
    /// transport failure aborts the whole batch with the typed error
    /// after closing any open spans.
    ///
    /// When the configuration's observer traces, the batch records
    /// a `batch` span wrapping one `round=r` span per executed round
    /// with `active_lanes` / `bits_broadcast` counters — an aggregate
    /// view, not the per-node scalar trace.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransportError`] the transport reports, or
    /// a [`TransportError::Protocol`] for a view of the wrong shape.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, has more than [`MAX_LANES`]
    /// entries, or mixes instances with different vertex counts.
    pub fn try_run(
        &self,
        lanes: &[Lane<'_>],
        algorithm: &dyn Algorithm,
    ) -> Result<Vec<RunOutcome>, TransportError> {
        let mut transport = self.cfg.transport_factory().create();
        let result = self.cfg.observer().with(|trace, metrics| {
            run_batch_impl(&self.cfg, &mut *transport, lanes, algorithm, trace, metrics)
        });
        transport.teardown();
        result
    }

    /// Runs an arbitrarily long lane list by splitting it into
    /// [`MAX_LANES`]-wide batches, preserving lane order.
    pub fn run_chunked(&self, lanes: &[Lane<'_>], algorithm: &dyn Algorithm) -> Vec<RunOutcome> {
        lanes
            .chunks(MAX_LANES)
            .flat_map(|chunk| self.run(chunk, algorithm))
            .collect()
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

fn run_batch_impl(
    cfg: &SimConfig,
    transport: &mut dyn Transport,
    lanes: &[Lane<'_>],
    algorithm: &dyn Algorithm,
    trace: &mut TraceBuf,
    metrics: &mut MetricsBuf,
) -> Result<Vec<RunOutcome>, TransportError> {
    let l = lanes.len();
    assert!(l >= 1, "a batch needs at least one lane");
    assert!(l <= MAX_LANES, "at most {MAX_LANES} lanes per batch");
    let n = lanes[0].0.num_vertices();
    assert!(
        lanes.iter().all(|(inst, _)| inst.num_vertices() == n),
        "all lanes must share one vertex count"
    );
    // The open happens before the batch span starts, so an open
    // failure returns with no spans to unwind.
    let networks: Vec<_> = lanes.iter().map(|(inst, _)| inst.network()).collect();
    transport.open(&Routes::stacked(&networks))?;
    let b = cfg.bandwidth_per_round();
    // Executed rounds and their total broadcast bits, for the
    // end-of-batch `engine.*` counters.
    let (mut rounds_run, mut total_bits) = (0u64, 0u64);

    let mut runs: Vec<RunState> = lanes
        .iter()
        .map(|&(inst, seed)| RunState::spawn(cfg, inst, algorithm, seed))
        .collect();
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

    let mut packed = PackedRound::new(n, b);
    // One stacked outbox and one stacked view for the whole batch,
    // refilled every round: lane `i`'s vertices are `i·n..(i + 1)·n`.
    let mut outbox: Vec<Message> = Vec::with_capacity(l * n);
    let mut view = RoundView::default();
    for round in 0..cfg.max_rounds() {
        if active == 0 {
            break;
        }
        if trace.spans_enabled() {
            trace.span_start(&format!("round={round}"), vec![]);
        }
        // Phase 1: every active lane broadcasts; the characters exist
        // only inside the packed words from here on.
        packed.clear();
        for (lane, run) in runs.iter_mut().enumerate() {
            if active >> lane & 1 == 0 {
                continue;
            }
            for v in 0..n {
                packed.pack(lane, v, &run.broadcast(round, v));
            }
        }
        // Phase 2: reconstruct every lane's broadcasts from the words
        // (a retired lane sends empty messages) and deliver the whole
        // batch in one exchange.
        outbox.clear();
        for lane in 0..l {
            if active >> lane & 1 == 0 {
                outbox.resize(outbox.len() + n, Message::silent(0));
            } else {
                outbox.extend((0..n).map(|v| packed.unpack(lane, v)));
            }
        }
        if let Err(err) = transport.exchange_into(round, &outbox, &mut view) {
            return Err(abort_batch(trace, Some(round), err));
        }
        // A view cut short inside an active lane fails in that lane's
        // `receive`, worded as a short scalar view; every other wrong
        // length fails here.
        let stacked = view.num_nodes();
        let cut_in_active_lane = stacked < l * n && active >> (stacked / n) != 0;
        if stacked != l * n && !cut_in_active_lane {
            let err = TransportError::Protocol {
                detail: format!("round view covers {stacked} of {} nodes", l * n),
                postmortem: None,
            };
            return Err(abort_batch(trace, Some(round), err));
        }
        // Phase 3: account each active lane's broadcasts and let its
        // programs receive their own inboxes.
        let mut round_bits = 0usize;
        let inboxes = view.inboxes_mut();
        for (lane, run) in runs.iter_mut().enumerate() {
            if active >> lane & 1 == 0 {
                continue;
            }
            let (lo, hi) = (lane * n, (lane + 1) * n);
            round_bits = round_bits.saturating_add(run.sent(&outbox[lo..hi]));
            let lane_inboxes = &mut inboxes[lo.min(stacked)..hi.min(stacked)];
            if let Err(err) = run.receive(round, lane_inboxes) {
                return Err(abort_batch(trace, Some(round), err));
            }
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

    let outcomes: Vec<RunOutcome> = runs
        .into_iter()
        .zip(lanes)
        .map(|(run, &(inst, seed))| run.finish(inst, seed))
        .collect();

    if trace.spans_enabled() {
        let max_rounds_run = outcomes.iter().map(|o| o.stats().rounds).max().unwrap_or(0);
        trace.span_end(
            "batch",
            vec![
                field("rounds", max_rounds_run),
                field(
                    "completed_lanes",
                    outcomes.iter().filter(|o| o.completed()).count(),
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
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;
    use bcc_model::testing::{ConstantDecision, EchoBit, IdBroadcast, SymbolMix};
    use bcc_model::{runs_indistinguishable, Decision};

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

    #[test]
    fn mixed_instances_retire_independently() {
        // Lanes finish at different rounds (different n would be
        // rejected; different inputs and seeds are the point).
        let a = Instance::new_kt0(generators::cycle(6), 3).unwrap();
        let b = Instance::new_kt0(generators::two_cycles(3, 3), 40).unwrap();
        let cfg = SimConfig::bcc1(12);
        let lanes: Vec<Lane<'_>> = vec![(&a, 0), (&b, 0), (&a, 9), (&b, 7)];
        let batched = BatchRun::new(cfg.clone()).run(&lanes, &IdBroadcast::new());
        for (lane, out) in lanes.iter().zip(&batched) {
            let scalar = cfg.run(lane.0, &IdBroadcast::new(), lane.1);
            assert_outcomes_equal(out, &scalar);
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
    fn wide_bandwidth_roundtrips_through_packing() {
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

    #[test]
    fn chunked_run_covers_more_than_max_lanes() {
        let i = Instance::new_kt1(generators::cycle(4)).unwrap();
        let lanes: Vec<Lane<'_>> = (0..70).map(|s| (&i, s as u64)).collect();
        let out = BatchRun::new(SimConfig::bcc1(3)).run_chunked(&lanes, &EchoBit);
        assert_eq!(out.len(), 70);
    }

    #[test]
    #[should_panic(expected = "share one vertex count")]
    fn mismatched_shapes_rejected() {
        let a = Instance::new_kt1(generators::cycle(4)).unwrap();
        let b = Instance::new_kt1(generators::cycle(5)).unwrap();
        let _ = BatchRun::new(SimConfig::bcc1(2)).run(&[(&a, 0), (&b, 0)], &EchoBit);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_rejected() {
        let _ = BatchRun::new(SimConfig::bcc1(2)).run(&[], &EchoBit);
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
        // Every span that opened also closed.
        let events = scope.take().0.into_events();
        use bcc_trace::EventKind;
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanStart))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd))
            .count();
        assert_eq!(starts, ends);
        assert!(events.iter().any(|e| e.name == "transport.error"));
    }

    #[test]
    fn stacked_view_one_inbox_too_long_is_a_protocol_error() {
        use bcc_model::transport::{
            LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
        };

        /// Delivers like the oracle, plus one stray inbox at the end.
        struct Long(LocalTransport);
        impl Transport for Long {
            fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
                self.0.open(routes)
            }
            fn exchange(
                &mut self,
                round: usize,
                outbox: &[Message],
            ) -> Result<RoundView, TransportError> {
                let view = self.0.exchange(round, outbox)?;
                let mut inboxes: Vec<_> = (0..view.num_nodes())
                    .map(|v| view.inbox(v).to_vec())
                    .collect();
                inboxes.push(view.inbox(0).to_vec());
                Ok(RoundView::new(inboxes))
            }
        }
        struct LongFactory;
        impl TransportFactory for LongFactory {
            fn create(&self) -> Box<dyn Transport> {
                Box::new(Long(LocalTransport::new()))
            }
            fn label(&self) -> String {
                "long".to_string()
            }
        }

        let i = Instance::new_kt0(generators::cycle(5), 4).unwrap();
        let cfg = SimConfig::bcc1(3).transport(std::sync::Arc::new(LongFactory));
        let err = BatchRun::new(cfg)
            .try_run(&[(&i, 0), (&i, 1)], &EchoBit)
            .map(drop)
            .unwrap_err();
        match err {
            TransportError::Protocol { detail, .. } => {
                assert_eq!(detail, "round view covers 11 of 10 nodes");
            }
            other => panic!("expected a protocol error, got {other:?}"),
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
