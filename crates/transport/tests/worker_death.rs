//! Dead workers surface as typed `TransportError`s and degraded
//! all-Undecided outcomes — never a panic, never a hang.
//!
//! This lives in its own integration-test binary because its tests
//! set the process-wide crash knob that spawned workers inherit;
//! keeping it out of `socket_equivalence.rs` keeps that knob away from
//! the healthy-path tests. Within this binary, every test that sets
//! the knob holds [`knob_lock`] for its whole run.

use bcc_engine::BatchRun;
use bcc_graphs::generators;
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_model::testing::EchoBit;
use bcc_model::{Decision, Instance, SimConfig, TransportError};
use bcc_trace::{build_trees, Collector, Observer, TraceLevel};
use bcc_transport::worker::EXIT_AFTER_ENV;
use bcc_transport::{SocketFactory, TransportFactory, WorkerCmd};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn worker_bin() -> WorkerCmd {
    WorkerCmd::Bin(PathBuf::from(env!("CARGO_BIN_EXE_bcc-transport-worker")))
}

/// Serializes the tests that set the crash knob: the harness runs
/// tests on parallel threads, and workers one test spawns would
/// otherwise inherit the knob another test set. Taking the lock also
/// clears any knob a panicking holder left behind.
fn knob_lock() -> MutexGuard<'static, ()> {
    static KNOB: Mutex<()> = Mutex::new(());
    let guard = KNOB.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::remove_var(EXIT_AFTER_ENV);
    guard
}

#[test]
fn spawn_failure_is_a_fast_typed_error() {
    // /bin/false exits immediately without connecting; the accept
    // loop's liveness check must fail fast with a Spawn error.
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(
        2,
        WorkerCmd::Bin(PathBuf::from("/bin/false")),
    ));
    let inst = Instance::new_kt1(generators::cycle(4)).unwrap();
    let out = SimConfig::bcc1(2)
        .transport(factory)
        .run(&inst, &EchoBit, 0);
    match out.transport_failure() {
        Some(TransportError::Spawn { .. }) => {}
        other => panic!("expected a Spawn error, got {other:?}"),
    }
    assert!(out.decisions().contains(&Decision::Undecided));
    assert_eq!(out.system_decision(), Decision::No);
    assert!(!out.completed());
}

#[test]
fn mid_run_death_degrades_and_respawn_recovers() {
    let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
    let oracle = SimConfig::bcc1(4).run(&inst, &EchoBit, 0);

    // Workers serve one round, then die on the next.
    let _knob = knob_lock();
    std::env::set_var(EXIT_AFTER_ENV, "1");
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let out = SimConfig::bcc1(4)
        .transport(Arc::clone(&factory))
        .run(&inst, &EchoBit, 0);
    std::env::remove_var(EXIT_AFTER_ENV);

    match out.transport_failure() {
        Some(TransportError::WorkerDead { .. }) => {}
        other => panic!("expected a WorkerDead error, got {other:?}"),
    }
    assert!(out.decisions().iter().all(|d| *d == Decision::Undecided));
    assert_eq!(out.system_decision(), Decision::No);

    // The knob is gone, so the factory's next create() respawns a
    // healthy group and the run matches the oracle again.
    let healed = SimConfig::bcc1(4)
        .transport(factory)
        .run(&inst, &EchoBit, 0);
    assert_eq!(healed.transport_failure(), None);
    assert_eq!(healed.stats(), oracle.stats());
    assert_eq!(healed.decisions(), oracle.decisions());
}

/// When one worker dies, the survivor's counts for the open session
/// are recorded, the dead rank is marked with an explicit `truncated`
/// counter, and the incident is frozen into a postmortem — both on
/// the error itself and via the factory. Failing does no IO, so the
/// survivor's ring ends at the failing round.
#[test]
fn survivor_counts_are_recorded_and_dead_rank_truncated() {
    let inst = Instance::new_kt1(generators::cycle(5)).unwrap();

    // Only rank 0 dies (after serving one round); rank 1 survives.
    let _knob = knob_lock();
    std::env::set_var(EXIT_AFTER_ENV, "1@0");
    let factory = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let out = SimConfig::bcc1(4)
        .transport(Arc::clone(&factory) as Arc<dyn TransportFactory>)
        .run(&inst, &EchoBit, 0);
    std::env::remove_var(EXIT_AFTER_ENV);

    // The error carries the frozen flight recorder.
    let err = match out.transport_failure() {
        Some(err @ TransportError::WorkerDead { rank: 0, .. }) => err,
        other => panic!("expected rank 0 WorkerDead, got {other:?}"),
    };
    let pm = err.postmortem().expect("postmortem travels on the error");
    assert_eq!(pm.backend, "sockets:2");
    assert_eq!(pm.workers.len(), 2);
    assert!(!pm.workers[0].alive, "rank 0 died");
    assert!(pm.workers[1].alive, "rank 1 survived");
    assert!(
        !pm.workers[0].ring.is_empty(),
        "dead rank's ring holds its last wire events"
    );
    // Round 1 went to both ranks before rank 0's missing view was
    // noticed; nothing was sent or read after that.
    let last = pm.workers[1].ring.last().expect("survivor's ring");
    assert_eq!(
        (last.dir.as_str(), last.kind.as_str(), last.round),
        ("send", "round", 1)
    );

    // The same incident is queryable from the factory.
    let incidents = factory.take_postmortems();
    assert_eq!(incidents.len(), 1);
    assert_eq!(&incidents[0], pm);
    assert!(factory.take_postmortems().is_empty(), "drained once");

    // The survivor's counts were recorded, not dropped: rank 1's
    // session flushes as counters and a trace unit, while rank 0's
    // lost session is marked truncated.
    let collector = Collector::new(TraceLevel::Events);
    let hub = MetricsHub::new(MetricsLevel::Core);
    factory.flush_telemetry(&collector, &hub);
    let dump = hub.finish();
    assert_eq!(dump.counter("transport.worker:0.truncated"), Some(1));
    assert_eq!(dump.counter("transport.worker:0.sessions"), None);
    assert_eq!(dump.counter("transport.worker:1.sessions"), Some(1));
    assert!(dump.counter("transport.worker:1.frames").unwrap_or(0) > 0);
    assert_eq!(dump.counter("transport.truncated"), Some(1));
    let trace = collector.finish();
    let units: std::collections::BTreeSet<&str> =
        trace.events().iter().map(|e| e.unit.as_str()).collect();
    assert!(units.contains("transport/worker:1"));
    assert!(
        !units.contains("transport/worker:0"),
        "a dead rank's session cannot appear in the trace"
    );

    // Wall stats recorded the spawn; the wall sidecar is where
    // respawn counts surface, never the deterministic dump.
    let wall = factory.wall_stats();
    assert!(wall.iter().any(|(k, v)| k == "spawns" && *v >= 1));
}

#[test]
fn malformed_crash_knob_is_a_spawn_error() {
    let inst = Instance::new_kt1(generators::cycle(4)).unwrap();
    let _knob = knob_lock();
    std::env::set_var(EXIT_AFTER_ENV, "1@y");
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let out = SimConfig::bcc1(2)
        .transport(factory)
        .run(&inst, &EchoBit, 0);
    std::env::remove_var(EXIT_AFTER_ENV);
    match out.transport_failure() {
        Some(TransportError::Spawn { .. }) => {}
        other => panic!("a mistyped knob must not run silently: {other:?}"),
    }
}

/// Rounds per lane in the worker-death sweep.
const SWEEP_ROUNDS: usize = 3;

/// Kills workers after every k in `0..=SWEEP_ROUNDS + 1` served
/// `round` commands — every rank when `target` is `None`, else only
/// rank `target` — under a 3-lane `sockets:2` batch that is traced
/// and metered. Every case must end in the oracle's outcome or in a
/// typed `WorkerDead` on every lane, with balanced spans, and with
/// each rank's one batch session either recorded or counted
/// `truncated` (the latter only on ranks the coordinator saw die).
fn sweep(target: Option<usize>) {
    let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
    let lanes = [(&inst, 0), (&inst, 1), (&inst, 2)];
    let oracle = BatchRun::new(SimConfig::bcc1(SWEEP_ROUNDS)).run(&lanes, &EchoBit);
    let _knob = knob_lock();
    for k in 0..=SWEEP_ROUNDS + 1 {
        let knob = target.map_or_else(|| k.to_string(), |rank| format!("{k}@{rank}"));
        std::env::set_var(EXIT_AFTER_ENV, &knob);
        let factory = Arc::new(SocketFactory::with_command(2, worker_bin()));
        let collector = Collector::new(TraceLevel::Events);
        let hub = MetricsHub::new(MetricsLevel::Core);
        let observer = Observer::new(collector.buf("sweep"), hub.buf("sweep"));
        let cfg = SimConfig::bcc1(SWEEP_ROUNDS)
            .observe(observer.clone())
            .transport(Arc::clone(&factory) as Arc<dyn TransportFactory>);
        let outs = BatchRun::new(cfg).run(&lanes, &EchoBit);
        std::env::remove_var(EXIT_AFTER_ENV);

        let matches_oracle = outs.iter().zip(&oracle).all(|(out, want)| {
            out.transport_failure().is_none()
                && out.stats() == want.stats()
                && out.decisions() == want.decisions()
        });
        // Each worker serves one `round` command per batch round, so
        // the knob must bite for every k below that total.
        let served = SWEEP_ROUNDS;
        assert_eq!(matches_oracle, k >= served, "{knob}: knob engaged");
        if !matches_oracle {
            for out in outs
                .iter()
                .filter(|out| out.decisions().contains(&Decision::Undecided))
            {
                match out.transport_failure() {
                    Some(TransportError::WorkerDead { rank, .. }) => {
                        assert_eq!(*rank, target.unwrap_or(0), "{knob}: dead rank");
                    }
                    other => panic!("{knob}: expected WorkerDead, got {other:?}"),
                }
            }
        }

        let (trace, metrics) = observer.take();
        collector.absorb(trace);
        hub.absorb(metrics);
        factory.flush_telemetry(&collector, &hub);
        for tree in build_trees(collector.finish().events()) {
            assert!(
                tree.unclosed == 0 && tree.unmatched_closes == 0,
                "{knob}: unit {} is unbalanced",
                tree.unit
            );
        }
        let alive = match factory.take_postmortems().as_slice() {
            [] => vec![true; 2],
            [pm] => pm.workers.iter().map(|w| w.alive).collect(),
            many => panic!("{knob}: {} incidents from one run", many.len()),
        };
        let dump = hub.finish();
        for (rank, alive) in alive.into_iter().enumerate() {
            let count = |name: &str| {
                dump.counter(&format!("transport.worker:{rank}.{name}"))
                    .unwrap_or(0)
            };
            let (sessions, truncated) = (count("sessions"), count("truncated"));
            assert_eq!(sessions + truncated, 1, "{knob}: rank {rank} sessions");
            assert!(
                alive || truncated == 1,
                "{knob}: dead rank {rank} lost its open sessions silently"
            );
            assert!(
                !alive || truncated == 0,
                "{knob}: live rank {rank} counted truncated"
            );
        }
    }
}

#[test]
fn worker_death_sweep_every_rank() {
    sweep(None);
}

#[test]
fn worker_death_sweep_rank_0() {
    sweep(Some(0));
}

#[test]
fn worker_death_sweep_rank_1() {
    sweep(Some(1));
}

/// Pins one session per batch: every lane of a round travels in one
/// `round` line per rank, so the survivor's flight ring holds exactly
/// one `round` send per batch round, all naming the batch's one
/// session. A driver that opened a session per lane would send one
/// line per lane.
#[test]
fn batch_sends_one_round_line_per_round_in_one_session() {
    let inst = Instance::new_kt1(generators::cycle(5)).unwrap();
    let lanes = [(&inst, 0), (&inst, 1), (&inst, 2)];
    // Rank 0 serves rounds 0 and 1, then dies on the `round` line of
    // round 2; rank 1 survives with its ring.
    let _knob = knob_lock();
    std::env::set_var(EXIT_AFTER_ENV, "2@0");
    let factory = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let cfg =
        SimConfig::bcc1(SWEEP_ROUNDS).transport(Arc::clone(&factory) as Arc<dyn TransportFactory>);
    let outs = BatchRun::new(cfg).run(&lanes, &EchoBit);
    std::env::remove_var(EXIT_AFTER_ENV);
    for out in &outs {
        match out.transport_failure() {
            Some(TransportError::WorkerDead { rank: 0, .. }) => {}
            other => panic!("expected rank 0 WorkerDead, got {other:?}"),
        }
    }

    let incidents = factory.take_postmortems();
    let survivor = match incidents.as_slice() {
        [pm] => &pm.workers[1],
        many => panic!("expected one incident, got {}", many.len()),
    };
    assert!(survivor.alive, "rank 1 survived");
    let ring = &survivor.ring;
    let rounds: Vec<u64> = ring
        .iter()
        .filter(|e| e.dir == "send" && e.kind == "round")
        .map(|e| e.round)
        .collect();
    assert_eq!(
        rounds,
        [0, 1, 2],
        "one `round` line per batch round: {ring:?}"
    );
    let sessions: std::collections::BTreeSet<u64> = ring
        .iter()
        .filter(|e| matches!(e.kind.as_str(), "round" | "view"))
        .map(|e| e.session)
        .collect();
    assert_eq!(sessions.len(), 1, "one session for the batch: {ring:?}");
}
