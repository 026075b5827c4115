//! The socket backend is pinned against the in-process oracle: for
//! the same instance, algorithm, and coin, a run over worker
//! subprocesses must be indistinguishable from a `LocalTransport`
//! run — same decisions, same stats, same per-vertex transcripts.
//! Workers return their rows' segment of the board and the
//! coordinator gathers the segments in rank order, so the runs below
//! cover what that gather must get right: multi-symbol and silent
//! messages, KT-1 labels past 2^53, and batched lanes retiring at
//! different rounds, alone and with several threads' batches sharing
//! one worker group, each round one locked round trip.

use bcc_engine::BatchRun;
use bcc_graphs::{generators, Graph};
use bcc_model::testing::{EchoBit, IdBroadcast};
use bcc_model::transport::LocalFactory;
use bcc_model::{
    runs_indistinguishable, Algorithm, Decision, Inbox, InitialKnowledge, Instance, Message,
    NodeProgram, RunOutcome, SimConfig, Symbol,
};
use bcc_transport::{SocketFactory, TransportFactory, WorkerCmd};
use std::path::PathBuf;
use std::sync::Arc;

/// The complete graph `K_n`.
fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))))
        .expect("complete edges are valid")
}

fn worker_bin() -> WorkerCmd {
    WorkerCmd::Bin(PathBuf::from(env!("CARGO_BIN_EXE_bcc-transport-worker")))
}

fn assert_same_run(oracle: &RunOutcome, socket: &RunOutcome, what: &str) {
    assert_eq!(
        socket.transport_failure(),
        None,
        "socket run must not degrade ({what})"
    );
    assert_eq!(oracle.decisions(), socket.decisions(), "{what}");
    assert_eq!(oracle.stats(), socket.stats(), "{what}");
    assert!(runs_indistinguishable(oracle, socket), "{what}");
    for v in 0..oracle.decisions().len() {
        assert_eq!(
            oracle.transcript(v),
            socket.transcript(v),
            "transcript of vertex {v} diverged ({what})"
        );
    }
}

fn assert_matches_oracle(workers: usize, n: usize, wiring: u64, coin: u64) {
    let factory: Arc<dyn TransportFactory> =
        Arc::new(SocketFactory::with_command(workers, worker_bin()));
    let inst = Instance::new_kt0(generators::cycle(n), wiring).unwrap();
    let oracle = SimConfig::bcc1(4).run(&inst, &EchoBit, coin);
    let socket = SimConfig::bcc1(4)
        .transport(Arc::clone(&factory))
        .run(&inst, &EchoBit, coin);
    assert_same_run(&oracle, &socket, &format!("workers={workers}, n={n}"));
}

/// Broadcasts `bandwidth` symbols a round — the low bits of
/// `id + round`, all silent every third round, a lone `1` padded with
/// `⊥` otherwise on odd IDs — and finishes after `1 + degree` rounds,
/// so lanes whose inputs differ in maximum degree retire at different
/// rounds. The decision folds in the labels it heard `1`s on, so a
/// mislabelled entry changes the outcome, not just the transcript.
struct Countdown;

impl Algorithm for Countdown {
    fn name(&self) -> &str {
        "countdown"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(CountdownNode {
            id: init.id,
            bandwidth: init.bandwidth,
            rounds: 1 + init.input_port_labels.len(),
            round: 0,
            heard: 0,
        })
    }
}

struct CountdownNode {
    id: u64,
    bandwidth: usize,
    rounds: usize,
    round: usize,
    heard: u64,
}

impl NodeProgram for CountdownNode {
    fn broadcast(&mut self, round: usize) -> Message {
        if round % 3 == 2 {
            Message::silent(self.bandwidth)
        } else if self.id % 2 == 1 {
            Message::single(Symbol::One)
        } else {
            Message::from_bits(self.id.wrapping_add(round as u64), self.bandwidth)
        }
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        self.round = round + 1;
        for (label, m) in inbox.iter() {
            let ones = m.symbols().filter(|&s| s == Symbol::One).count() as u64;
            self.heard = self.heard.wrapping_add(label.wrapping_mul(ones));
        }
    }

    fn decide(&self) -> Decision {
        if self.heard.is_multiple_of(2) {
            Decision::Yes
        } else {
            Decision::No
        }
    }

    fn is_done(&self) -> bool {
        self.round >= self.rounds
    }
}

#[test]
fn multi_symbol_and_silent_messages_match_local_oracle() {
    for workers in [2, 3] {
        let factory: Arc<dyn TransportFactory> =
            Arc::new(SocketFactory::with_command(workers, worker_bin()));
        for (n, wiring) in [(5, 3), (8, 11)] {
            let inst = Instance::new_kt0(generators::cycle(n), wiring).unwrap();
            for algorithm in [&EchoBit as &dyn Algorithm, &Countdown] {
                let cfg = SimConfig::bcc1(6).bandwidth(3);
                let oracle = cfg.run(&inst, algorithm, 1);
                let socket = cfg
                    .clone()
                    .transport(Arc::clone(&factory))
                    .run(&inst, algorithm, 1);
                let what = format!("{} b=3 workers={workers} n={n}", algorithm.name());
                assert_same_run(&oracle, &socket, &what);
            }
        }
    }
}

#[test]
fn kt1_labels_past_2_pow_53_match_local_oracle() {
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let base = 1u64 << 53;
    let n = 7;
    // Scattered IDs above 2^53, u64::MAX included: ports are sorted
    // by peer ID, so port order differs from vertex order.
    let ids: Vec<u64> = vec![
        base + 9,
        u64::MAX,
        base + 1,
        base + 1_000_003,
        u64::MAX - 2,
        base + 2,
        base + 77,
    ];
    let inst = Instance::new_kt1_with_ids(generators::path(n), ids).unwrap();
    for (algorithm, bandwidth) in [(&EchoBit as &dyn Algorithm, 1), (&Countdown, 2)] {
        let cfg = SimConfig::bcc1(8).bandwidth(bandwidth);
        let oracle = cfg.run(&inst, algorithm, 5);
        let socket = cfg
            .clone()
            .transport(Arc::clone(&factory))
            .run(&inst, algorithm, 5);
        let what = format!("{} KT-1 b={bandwidth}", algorithm.name());
        assert_same_run(&oracle, &socket, &what);
    }
}

#[test]
fn batched_lanes_retiring_at_different_rounds_match_local_oracle() {
    let n = 8;
    let inputs = [
        generators::cycle(n),
        generators::star(n),
        generators::path(n),
        complete(n),
        generators::two_cycles(3, 5),
    ];
    let instances: Vec<Instance> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, g)| Instance::new_kt0(g, 40 + i as u64).unwrap())
        .collect();
    let lanes: Vec<(&Instance, u64)> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (inst, i as u64))
        .collect();
    let cfg = SimConfig::bcc1(n + 1).bandwidth(2);
    let sockets: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(2, worker_bin()));
    let oracle =
        BatchRun::new(cfg.clone().transport(Arc::new(LocalFactory))).run(&lanes, &Countdown);
    let socket = BatchRun::new(cfg.transport(sockets)).run(&lanes, &Countdown);
    let rounds: Vec<usize> = oracle.iter().map(|o| o.stats().rounds).collect();
    assert!(
        rounds.windows(2).any(|w| w[0] != w[1]),
        "lanes must retire at different rounds: {rounds:?}"
    );
    for (lane, (o, s)) in oracle.iter().zip(&socket).enumerate() {
        assert_same_run(o, s, &format!("lane {lane}"));
    }
}

#[test]
fn concurrent_batches_with_locked_round_trips_match_local_oracle() {
    // Several threads drive batches through one worker group, each
    // round one round trip under the group's lock. Each batch's lanes
    // retire at different rounds, so the threads' sessions come and go
    // mid-run and take turns on every link, round trip by round trip.
    // Three workers over 8 nodes give uneven ranges (2/3/3).
    let n = 8;
    let sockets: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(3, worker_bin()));
    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            let sockets = Arc::clone(&sockets);
            scope.spawn(move || {
                let inputs = [
                    complete(n),
                    generators::path(n),
                    generators::star(n),
                    generators::cycle(n),
                    generators::two_cycles(3, 5),
                ];
                let instances: Vec<Instance> = inputs
                    .into_iter()
                    .enumerate()
                    .map(|(i, g)| Instance::new_kt0(g, 10 * thread + i as u64).unwrap())
                    .collect();
                // Thread t runs t + 2 lanes, so batches differ in width too.
                let lanes: Vec<(&Instance, u64)> = instances
                    .iter()
                    .take(thread as usize + 2)
                    .enumerate()
                    .map(|(i, inst)| (inst, thread + i as u64))
                    .collect();
                let cfg = SimConfig::bcc1(n + 1).bandwidth(2);
                let oracle = BatchRun::new(cfg.clone().transport(Arc::new(LocalFactory)))
                    .run(&lanes, &Countdown);
                let rounds: Vec<usize> = oracle.iter().map(|o| o.stats().rounds).collect();
                assert!(
                    rounds.windows(2).any(|w| w[0] != w[1]),
                    "lanes must retire at different rounds: {rounds:?}"
                );
                for repeat in 0..4 {
                    let batch = BatchRun::new(cfg.clone().transport(Arc::clone(&sockets)));
                    for (lane, (o, s)) in oracle
                        .iter()
                        .zip(&batch.run(&lanes, &Countdown))
                        .enumerate()
                    {
                        assert_same_run(
                            o,
                            s,
                            &format!("thread {thread} repeat {repeat} lane {lane}"),
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn two_worker_runs_match_local_oracle() {
    for (n, wiring, coin) in [(3, 0, 0), (4, 1, 7), (7, 42, 3), (10, 9, 1)] {
        assert_matches_oracle(2, n, wiring, coin);
    }
}

#[test]
fn four_worker_runs_match_local_oracle() {
    // n = 3 with 4 workers exercises empty node ranges.
    for (n, wiring, coin) in [(3, 5, 0), (8, 2, 11)] {
        assert_matches_oracle(4, n, wiring, coin);
    }
}

#[test]
fn sessions_multiplex_over_one_worker_group() {
    // One factory, many runs: each run is its own session on the
    // shared worker group, and later runs are unaffected by earlier
    // ones.
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(2, worker_bin()));
    for seed in 0u64..6 {
        let inst = Instance::new_kt0(generators::cycle(6), seed).unwrap();
        let oracle = SimConfig::bcc1(3).run(&inst, &EchoBit, seed);
        let socket = SimConfig::bcc1(3)
            .transport(Arc::clone(&factory))
            .run(&inst, &EchoBit, seed);
        assert_eq!(socket.transport_failure(), None);
        assert!(runs_indistinguishable(&oracle, &socket));
        assert_eq!(oracle.stats(), socket.stats());
    }
}

#[test]
fn multi_round_algorithm_completes_identically() {
    let factory: Arc<dyn TransportFactory> = Arc::new(SocketFactory::with_command(3, worker_bin()));
    let inst = Instance::new_kt0(generators::cycle(9), 4).unwrap();
    let oracle = SimConfig::bcc1(100).run(&inst, &IdBroadcast::new(), 0);
    let socket = SimConfig::bcc1(100)
        .transport(factory)
        .run(&inst, &IdBroadcast::new(), 0);
    assert_eq!(socket.transport_failure(), None);
    assert!(socket.completed());
    assert_eq!(oracle.stats(), socket.stats());
    assert!(runs_indistinguishable(&oracle, &socket));
}
