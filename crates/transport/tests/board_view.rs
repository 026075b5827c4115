//! Port order holds by construction. Whichever backend delivers the
//! board, vertex `v`'s inbox reads port `p` as the broadcast of
//! `network.peer_of(v, p)`, labelled `network.port_label(v, p)`; and
//! `Kt0Upgrade`'s inner program, reading the same view relabelled
//! with the IDs it learned, reads the same messages under the ID of
//! the peer behind each port. Checked on random KT-0 and KT-1
//! instances under `LocalTransport`, `sockets:1` and `sockets:3`,
//! through the scalar driver and a two-lane batch.

use bcc_algorithms::Kt0Upgrade;
use bcc_engine::BatchRun;
use bcc_graphs::{generators, Graph};
use bcc_model::transport::LocalFactory;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, Instance, Message, NodeProgram, SimConfig,
};
use bcc_transport::{SocketFactory, TransportFactory, WorkerCmd};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Bits per broadcast.
const BANDWIDTH: usize = 2;

/// Rounds a recording program runs.
const ROUNDS: usize = 3;

/// What one program read in each of its rounds: `(label, message)` per
/// port, in port order.
type Reads = Vec<Vec<(Option<u64>, Option<Message>)>>;

/// Every program's reads, keyed by `(coin seed, vertex ID)`: the coin
/// seed tells a batch's lanes apart.
type Log = Arc<Mutex<BTreeMap<(u64, u64), Reads>>>;

/// Vertex `id`'s broadcast in (its own) round `round`: two bits that
/// vary with both, silent every third round.
fn broadcast_of(id: u64, round: usize) -> Message {
    let mix = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (round * 2 % 60);
    if (id as usize + round).is_multiple_of(3) {
        Message::silent(BANDWIDTH)
    } else {
        Message::from_bits(mix & 3, BANDWIDTH)
    }
}

/// Broadcasts [`broadcast_of`] for [`ROUNDS`] rounds and logs what
/// every port of its inbox reads.
#[derive(Clone)]
struct Recorder {
    log: Log,
}

struct RecorderNode {
    key: (u64, u64),
    round: usize,
    log: Log,
}

impl Algorithm for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        Box::new(RecorderNode {
            key: (init.coin_seed, init.id),
            round: 0,
            log: Arc::clone(&self.log),
        })
    }
}

impl NodeProgram for RecorderNode {
    fn broadcast(&mut self, round: usize) -> Message {
        broadcast_of(self.key.1, round)
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        let reads = (0..inbox.len())
            .map(|p| (inbox.label(p), inbox.by_port(p).cloned()))
            .collect();
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        log.entry(self.key).or_default().push(reads);
        self.round = round + 1;
    }

    fn decide(&self) -> Decision {
        Decision::Yes
    }

    fn is_done(&self) -> bool {
        self.round >= ROUNDS
    }
}

/// The local oracle and two socket backends, spawned once per binary.
fn factories() -> &'static [(String, Arc<dyn TransportFactory>)] {
    static FACTORIES: OnceLock<Vec<(String, Arc<dyn TransportFactory>)>> = OnceLock::new();
    FACTORIES.get_or_init(|| {
        let bin = PathBuf::from(env!("CARGO_BIN_EXE_bcc-transport-worker"));
        let mut all: Vec<(String, Arc<dyn TransportFactory>)> =
            vec![("local".to_string(), Arc::new(LocalFactory))];
        for workers in [1, 3] {
            let factory = SocketFactory::with_command(workers, WorkerCmd::Bin(bin.clone()));
            all.push((factory.label(), Arc::new(factory)));
        }
        all
    })
}

/// Runs `algorithm` (a [`Recorder`], bare or wrapped) on `instance`
/// under every backend, scalar with coin seed 1 and as a two-lane
/// batch with seeds 1 and 2, and checks each logged read against
/// `expect(v, p, round)`.
fn check(
    instance: &Instance,
    wrap: impl Fn(Recorder) -> Box<dyn Algorithm>,
    expect: impl Fn(usize, usize, usize) -> (u64, Message),
) -> Result<(), TestCaseError> {
    let network = instance.network();
    for (label, factory) in factories() {
        let cfg = SimConfig::bcc1(64)
            .bandwidth(BANDWIDTH)
            .transcripts(false)
            .transport(Arc::clone(factory));
        for seeds in [&[1u64][..], &[1, 2]] {
            let log = Log::default();
            let algorithm = wrap(Recorder {
                log: Arc::clone(&log),
            });
            let outcomes = if seeds.len() == 1 {
                vec![cfg.run(instance, algorithm.as_ref(), seeds[0])]
            } else {
                let lanes: Vec<_> = seeds.iter().map(|&seed| (instance, seed)).collect();
                BatchRun::new(cfg.clone()).run(&lanes, algorithm.as_ref())
            };
            for out in &outcomes {
                prop_assert!(out.transport_failure().is_none(), "{label}");
                prop_assert!(out.completed(), "{label}");
            }
            let log = log.lock().unwrap_or_else(PoisonError::into_inner);
            prop_assert_eq!(log.len(), seeds.len() * network.num_vertices());
            for ((_, id), reads) in log.iter() {
                let v = (0..network.num_vertices())
                    .find(|&v| network.id(v) == *id)
                    .expect("a logged vertex exists");
                prop_assert_eq!(reads.len(), ROUNDS, "{}: vertex {}", label, v);
                for (round, ports) in reads.iter().enumerate() {
                    prop_assert_eq!(ports.len(), network.num_vertices() - 1);
                    for (p, (read_label, message)) in ports.iter().enumerate() {
                        let (want_label, want) = expect(v, p, round);
                        prop_assert_eq!(
                            *read_label,
                            Some(want_label),
                            "{}: v {} p {}",
                            label,
                            v,
                            p
                        );
                        prop_assert_eq!(
                            message.as_ref(),
                            Some(&want),
                            "{}: v {} p {}",
                            label,
                            v,
                            p
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// A cycle or a path on `n` vertices, by `seed`'s parity.
fn graph(n: usize, seed: u64) -> Graph {
    if seed.is_multiple_of(2) {
        generators::cycle(n)
    } else {
        generators::path(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kt1_port_p_reads_its_peers_broadcast(n in 3usize..9, seed in any::<u64>()) {
        // IDs spread out and not in vertex order.
        let ids: Vec<u64> = (0..n as u64).map(|v| (v * 7 + seed % 5) * 1_000_003 % 9_973).collect();
        let instance = Instance::new_kt1_with_ids(graph(n, seed), ids).expect("distinct IDs");
        let network = instance.network();
        check(
            &instance,
            |recorder| Box::new(recorder),
            |v, p, round| {
                let peer = network.peer_of(v, p);
                (network.port_label(v, p), broadcast_of(network.id(peer), round))
            },
        )?;
    }

    #[test]
    fn kt0_port_p_reads_its_peers_broadcast(n in 3usize..9, seed in any::<u64>()) {
        let instance = Instance::new_kt0(graph(n, seed), seed).expect("valid");
        let network = instance.network();
        check(
            &instance,
            |recorder| Box::new(recorder),
            |v, p, round| {
                let peer = network.peer_of(v, p);
                (network.port_label(v, p), broadcast_of(network.id(peer), round))
            },
        )?;
        // Behind `Kt0Upgrade`, the inner program's port `p` carries the
        // ID of the peer behind outer port `p` and reads that peer's
        // inner broadcast: the outer view's message, relabelled.
        check(
            &instance,
            |recorder| Box::new(Kt0Upgrade::new(recorder)),
            |v, p, round| {
                let id = network.id(network.peer_of(v, p));
                (id, broadcast_of(id, round))
            },
        )?;
    }
}
