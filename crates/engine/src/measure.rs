//! Batched re-implementations of the suite's hottest sampling loops:
//! Yao-style distributional error (`bcc-core::hard`) and the
//! Section 4.3 two-party simulation (`bcc-comm::simulate`).
//!
//! Both are drop-in replacements pinned byte-identical to their
//! scalar originals (see `tests/engine_equivalence` in
//! `crates/experiments` and the proptests here): same decisions, same
//! round counts, and — for the error measures — the *same `f64`
//! summation order*, so a report assembled from batched numbers never
//! differs from the scalar report by even a ULP.

use crate::batch::{BatchRun, Lane};
use bcc_comm::reduction::{gadget_graph, Gadget};
use bcc_comm::simulate::SimulationReport;
use bcc_comm::CommError;
use bcc_core::hard::WeightedInstance;
use bcc_model::{Algorithm, Decision, Instance, ModelError, SimConfig};
use bcc_partitions::SetPartition;

/// Failure to assemble a batched measurement's instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The gadget/partition combination was invalid.
    Comm(CommError),
    /// A gadget graph did not form a valid KT-1 instance.
    Model(ModelError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Comm(e) => write!(f, "gadget construction failed: {e}"),
            EngineError::Model(e) => write!(f, "instance construction failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CommError> for EngineError {
    fn from(e: CommError) -> Self {
        EngineError::Comm(e)
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

/// The batched form of [`bcc_core::hard::distributional_error`]:
/// advances up to [`MAX_LANES`](crate::MAX_LANES) weighted instances
/// per lockstep batch instead of one scalar run per instance.
///
/// Byte-identical to the scalar function for every distribution: the
/// mismatch weights are accumulated in distribution order (batches
/// are contiguous slices), so the `f64` additions happen in the exact
/// sequence the scalar `.sum()` performs. Both sweeps run unrecorded
/// (decisions are independent of transcript recording), so the saving
/// here is the kernel's alone: one transport session and one round
/// loop per 64 runs, and lanes whose programs are reset from batch to
/// batch instead of spawned, with decisions read without building
/// outcomes. To observe the kernel, run
/// [`BatchRun::distributional_error`] under an observing config.
pub fn distributional_error_batched(
    dist: &[WeightedInstance],
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> f64 {
    BatchRun::new(SimConfig::bcc1(t).transcripts(false))
        .distributional_error(dist, algorithm, coin_seed)
}

/// The batched form of [`bcc_comm::simulate::simulate_two_party`]:
/// runs every `(P_A, P_B)` pair's gadget instance through the
/// lockstep kernel and reconstructs each [`SimulationReport`] from
/// the per-lane outcome and the Section 4.3 cost formulas
/// (`characters = rounds · N`, `bits = 2·characters + 2·rounds`).
///
/// The hosted scalar simulation is itself pinned equal to direct
/// execution on the gadget instance (`crates/comm` tests), and the
/// kernel is pinned equal to scalar direct execution, so the reports
/// returned here match `simulate_two_party` field for field — the
/// equivalence tests in `crates/experiments` keep that chain honest.
/// To observe the kernel, run [`BatchRun::simulate_two_party`] under
/// an observing config.
///
/// # Errors
///
/// Returns the first gadget- or instance-construction error; the
/// scalar function panics on the same inputs.
pub fn simulate_two_party_batched(
    gadget: Gadget,
    algorithm: &dyn Algorithm,
    pairs: &[(SetPartition, SetPartition)],
    coin_seed: u64,
    max_rounds: usize,
) -> Result<Vec<SimulationReport>, EngineError> {
    BatchRun::new(SimConfig::bcc1(max_rounds).transcripts(false))
        .simulate_two_party(gadget, algorithm, pairs, coin_seed)
}

impl BatchRun {
    /// [`distributional_error_batched`] under this executor's
    /// configuration: its round limit is `t`, and its observer
    /// receives the kernel's round spans and `engine.*` cost counters.
    /// Observers never change the returned error. A batch whose
    /// transport fails counts each of its lanes as NO, as a degraded
    /// scalar run does.
    pub fn distributional_error(
        &self,
        dist: &[WeightedInstance],
        algorithm: &dyn Algorithm,
        coin_seed: u64,
    ) -> f64 {
        let lanes: Vec<Lane<'_>> = dist.iter().map(|wi| (&wi.instance, coin_seed)).collect();
        // Batches are contiguous, so the weights are added in
        // distribution order. A lane's decision is read straight from
        // its run; a transport failure leaves every lane of its batch
        // undecided, which the system rule reads as NO.
        let mut weights = dist.iter();
        let mut error = 0.0f64;
        self.sweep(&lanes, algorithm, |_, runs, result| {
            for (run, wi) in runs.iter().zip(weights.by_ref()) {
                let said_yes = result.is_ok() && run.system_decision() == Decision::Yes;
                error += if said_yes == wi.is_one_cycle {
                    0.0
                } else {
                    wi.weight
                };
            }
        });
        error
    }

    /// [`simulate_two_party_batched`] under this executor's
    /// configuration: its round limit is `max_rounds`, and its
    /// observer receives the kernel's round spans and `engine.*` cost
    /// counters. Observers never change a report field. Pairs may mix
    /// ground-set sizes: each report is costed on its own gadget.
    ///
    /// # Errors
    ///
    /// Same contract as [`simulate_two_party_batched`].
    pub fn simulate_two_party(
        &self,
        gadget: Gadget,
        algorithm: &dyn Algorithm,
        pairs: &[(SetPartition, SetPartition)],
        coin_seed: u64,
    ) -> Result<Vec<SimulationReport>, EngineError> {
        let instances: Vec<Instance> = pairs
            .iter()
            .map(|(pa, pb)| Ok(Instance::new_kt1(gadget_graph(gadget, pa, pb)?)?))
            .collect::<Result<_, EngineError>>()?;
        let lanes: Vec<Lane<'_>> = instances.iter().map(|inst| (inst, coin_seed)).collect();
        let outcomes = self.run(&lanes, algorithm);
        Ok(outcomes
            .into_iter()
            .zip(pairs)
            .map(|(out, (pa, _))| {
                let rounds = out.stats().rounds;
                let characters = rounds * gadget.num_vertices(pa.ground_size());
                SimulationReport {
                    rounds,
                    characters_exchanged: characters,
                    bits_exchanged: 2 * characters + 2 * rounds,
                    decisions: out.decisions().to_vec(),
                    component_labels: out.component_labels().to_vec(),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_LANES;
    use bcc_core::hard::{distributional_error, uniform_two_cycle_distribution};
    use bcc_model::testing::ConstantDecision;

    /// Sweeps whose lane pool carries over between batches: a
    /// multi-chunk one, one whose vertex count grows mid-sweep and one
    /// where it shrinks. `EchoBit` keeps the default `reset`, so its
    /// lanes are re-spawned; the roster's are reset.
    #[test]
    fn batched_error_bitwise_equals_scalar() {
        use bcc_algorithms::{
            HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, ParityDecider, Problem, Truncated,
        };
        use bcc_model::testing::EchoBit;
        let (six, seven) = (
            uniform_two_cycle_distribution(6),
            uniform_two_cycle_distribution(7),
        );
        assert!(six.len() > MAX_LANES, "exercise multi-chunk path");
        let grows: Vec<WeightedInstance> = six.iter().chain(&seven).cloned().collect();
        let shrinks: Vec<WeightedInstance> = seven.iter().chain(&six).cloned().collect();
        for dist in [&six, &grows, &shrinks] {
            for t in 1..=4 {
                let upgrade = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
                let algorithms: [&dyn Algorithm; 5] = [
                    &EchoBit,
                    &ConstantDecision::yes(),
                    &HashVoteDecider::new(t),
                    &ParityDecider::new(t),
                    &Truncated::new(upgrade, t),
                ];
                for algorithm in algorithms {
                    let scalar = distributional_error(dist, algorithm, t, 3);
                    let batched = distributional_error_batched(dist, algorithm, t, 3);
                    assert_eq!(
                        scalar.to_bits(),
                        batched.to_bits(),
                        "{} at t = {t} over {} instances",
                        algorithm.name(),
                        dist.len()
                    );
                }
            }
        }
    }

    /// A batch whose transport dies counts every lane as NO, as its
    /// degraded outcomes would, and the next batch respawns the pool
    /// from the half-run lanes and measures as usual. The sessions die
    /// in round 1, after the lanes ran round 0.
    #[test]
    fn dead_batches_count_every_lane_as_no() {
        use bcc_algorithms::HashVoteDecider;
        use bcc_model::transport::{
            LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
        };
        use bcc_model::Message;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

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
        /// Hands out transports; session `k` dies when `period`
        /// divides `k`.
        struct Sessions {
            created: AtomicUsize,
            period: usize,
        }
        impl TransportFactory for Sessions {
            fn create(&self) -> Box<dyn Transport> {
                let session = self.created.fetch_add(1, Ordering::Relaxed);
                Box::new(Dying(
                    LocalTransport::new(),
                    session.is_multiple_of(self.period),
                ))
            }
            fn label(&self) -> String {
                "dying".to_string()
            }
        }
        let dist = uniform_two_cycle_distribution(7);
        let sweep = |period: usize| {
            let factory = Sessions {
                created: AtomicUsize::new(0),
                period,
            };
            BatchRun::new(
                SimConfig::bcc1(2)
                    .transcripts(false)
                    .transport(Arc::new(factory)),
            )
            .distributional_error(&dist, &HashVoteDecider::new(2), 5)
        };

        // Every session dead: the constant-NO sweep.
        let no = distributional_error(&dist, &ConstantDecision::new(Decision::No), 2, 5);
        assert_eq!(sweep(1).to_bits(), no.to_bits());

        // Every other session dead: the scalar runs, with the dead
        // batches read as NO.
        let cfg = SimConfig::bcc1(2).transcripts(false);
        let expected: f64 = dist
            .chunks(MAX_LANES)
            .enumerate()
            .flat_map(|(batch, chunk)| chunk.iter().map(move |wi| (batch, wi)))
            .map(|(batch, wi)| {
                let said_yes = batch % 2 == 1
                    && cfg
                        .run(&wi.instance, &HashVoteDecider::new(2), 5)
                        .system_decision()
                        == Decision::Yes;
                if said_yes == wi.is_one_cycle {
                    0.0
                } else {
                    wi.weight
                }
            })
            .sum();
        assert_eq!(sweep(2).to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_pair_list_is_empty_report_list() {
        let reports =
            simulate_two_party_batched(Gadget::TwoRegular, &ConstantDecision::yes(), &[], 0, 10);
        assert_eq!(reports.map(|r| r.len()), Ok(0));
    }

    #[test]
    fn pairs_of_mixed_ground_sizes_are_each_costed_on_their_own_gadget() {
        use bcc_algorithms::{NeighborIdBroadcast, Problem};
        use bcc_comm::simulate::simulate_two_party;
        let matching = |n: usize, shift: usize| {
            let blocks: Vec<Vec<usize>> = (0..n / 2)
                .map(|i| vec![(2 * i + shift) % n, (2 * i + 1 + shift) % n])
                .collect();
            SetPartition::from_blocks(n, &blocks).expect("a perfect matching")
        };
        // One long cycle (shifted matchings) and n/2 4-cycles (equal
        // ones), at n = 6 and n = 8, interleaved.
        let pairs: Vec<(SetPartition, SetPartition)> = [6, 8, 8, 6]
            .iter()
            .zip([1, 0, 1, 0])
            .map(|(&n, shift)| (matching(n, 0), matching(n, shift)))
            .collect();
        let algorithm = NeighborIdBroadcast::new(Problem::MultiCycle);
        let reports =
            simulate_two_party_batched(Gadget::TwoRegular, &algorithm, &pairs, 3, 100).unwrap();
        assert_eq!(reports.len(), pairs.len());
        for ((pa, pb), report) in pairs.iter().zip(&reports) {
            let scalar = simulate_two_party(Gadget::TwoRegular, &algorithm, pa, pb, 3, 100);
            let n = pa.ground_size();
            assert_eq!(report.rounds, scalar.rounds, "n = {n}");
            assert_eq!(
                report.characters_exchanged, scalar.characters_exchanged,
                "n = {n}"
            );
            assert_eq!(report.bits_exchanged, scalar.bits_exchanged, "n = {n}");
            assert_eq!(report.decisions, scalar.decisions, "n = {n}");
            assert_eq!(report.component_labels, scalar.component_labels, "n = {n}");
            assert_eq!(report.decisions.len(), Gadget::TwoRegular.num_vertices(n));
        }
        let yes: Vec<bool> = reports
            .iter()
            .map(|r| r.system_decision() == Decision::Yes)
            .collect();
        assert_eq!(yes, [true, false, true, false]);
    }
}
