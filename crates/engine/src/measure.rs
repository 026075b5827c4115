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

use crate::batch::{BatchBuffers, BatchRun, Lane, MAX_LANES};
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
/// advances up to [`MAX_LANES`] weighted instances per lockstep batch
/// instead of one scalar run per instance.
///
/// Byte-identical to the scalar function for every distribution: the
/// mismatch weights are accumulated in distribution order (batches
/// are contiguous slices), so the `f64` additions happen in the exact
/// sequence the scalar `.sum()` performs. Transcript recording is
/// skipped — decisions are independent of it — which is where most of
/// the per-run saving comes from. To observe the kernel, run
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

/// The batched form of [`bcc_core::hard::randomized_error`]: averages
/// [`distributional_error_batched`] over the given coin seeds, in
/// coin order — byte-identical to the scalar average.
pub fn randomized_error_batched(
    dist: &[WeightedInstance],
    algorithm: &dyn Algorithm,
    t: usize,
    coins: &[u64],
) -> f64 {
    coins
        .iter()
        .map(|&c| distributional_error_batched(dist, algorithm, t, c))
        .sum::<f64>()
        / coins.len() as f64
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
///
/// # Panics
///
/// Panics if the pairs mix ground-set sizes (lanes must share one
/// gadget shape).
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
    /// Observers never change the returned error.
    pub fn distributional_error(
        &self,
        dist: &[WeightedInstance],
        algorithm: &dyn Algorithm,
        coin_seed: u64,
    ) -> f64 {
        let mut error = 0.0f64;
        // Every batch refills one outbox and one view.
        let mut buffers = BatchBuffers::default();
        let mut i = 0;
        while i < dist.len() {
            // A batch is a maximal contiguous same-shape slice of the
            // distribution, capped at the lane width. The hard
            // distributions are single-n, so this is one full chunk
            // per 64 instances.
            let n = dist[i].instance.num_vertices();
            let mut j = i + 1;
            while j < dist.len() && j - i < MAX_LANES && dist[j].instance.num_vertices() == n {
                j += 1;
            }
            let lanes: Vec<Lane<'_>> = dist[i..j]
                .iter()
                .map(|wi| (&wi.instance, coin_seed))
                .collect();
            let outcomes = self.run_with(&lanes, algorithm, &mut buffers);
            for (wi, out) in dist[i..j].iter().zip(&outcomes) {
                let said_yes = out.system_decision() == Decision::Yes;
                error += if said_yes == wi.is_one_cycle {
                    0.0
                } else {
                    wi.weight
                };
            }
            i = j;
        }
        error
    }

    /// [`simulate_two_party_batched`] under this executor's
    /// configuration: its round limit is `max_rounds`, and its
    /// observer receives the kernel's round spans and `engine.*` cost
    /// counters. Observers never change a report field.
    ///
    /// # Errors
    ///
    /// Same contract as [`simulate_two_party_batched`].
    ///
    /// # Panics
    ///
    /// Same contract as [`simulate_two_party_batched`].
    pub fn simulate_two_party(
        &self,
        gadget: Gadget,
        algorithm: &dyn Algorithm,
        pairs: &[(SetPartition, SetPartition)],
        coin_seed: u64,
    ) -> Result<Vec<SimulationReport>, EngineError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let n = pairs[0].0.ground_size();
        assert!(
            pairs
                .iter()
                .all(|(pa, pb)| pa.ground_size() == n && pb.ground_size() == n),
            "all pairs must share one ground-set size"
        );
        let num_vertices = gadget.num_vertices(n);
        let instances: Vec<Instance> = pairs
            .iter()
            .map(|(pa, pb)| Ok(Instance::new_kt1(gadget_graph(gadget, pa, pb)?)?))
            .collect::<Result<_, EngineError>>()?;
        let lanes: Vec<Lane<'_>> = instances.iter().map(|inst| (inst, coin_seed)).collect();
        let outcomes = self.run_chunked(&lanes, algorithm);
        Ok(outcomes
            .into_iter()
            .map(|out| {
                let rounds = out.stats().rounds;
                let characters = rounds * num_vertices;
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
    use bcc_core::hard::{
        distributional_error, randomized_error, star_distribution, uniform_two_cycle_distribution,
    };
    use bcc_model::testing::ConstantDecision;

    #[test]
    fn batched_error_bitwise_equals_scalar() {
        let dist = uniform_two_cycle_distribution(6);
        assert!(dist.len() > MAX_LANES, "exercise multi-chunk path");
        let algo = ConstantDecision::yes();
        let scalar = distributional_error(&dist, &algo, 2, 0);
        let batched = distributional_error_batched(&dist, &algo, 2, 0);
        assert_eq!(scalar.to_bits(), batched.to_bits());
    }

    #[test]
    fn batched_randomized_error_matches() {
        let dist = star_distribution(9);
        let coins = [0u64, 1, 2];
        let scalar = randomized_error(&dist, &ConstantDecision::new(Decision::No), 1, &coins);
        let batched =
            randomized_error_batched(&dist, &ConstantDecision::new(Decision::No), 1, &coins);
        assert_eq!(scalar.to_bits(), batched.to_bits());
    }

    #[test]
    fn empty_pair_list_is_empty_report_list() {
        let reports =
            simulate_two_party_batched(Gadget::TwoRegular, &ConstantDecision::yes(), &[], 0, 10);
        assert_eq!(reports.map(|r| r.len()), Ok(0));
    }
}
