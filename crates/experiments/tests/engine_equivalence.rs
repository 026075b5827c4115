//! The engine-port contract, checked end to end: every experiment
//! body moved onto `bcc-engine` (E1/E2/E3/E5 — batched kernel +
//! artifact cache) produces numbers byte-identical to the scalar
//! originals, reports are byte-identical at any thread count, and a
//! cold cache, a warm cache, and no cache at all produce the same
//! report bytes. The error sweeps run unrecorded, so E2's roster is
//! also checked to decide alike with recording on and off.

use bcc_algorithms::{
    HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, ParityDecider, Problem, Truncated,
};
use bcc_comm::reduction::Gadget;
use bcc_comm::simulate::simulate_two_party;
use bcc_core::hard::{distributional_error, star_distribution, uniform_two_cycle_distribution};
use bcc_core::indist::IndistGraph;
use bcc_experiments::job::{Value, DEFAULT_SEED};
use bcc_experiments::RunRequest;
use bcc_model::testing::ConstantDecision;
use bcc_model::{Algorithm, SimConfig};
use bcc_partitions::random::uniform_matching_partition;
use rand::SeedableRng;

/// Every error E1's quick-mode jobs report is bit for bit the scalar
/// `distributional_error` of the same `(n, t, algorithm, coin)` piece.
#[test]
fn e1_job_errors_match_scalar_measurements() {
    let run = RunRequest::new(["e1"], true, DEFAULT_SEED)
        .run()
        .expect("known id");
    let mut pieces = 0;
    for result in &run.job_results {
        let out = result.status.output().expect("every e1 job completes");
        let Some(Value::Str(algo)) = out.get("algo") else {
            continue; // the transition job
        };
        let n = usize::try_from(out.int("n").expect("n")).expect("n fits");
        let t = usize::try_from(out.int("t").expect("t")).expect("t fits");
        let coin = out
            .int("coin")
            .map_or(0, |c| u64::try_from(c).expect("coin fits"));
        let dist = star_distribution(n);
        let scalar = match algo.as_str() {
            "constant-yes" => distributional_error(&dist, &ConstantDecision::yes(), t, coin),
            "hash-vote(rand)" => {
                distributional_error(&dist, &HashVoteDecider::new(t.max(1)), t, coin)
            }
            "parity-vote" => distributional_error(&dist, &ParityDecider::new(t.max(1)), t, coin),
            "truncated-real" => {
                let trunc = Truncated::new(
                    Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
                    t,
                );
                distributional_error(&dist, &trunc, t, coin)
            }
            other => panic!("unknown e1 piece {other:?}"),
        };
        let batched = out.float("error").expect("error");
        assert_eq!(
            batched.to_bits(),
            scalar.to_bits(),
            "{}: batched {batched} != scalar {scalar}",
            out.label
        );
        pieces += 1;
    }
    // Quick grid: 2 sizes x 3 round budgets x (3 algorithms + 5 coins).
    assert_eq!(pieces, 48);
}

/// E2's cache-fronted `structure_row` matches a row built from a
/// directly-recomputed graph, field for field (including the
/// RNG-sampled expansion — both sides consume the RNG identically).
#[test]
fn e2_structure_row_matches_direct_graph() {
    let n = 7;
    let mut rng_cached = rand::rngs::StdRng::seed_from_u64(99);
    let cached = bcc_experiments::exp_e2_indist::structure_row(n, &mut rng_cached);

    let g = IndistGraph::round_zero(n);
    let mut rng_direct = rand::rngs::StdRng::seed_from_u64(99);
    let sizes = [1, 2, g.v2_len() / 4 + 1, g.v2_len()];
    let expansion = g.sampled_expansion_v2(&sizes, 8, &mut rng_direct);

    assert_eq!(cached.v1, g.v1_len());
    assert_eq!(cached.v2, g.v2_len());
    assert_eq!(cached.ratio.to_bits(), g.count_ratio().to_bits());
    assert_eq!(
        cached.k_v2,
        g.max_k_matching_v2(1 + g.v1_len() / g.v2_len().max(1))
    );
    assert_eq!(cached.expansion.to_bits(), expansion.to_bits());
    assert!(cached.degrees_exact);
}

/// Both error sweeps run unrecorded, so this pins what they rest on
/// with E2's roster on the paper's hard distribution: on every
/// instance, a recorded run and an unrecorded one agree on decisions,
/// statistics and completion.
#[test]
fn e2_roster_runs_agree_recorded_and_unrecorded() {
    let dist = uniform_two_cycle_distribution(6);
    for t in [1usize, 2] {
        let trunc = Truncated::new(
            Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
            t,
        );
        let roster: [&dyn Algorithm; 4] = [
            &ConstantDecision::yes(),
            &HashVoteDecider::new(t),
            &ParityDecider::new(t),
            &trunc,
        ];
        let (recording, unrecorded) = (SimConfig::bcc1(t), SimConfig::bcc1(t).transcripts(false));
        for algorithm in roster {
            for (i, wi) in dist.iter().enumerate() {
                let on = recording.run(&wi.instance, algorithm, 0);
                let off = unrecorded.run(&wi.instance, algorithm, 0);
                let at = format!("{} t={t} instance {i}", algorithm.name());
                assert!(on.recorded() && !off.recorded(), "{at}");
                assert_eq!(on.decisions(), off.decisions(), "{at}");
                assert_eq!(on.stats(), off.stats(), "{at}");
                assert_eq!(on.completed(), off.completed(), "{at}");
            }
        }
    }
}

/// E5's batched `sim_row` reproduces the scalar per-pair simulation
/// loop: same RNG stream, same worst-case rounds and bits, same
/// correctness verdict.
#[test]
fn e5_sim_row_matches_scalar_simulation_loop() {
    let (n, samples, seed) = (6usize, 4usize, 1234u64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let row = bcc_experiments::exp_e5_simulation::sim_row(
        n,
        samples,
        &mut rng,
        bcc_trace::Observer::off(),
    );

    let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
    let mut rng_ref = rand::rngs::StdRng::seed_from_u64(seed);
    let mut worst_rounds = 0;
    let mut worst_bits = 0;
    let mut correct = true;
    for _ in 0..samples {
        let pa = uniform_matching_partition(n, &mut rng_ref);
        let pb = uniform_matching_partition(n, &mut rng_ref);
        let report = simulate_two_party(Gadget::TwoRegular, &algo, &pa, &pb, 0, 1_000_000);
        worst_rounds = worst_rounds.max(report.rounds);
        worst_bits = worst_bits.max(report.bits_exchanged);
        let expect_yes = pa.join(&pb).is_trivial();
        correct &= (report.system_decision() == bcc_model::Decision::Yes) == expect_yes;
    }
    assert_eq!(row.rounds, worst_rounds);
    assert_eq!(row.bits, worst_bits);
    assert_eq!(row.correct, correct);
}

/// The ported experiments produce byte-identical reports at 1 and 8
/// worker threads (the suite determinism guarantee survives the
/// engine port).
#[test]
fn ported_experiments_deterministic_across_thread_counts() {
    let request = RunRequest::new(["e1", "e2", "e3", "e5"], true, DEFAULT_SEED);
    let serial = request.clone().jobs(1).run().expect("known ids");
    let parallel = request.jobs(8).run().expect("known ids");
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(
            s.text, p.text,
            "{} report drifted across thread counts",
            s.experiment
        );
        assert!(s.passed, "{} failed: {:?}", s.experiment, s.checks);
    }
}

/// Cold cache, warm cache, and repeated warm runs produce
/// byte-identical reports: the artifact store trades recomputation
/// for lookups and never changes a report byte. Requests the
/// disk-backed store (the `--cache` path); the process-wide store is
/// a first-configuration-wins `OnceLock`, so if another test in this
/// binary raced ahead the runs fall back to the in-memory store — the
/// invariant under test holds identically on both backings (the CI
/// cache-smoke step covers cross-process disk persistence).
#[test]
fn cache_cold_and_warm_reports_are_byte_identical() {
    let dir = std::env::temp_dir().join("bcc-engine-equivalence-cache");
    let request = RunRequest::new(["e2", "e3"], true, DEFAULT_SEED)
        .jobs(2)
        .cache(dir);
    let cold = request.run().expect("known ids");
    let warm = request.run().expect("known ids");
    let warm_again = request.run().expect("known ids");
    for ((c, w), wa) in cold
        .reports
        .iter()
        .zip(&warm.reports)
        .zip(&warm_again.reports)
    {
        assert_eq!(c.text, w.text, "{} drifted cold -> warm", c.experiment);
        assert_eq!(w.text, wa.text, "{} drifted warm -> warm", w.experiment);
        assert!(c.passed, "{} failed: {:?}", c.experiment, c.checks);
    }
}
