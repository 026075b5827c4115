//! The hard distributions of Theorems 3.5 and 3.1 and Yao-style
//! distributional error measurement.

use crate::crossing::{are_independent, cross_instance, DirectedEdge};
use bcc_graphs::cycles::{classify_two_cycle, TwoCycleClass};
use bcc_graphs::enumerate::{one_cycles, two_cycle_graphs};
use bcc_graphs::generators;
use bcc_model::{Algorithm, Decision, Instance, SimConfig};

/// A weighted instance of the `TwoCycle` problem: the instance, its
/// ground truth, and its probability mass.
#[derive(Debug, Clone)]
pub struct WeightedInstance {
    /// The instance (over the canonical KT-0 network, possibly
    /// rewired by a crossing).
    pub instance: Instance,
    /// The ground truth: `true` = one cycle (YES).
    pub is_one_cycle: bool,
    /// Probability mass.
    pub weight: f64,
}

/// The warm-up hard distribution µ of Theorem 3.5: mass 1/2 on one
/// fixed one-cycle instance `I` (the canonical cycle), and 1/2 spread
/// uniformly over all crossings `I(e, e′)` with `e, e′` drawn from a
/// fixed independent edge set `S` of size `⌊n/3⌋` (edges
/// `3k → 3k+1`).
///
/// # Panics
///
/// Panics if `n < 9` (need at least 3 independent edges and valid
/// crossings).
pub fn star_distribution(n: usize) -> Vec<WeightedInstance> {
    assert!(n >= 9, "the star distribution needs n >= 9");
    let base = Instance::new_kt0_canonical(generators::cycle(n)).expect("canonical instance");
    let s: Vec<DirectedEdge> = (0..n / 3)
        .map(|k| DirectedEdge::new(3 * k, 3 * k + 1))
        .collect();
    let mut crossings = Vec::new();
    for (a, &e1) in s.iter().enumerate() {
        for &e2 in &s[a + 1..] {
            debug_assert!(
                are_independent(base.input(), e1, e2),
                "S must be independent"
            );
            let crossed = cross_instance(&base, e1, e2).expect("independent crossing");
            debug_assert_eq!(
                classify_two_cycle(crossed.input()).expect("crossing preserves promise"),
                TwoCycleClass::TwoCycles
            );
            crossings.push(crossed);
        }
    }
    let each = 0.5 / crossings.len() as f64;
    let mut out = vec![WeightedInstance {
        instance: base,
        is_one_cycle: true,
        weight: 0.5,
    }];
    out.extend(crossings.into_iter().map(|instance| WeightedInstance {
        instance,
        is_one_cycle: false,
        weight: each,
    }));
    out
}

/// The Theorem 3.1 hard distribution: mass 1/2 uniform over **all**
/// one-cycle instances and 1/2 uniform over **all** two-cycle
/// instances (over the canonical network). Exact enumeration —
/// `|V₁| + |V₂|` instances — so use small `n`.
pub fn uniform_two_cycle_distribution(n: usize) -> Vec<WeightedInstance> {
    let ones: Vec<_> = one_cycles(n).collect();
    let twos: Vec<_> = two_cycle_graphs(n).collect();
    let w1 = 0.5 / ones.len() as f64;
    let w2 = 0.5 / twos.len() as f64;
    let mut out = Vec::with_capacity(ones.len() + twos.len());
    for g in ones {
        out.push(WeightedInstance {
            instance: Instance::new_kt0_canonical(g).expect("canonical instance"),
            is_one_cycle: true,
            weight: w1,
        });
    }
    for g in twos {
        out.push(WeightedInstance {
            instance: Instance::new_kt0_canonical(g).expect("canonical instance"),
            is_one_cycle: false,
            weight: w2,
        });
    }
    out
}

/// The distributional error of a `t`-round run of `algorithm` under a
/// weighted instance family: the probability mass of instances on
/// which the *system decision* (YES iff all vertices vote YES;
/// undecided counts against YES, per Section 1.2) disagrees with the
/// ground truth.
pub fn distributional_error(
    dist: &[WeightedInstance],
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> f64 {
    let sim = SimConfig::bcc1(t);
    dist.iter()
        .map(|wi| {
            let out = sim.run(&wi.instance, algorithm, coin_seed);
            let said_yes = out.system_decision() == Decision::Yes;
            if said_yes == wi.is_one_cycle {
                0.0
            } else {
                wi.weight
            }
        })
        .sum()
}

/// Averages [`distributional_error`] over several public-coin seeds —
/// the error of the *randomized* algorithm under the distribution
/// (the quantity Theorem 3.1 bounds below by a constant for
/// `t = o(log n)`).
// bcc-lint: allow(U1): scalar reference oracle that the batched engine is tested against
pub fn randomized_error(
    dist: &[WeightedInstance],
    algorithm: &dyn Algorithm,
    t: usize,
    coins: &[u64],
) -> f64 {
    coins
        .iter()
        .map(|&c| distributional_error(dist, algorithm, t, c))
        .sum::<f64>()
        / coins.len() as f64
}

/// The error floor the warm-up star argument guarantees for any
/// deterministic `t`-round algorithm that answers YES on the base
/// instance: at least `C(s′, 2) / (2·C(s, 2))` where `s = ⌊n/3⌋` and
/// `s′ = ⌈s / 3^{2t}⌉` (the pigeonhole label-class size). This is the
/// `Ω(3^{−4t})` of Theorem 3.5.
pub fn star_error_floor(n: usize, t: usize) -> f64 {
    let s = n / 3;
    let classes = 9f64.powi(t as i32);
    let s_prime = (s as f64 / classes).ceil();
    if s_prime < 2.0 {
        return 0.0;
    }
    let pairs = |x: f64| x * (x - 1.0) / 2.0;
    pairs(s_prime) / (2.0 * pairs(s as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_algorithms::{Kt0Upgrade, NeighborIdBroadcast, Problem, Truncated};
    use bcc_model::testing::ConstantDecision;

    #[test]
    fn star_distribution_masses() {
        let d = star_distribution(9);
        // 3 independent edges → C(3,2) = 3 crossings + the base.
        assert_eq!(d.len(), 4);
        let total: f64 = d.iter().map(|wi| wi.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(d[0].is_one_cycle);
        assert!(d[1..].iter().all(|wi| !wi.is_one_cycle));
    }

    #[test]
    fn uniform_distribution_masses() {
        let d = uniform_two_cycle_distribution(6);
        assert_eq!(d.len(), 60 + 10);
        let yes_mass: f64 = d
            .iter()
            .filter(|wi| wi.is_one_cycle)
            .map(|wi| wi.weight)
            .sum();
        assert!((yes_mass - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_algorithms_err_half() {
        // Constant-YES errs on exactly the NO mass (1/2); same for
        // constant-NO on the YES mass.
        let d = uniform_two_cycle_distribution(6);
        let e_yes = distributional_error(&d, &ConstantDecision::yes(), 0, 0);
        let e_no = distributional_error(&d, &ConstantDecision::new(Decision::No), 0, 0);
        assert!((e_yes - 0.5).abs() < 1e-12);
        assert!((e_no - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_algorithm_achieves_zero_error() {
        // With enough rounds, the real KT-0 algorithm is exact.
        let d = uniform_two_cycle_distribution(6);
        let algo = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
        let e = distributional_error(&d, &algo, 100, 0);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn truncated_algorithm_errs_on_star() {
        // Truncated to t << log n, the real algorithm cannot separate
        // the star: it answers uniformly, erring on at least the
        // predicted floor.
        let n = 12;
        let d = star_distribution(n);
        let algo = Truncated::new(
            Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
            1,
        );
        let e = distributional_error(&d, &algo, 1, 0);
        let floor = star_error_floor(n, 1);
        assert!(
            e + 1e-12 >= floor.min(0.5),
            "error {e} below star floor {floor}"
        );
        // Truncated-yes answers YES everywhere → errs exactly 1/2.
        assert!((e - 0.5).abs() < 1e-9);
    }

    #[test]
    fn star_error_floor_shape() {
        // At t = 0 the floor is 1/2... all of I(S) indistinguishable.
        assert!((star_error_floor(30, 0) - 0.5).abs() < 1e-12);
        // Decays with t, vanishing once 3^{2t} swallows s.
        assert!(star_error_floor(30, 1) < 0.5);
        assert!(star_error_floor(30, 1) > 0.0);
        assert_eq!(star_error_floor(9, 3), 0.0);
    }

    #[test]
    fn randomized_error_averages() {
        let d = star_distribution(9);
        let e = randomized_error(&d, &ConstantDecision::yes(), 0, &[0, 1, 2]);
        assert!((e - 0.5).abs() < 1e-12);
    }
}
