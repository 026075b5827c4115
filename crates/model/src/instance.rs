//! A `BCC(b)` instance: network + input graph.

use crate::error::ModelError;
use crate::network::{KnowledgeMode, Network};
use crate::program::InitialKnowledge;
use crate::transport::Routes;
use bcc_graphs::Graph;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A complete problem instance: the clique [`Network`] plus the input
/// graph (a subset of the network edges).
///
/// # Example
///
/// ```
/// use bcc_model::Instance;
/// use bcc_graphs::generators;
///
/// let i = Instance::new_kt0(generators::cycle(5), 7).unwrap();
/// assert_eq!(i.num_vertices(), 5);
/// assert_eq!(i.input().num_edges(), 5);
/// ```
///
/// A vertex's initial knowledge and the instance's delivery plan are
/// functions of the instance alone, so the first run derives them into
/// a shared table that every later run (and every clone) reads. Any
/// change to the wiring or the input drops the table. Equality and
/// `Debug` see only the network and the input graph.
#[derive(Clone)]
pub struct Instance {
    network: Network,
    input: Graph,
    start: OnceLock<Arc<StartTable>>,
}

/// What every run of an instance starts from, derived once: each
/// vertex's port labels and sorted input-port labels, the sorted IDs
/// (KT-1), and the delivery plan.
struct StartTable {
    /// `port_labels[v]`, in port-index order. In KT-0 every entry is
    /// the same `1..n−1` slice.
    port_labels: Vec<Arc<[u64]>>,
    /// `input_port_labels[v]`, sorted.
    input_port_labels: Vec<Arc<[u64]>>,
    /// All IDs, sorted; `None` in KT-0.
    all_ids: Option<Arc<[u64]>>,
    routes: Routes,
}

impl StartTable {
    fn of(network: &Network, input: &Graph) -> StartTable {
        let n = network.num_vertices();
        let port_labels = match network.mode() {
            KnowledgeMode::Kt0 => {
                let shared: Arc<[u64]> = (1..n as u64).collect();
                vec![shared; n]
            }
            KnowledgeMode::Kt1 => (0..n)
                .map(|v| (0..n - 1).map(|p| network.port_label(v, p)).collect())
                .collect(),
        };
        let input_port_labels = (0..n)
            .map(|v| {
                let mut labels: Vec<u64> = input
                    .neighbors(v)
                    .iter()
                    .map(|&w| network.label_of_peer(v, w))
                    .collect();
                labels.sort_unstable();
                labels.into()
            })
            .collect();
        let all_ids = match network.mode() {
            KnowledgeMode::Kt0 => None,
            KnowledgeMode::Kt1 => {
                let mut ids = network.ids().to_vec();
                ids.sort_unstable();
                Some(ids.into())
            }
        };
        StartTable {
            port_labels,
            input_port_labels,
            all_ids,
            routes: Routes::of(network),
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.network == other.network && self.input == other.input
    }
}

impl Eq for Instance {}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("network", &self.network)
            .field("input", &self.input)
            .finish()
    }
}

impl Instance {
    /// Builds an instance from an existing network and input graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the input graph has more vertices than the
    /// network.
    pub fn new(network: Network, input: Graph) -> Result<Self, ModelError> {
        if input.num_vertices() != network.num_vertices() {
            return Err(ModelError::GraphTooLarge {
                graph: input.num_vertices(),
                network: network.num_vertices(),
            });
        }
        Ok(Instance {
            network,
            input,
            start: OnceLock::new(),
        })
    }

    /// A KT-1 instance with IDs `0..n`.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn new_kt1(input: Graph) -> Result<Self, ModelError> {
        let ids = (0..input.num_vertices() as u64).collect();
        Instance::new_kt1_with_ids(input, ids)
    }

    /// A KT-1 instance with explicit IDs (`ids[v]` = ID of vertex `v`).
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate IDs or size mismatch.
    pub fn new_kt1_with_ids(input: Graph, ids: Vec<u64>) -> Result<Self, ModelError> {
        if ids.len() != input.num_vertices() {
            return Err(ModelError::IdCountMismatch {
                got: ids.len(),
                expected: input.num_vertices(),
            });
        }
        Instance::new(Network::kt1(ids)?, input)
    }

    /// A KT-0 instance with IDs `0..n` and seeded random port wiring.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn new_kt0(input: Graph, wiring_seed: u64) -> Result<Self, ModelError> {
        let ids = (0..input.num_vertices() as u64).collect();
        Instance::new(Network::kt0_seeded(ids, wiring_seed)?, input)
    }

    /// A KT-0 instance with the canonical (identity) port wiring,
    /// convenient for exhaustive enumerations where the wiring must be
    /// fixed across all instances (Definition 3.6 compares instances
    /// over the *same* network).
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn new_kt0_canonical(input: Graph) -> Result<Self, ModelError> {
        let ids = (0..input.num_vertices() as u64).collect();
        Instance::new(Network::kt0_canonical(ids)?, input)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.network.num_vertices()
    }

    /// The knowledge mode.
    pub fn mode(&self) -> KnowledgeMode {
        self.network.mode()
    }

    /// The input graph.
    pub fn input(&self) -> &Graph {
        &self.input
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network wiring (used by the crossing
    /// machinery; KT-1 networks refuse rewiring internally). Drops the
    /// derived start table, which the next run rebuilds.
    pub fn network_mut(&mut self) -> &mut Network {
        self.start = OnceLock::new();
        &mut self.network
    }

    /// Replaces the input edge set, keeping the network.
    ///
    /// # Errors
    ///
    /// Returns an error if the new graph's vertex count differs.
    pub fn set_input(&mut self, input: Graph) -> Result<(), ModelError> {
        if input.num_vertices() != self.network.num_vertices() {
            return Err(ModelError::GraphTooLarge {
                graph: input.num_vertices(),
                network: self.network.num_vertices(),
            });
        }
        self.input = input;
        self.start = OnceLock::new();
        Ok(())
    }

    /// The derived start table, built on first use.
    fn start(&self) -> &StartTable {
        self.start
            .get_or_init(|| Arc::new(StartTable::of(&self.network, &self.input)))
    }

    /// The delivery plan of this instance's network, derived once and
    /// shared: cloning it allocates nothing.
    pub fn routes(&self) -> &Routes {
        &self.start().routes
    }

    /// The initial knowledge of vertex `v` per Section 1.2: its ID,
    /// `n`, its port labels, which ports carry input edges, (KT-1) all
    /// IDs, and the shared random string (public-coin seed). The label
    /// and ID slices come from the instance's start table, so on a
    /// warm instance this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn initial_knowledge(
        &self,
        v: usize,
        bandwidth: usize,
        coin_seed: u64,
    ) -> InitialKnowledge {
        let start = self.start();
        InitialKnowledge {
            id: self.network.id(v),
            n: self.num_vertices(),
            bandwidth,
            mode: self.mode(),
            port_labels: Arc::clone(&start.port_labels[v]),
            input_port_labels: Arc::clone(&start.input_port_labels[v]),
            all_ids: start.all_ids.clone(),
            coin_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;

    #[test]
    fn kt1_initial_knowledge() {
        let i = Instance::new_kt1(generators::cycle(5)).unwrap();
        let ik = i.initial_knowledge(0, 1, 99);
        assert_eq!(ik.id, 0);
        assert_eq!(ik.n, 5);
        assert_eq!(ik.bandwidth, 1);
        assert_eq!(ik.coin_seed, 99);
        assert_eq!(ik.mode, KnowledgeMode::Kt1);
        // Vertex 0's cycle neighbors are 1 and 4; labels are their ids.
        assert_eq!(*ik.input_port_labels, [1, 4]);
        assert_eq!(ik.all_ids.as_deref(), Some(&[0, 1, 2, 3, 4][..]));
        assert_eq!(*ik.port_labels, [1, 2, 3, 4]);
    }

    #[test]
    fn kt0_initial_knowledge_hides_ids() {
        let i = Instance::new_kt0(generators::cycle(5), 3).unwrap();
        let ik = i.initial_knowledge(2, 1, 0);
        assert_eq!(ik.mode, KnowledgeMode::Kt0);
        assert!(ik.all_ids.is_none());
        assert_eq!(*ik.port_labels, [1, 2, 3, 4]);
        assert_eq!(ik.input_port_labels.len(), 2);
        // Input port labels are port numbers, not ids.
        for &l in ik.input_port_labels.iter() {
            assert!((1..=4).contains(&l));
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let net = Network::kt1(vec![0, 1, 2]).unwrap();
        assert!(Instance::new(net, generators::cycle(4)).is_err());
        let mut i = Instance::new_kt1(generators::cycle(4)).unwrap();
        assert!(i.set_input(generators::cycle(5)).is_err());
        // The complement of C_4: a perfect matching on the same 4 vertices.
        let matching = bcc_graphs::Graph::from_edges(4, [(0, 2), (1, 3)]).unwrap();
        assert!(i.set_input(matching).is_ok());
    }

    #[test]
    fn id_count_mismatch() {
        assert!(matches!(
            Instance::new_kt1_with_ids(generators::cycle(3), vec![1, 2]),
            Err(ModelError::IdCountMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn canonical_wiring_is_deterministic() {
        let a = Instance::new_kt0_canonical(generators::cycle(6)).unwrap();
        let b = Instance::new_kt0_canonical(generators::cycle(6)).unwrap();
        assert_eq!(a, b);
    }

    /// Every vertex's knowledge and the delivery plan of `a` equal
    /// those of `b`.
    fn assert_same_start(a: &Instance, b: &Instance) {
        for v in 0..a.num_vertices() {
            assert_eq!(
                a.initial_knowledge(v, 2, 5),
                b.initial_knowledge(v, 2, 5),
                "vertex {v}"
            );
        }
        assert_eq!(a.routes(), b.routes());
    }

    #[test]
    fn set_input_drops_the_start_table() {
        let mut warm = Instance::new_kt0(generators::cycle(6), 4).unwrap();
        let _ = warm.initial_knowledge(0, 1, 0);
        let _ = warm.routes();
        let other = generators::two_cycles(3, 3);
        warm.set_input(other.clone()).unwrap();
        let mut cold = Instance::new_kt0(generators::cycle(6), 4).unwrap();
        cold.set_input(other).unwrap();
        assert_same_start(&warm, &cold);
    }

    #[test]
    fn network_mut_drops_the_start_table() {
        let mut warm = Instance::new_kt0_canonical(generators::cycle(5)).unwrap();
        let before = warm.routes().clone();
        warm.network_mut().swap_peers(0, 1, 2).unwrap();
        assert_ne!(*warm.routes(), before);
        assert_eq!(*warm.routes(), Routes::of(warm.network()));
        let mut cold = Instance::new_kt0_canonical(generators::cycle(5)).unwrap();
        cold.network_mut().swap_peers(0, 1, 2).unwrap();
        assert_same_start(&warm, &cold);
    }

    #[test]
    fn warm_instance_equals_and_formats_like_its_cold_twin() {
        for warm in [
            Instance::new_kt0(generators::cycle(5), 3).unwrap(),
            Instance::new_kt1(generators::two_cycles(3, 3)).unwrap(),
        ] {
            let cold = warm.clone();
            let _ = warm.initial_knowledge(1, 1, 0);
            let _ = warm.routes();
            assert_eq!(warm, cold);
            assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
            assert_eq!(format!("{warm:#?}"), format!("{cold:#?}"));
            assert_same_start(&warm, &cold);
        }
    }

    #[test]
    fn kt0_vertices_share_one_port_label_slice() {
        let i = Instance::new_kt0(generators::cycle(5), 3).unwrap();
        let a = i.initial_knowledge(0, 1, 0);
        let b = i.initial_knowledge(4, 1, 9);
        assert!(Arc::ptr_eq(&a.port_labels, &b.port_labels));
    }
}
