//! The clique communication network: IDs, ports and wiring.

use crate::error::ModelError;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The two initial-knowledge regimes of the paper (notation from
/// Awerbuch et al.): "Knowledge Till 0 hops" vs "Knowledge Till 1 hop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnowledgeMode {
    /// Ports are labeled `1..n−1` arbitrarily; labels carry no
    /// information about the peer.
    Kt0,
    /// The port of `u` leading to `v` is labeled `ID(v)`; all vertices
    /// know all `n` IDs.
    Kt1,
}

/// The communication network: a clique on `n` vertices with per-vertex
/// port assignments.
///
/// Every pair of distinct vertices is joined by a *network edge*; the
/// edge `{u, v}` attaches to exactly one port of `u` and one port of
/// `v`. In KT-0 the attachment is an arbitrary permutation per vertex
/// (and may be [rewired](Network::swap_peers) — the degree of freedom
/// behind port-preserving crossings); in KT-1 the port of `u` to `v`
/// is labeled `ID(v)` and the wiring is rigid.
///
/// Construction is crate-private: networks come into existence only
/// through [`Instance`](crate::Instance) constructors
/// (`new_kt1`, `new_kt0`, …), which pair a wiring with an input graph
/// and validate both. Callers inspect a network through the read
/// accessors here and hand its delivery plan to transports via
/// [`Routes::of`](crate::transport::Routes::of).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    mode: KnowledgeMode,
    ids: Vec<u64>,
    /// `port_to_peer[v][p]` = the vertex at the far end of port `p` of `v`.
    port_to_peer: Vec<Vec<usize>>,
    /// `peer_to_port[v][w]` = the port of `v` leading to `w`
    /// (`usize::MAX` on the diagonal).
    peer_to_port: Vec<Vec<usize>>,
}

impl Network {
    fn from_permutations(
        mode: KnowledgeMode,
        ids: Vec<u64>,
        port_to_peer: Vec<Vec<usize>>,
    ) -> Result<Self, ModelError> {
        let n = ids.len();
        let mut seen = std::collections::BTreeSet::new();
        for &id in &ids {
            if !seen.insert(id) {
                return Err(ModelError::DuplicateIds { id });
            }
        }
        let mut peer_to_port = vec![vec![usize::MAX; n]; n];
        for v in 0..n {
            debug_assert_eq!(port_to_peer[v].len(), n.saturating_sub(1));
            for (p, &w) in port_to_peer[v].iter().enumerate() {
                peer_to_port[v][w] = p;
            }
        }
        Ok(Network {
            mode,
            ids,
            port_to_peer,
            peer_to_port,
        })
    }

    /// A KT-1 network with the given IDs; ports of each vertex are
    /// ordered by increasing peer ID (the order is immaterial since
    /// labels are IDs, but a canonical order keeps runs reproducible).
    ///
    /// # Errors
    ///
    /// Returns an error if IDs are not distinct.
    pub(crate) fn kt1(ids: Vec<u64>) -> Result<Self, ModelError> {
        let n = ids.len();
        let port_to_peer: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut peers: Vec<usize> = (0..n).filter(|&w| w != v).collect();
                peers.sort_by_key(|&w| ids[w]);
                peers
            })
            .collect();
        Network::from_permutations(KnowledgeMode::Kt1, ids, port_to_peer)
    }

    /// A KT-0 network with canonical wiring: port `p` of `v` leads to
    /// the `p`-th other vertex in index order.
    ///
    /// # Errors
    ///
    /// Returns an error if IDs are not distinct.
    pub(crate) fn kt0_canonical(ids: Vec<u64>) -> Result<Self, ModelError> {
        let n = ids.len();
        let port_to_peer: Vec<Vec<usize>> = (0..n)
            .map(|v| (0..n).filter(|&w| w != v).collect())
            .collect();
        Network::from_permutations(KnowledgeMode::Kt0, ids, port_to_peer)
    }

    /// A KT-0 network with seeded pseudo-random port permutations —
    /// the "arbitrarily numbered" ports of the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if IDs are not distinct.
    pub(crate) fn kt0_seeded(ids: Vec<u64>, seed: u64) -> Result<Self, ModelError> {
        let n = ids.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let port_to_peer: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut peers: Vec<usize> = (0..n).filter(|&w| w != v).collect();
                peers.shuffle(&mut rng);
                peers
            })
            .collect();
        Network::from_permutations(KnowledgeMode::Kt0, ids, port_to_peer)
    }

    /// The knowledge mode.
    pub fn mode(&self) -> KnowledgeMode {
        self.mode
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// The ID of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn id(&self, v: usize) -> u64 {
        self.ids[v]
    }

    /// All IDs, in vertex-index order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The vertex at the far end of port `p` of `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn peer_of(&self, v: usize, p: usize) -> usize {
        self.port_to_peer[v][p]
    }

    /// The port of `v` leading to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `v == w` or out of range.
    pub fn port_of(&self, v: usize, w: usize) -> usize {
        let p = self.peer_to_port[v][w];
        assert_ne!(p, usize::MAX, "no port from a vertex to itself");
        p
    }

    /// The label the node sees on port `p` of `v`: `p + 1` in KT-0
    /// (ports are numbered `1..n−1`), the peer's ID in KT-1.
    pub fn port_label(&self, v: usize, p: usize) -> u64 {
        match self.mode {
            KnowledgeMode::Kt0 => (p + 1) as u64,
            KnowledgeMode::Kt1 => self.ids[self.port_to_peer[v][p]],
        }
    }

    /// The label of the port of `v` leading to `w`.
    pub fn label_of_peer(&self, v: usize, w: usize) -> u64 {
        self.port_label(v, self.port_of(v, w))
    }

    /// Swaps the ports of `v` leading to `w1` and `w2`: after the
    /// call, the port that led to `w1` leads to `w2` and vice versa.
    /// This is the primitive from which port-preserving crossings
    /// (Definition 3.3) are built.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RewireKt1`] on KT-1 networks and
    /// [`ModelError::InvalidRewire`] if the vertices are not distinct.
    pub fn swap_peers(&mut self, v: usize, w1: usize, w2: usize) -> Result<(), ModelError> {
        if self.mode == KnowledgeMode::Kt1 {
            return Err(ModelError::RewireKt1);
        }
        if v == w1 || v == w2 || w1 == w2 {
            return Err(ModelError::InvalidRewire {
                reason: format!("vertices {v}, {w1}, {w2} must be distinct"),
            });
        }
        let p1 = self.peer_to_port[v][w1];
        let p2 = self.peer_to_port[v][w2];
        self.port_to_peer[v][p1] = w2;
        self.port_to_peer[v][p2] = w1;
        self.peer_to_port[v][w1] = p2;
        self.peer_to_port[v][w2] = p1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kt1_labels_are_peer_ids() {
        let net = Network::kt1(vec![10, 20, 30]).unwrap();
        assert_eq!(net.mode(), KnowledgeMode::Kt1);
        for v in 0..3 {
            for p in 0..2 {
                let w = net.peer_of(v, p);
                assert_eq!(net.port_label(v, p), net.id(w));
            }
        }
        assert_eq!(net.label_of_peer(0, 2), 30);
    }

    #[test]
    fn kt0_labels_are_port_numbers() {
        let net = Network::kt0_seeded(vec![0, 1, 2, 3], 5).unwrap();
        for v in 0..4 {
            let labels: Vec<u64> = (0..3).map(|p| net.port_label(v, p)).collect();
            assert_eq!(labels, vec![1, 2, 3]);
        }
    }

    #[test]
    fn wiring_is_consistent() {
        let net = Network::kt0_seeded((0..8).collect(), 42).unwrap();
        for v in 0..8 {
            let mut seen = std::collections::HashSet::new();
            for p in 0..7 {
                let w = net.peer_of(v, p);
                assert_ne!(w, v);
                assert!(seen.insert(w), "peer {w} repeated at vertex {v}");
                assert_eq!(net.port_of(v, w), p);
            }
        }
    }

    #[test]
    fn duplicate_ids_rejected() {
        assert!(matches!(
            Network::kt1(vec![1, 2, 1]),
            Err(ModelError::DuplicateIds { id: 1 })
        ));
    }

    #[test]
    fn swap_peers_rewires() {
        let mut net = Network::kt0_canonical((0..5).map(|i| i as u64).collect()).unwrap();
        let p1 = net.port_of(0, 1);
        let p2 = net.port_of(0, 2);
        net.swap_peers(0, 1, 2).unwrap();
        assert_eq!(net.port_of(0, 1), p2);
        assert_eq!(net.port_of(0, 2), p1);
        assert_eq!(net.peer_of(0, p1), 2);
        assert_eq!(net.peer_of(0, p2), 1);
        // Other vertices untouched.
        assert_eq!(
            net.port_of(3, 4),
            Network::kt0_canonical((0..5).map(|i| i as u64).collect())
                .unwrap()
                .port_of(3, 4)
        );
    }

    #[test]
    fn swap_peers_rejected_on_kt1() {
        let mut net = Network::kt1(vec![0, 1, 2]).unwrap();
        assert_eq!(net.swap_peers(0, 1, 2), Err(ModelError::RewireKt1));
    }

    #[test]
    fn swap_peers_validates() {
        let mut net = Network::kt0_canonical(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            net.swap_peers(0, 0, 1),
            Err(ModelError::InvalidRewire { .. })
        ));
        assert!(matches!(
            net.swap_peers(0, 1, 1),
            Err(ModelError::InvalidRewire { .. })
        ));
    }
}
