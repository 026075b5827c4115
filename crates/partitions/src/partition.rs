//! The canonical set-partition type.

use bcc_graphs::UnionFind;
use std::error::Error;
use std::fmt;

/// Errors produced when constructing set partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// An element was outside the ground set `0..n`.
    ElementOutOfRange {
        /// The offending element.
        element: usize,
        /// Ground-set size.
        n: usize,
    },
    /// An element appeared in more than one block, or not at all.
    NotAPartition {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ElementOutOfRange { element, n } => {
                write!(
                    f,
                    "element {element} out of range for ground set of size {n}"
                )
            }
            PartitionError::NotAPartition { reason } => {
                write!(f, "blocks do not form a partition: {reason}")
            }
        }
    }
}

impl Error for PartitionError {}

/// A partition of the ground set `{0, 1, …, n−1}`, stored as a
/// *restricted growth string* (RGS): `rgs[i]` is the index of the
/// block containing element `i`, and blocks are numbered in order of
/// first appearance, so `rgs[0] = 0` and
/// `rgs[i+1] ≤ 1 + max(rgs[0..=i])`. The RGS is a canonical form: two
/// `SetPartition`s are equal iff they are the same partition.
///
/// # Example
///
/// ```
/// use bcc_partitions::SetPartition;
///
/// let p = SetPartition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
/// assert_eq!(p.rgs(), &[0, 1, 0, 2]);
/// assert_eq!(p.num_blocks(), 3);
/// assert!(p.same_block(0, 2));
/// assert!(!p.same_block(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetPartition {
    rgs: Vec<usize>,
    num_blocks: usize,
}

impl SetPartition {
    /// The finest partition `(0)(1)…(n−1)` (every element alone) —
    /// Bob's fixed input in the Theorem 4.5 hard distribution.
    pub fn finest(n: usize) -> Self {
        SetPartition {
            rgs: (0..n).collect(),
            num_blocks: n,
        }
    }

    /// The trivial one-block partition `1` of Section 1.1.
    pub fn trivial(n: usize) -> Self {
        SetPartition {
            rgs: vec![0; n],
            num_blocks: if n == 0 { 0 } else { 1 },
        }
    }

    /// Builds a partition from explicit blocks.
    ///
    /// # Errors
    ///
    /// Returns an error unless the blocks are disjoint, non-empty and
    /// cover `0..n` exactly.
    pub fn from_blocks(n: usize, blocks: &[Vec<usize>]) -> Result<Self, PartitionError> {
        let mut block_of = vec![usize::MAX; n];
        for (b, block) in blocks.iter().enumerate() {
            if block.is_empty() {
                return Err(PartitionError::NotAPartition {
                    reason: format!("block {b} is empty"),
                });
            }
            for &e in block {
                if e >= n {
                    return Err(PartitionError::ElementOutOfRange { element: e, n });
                }
                if block_of[e] != usize::MAX {
                    return Err(PartitionError::NotAPartition {
                        reason: format!("element {e} appears in two blocks"),
                    });
                }
                block_of[e] = b;
            }
        }
        if let Some(missing) = block_of.iter().position(|&b| b == usize::MAX) {
            return Err(PartitionError::NotAPartition {
                reason: format!("element {missing} is not covered"),
            });
        }
        Ok(SetPartition::from_assignment(&block_of))
    }

    /// Builds a partition from an arbitrary block-label assignment
    /// (`labels[i]` = any label for element `i`); labels are
    /// canonicalized to an RGS.
    pub fn from_assignment(labels: &[usize]) -> Self {
        let n = labels.len();
        let mut remap: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        let mut rgs = Vec::with_capacity(n);
        for &l in labels {
            let next = remap.len();
            let id = *remap.entry(l).or_insert(next);
            rgs.push(id);
        }
        SetPartition {
            num_blocks: remap.len(),
            rgs,
        }
    }

    /// Builds directly from a valid restricted growth string.
    ///
    /// # Errors
    ///
    /// Returns an error if `rgs` violates the growth condition.
    pub fn from_rgs(rgs: Vec<usize>) -> Result<Self, PartitionError> {
        let mut max_seen: Option<usize> = None;
        for (i, &b) in rgs.iter().enumerate() {
            let limit = max_seen.map_or(0, |m| m + 1);
            if b > limit {
                return Err(PartitionError::NotAPartition {
                    reason: format!("rgs[{i}] = {b} exceeds growth limit {limit}"),
                });
            }
            max_seen = Some(max_seen.map_or(b, |m| m.max(b)));
        }
        let num_blocks = max_seen.map_or(0, |m| m + 1);
        Ok(SetPartition { rgs, num_blocks })
    }

    /// Ground-set size `n`.
    pub fn ground_size(&self) -> usize {
        self.rgs.len()
    }

    /// The restricted growth string.
    pub fn rgs(&self) -> &[usize] {
        &self.rgs
    }

    /// The block index of element `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= n`.
    pub fn block_of(&self, e: usize) -> usize {
        self.rgs[e]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// The blocks as sorted element lists, in block-index order (which
    /// is order of first appearance, so blocks are sorted by minimum).
    pub fn blocks(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_blocks];
        for (e, &b) in self.rgs.iter().enumerate() {
            out[b].push(e);
        }
        out
    }

    /// Returns `true` if `a` and `b` are in the same block.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` or `b >= n`.
    pub fn same_block(&self, a: usize, b: usize) -> bool {
        self.rgs[a] == self.rgs[b]
    }

    /// Returns `true` if this is the one-block partition (the paper's
    /// `1`). The empty partition is not trivial.
    pub fn is_trivial(&self) -> bool {
        self.num_blocks == 1
    }

    /// Returns `true` if every block has exactly two elements — the
    /// promise of the paper's `TwoPartition` problem (Section 4.1).
    pub fn is_perfect_matching(&self) -> bool {
        let mut sizes = vec![0usize; self.num_blocks];
        for &b in &self.rgs {
            sizes[b] += 1;
        }
        sizes.iter().all(|&s| s == 2)
    }

    /// The lattice join `self ∨ other`: the finest partition refined by
    /// both (computed by union–find over both partitions' blocks).
    ///
    /// # Panics
    ///
    /// Panics if ground sets differ.
    pub fn join(&self, other: &SetPartition) -> SetPartition {
        assert_eq!(
            self.ground_size(),
            other.ground_size(),
            "join requires equal ground sets"
        );
        let n = self.ground_size();
        let mut uf = UnionFind::new(n);
        for p in [self, other] {
            let mut first_of_block = vec![usize::MAX; p.num_blocks];
            for e in 0..n {
                let b = p.rgs[e];
                if first_of_block[b] == usize::MAX {
                    first_of_block[b] = e;
                } else {
                    uf.union(first_of_block[b], e);
                }
            }
        }
        SetPartition::from_assignment(&uf.canonical_labels())
    }

    /// Returns `true` if `self` is a refinement of `other` (every block
    /// of `self` is contained in a block of `other`), written
    /// `self ≤ other` in the partition lattice.
    ///
    /// # Panics
    ///
    /// Panics if ground sets differ.
    pub fn refines(&self, other: &SetPartition) -> bool {
        assert_eq!(
            self.ground_size(),
            other.ground_size(),
            "refinement requires equal ground sets"
        );
        // self refines other iff elements in the same self-block are in
        // the same other-block.
        let mut other_block_of_self_block = vec![usize::MAX; self.num_blocks];
        for e in 0..self.ground_size() {
            let sb = self.rgs[e];
            let ob = other.rgs[e];
            if other_block_of_self_block[sb] == usize::MAX {
                other_block_of_self_block[sb] = ob;
            } else if other_block_of_self_block[sb] != ob {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for SetPartition {
    /// Formats in the paper's block notation, e.g. `(0,1)(2,3)(4)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rgs.is_empty() {
            return write!(f, "()");
        }
        for block in self.blocks() {
            write!(f, "(")?;
            for (i, e) in block.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(blocks: &[&[usize]]) -> SetPartition {
        let n = blocks.iter().map(|b| b.len()).sum();
        SetPartition::from_blocks(n, &blocks.iter().map(|b| b.to_vec()).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn construction_and_canonical_form() {
        let a = p(&[&[0, 2], &[1, 3]]);
        let b = SetPartition::from_blocks(4, &[vec![3, 1], vec![2, 0]]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rgs(), &[0, 1, 0, 1]);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            SetPartition::from_blocks(3, &[vec![0, 5], vec![1, 2]]),
            Err(PartitionError::ElementOutOfRange { element: 5, n: 3 })
        ));
        assert!(SetPartition::from_blocks(3, &[vec![0, 1], vec![1, 2]]).is_err());
        assert!(SetPartition::from_blocks(3, &[vec![0, 1]]).is_err());
        assert!(SetPartition::from_blocks(2, &[vec![0, 1], vec![]]).is_err());
    }

    #[test]
    fn rgs_validation() {
        assert!(SetPartition::from_rgs(vec![0, 1, 2, 1]).is_ok());
        assert!(SetPartition::from_rgs(vec![0, 2]).is_err());
        assert!(SetPartition::from_rgs(vec![1]).is_err());
        assert!(SetPartition::from_rgs(vec![]).is_ok());
    }

    #[test]
    fn finest_and_trivial() {
        let f = SetPartition::finest(4);
        assert_eq!(f.num_blocks(), 4);
        let t = SetPartition::trivial(4);
        assert!(t.is_trivial());
        assert!(f.refines(&t));
        assert!(!t.refines(&f));
        assert!(t.refines(&t));
    }

    #[test]
    fn paper_join_examples() {
        // Section 1.1 (shifted to 0-indexing):
        // PA = (1,2)(3,4)(5) → (0,1)(2,3)(4)
        // PB = (1,2,4)(3)(5) → (0,1,3)(2)(4)
        // PC = (1,2,4)(3,5)  → (0,1,3)(2,4)
        let pa = p(&[&[0, 1], &[2, 3], &[4]]);
        let pb = SetPartition::from_blocks(5, &[vec![0, 1, 3], vec![2], vec![4]]).unwrap();
        let pc = SetPartition::from_blocks(5, &[vec![0, 1, 3], vec![2, 4]]).unwrap();
        // PA ∨ PB = (1,2,3,4)(5) → (0,1,2,3)(4)
        assert_eq!(pa.join(&pb).blocks(), vec![vec![0, 1, 2, 3], vec![4]]);
        // PA ∨ PC = (1,2,3,4,5) → trivial.
        assert!(pa.join(&pc).is_trivial());
    }

    #[test]
    fn footnote_refinement_example() {
        // Footnote 2: (1,2)(3,4)(5) is a refinement of (1,2)(3,4,5).
        let fine = p(&[&[0, 1], &[2, 3], &[4]]);
        let coarse = SetPartition::from_blocks(5, &[vec![0, 1], vec![2, 3, 4]]).unwrap();
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
    }

    #[test]
    fn join_lattice_laws() {
        let a = p(&[&[0, 1], &[2], &[3]]);
        let b = SetPartition::from_blocks(4, &[vec![0], vec![1, 2], vec![3]]).unwrap();
        let j = a.join(&b);
        assert!(a.refines(&j));
        assert!(b.refines(&j));
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&a), a);
        let f = SetPartition::finest(4);
        assert_eq!(a.join(&f), a);
    }

    #[test]
    fn perfect_matching_detection() {
        assert!(p(&[&[0, 1], &[2, 3]]).is_perfect_matching());
        assert!(!p(&[&[0, 1, 2], &[3]]).is_perfect_matching());
        assert!(!SetPartition::finest(4).is_perfect_matching());
    }

    #[test]
    fn display_block_notation() {
        let a = p(&[&[0, 1], &[2], &[3, 4]]);
        assert_eq!(a.to_string(), "(0,1)(2)(3,4)");
        assert_eq!(SetPartition::finest(0).to_string(), "()");
    }

    #[test]
    fn join_is_component_partition_of_overlay() {
        // The semantic backbone of Theorem 4.3: join = components of
        // the union of intra-block edges.
        let a = p(&[&[0, 1], &[2, 3], &[4, 5]]);
        let b = SetPartition::from_blocks(6, &[vec![1, 2], vec![3, 4], vec![0], vec![5]]).unwrap();
        let j = a.join(&b);
        assert!(j.is_trivial());
    }
}
