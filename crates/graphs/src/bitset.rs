//! A compact dynamically-sized bit set.
//!
//! Used for adjacency rows of [`crate::Graph`] and for the set
//! bookkeeping inside the matching and enumeration modules. All
//! operations are `O(n / 64)` or better.

/// A fixed-capacity set of `usize` values in `0..len`, stored one bit
/// per value.
///
/// # Example
///
/// ```
/// use bcc_graphs::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The exclusive upper bound on storable values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(value < self.capacity, "bitset value {value} out of range");
        let (w, b) = (value / 64, value % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `value`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn remove(&mut self, value: usize) -> bool {
        assert!(value < self.capacity, "bitset value {value} out of range");
        let (w, b) = (value / 64, value % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / 64] & (1 << (value % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to the maximum value seen.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

/// Iterator over the elements of a [`BitSet`], produced by
/// [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_order() {
        let mut s = BitSet::new(200);
        for v in [199, 0, 63, 64, 65, 128] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn empty_and_clear() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut t = BitSet::new(5);
        t.insert(4);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [5usize, 1, 3].into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!BitSet::new(4).contains(100));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = BitSet::new(4);
        assert_eq!(format!("{s:?}"), "{}");
    }
}
