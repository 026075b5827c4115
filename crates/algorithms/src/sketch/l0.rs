//! ℓ₀-sampling sketches over signed vectors — the linear-sketching
//! substrate of AGM-style graph connectivity.
//!
//! An [`L0Sketch`] summarizes a vector `x ∈ ℤ^m` so that (i) sketches
//! of `x` and `y` can be *added* to obtain a sketch of `x + y`, and
//! (ii) from a sketch of a nonzero vector one can, with constant
//! probability per level, recover the index and value of one nonzero
//! coordinate. Level `l` subsamples coordinates with probability
//! `2^{-l}` via a shared hash; a level is *decodable* when exactly one
//! surviving coordinate is nonzero, verified by the classic
//! `(count, index-weighted sum, fingerprint)` one-sparse test.

/// The field modulus for fingerprints: the Mersenne prime 2⁶¹ − 1.
const P: u64 = (1 << 61) - 1;

fn mulmod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P as u128) as u64
}

fn addmod(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= P {
        s - P
    } else {
        s
    }
}

fn submod(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

fn powmod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base);
        }
        base = mulmod(base, base);
        exp >>= 1;
    }
    acc
}

/// Signed value as a field element.
fn signed_mod(v: i64) -> u64 {
    if v >= 0 {
        v as u64 % P
    } else {
        submod(0, v.unsigned_abs() % P)
    }
}

/// A 64-bit mixer (splitmix64) used as the shared hash; all vertices
/// derive identical hashes from the public coin, which is what makes
/// the sketches of different vertices addable.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One subsampling level of the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Level {
    /// Σ x_e over surviving coordinates.
    count: i64,
    /// Σ x_e · (e + 1) over surviving coordinates.
    weighted: i128,
    /// Σ x_e · r^{e+1} mod p.
    fingerprint: u64,
}

/// The outcome of decoding a sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// The sketched vector is zero (all levels empty).
    Zero,
    /// Recovered a single nonzero coordinate `(index, value)`.
    Sample {
        /// Coordinate index in `0..m`.
        index: usize,
        /// Its (signed) value.
        value: i64,
    },
    /// No level passed the one-sparse test this time (retry with a
    /// fresh seed / next phase).
    Fail,
}

/// An addable ℓ₀-sampling sketch of a signed vector of dimension `m`.
///
/// # Example
///
/// ```
/// use bcc_algorithms::sketch::{L0Sketch, Decode};
///
/// let m = 100;
/// let seed = 42;
/// let mut a = L0Sketch::zero(m, seed);
/// a.update(17, 1);
/// let mut b = L0Sketch::zero(m, seed);
/// b.update(17, -1);
/// b.update(55, -1);
/// // a + b sketches the vector with -1 at 55.
/// let sum = a.added(&b);
/// assert_eq!(sum.decode(), Decode::Sample { index: 55, value: -1 });
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L0Sketch {
    m: usize,
    seed: u64,
    r: u64,
    /// `reps` independent repetitions of `num_levels` subsampling
    /// levels each, flattened: entry `rep * num_levels + level`.
    levels: Vec<Level>,
}

/// Independent repetitions per sketch: boosts the per-sketch decode
/// probability from a constant to `1 - (1 - c)^REPS`.
const REPS: usize = 4;

impl L0Sketch {
    /// Number of subsampling levels per repetition for dimension `m`.
    pub fn num_levels(m: usize) -> usize {
        (usize::BITS - m.max(1).leading_zeros()) as usize + 2
    }

    /// Bits needed to serialize a sketch of dimension `m`:
    /// 256 per level (64 count + 128 weighted + 64 fingerprint), with
    /// 4 independent repetitions of every level.
    pub fn bits(m: usize) -> usize {
        REPS * Self::num_levels(m) * 256
    }

    /// The all-zero sketch for vectors of dimension `m`, keyed by the
    /// shared `seed`. Sketches are only addable when `m` and `seed`
    /// agree.
    pub fn zero(m: usize, seed: u64) -> Self {
        L0Sketch {
            m,
            seed,
            r: mix(seed ^ r_const()) % P,
            levels: vec![Level::default(); REPS * Self::num_levels(m)],
        }
    }

    /// Whether coordinate `e` survives at `level` of repetition `rep`
    /// (probability `2^{-level}`, level 0 keeps everything).
    fn survives(&self, e: usize, rep: usize, level: usize) -> bool {
        if level == 0 {
            return true;
        }
        let h = mix(self.seed ^ (rep as u64) << 48 ^ (e as u64).wrapping_mul(0x9e3779b97f4a7c15));
        h.trailing_zeros() as usize >= level
    }

    /// Adds `value` to coordinate `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= m`.
    pub fn update(&mut self, index: usize, value: i64) {
        assert!(
            index < self.m,
            "index {index} out of range for m = {}",
            self.m
        );
        let fp_term = mulmod(signed_mod(value), powmod(self.r, index as u64 + 1));
        let nl = Self::num_levels(self.m);
        for rep in 0..REPS {
            for l in 0..nl {
                if self.survives(index, rep, l) {
                    let lv = &mut self.levels[rep * nl + l];
                    lv.count += value;
                    lv.weighted += value as i128 * (index as i128 + 1);
                    lv.fingerprint = addmod(lv.fingerprint, fp_term);
                }
            }
        }
    }

    /// Componentwise sum (linear-sketch addition).
    ///
    /// # Panics
    ///
    /// Panics if dimensions or seeds differ.
    pub fn added(&self, other: &L0Sketch) -> L0Sketch {
        assert_eq!(self.m, other.m, "dimension mismatch");
        assert_eq!(self.seed, other.seed, "seed mismatch");
        let mut out = self.clone();
        for (a, b) in out.levels.iter_mut().zip(&other.levels) {
            a.count += b.count;
            a.weighted += b.weighted;
            a.fingerprint = addmod(a.fingerprint, b.fingerprint);
        }
        out
    }

    /// In-place addition.
    pub fn add_assign(&mut self, other: &L0Sketch) {
        *self = self.added(other);
    }

    /// Attempts to recover one nonzero coordinate.
    pub fn decode(&self) -> Decode {
        if self.levels.iter().all(|l| *l == Level::default()) {
            return Decode::Zero;
        }
        for lv in &self.levels {
            if lv.count == 0 {
                continue;
            }
            if lv.weighted % lv.count as i128 != 0 {
                continue;
            }
            let idx128 = lv.weighted / lv.count as i128;
            if idx128 < 1 || idx128 > self.m as i128 {
                continue;
            }
            let index = (idx128 - 1) as usize;
            // One-sparse iff fingerprint matches count·r^{index+1}.
            let expect = mulmod(signed_mod(lv.count), powmod(self.r, index as u64 + 1));
            if expect == lv.fingerprint {
                return Decode::Sample {
                    index,
                    value: lv.count,
                };
            }
        }
        Decode::Fail
    }

    /// Serializes to exactly [`L0Sketch::bits`] bits (LSB-first per
    /// field).
    pub fn to_bits(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(Self::bits(self.m));
        for lv in &self.levels {
            push_u64(&mut out, lv.count as u64);
            push_u64(&mut out, lv.weighted as u128 as u64);
            push_u64(&mut out, (lv.weighted as u128 >> 64) as u64);
            push_u64(&mut out, lv.fingerprint);
        }
        out
    }

    /// Deserializes a sketch produced by [`L0Sketch::to_bits`] for the
    /// same `(m, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong length.
    pub fn from_bits(m: usize, seed: u64, bits: &[bool]) -> L0Sketch {
        assert_eq!(bits.len(), Self::bits(m), "bad sketch length");
        let mut s = L0Sketch::zero(m, seed);
        for (l, chunk) in bits.chunks(256).enumerate() {
            let count = read_u64(&chunk[0..64]) as i64;
            let lo = read_u64(&chunk[64..128]) as u128;
            let hi = read_u64(&chunk[128..192]) as u128;
            let weighted = (lo | hi << 64) as i128;
            let fingerprint = read_u64(&chunk[192..256]);
            s.levels[l] = Level {
                count,
                weighted,
                fingerprint,
            };
        }
        s
    }
}

/// Domain-separation constant for deriving the fingerprint base `r`
/// from the shared seed.
fn r_const() -> u64 {
    0x5bf0_3635_16c9_d6a7
}

fn push_u64(out: &mut Vec<bool>, v: u64) {
    for i in 0..64 {
        out.push(v >> i & 1 == 1);
    }
}

fn read_u64(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_decodes_zero() {
        let s = L0Sketch::zero(50, 1);
        assert_eq!(s.decode(), Decode::Zero);
    }

    #[test]
    fn single_update_decodes() {
        for seed in 0..10 {
            let mut s = L0Sketch::zero(200, seed);
            s.update(137, 3);
            assert_eq!(
                s.decode(),
                Decode::Sample {
                    index: 137,
                    value: 3
                }
            );
        }
    }

    #[test]
    fn cancellation_returns_zero() {
        let mut a = L0Sketch::zero(64, 9);
        a.update(10, 5);
        let mut b = L0Sketch::zero(64, 9);
        b.update(10, -5);
        assert_eq!(a.added(&b).decode(), Decode::Zero);
    }

    #[test]
    fn linearity() {
        let (m, seed) = (300, 77);
        let mut a = L0Sketch::zero(m, seed);
        a.update(5, 1);
        a.update(9, 2);
        let mut b = L0Sketch::zero(m, seed);
        b.update(9, -2);
        let sum = a.added(&b);
        // Only coordinate 5 remains.
        assert_eq!(sum.decode(), Decode::Sample { index: 5, value: 1 });
    }

    #[test]
    fn sample_comes_from_support() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let m = 500;
        let mut ok = 0;
        let trials = 60;
        for t in 0..trials {
            let mut s = L0Sketch::zero(m, t);
            let support: Vec<usize> = (0..20).map(|_| rng.gen_range(0..m)).collect();
            let mut truth = std::collections::HashMap::new();
            for &i in &support {
                let v = if rng.gen() { 1i64 } else { -1 };
                s.update(i, v);
                *truth.entry(i).or_insert(0i64) += v;
            }
            truth.retain(|_, v| *v != 0);
            match s.decode() {
                Decode::Sample { index, value } => {
                    assert_eq!(truth.get(&index), Some(&value), "decoded a non-member");
                    ok += 1;
                }
                Decode::Zero => assert!(truth.is_empty()),
                Decode::Fail => {}
            }
        }
        // Decoding succeeds in the vast majority of trials.
        assert!(ok * 10 >= trials * 7, "only {ok}/{trials} decoded");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = L0Sketch::zero(128, 33);
        s.update(3, -4);
        s.update(99, 7);
        let bits = s.to_bits();
        assert_eq!(bits.len(), L0Sketch::bits(128));
        let t = L0Sketch::from_bits(128, 33, &bits);
        assert_eq!(s, t);
        assert_eq!(s.decode(), t.decode());
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn mismatched_seeds_rejected() {
        let a = L0Sketch::zero(10, 1);
        let b = L0Sketch::zero(10, 2);
        let _ = a.added(&b);
    }
}
