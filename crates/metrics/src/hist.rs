//! The shared fixed-bucket log₂ histogram: the runner's wall-clock
//! latency profile and the in-buffer histogram of the deterministic
//! metrics pipeline.

/// Number of power-of-two buckets; bucket `i` covers `[2^i, 2^{i+1})`
/// (bucket 0 additionally includes 0). At microsecond resolution the
/// top bucket starts at ~9.1 hours; at bit resolution it holds any
/// transcript the simulator can produce — effectively unbounded
/// either way.
pub const NUM_BUCKETS: usize = 45;

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (value.ilog2() as usize).min(NUM_BUCKETS - 1)
    }
}

/// A single-owner fixed-bucket log₂ histogram: the runner's latency
/// profile, and also the in-buffer histogram of the metrics pipeline —
/// `observe` on a `&mut self` is a plain array increment, and
/// `merge_from` is commutative and associative, so merging any
/// permutation of buffers yields identical bytes. The unit of a sample
/// is whatever the owner records — the runner feeds microseconds, the
/// metrics buffers feed logical quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let b = bucket_index(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`. Commutative, so the
    /// merged result is independent of buffer arrival order.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`); 0 when empty. Bucketed, so an upper bound
    /// within 2× of the true quantile.
    ///
    /// The edge is clamped to the recorded maximum: a bucket's upper
    /// edge can overshoot every sample in it (a lone sample of 5 lands
    /// in `[4, 8)`, edge 8), which would render nonsense like
    /// `p50<= 8  max 5` whenever only one bucket is populated. `max`
    /// is itself an upper bound on every sample, so the clamp only
    /// ever tightens the estimate.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return (1u64 << (i + 1)).min(self.max);
            }
        }
        self.max
    }

    /// The shared JSON body — `"count":…,"mean<sfx>":…,"p50_le<sfx>":…,
    /// "p90_le<sfx>":…,"p99_le<sfx>":…,"max<sfx>":…` — without braces,
    /// so callers can embed it in a larger record. `suffix` names the
    /// unit (the runner passes `"_us"`, the metrics dump passes `""`);
    /// key order is fixed and all values are plain JSON numbers.
    pub fn fields_json(&self, suffix: &str) -> String {
        let mean = self.mean();
        // `{:?}` keeps a trailing `.0` on integral floats so the value
        // stays a JSON number; mean of finite sums is always finite.
        let mean_json = if mean.is_finite() {
            format!("{mean:?}")
        } else {
            "null".to_string()
        };
        format!(
            "\"count\":{},\"mean{suffix}\":{},\"p50_le{suffix}\":{},\"p90_le{suffix}\":{},\"p99_le{suffix}\":{},\"max{suffix}\":{}",
            self.count,
            mean_json,
            self.quantile_upper(0.50),
            self.quantile_upper(0.90),
            self.quantile_upper(0.99),
            self.max,
        )
    }

    /// [`fields_json`](Self::fields_json) wrapped in braces: one
    /// stable JSON object per histogram.
    pub fn to_json(&self, suffix: &str) -> String {
        format!("{{{}}}", self.fields_json(suffix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_and_quantiles() {
        let mut s = HistogramSnapshot::empty();
        for us in [1u64, 2, 4, 8, 1000, 100_000] {
            s.observe(us);
        }
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 101_015);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert!(s.quantile_upper(1.0) >= 100_000);
        assert!(s.quantile_upper(0.5) <= 16);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        // Satellite pin: an empty histogram reports 0 for the mean,
        // every percentile, and the max — never NaN, never a bucket
        // edge.
        let s = HistogramSnapshot::empty();
        assert_eq!(s.mean(), 0.0);
        for q in [0.001, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile_upper(q), 0, "q={q}");
        }
        assert_eq!(s.max, 0);
        assert_eq!(
            s.to_json("_us"),
            "{\"count\":0,\"mean_us\":0.0,\"p50_le_us\":0,\"p90_le_us\":0,\"p99_le_us\":0,\"max_us\":0}"
        );
    }

    #[test]
    fn single_bucket_quantiles_clamp_to_max() {
        // Satellite pin: one populated bucket — every percentile is
        // that bucket, whose raw edge (8) overshoots the only samples
        // (5); the clamp reports 5 everywhere.
        let mut s = HistogramSnapshot::empty();
        s.observe(5);
        s.observe(5);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile_upper(q), 5, "q={q}");
        }
    }

    #[test]
    fn quantiles_stay_upper_bounds_and_monotone() {
        let mut s = HistogramSnapshot::empty();
        for v in [3u64, 5, 6, 120] {
            s.observe(v);
        }
        let (p50, p90, p100) = (
            s.quantile_upper(0.5),
            s.quantile_upper(0.9),
            s.quantile_upper(1.0),
        );
        assert!(p50 >= 5, "p50={p50}"); // true median is 5
        assert!(p50 <= p90 && p90 <= p100);
        assert_eq!(p100, 120); // clamped to max, not bucket edge 128
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        for v in [1u64, 7, 300] {
            a.observe(v);
        }
        for v in [0u64, 7, 1 << 20] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 6);
        assert_eq!(ab.max, 1 << 20);
    }
}
