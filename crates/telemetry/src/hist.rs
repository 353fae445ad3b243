//! Log-bucketed histograms with associative, commutative merge.
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket `i`
//! (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`. Log bucketing fits
//! the quantities the platform cares about — co-simulation residency,
//! warm-up lengths, propagation latencies — whose interesting structure
//! spans decades, and makes the merge a plain element-wise add, which
//! is what lets sharded workers aggregate without coordination.

/// Number of buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index holding `value`.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The half-open value range `[lo, hi)` covered by bucket `index`
/// (bucket 64's upper bound saturates at `u64::MAX`).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 1),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), 1 << i),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Adds every sample of `other` into `self` (element-wise; the
    /// merge is associative and commutative, see the invariants suite).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Reassembles a histogram from its observable parts (the inverse
    /// of `bucket_counts`/`count`/`sum`), used by deserializers that
    /// move recorders across process boundaries. Errors if `count`
    /// disagrees with the bucket totals — corrupt wire data must not
    /// silently skew campaign statistics, and it must not panic the
    /// process deserializing it either.
    pub fn from_parts(buckets: [u64; NUM_BUCKETS], count: u64, sum: u128) -> Result<Self, String> {
        let total: u64 = buckets.iter().sum();
        if total != count {
            return Err("histogram bucket totals disagree with sample count".to_string());
        }
        Ok(Histogram {
            buckets,
            count,
            sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let b = bucket_of(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(v >= lo, "{v} below bucket {b} lower bound {lo}");
            // Bucket 64's bound saturates; MAX itself belongs there.
            assert!(v < hi || (b == 64 && v == u64::MAX), "{v} in bucket {b}");
        }
    }

    #[test]
    fn record_tracks_count_sum_and_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1035);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[bucket_of(5)], 2);
    }

    #[test]
    fn merge_equals_recording_concatenation() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 81] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 7, 12_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
    }
}
