//! A small log-bucketed latency histogram (HDR-style: power-of-two major
//! buckets, 16 linear sub-buckets each), giving ≤ 6.25% relative error on
//! percentiles with a fixed 1 KiB footprint and O(1) recording — cheap
//! enough to record every operation in a measured region.

/// Sub-buckets per power-of-two range (must be a power of two).
const SUB: u64 = 16;
const SUB_SHIFT: u32 = 4;
/// 64 major ranges × 16 sub-buckets.
const BUCKETS: usize = 64 * SUB as usize;

/// Fixed-size log-bucketed histogram of `u64` samples (nanoseconds here).
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let major = msb - SUB_SHIFT + 1;
    let sub = (value >> (major - 1)) - SUB; // 0..SUB within the range
    (major as u64 * SUB + sub) as usize
}

/// Representative (midpoint-ish) value for a bucket: inverse of `bucket_of`.
fn value_of(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB {
        return b;
    }
    let major = b / SUB;
    let sub = b % SUB;
    (sub + SUB) << (major - 1)
}

impl LatencyHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate `q`-th percentile (`0 < q <= 100`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let rep = value_of(bucket_of(v));
            let err = rep.abs_diff(v) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / SUB as f64, "value {v} rep {rep} err {err}");
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for v in 1..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= prev || bucket_of(v - 1) <= b);
            prev = bucket_of(v);
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max, 10_000);
        let p50 = h.percentile(50.0) as f64;
        assert!((4_500.0..=5_500.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99.0) as f64;
        assert!((9_000.0..=10_000.0).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(100.0) <= h.max);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut c = LatencyHist::new();
        for v in 0..1_000u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            c.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max, c.max);
        for q in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(q), c.percentile(q));
        }
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max, 0);
    }
}
