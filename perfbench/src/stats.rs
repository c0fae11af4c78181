//! Latency recording and the small statistics the report needs.

use nbench::hist::LatencyHist;

/// Samples below this many nanoseconds get an exact 1 ns bucket.
const FINE_NS: usize = 1 << 16;

/// Per-call latency histogram: exact 1 ns buckets below 65.5 µs, and
/// nbench's log-bucketed [`LatencyHist`] for the rare slower calls.
///
/// The fine range exists because the report's latency percentiles carry
/// regression bounds of a few percent: the log histogram's 6.25% buckets
/// would make a median jump a whole bucket or not move at all.
#[derive(Clone)]
pub struct Latencies {
    fine: Vec<u32>,
    slow: LatencyHist,
    count: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self::new()
    }
}

impl Latencies {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            fine: vec![0; FINE_NS],
            slow: LatencyHist::new(),
            count: 0,
        }
    }

    /// Records one sample, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.record(ns),
        }
        self.count += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.slow.merge(&other.slow);
        self.count += other.count;
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.fine.fill(0);
        self.slow = LatencyHist::new();
        self.count = 0;
    }

    /// Number of samples.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-th percentile (`0 < q < 100`) in nanoseconds, interpolated
    /// linearly inside its 1 ns bucket; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q / 100.0 * self.count as f64;
        let mut below = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if (below + c) as f64 >= rank {
                return ns as f64 + (rank - below as f64) / c as f64;
            }
            below += c;
        }
        let slow_q = (rank - below as f64) / self.slow.count() as f64 * 100.0;
        self.slow.percentile(slow_q.clamp(f64::MIN_POSITIVE, 100.0)) as f64
    }
}

/// `delete_min` p50 and p99, then `insert` p50 and p99, of one
/// measurement window (a hold job or an sssp solve), in ns.
#[derive(Clone, Copy, Debug)]
pub struct Window(pub [f64; 4]);

impl Window {
    /// Percentiles of one window's `delete_min` and `insert` latencies.
    pub fn of(del: &Latencies, ins: &Latencies) -> Self {
        Window([
            del.percentile(50.0),
            del.percentile(99.0),
            ins.percentile(50.0),
            ins.percentile(99.0),
        ])
    }

    /// Column-wise median over windows: a transient disturbance spoils a
    /// few windows, not the reported percentile.
    pub fn median(windows: &[Window]) -> [f64; 4] {
        std::array::from_fn(|i| median(&windows.iter().map(|w| w.0[i]).collect::<Vec<_>>()))
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_inside_fine_buckets() {
        let mut h = Latencies::new();
        for ns in 100..200u64 {
            h.record(ns);
        }
        let p50 = h.percentile(50.0);
        assert!((149.0..=150.0).contains(&p50), "p50 = {p50}");
        assert!(h.percentile(99.0) > 198.0);
    }

    #[test]
    fn slow_tail_and_merge() {
        let mut a = Latencies::new();
        let mut b = Latencies::new();
        for _ in 0..98 {
            a.record(300);
        }
        b.record(1_000_000);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.percentile(50.0) < 301.0);
        assert!(a.percentile(99.5) >= 900_000.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
