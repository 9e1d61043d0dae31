//! Order statistics: medians, quartiles and the tail-percentile picker.

/// Median and quartiles of a sample, by the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)` so the numbers printed
/// here are the numbers the acceptance check computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order). A single value is its own
    /// median and quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        Summary {
            median: quantile_exclusive(&v, 0.5),
            q1: quantile_exclusive(&v, 0.25),
            q3: quantile_exclusive(&v, 0.75),
            n: v.len(),
        }
    }
}

/// The exclusive-method quantile of an ascending slice: position
/// `p·(n+1)` on a 1-based scale, linearly interpolated and clamped to
/// the ends.
fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The zero-based rank to report as "the `want` percentile" of `n`
/// ascending samples, and the percentile that rank really is. `want`
/// is honoured when at least [`MIN_BEYOND`] samples lie beyond it;
/// otherwise the rank drops to the highest one that still has
/// [`MIN_BEYOND`] samples beyond it, and never below the median.
pub fn tail_rank(n: usize, want: f64) -> (usize, f64) {
    assert!(n > 0, "tail rank of an empty sample");
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(MIN_BEYOND + 1);
    let rank = wanted.min(supported).max(n / 2).min(n - 1);
    (rank, (rank + 1) as f64 / n as f64)
}

/// Median and supported tail of one repetition's latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ns: u32,
    pub tail_ns: u32,
    /// The percentile `tail_ns` really is (0.99 when supported).
    pub tail_q: f64,
    pub n: usize,
}

impl Latency {
    pub fn p50_us(&self) -> f64 {
        f64::from(self.p50_ns) / 1e3
    }

    pub fn tail_us(&self) -> f64 {
        f64::from(self.tail_ns) / 1e3
    }
}

/// Pick the median and the tail out of `samples` (reordered in place).
pub fn latency(samples: &mut [u32]) -> Latency {
    let n = samples.len();
    let (rank, tail_q) = tail_rank(n, 0.99);
    let tail_ns = *samples.select_nth_unstable(rank).1;
    let p50_ns = *samples.select_nth_unstable(n / 2).1;
    Latency {
        p50_ns,
        tail_ns,
        tail_q,
        n,
    }
}

/// Exact latencies of a bounded, evenly thinned sample of one
/// client's transactions. Every value kept is a latency as measured;
/// what is bounded is how many are kept, so the harness's memory (and
/// with it `peak_rss_mb`) does not grow with the program's throughput.
/// When the buffer fills, every second sample is dropped and recording
/// continues at half the rate, so the kept samples stay evenly spaced
/// over the whole repetition.
#[derive(Debug)]
pub struct LatSamples {
    buf: Vec<u32>,
    /// Record one transaction in this many.
    stride: u64,
    until_next: u64,
}

impl LatSamples {
    /// Samples kept per client per repetition: hundreds beyond p99.
    pub const CAPACITY: usize = 1 << 16;

    #[allow(clippy::new_without_default)]
    pub fn new() -> LatSamples {
        LatSamples {
            buf: Vec::with_capacity(Self::CAPACITY),
            stride: 1,
            until_next: 1,
        }
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.stride = 1;
        self.until_next = 1;
    }

    #[inline]
    pub fn record(&mut self, ns: u32) {
        self.until_next -= 1;
        if self.until_next > 0 {
            return;
        }
        if self.buf.len() == Self::CAPACITY {
            let mut keep = false;
            self.buf.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
        self.buf.push(ns);
        self.until_next = self.stride;
    }

    pub fn samples(&self) -> &[u32] {
        &self.buf
    }
}

/// Median of nanosecond `values`, in microseconds; 0 for an empty
/// sample (a layer that did no work in this run).
pub fn median_us(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let mid = v.len() / 2;
    *v.select_nth_unstable(mid).1 as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
    }

    #[test]
    fn tail_honours_ten_samples_beyond() {
        // 10 000 samples: 100 lie beyond p99, so p99 stands.
        let (rank, q) = tail_rank(10_000, 0.99);
        assert_eq!(rank, 9_899);
        assert!((q - 0.99).abs() < 1e-9);
        assert!(10_000 - 1 - rank >= MIN_BEYOND);
        // 1 000 samples: exactly ten beyond p99 — still p99.
        let (rank, _) = tail_rank(1_000, 0.99);
        assert_eq!(1_000 - 1 - rank, MIN_BEYOND);
        // 500 samples: only five beyond p99, so fall back to the
        // highest rank with ten beyond it.
        let (rank, q) = tail_rank(500, 0.99);
        assert_eq!(500 - 1 - rank, MIN_BEYOND);
        assert!(q < 0.99 && q > 0.97);
        // Too few samples for any tail: the median.
        assert_eq!(tail_rank(12, 0.99).0, 6);
        assert_eq!(tail_rank(1, 0.99), (0, 1.0));
    }

    #[test]
    fn samples_thin_evenly_and_stay_bounded() {
        let mut s = LatSamples::new();
        let n = 5 * LatSamples::CAPACITY as u32 / 2;
        for i in 0..n {
            s.record(i);
        }
        // 2.5 capacities: thinned twice, so every fourth value is kept.
        let kept = s.samples();
        assert!(kept.len() <= LatSamples::CAPACITY && kept.len() > LatSamples::CAPACITY / 2);
        assert!(kept.iter().enumerate().all(|(i, &v)| v == 4 * i as u32));
        assert_eq!(*kept.last().unwrap(), (n - 1) / 4 * 4);
        s.clear();
        s.record(7);
        assert_eq!(s.samples(), [7]);
    }

    #[test]
    fn latency_picks_exact_ranks() {
        let mut v: Vec<u32> = (0..2_000).rev().collect();
        let l = latency(&mut v);
        assert_eq!(l.p50_ns, 1_000);
        assert_eq!(l.tail_ns, 1_979);
        assert_eq!(l.n, 2_000);
    }
}
