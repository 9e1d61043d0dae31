//! Descriptive statistics over a slice of samples.

/// Summary statistics (computed once, stored as plain fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Compute a summary; returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        Some(Summary {
            count,
            mean: sum / count as f64,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile(&sorted, 0.50)?,
            p95: percentile(&sorted, 0.95)?,
        })
    }
}

/// Nearest-rank percentile over a sorted slice: the sample at index
/// `round(q·(n−1))`, or `None` for an empty slice. At `q = 0.5` that
/// index is `n / 2` for every `n`.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (q * last as f64).round() as usize;
    Some(sorted[rank.min(last)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn known_distribution() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
    }

    #[test]
    fn median_is_the_upper_middle() {
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        for n in 1..=8u64 {
            let xs: Vec<u64> = (0..n).collect();
            assert_eq!(percentile(&xs, 0.5), Some(n / 2), "n = {n}");
        }
    }

    #[test]
    fn unsorted_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
    }
}
