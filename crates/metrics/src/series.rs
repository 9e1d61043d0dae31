//! A time series of `f64` samples at simulated timestamps.

use locktune_sim::SimTime;

/// An append-only series of `(time, value)` samples with
/// non-decreasing timestamps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(u64, f64)>, // (micros, value)
}

impl TimeSeries {
    /// Create an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Series name (CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample — series are recorded in
    /// simulation order by construction, so a violation is a bug.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at.as_micros() >= last, "time series went backwards");
        }
        self.points.push((at.as_micros(), value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate samples as `(SimTime, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// The last sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points
            .last()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// The first sample.
    pub fn first(&self) -> Option<(SimTime, f64)> {
        self.points
            .first()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// Maximum value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(m) => Some(m.max(v)),
            })
    }

    /// Minimum value, if any.
    pub fn min_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(m) => Some(m.min(v)),
            })
    }

    /// The most recent value at or before `at` (step interpolation).
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        let target = at.as_micros();
        let idx = self.points.partition_point(|&(t, _)| t <= target);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Mean of the values in the half-open time window `[from, to)`.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let (f, t) = (from.as_micros(), to.as_micros());
        let mut n = 0u64;
        let mut sum = 0.0;
        for &(ts, v) in &self.points {
            if ts >= f && ts < t {
                n += 1;
                sum += v;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new("x");
        s.push(t(0), 1.0);
        s.push(t(10), 5.0);
        s.push(t(20), 3.0);
        s
    }

    #[test]
    fn push_and_inspect() {
        let s = series();
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(), "x");
        assert_eq!(s.first(), Some((t(0), 1.0)));
        assert_eq!(s.last(), Some((t(20), 3.0)));
        assert_eq!(s.max_value(), Some(5.0));
        assert_eq!(s.min_value(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn rejects_time_travel() {
        let mut s = series();
        s.push(t(5), 0.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut s = series();
        s.push(t(20), 9.0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn value_at_steps() {
        let s = series();
        assert_eq!(s.value_at(t(0)), Some(1.0));
        assert_eq!(s.value_at(t(9)), Some(1.0));
        assert_eq!(s.value_at(t(10)), Some(5.0));
        assert_eq!(s.value_at(t(100)), Some(3.0));
        assert_eq!(TimeSeries::new("e").value_at(t(0)), None);
    }

    #[test]
    fn window_mean() {
        let s = series();
        assert_eq!(s.window_mean(t(0), t(11)), Some(3.0));
        assert_eq!(s.window_mean(t(0), t(10)), Some(1.0));
        assert_eq!(s.window_mean(t(30), t(40)), None);
    }

    #[test]
    fn empty_series_extremes() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.max_value(), None);
        assert_eq!(s.min_value(), None);
        assert_eq!(s.last(), None);
    }
}
