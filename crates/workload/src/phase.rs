//! Phase schedules: scripted changes to the offered load over
//! simulated time, one per figure.

use locktune_sim::SimTime;

use crate::dss::DssSpec;

/// A change to the offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseChange {
    /// Set the number of active OLTP clients (ramps and steps).
    SetClients(u32),
    /// Inject a reporting query.
    InjectDss(DssSpec),
}

/// A scripted schedule of phase changes plus an end time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    changes: Vec<(SimTime, PhaseChange)>,
    end: SimTime,
}

impl Schedule {
    /// Build a schedule. Changes are sorted by time.
    ///
    /// # Panics
    /// Panics if any change is scheduled at or after `end`.
    pub fn new(mut changes: Vec<(SimTime, PhaseChange)>, end: SimTime) -> Self {
        changes.sort_by_key(|&(t, _)| t);
        if let Some(&(t, _)) = changes.last() {
            assert!(t < end, "phase change at {t} not before end {end}");
        }
        Schedule { changes, end }
    }

    /// Simulation end time.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// All changes, time-ordered.
    pub fn changes(&self) -> &[(SimTime, PhaseChange)] {
        &self.changes
    }

    /// Convenience: constant client count for the whole run.
    pub fn steady(clients: u32, end: SimTime) -> Self {
        Schedule::new(vec![(SimTime::ZERO, PhaseChange::SetClients(clients))], end)
    }

    /// Convenience: a linear ramp from `from` to `to` clients over
    /// `[start, stop]` in `steps` equal increments.
    pub fn ramp(
        from: u32,
        to: u32,
        start: SimTime,
        stop: SimTime,
        steps: u32,
        end: SimTime,
    ) -> Self {
        assert!(steps > 0 && stop > start && to != from);
        let mut changes = vec![(SimTime::ZERO, PhaseChange::SetClients(from))];
        let span = (stop - start).as_micros();
        for i in 1..=steps {
            let frac = i as f64 / steps as f64;
            let t = start + locktune_sim::SimDuration::from_micros((span as f64 * frac) as u64);
            let n = from as f64 + (to as f64 - from as f64) * frac;
            changes.push((t, PhaseChange::SetClients(n.round() as u32)));
        }
        Schedule::new(changes, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The client count in force at `at` (0 before the first
    /// `SetClients`).
    fn clients_at(s: &Schedule, at: SimTime) -> u32 {
        s.changes()
            .iter()
            .take_while(|&&(t, _)| t <= at)
            .filter_map(|&(_, c)| match c {
                PhaseChange::SetClients(n) => Some(n),
                _ => None,
            })
            .last()
            .unwrap_or(0)
    }

    #[test]
    fn steady_schedule() {
        let s = Schedule::steady(130, t(100));
        assert_eq!(clients_at(&s, t(0)), 130);
        assert_eq!(clients_at(&s, t(99)), 130);
        assert_eq!(s.end(), t(100));
    }

    #[test]
    fn step_change() {
        let s = Schedule::new(
            vec![
                (t(0), PhaseChange::SetClients(50)),
                (t(1500), PhaseChange::SetClients(130)),
            ],
            t(3000),
        );
        assert_eq!(clients_at(&s, t(0)), 50);
        assert_eq!(clients_at(&s, t(1499)), 50);
        assert_eq!(clients_at(&s, t(1500)), 130);
        assert_eq!(clients_at(&s, t(2999)), 130);
    }

    #[test]
    fn ramp_is_monotone() {
        let s = Schedule::ramp(1, 130, t(0), t(300), 20, t(600));
        let mut prev = 0;
        for sec in (0..600).step_by(10) {
            let c = clients_at(&s, t(sec));
            assert!(c >= prev, "ramp decreased at {sec}");
            prev = c;
        }
        assert_eq!(clients_at(&s, t(300)), 130);
    }

    #[test]
    fn changes_are_sorted() {
        let s = Schedule::new(
            vec![
                (t(50), PhaseChange::SetClients(2)),
                (t(10), PhaseChange::SetClients(1)),
            ],
            t(100),
        );
        assert_eq!(s.changes()[0].0, t(10));
        assert_eq!(clients_at(&s, t(20)), 1);
    }

    #[test]
    #[should_panic(expected = "not before end")]
    fn change_after_end_rejected() {
        Schedule::new(vec![(t(100), PhaseChange::SetClients(1))], t(100));
    }

    #[test]
    fn clients_before_first_change_is_zero() {
        let s = Schedule::new(vec![(t(10), PhaseChange::SetClients(5))], t(20));
        assert_eq!(clients_at(&s, t(5)), 0);
    }
}
