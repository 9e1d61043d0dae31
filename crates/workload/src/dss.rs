//! The DSS / reporting query of §5.3: a long-running statement with a
//! massive row-locking requirement.

use locktune_sim::{SimDuration, SimRng};

use crate::txn::{LockStep, TxnPlan};

/// Specification of a reporting query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DssSpec {
    /// Total row locks the query acquires (the paper's query drives
    /// lock memory from 8 MB to ~500 MB, i.e. hundreds of thousands of
    /// row locks).
    pub row_locks: u64,
    /// Table the scan runs over.
    pub table: u32,
    /// Rows in the table (locks are taken on distinct rows).
    pub table_rows: u64,
    /// Locks acquired per simulated second (scan rate).
    pub locks_per_second: f64,
    /// Whether the scan takes share (repeatable-read reporting) locks.
    pub exclusive: bool,
}

impl DssSpec {
    /// Materialize the query as a transaction plan.
    ///
    /// Rows are visited in a pseudo-random permutation-ish order (stride
    /// walk with a random offset) so the scan spreads across the table.
    pub fn plan(&self, rng: &mut SimRng) -> DssPlan {
        assert!(self.row_locks > 0 && self.table_rows > 0);
        assert!(self.locks_per_second > 0.0);
        let n = self.row_locks.min(self.table_rows);
        // A stride co-prime with table_rows visits distinct rows.
        let stride = (self.table_rows / 2 + 1) | 1;
        let start = rng.next_below(self.table_rows);
        let mut steps = Vec::with_capacity(n as usize);
        let mut pos = start;
        for _ in 0..n {
            steps.push(LockStep {
                table: self.table,
                row: pos,
                exclusive: self.exclusive,
            });
            pos = (pos + stride) % self.table_rows;
        }
        let gap = SimDuration::from_secs_f64(1.0 / self.locks_per_second);
        DssPlan {
            txn: TxnPlan {
                steps,
                think_before: SimDuration::ZERO,
                step_gap: gap,
                hold_after_last: SimDuration::from_secs(1),
            },
        }
    }
}

/// A materialized reporting query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DssPlan {
    /// The underlying transaction plan.
    pub txn: TxnPlan,
}

impl DssPlan {
    /// Approximate scan duration.
    pub fn duration(&self) -> SimDuration {
        self.txn.execution_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §5.3-shaped: a share-mode scan of half a million rows at ~20k
    /// locks/s (60× growth within ~25 s of injection).
    fn reporting(table: u32) -> DssSpec {
        DssSpec {
            row_locks: 500_000,
            table,
            table_rows: 1_000_000,
            locks_per_second: 20_000.0,
            exclusive: false,
        }
    }

    #[test]
    fn default_is_massive() {
        let spec = reporting(3);
        let mut rng = SimRng::seed_from_u64(1);
        let plan = spec.plan(&mut rng);
        assert_eq!(plan.txn.lock_count(), 500_000);
        assert!(!plan.txn.is_write());
        // 500k locks at 20k/s ≈ 25 s (the paper's "over the first 25
        // seconds ... lock memory grows by 60x").
        let secs = plan.duration().as_secs_f64();
        assert!((24.0..27.0).contains(&secs), "duration {secs}");
    }

    #[test]
    fn rows_are_distinct() {
        let spec = DssSpec {
            row_locks: 10_000,
            table: 0,
            table_rows: 50_000,
            locks_per_second: 1000.0,
            exclusive: false,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let plan = spec.plan(&mut rng);
        let mut rows: Vec<u64> = plan.txn.steps.iter().map(|s| s.row).collect();
        let before = rows.len();
        rows.sort_unstable();
        rows.dedup();
        // The stride walk may collide occasionally if the stride shares
        // a factor with table_rows; require near-distinctness.
        assert!(
            rows.len() as f64 > before as f64 * 0.99,
            "{} of {before}",
            rows.len()
        );
    }

    #[test]
    fn capped_by_table_size() {
        let spec = DssSpec {
            row_locks: 1_000_000,
            table: 0,
            table_rows: 1000,
            locks_per_second: 1000.0,
            exclusive: true,
        };
        let mut rng = SimRng::seed_from_u64(3);
        let plan = spec.plan(&mut rng);
        assert_eq!(plan.txn.lock_count(), 1000);
        assert!(plan.txn.is_write());
    }

    #[test]
    fn deterministic() {
        let spec = reporting(1);
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        assert_eq!(spec.plan(&mut a), spec.plan(&mut b));
    }
}
