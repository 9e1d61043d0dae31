//! The live service's workload: one lock set per transaction.
//!
//! The simulator plans transactions as [`TxnPlan`](crate::TxnPlan)s;
//! every load generator of real sessions — the in-process example,
//! `locktune-client`, the routed cluster clients and the soaks — rolls
//! its lock sets from a [`Mix`] instead, so all of them run the same
//! two footprints and differ only in the back-end:
//!
//! * **OLTP** — an IX intent on a table, then `oltp_rows` uniformly
//!   random X row locks on it;
//! * **DSS scan** — an IS intent, then `dss_rows` S row locks on a
//!   contiguous range (what escalation collapses well), the paper's
//!   "addition of a DSS workload on an OLTP system" (§5).

use std::fmt;

use locktune_lockmgr::{LockMode, ResourceId, RowId, TableId};
use locktune_sim::SimRng;

/// A validated OLTP + DSS lock-set mix.
///
/// Each transaction is a DSS scan with probability `dss_percent` %,
/// otherwise OLTP, and touches `tables_per_txn` random tables (each
/// with its own intent and row locks). Rows are drawn from
/// `row_base .. row_base + rows`; a non-zero base gives a worker a
/// private row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    tables: u32,
    rows: u64,
    oltp_rows: u64,
    dss_rows: u64,
    dss_percent: u32,
    tables_per_txn: u32,
    row_base: u64,
}

/// Why a [`Mix`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixError(&'static str);

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for MixError {}

impl Mix {
    /// An OLTP-only mix over `tables` tables of `rows` rows, taking
    /// `oltp_rows` X row locks per transaction on one table.
    pub fn new(tables: u32, rows: u64, oltp_rows: u64) -> Result<Mix, MixError> {
        if tables == 0 {
            return Err(MixError("the mix needs at least one table"));
        }
        if rows == 0 {
            return Err(MixError("the mix needs at least one row per table"));
        }
        Ok(Mix {
            tables,
            rows,
            oltp_rows,
            dss_rows: 0,
            dss_percent: 0,
            tables_per_txn: 1,
            row_base: 0,
        })
    }

    /// Make `percent` % of transactions DSS scans of `dss_rows` rows.
    pub fn with_dss(self, dss_rows: u64, percent: u32) -> Result<Mix, MixError> {
        if percent > 100 {
            return Err(MixError("the DSS share is above 100 %"));
        }
        Ok(Mix {
            dss_rows,
            dss_percent: percent,
            ..self
        })
    }

    /// Touch `n` random tables per transaction.
    pub fn with_tables_per_txn(self, n: u32) -> Result<Mix, MixError> {
        if n == 0 {
            return Err(MixError("a transaction must touch at least one table"));
        }
        Ok(Mix {
            tables_per_txn: n,
            ..self
        })
    }

    /// Draw rows from `base .. base + rows` instead of `0 .. rows`.
    pub fn with_row_base(self, base: u64) -> Result<Mix, MixError> {
        if base.checked_add(self.rows).is_none() {
            return Err(MixError("row base plus rows overflows a row id"));
        }
        Ok(Mix {
            row_base: base,
            ..self
        })
    }

    /// Roll one transaction's lock set into `out` (cleared first), in
    /// acquisition order: each table's intent before its rows.
    pub fn roll(&self, rng: &mut SimRng, out: &mut Vec<(ResourceId, LockMode)>) {
        out.clear();
        let dss = self.dss_percent > 0 && rng.next_below(100) < u64::from(self.dss_percent);
        let (intent, mode, rows) = if dss {
            (LockMode::IS, LockMode::S, self.dss_rows)
        } else {
            (LockMode::IX, LockMode::X, self.oltp_rows)
        };
        for _ in 0..self.tables_per_txn {
            let table = TableId(rng.next_below(u64::from(self.tables)) as u32);
            out.push((ResourceId::Table(table), intent));
            let mut scan = rng.next_below(self.rows);
            for _ in 0..rows {
                let row = if dss {
                    let row = scan;
                    scan = if scan + 1 == self.rows { 0 } else { scan + 1 };
                    row
                } else {
                    rng.next_below(self.rows)
                };
                out.push((ResourceId::Row(table, RowId(self.row_base + row)), mode));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rolls(mix: Result<Mix, MixError>, n: usize) -> Vec<Vec<(ResourceId, LockMode)>> {
        let mut rng = SimRng::seed_from_u64(7);
        let mut set = Vec::new();
        let mix = mix.unwrap();
        (0..n)
            .map(|_| {
                mix.roll(&mut rng, &mut set);
                set.clone()
            })
            .collect()
    }

    fn row(res: ResourceId) -> (TableId, u64) {
        match res {
            ResourceId::Row(t, r) => (t, r.0),
            other => panic!("expected a row, got {other:?}"),
        }
    }

    #[test]
    fn empty_key_spaces_are_rejected() {
        assert!(Mix::new(0, 10, 1).is_err());
        assert!(Mix::new(1, 0, 1).is_err());
        let mix = Mix::new(1, 10, 1).unwrap();
        assert!(mix.with_dss(5, 101).is_err());
        assert!(mix.with_tables_per_txn(0).is_err());
        assert!(mix.with_row_base(u64::MAX).is_err());
    }

    #[test]
    fn oltp_takes_an_intent_then_private_x_rows_per_table() {
        let mix = Mix::new(64, 64, 2)
            .and_then(|m| m.with_tables_per_txn(2))
            .and_then(|m| m.with_row_base(10_000));
        for set in rolls(mix, 200) {
            assert_eq!(set.len(), 6);
            for txn in set.chunks(3) {
                let (ResourceId::Table(table), LockMode::IX) = txn[0] else {
                    panic!("IX intent first: {txn:?}");
                };
                for &(res, mode) in &txn[1..] {
                    let (t, r) = row(res);
                    assert_eq!((t, mode), (table, LockMode::X));
                    assert!(table.0 < 64 && (10_000..10_064).contains(&r));
                }
            }
        }
    }

    #[test]
    fn a_quarter_are_contiguous_wrapping_s_scans() {
        let sets = rolls(Mix::new(16, 50, 8).and_then(|m| m.with_dss(40, 25)), 4_000);
        let scans: Vec<_> = sets.iter().filter(|s| s[0].1 == LockMode::IS).collect();
        assert!((800..1_200).contains(&scans.len()), "{} scans", scans.len());
        for scan in scans {
            assert_eq!(scan.len(), 41);
            let rows: Vec<u64> = scan[1..].iter().map(|&(res, _)| row(res).1).collect();
            assert!(rows.windows(2).all(|p| p[1] == (p[0] + 1) % 50));
            assert!(scan[1..].iter().all(|&(_, mode)| mode == LockMode::S));
        }
    }
}
