//! Per-application lock accounting.
//!
//! The tuning algorithm needs to know, per application: how many lock
//! structures it holds (for the `lockPercentPerApplication` check) and
//! on which table it holds the most row locks (the escalation victim
//! table).

use crate::hash::FxHashMap;
use crate::mode::LockMode;
use crate::resource::{ResourceId, TableId};

/// An application (connection) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// What one application holds on one table's rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableRowHoldings {
    /// Row locks held on this table.
    pub rows: u64,
    /// Lock structure slots charged for those row locks.
    pub slots: u64,
    /// Row locks whose mode requires an exclusive table lock when
    /// escalated (`X`, `U`, anything not plain `S`).
    pub write_rows: u64,
}

/// Lock-related state of one application.
#[derive(Debug, Default)]
pub struct AppLockState {
    /// Mode and reference count per held resource.
    held: FxHashMap<ResourceId, HeldLock>,
    /// Row holdings per table (escalation bookkeeping).
    per_table: FxHashMap<TableId, TableRowHoldings>,
    /// Total lock structure slots charged to this application.
    total_slots: u64,
    /// Resource this application is currently waiting on, if any.
    waiting_on: Option<ResourceId>,
}

/// One held lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldLock {
    /// Current granted mode.
    pub mode: LockMode,
    /// Re-entrant request count (released on `unlock_all` regardless).
    pub count: u32,
    /// Slots charged for this holding.
    pub slots: u64,
}

impl AppLockState {
    /// The held lock on `res`, if any.
    pub fn held(&self, res: &ResourceId) -> Option<&HeldLock> {
        self.held.get(res)
    }

    /// Iterate over all held resources.
    pub fn held_resources(&self) -> impl Iterator<Item = (&ResourceId, &HeldLock)> {
        self.held.iter()
    }

    /// Number of held resources.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Total lock structure slots charged.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Row holdings on `table`.
    pub fn table_holdings(&self, table: TableId) -> TableRowHoldings {
        self.per_table.get(&table).copied().unwrap_or_default()
    }

    /// The table with the most row-lock slots (the escalation victim),
    /// with deterministic tie-breaking on the lower table id.
    pub fn most_locked_table(&self) -> Option<TableId> {
        self.per_table
            .iter()
            .filter(|(_, h)| h.rows > 0)
            .max_by_key(|(t, h)| (h.slots, std::cmp::Reverse(t.0)))
            .map(|(t, _)| *t)
    }

    /// Tables on which this application currently holds row locks.
    pub fn tables_with_rows(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self
            .per_table
            .iter()
            .filter(|(_, h)| h.rows > 0)
            .map(|(t, _)| *t)
            .collect();
        v.sort();
        v
    }

    /// Resource currently waited on.
    pub fn waiting_on(&self) -> Option<ResourceId> {
        self.waiting_on
    }

    pub(crate) fn set_waiting(&mut self, res: Option<ResourceId>) {
        self.waiting_on = res;
    }

    /// Record a newly granted lock charged `slots` structures.
    pub(crate) fn record_grant(&mut self, res: ResourceId, mode: LockMode, slots: u64) {
        let entry = self.held.entry(res).or_insert(HeldLock {
            mode,
            count: 0,
            slots: 0,
        });
        entry.mode = entry.mode.supremum(mode);
        entry.count += 1;
        entry.slots += slots;
        self.total_slots += slots;
        if let ResourceId::Row(table, _) = res {
            let t = self.per_table.entry(table).or_default();
            // Only count the first grant of this row (count goes 0 -> 1).
            if entry.count == 1 {
                t.rows += 1;
                if mode.escalation_table_mode() == LockMode::X {
                    t.write_rows += 1;
                }
            } else if mode.escalation_table_mode() == LockMode::X
                && entry.mode.escalation_table_mode() == LockMode::X
                && entry.count > 1
                && t.write_rows == 0
            {
                // Conversion S -> X via re-request: now a write row.
                t.write_rows += 1;
            }
            t.slots += slots;
        }
    }

    /// Record an in-place conversion to `mode` (no new slots).
    pub(crate) fn record_conversion(&mut self, res: ResourceId, mode: LockMode) {
        if let Some(h) = self.held.get_mut(&res) {
            let before = h.mode;
            h.mode = h.mode.supremum(mode);
            h.count += 1;
            if let ResourceId::Row(table, _) = res {
                if before.escalation_table_mode() != LockMode::X
                    && h.mode.escalation_table_mode() == LockMode::X
                {
                    self.per_table.entry(table).or_default().write_rows += 1;
                }
            }
        }
    }

    /// Remove the holding on `res`, returning the slots to credit back.
    pub(crate) fn remove(&mut self, res: &ResourceId) -> Option<HeldLock> {
        let h = self.held.remove(res)?;
        self.total_slots -= h.slots;
        if let ResourceId::Row(table, _) = res {
            if let Some(t) = self.per_table.get_mut(table) {
                t.rows -= 1;
                t.slots -= h.slots;
                if h.mode.escalation_table_mode() == LockMode::X {
                    t.write_rows = t.write_rows.saturating_sub(1);
                }
                if t.rows == 0 {
                    self.per_table.remove(table);
                }
            }
        }
        Some(h)
    }

    /// Remove every row holding on `table` (escalation), handing each
    /// to `release` in the held map's iteration order. Returns the
    /// number of rows removed.
    pub(crate) fn remove_table_rows(
        &mut self,
        table: TableId,
        mut release: impl FnMut(ResourceId),
    ) -> u64 {
        let (mut rows, mut slots) = (0, 0);
        self.held.retain(|res, h| match res {
            ResourceId::Row(t, _) if *t == table => {
                rows += 1;
                slots += h.slots;
                release(*res);
                false
            }
            _ => true,
        });
        self.total_slots -= slots;
        self.per_table.remove(&table);
        rows
    }

    /// Drain every holding (commit / abort) in the held map's
    /// iteration order; the accounting is reset up front, the map
    /// keeps its capacity for the next transaction.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (ResourceId, HeldLock)> + '_ {
        self.per_table.clear();
        self.total_slots = 0;
        self.held.drain()
    }

    /// True when nothing is held and nothing is awaited.
    pub fn is_idle(&self) -> bool {
        self.held.is_empty() && self.waiting_on.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::RowId;

    fn row(t: u32, r: u64) -> ResourceId {
        ResourceId::Row(TableId(t), RowId(r))
    }

    #[test]
    fn grant_accounting() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 1), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        assert_eq!(a.total_slots(), 5);
        assert_eq!(a.held_count(), 3);
        let t = a.table_holdings(TableId(1));
        assert_eq!(t.rows, 2);
        assert_eq!(t.slots, 3);
        assert_eq!(t.write_rows, 1);
    }

    #[test]
    fn most_locked_table_picks_heaviest() {
        let mut a = AppLockState::default();
        for r in 0..3 {
            a.record_grant(row(1, r), LockMode::S, 1);
        }
        for r in 0..5 {
            a.record_grant(row(2, r), LockMode::S, 1);
        }
        assert_eq!(a.most_locked_table(), Some(TableId(2)));
        assert_eq!(a.tables_with_rows(), vec![TableId(1), TableId(2)]);
    }

    #[test]
    fn most_locked_table_tie_breaks_low_id() {
        let mut a = AppLockState::default();
        a.record_grant(row(5, 0), LockMode::S, 1);
        a.record_grant(row(3, 0), LockMode::S, 1);
        assert_eq!(a.most_locked_table(), Some(TableId(3)));
    }

    #[test]
    fn no_rows_no_victim() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::S, 2);
        assert_eq!(a.most_locked_table(), None);
    }

    #[test]
    fn reentrant_grant_counts_one_row() {
        let mut a = AppLockState::default();
        a.record_grant(row(1, 1), LockMode::S, 2);
        a.record_grant(row(1, 1), LockMode::S, 0);
        let t = a.table_holdings(TableId(1));
        assert_eq!(t.rows, 1);
        assert_eq!(a.held(&row(1, 1)).unwrap().count, 2);
    }

    #[test]
    fn remove_credits_slots() {
        let mut a = AppLockState::default();
        a.record_grant(row(1, 1), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        let h = a.remove(&row(1, 1)).unwrap();
        assert_eq!(h.slots, 2);
        assert_eq!(a.total_slots(), 1);
        let t = a.table_holdings(TableId(1));
        assert_eq!(t.rows, 1);
        assert_eq!(t.write_rows, 0);
        assert!(a.remove(&row(9, 9)).is_none());
    }

    #[test]
    fn drain_resets_accounting() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 5), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::X, 1);
        let mut drained: Vec<ResourceId> = a.drain().map(|(r, _)| r).collect();
        drained.sort();
        assert_eq!(
            drained,
            vec![ResourceId::Table(TableId(1)), row(1, 2), row(1, 5)]
        );
        assert_eq!(a.total_slots(), 0);
        assert_eq!(a.table_holdings(TableId(1)), TableRowHoldings::default());
        assert!(a.is_idle());
    }

    #[test]
    fn remove_table_rows_leaves_other_tables_and_the_intent() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 5), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        a.record_grant(row(2, 2), LockMode::S, 2);
        let mut released = Vec::new();
        assert_eq!(a.remove_table_rows(TableId(1), |r| released.push(r)), 2);
        released.sort();
        assert_eq!(released, vec![row(1, 2), row(1, 5)]);
        assert_eq!(a.total_slots(), 4);
        assert_eq!(a.held_count(), 2);
        assert_eq!(a.table_holdings(TableId(1)), TableRowHoldings::default());
        assert_eq!(a.table_holdings(TableId(2)).rows, 1);
    }

    #[test]
    fn conversion_upgrades_mode_and_write_rows() {
        let mut a = AppLockState::default();
        a.record_grant(row(1, 1), LockMode::S, 2);
        assert_eq!(a.table_holdings(TableId(1)).write_rows, 0);
        a.record_conversion(row(1, 1), LockMode::X);
        assert_eq!(a.held(&row(1, 1)).unwrap().mode, LockMode::X);
        assert_eq!(a.table_holdings(TableId(1)).write_rows, 1);
    }

    #[test]
    fn waiting_state() {
        let mut a = AppLockState::default();
        assert!(a.is_idle());
        a.set_waiting(Some(row(1, 1)));
        assert_eq!(a.waiting_on(), Some(row(1, 1)));
        assert!(!a.is_idle());
        a.set_waiting(None);
        assert!(a.is_idle());
    }
}
