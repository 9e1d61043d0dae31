//! Per-application lock accounting.
//!
//! The tuning algorithm needs to know, per application: how many lock
//! structures it holds (for the `lockPercentPerApplication` check) and
//! on which table it holds the most row locks (the escalation victim
//! table). Which resources an application holds, and in what mode, is
//! recorded once, in the lock heads; kept here is only what commit and
//! escalation need to find those heads again — the release list.

use crate::hash::FxHashMap;
use crate::mode::LockMode;
use crate::resource::{ResourceId, RowId, TableId};

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

impl TableRowHoldings {
    /// The table mode that escalating these rows needs.
    pub fn escalation_mode(&self) -> LockMode {
        if self.write_rows > 0 {
            LockMode::X
        } else {
            LockMode::S
        }
    }
}

/// What one application holds on one table: the table lock itself and
/// the rows under it. Kept while either exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TableRecord {
    /// Mode of the table lock held, if any.
    pub mode: Option<LockMode>,
    /// Row holdings (escalation bookkeeping).
    pub rows: TableRowHoldings,
}

impl TableRecord {
    /// Count a new holding of `res`, on this table, charged `slots`.
    #[inline]
    pub(crate) fn count_grant(&mut self, res: ResourceId, mode: LockMode, slots: u64) {
        if res.is_row() {
            self.rows.rows += 1;
            self.rows.slots += slots;
            self.rows.write_rows += u64::from(mode.escalation_table_mode() == LockMode::X);
        } else {
            self.mode = Some(mode);
        }
    }
}

/// One release-list entry: the table lock of `table` when `len` is 0,
/// else its rows `first_row .. first_row + len`, granted in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    table: TableId,
    len: u32,
    first_row: u64,
}

impl Run {
    /// The resources of this entry, in grant order.
    #[inline]
    pub(crate) fn resources(self) -> impl Iterator<Item = ResourceId> {
        (0..u64::from(self.len.max(1))).map(move |i| match self.len {
            0 => ResourceId::Table(self.table),
            _ => ResourceId::Row(self.table, RowId(self.first_row + i)),
        })
    }

    /// The table of a run of rows; `None` for a table lock.
    #[inline]
    pub(crate) fn rows_of(self) -> Option<TableId> {
        (self.len != 0).then_some(self.table)
    }

    /// Take in `next` (sorted after this entry) if it is the same table
    /// lock or rows that overlap or follow this run; true if it did.
    fn absorb(&mut self, next: &Run) -> bool {
        let offset = next.first_row.wrapping_sub(self.first_row);
        let len = u64::from(self.len);
        let end = len.max(offset.saturating_add(u64::from(next.len)));
        let covers = next.table == self.table && (next.len == 0) == (self.len == 0);
        let covers = covers && offset <= len && end <= u64::from(u32::MAX);
        self.len = if covers { end as u32 } else { self.len };
        covers
    }
}

/// Lock-related state of one application.
#[derive(Debug, Default)]
pub struct AppLockState {
    /// Every resource granted since the last commit, in grant order; a
    /// grant of the row after the last run extends it. A row released
    /// since (explicit unlock) is stale, and one locked again after that
    /// is covered twice; releasing skips both, as the head says who holds.
    pub(crate) release_list: Vec<Run>,
    /// Holdings alive now (the release list minus stale and repeated
    /// entries).
    pub(crate) held_count: usize,
    pub(crate) per_table: FxHashMap<TableId, TableRecord>,
    /// Total lock structure slots charged to this application.
    pub(crate) total_slots: u64,
    /// Resource this application is currently waiting on, if any.
    pub(crate) waiting_on: Option<ResourceId>,
}

/// The record of a table the application holds something on.
fn table_record(
    per_table: &mut FxHashMap<TableId, TableRecord>,
    table: TableId,
) -> &mut TableRecord {
    let record = per_table.get_mut(&table);
    record.expect("every holding is counted in its table's record")
}

impl AppLockState {
    /// Number of held resources.
    #[inline]
    pub fn held_count(&self) -> usize {
        self.held_count
    }

    /// Total lock structure slots charged.
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Row holdings on `table`.
    pub fn table_holdings(&self, table: TableId) -> TableRowHoldings {
        self.per_table
            .get(&table)
            .map(|t| t.rows)
            .unwrap_or_default()
    }

    /// Mode of the table lock held on `table`, if any.
    pub fn table_mode(&self, table: TableId) -> Option<LockMode> {
        self.per_table.get(&table)?.mode
    }

    /// The table with the most row-lock slots (the escalation victim),
    /// with deterministic tie-breaking on the lower table id.
    pub fn most_locked_table(&self) -> Option<TableId> {
        self.row_holdings()
            .max_by_key(|(id, rows)| (rows.slots, std::cmp::Reverse(id.0)))
            .map(|(id, _)| id)
    }

    /// Every table this application holds row locks on, with what it
    /// holds there (in no particular order).
    pub fn row_holdings(&self) -> impl Iterator<Item = (TableId, TableRowHoldings)> + '_ {
        let with_rows = self.per_table.iter().filter(|(_, t)| t.rows.rows > 0);
        with_rows.map(|(id, t)| (*id, t.rows))
    }

    /// Resource currently waited on.
    pub fn waiting_on(&self) -> Option<ResourceId> {
        self.waiting_on
    }

    /// Record a new holding charged `slots` structures.
    pub(crate) fn record_grant(&mut self, res: ResourceId, mode: LockMode, slots: u64) {
        let t = self.per_table.entry(res.table()).or_default();
        t.count_grant(res, mode, slots);
        self.record_holding(res, slots);
    }

    /// [`Self::record_grant`] minus the table record's count.
    #[inline]
    pub(crate) fn record_holding(&mut self, res: ResourceId, slots: u64) {
        let (table, len, first_row) = match res {
            ResourceId::Table(table) => (table, 0, 0),
            ResourceId::Row(table, row) => (table, 1, row.0),
        };
        match self.release_list.last_mut() {
            Some(last)
                if len == 1
                    && last.table == table
                    && (1..u32::MAX).contains(&last.len)
                    && first_row.checked_sub(last.first_row) == Some(u64::from(last.len)) =>
            {
                last.len += 1;
            }
            _ => self.release_list.push(Run {
                table,
                len,
                first_row,
            }),
        }
        self.held_count += 1;
        self.total_slots += slots;
    }

    /// Record an in-place conversion from `before` to `after` (no new
    /// slots).
    pub(crate) fn record_conversion(&mut self, res: ResourceId, before: LockMode, after: LockMode) {
        let t = table_record(&mut self.per_table, res.table());
        if !res.is_row() {
            t.mode = Some(after);
        } else if before.escalation_table_mode() != LockMode::X
            && after.escalation_table_mode() == LockMode::X
        {
            t.rows.write_rows += 1;
        }
    }

    /// Record the release of one holding that was held in `mode` and
    /// charged `slots`. Its release-list entry stays behind, stale.
    #[inline]
    pub(crate) fn record_release(&mut self, res: ResourceId, mode: LockMode, slots: u64) {
        self.held_count -= 1;
        self.total_slots -= slots;
        let table = res.table();
        let t = table_record(&mut self.per_table, table);
        if res.is_row() {
            t.rows.rows -= 1;
            t.rows.slots -= slots;
            t.rows.write_rows -= u64::from(mode.escalation_table_mode() == LockMode::X);
        } else {
            t.mode = None;
        }
        if t.mode.is_none() && t.rows.rows == 0 {
            self.per_table.remove(&table);
        }
    }

    /// Escalation: hand every row of `table` on the release list to
    /// `release` (true when it was held), drop those entries, and record
    /// that the rows released were all `table`'s. Returns them.
    pub(crate) fn release_table_rows(
        &mut self,
        table: TableId,
        mut release: impl FnMut(ResourceId) -> bool,
    ) -> u64 {
        let of_table = |run: &mut Run| run.table == table && run.len != 0;
        let runs = self.release_list.extract_if(.., of_table);
        let rows = runs.flat_map(Run::resources).filter(|&r| release(r));
        let rows = rows.count() as u64;
        let t = table_record(&mut self.per_table, table);
        debug_assert_eq!(t.rows.rows, rows, "escalation released every row");
        self.held_count -= rows as usize;
        self.total_slots -= t.rows.slots;
        t.rows = TableRowHoldings::default();
        if t.mode.is_none() {
            self.per_table.remove(&table);
        }
        rows
    }

    /// Once entries outnumber the live holdings, merge overlapping runs
    /// in place and drop entries that cover nothing `still_held` (asked of
    /// the lock heads): at most one entry per holding is left.
    pub(crate) fn compact_release_list(&mut self, mut still_held: impl FnMut(ResourceId) -> bool) {
        if self.release_list.len() > 2 * self.held_count + 16 {
            let list = &mut self.release_list;
            list.sort_unstable_by_key(|run| (run.table, run.len != 0, run.first_row));
            list.dedup_by(|next, kept| kept.absorb(next));
            list.retain(|run| run.resources().any(&mut still_held));
        }
    }

    /// Take the release list for a commit or abort, resetting the
    /// accounting up front; the list keeps its capacity for the next
    /// transaction.
    #[inline]
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Run> {
        self.per_table.clear();
        self.total_slots = 0;
        self.held_count = 0;
        self.release_list.drain(..)
    }

    /// True when nothing is held and nothing is awaited.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.held_count == 0 && self.waiting_on.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::RowId;

    fn row(t: u32, r: u64) -> ResourceId {
        ResourceId::Row(TableId(t), RowId(r))
    }

    /// Every resource the release list covers, in list order.
    fn listed(a: &AppLockState) -> Vec<ResourceId> {
        a.release_list
            .iter()
            .flat_map(|run| run.resources())
            .collect()
    }

    #[test]
    fn grant_accounting() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 1), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        assert_eq!(a.total_slots(), 5);
        assert_eq!(a.held_count(), 3);
        assert_eq!(a.table_mode(TableId(1)), Some(LockMode::IX));
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
        let mut tables: Vec<(u32, u64)> = a.row_holdings().map(|(t, h)| (t.0, h.rows)).collect();
        tables.sort();
        assert_eq!(tables, vec![(1, 3), (2, 5)]);
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
    fn release_credits_slots_and_leaves_a_stale_entry() {
        let mut a = AppLockState::default();
        a.record_grant(row(1, 1), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        a.record_release(row(1, 1), LockMode::X, 2);
        assert_eq!(a.total_slots(), 1);
        assert_eq!(a.held_count(), 1);
        let t = a.table_holdings(TableId(1));
        assert_eq!(t.rows, 1);
        assert_eq!(t.write_rows, 0);
        assert_eq!(listed(&a), vec![row(1, 1), row(1, 2)]);
        a.record_release(row(1, 2), LockMode::S, 1);
        assert_eq!(a.table_holdings(TableId(1)), TableRowHoldings::default());
        assert!(a.per_table.is_empty(), "nothing left on the table");
    }

    #[test]
    fn drain_resets_accounting() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 5), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::X, 1);
        let drained: Vec<ResourceId> = a.drain().flat_map(|run| run.resources()).collect();
        assert_eq!(
            drained,
            vec![ResourceId::Table(TableId(1)), row(1, 5), row(1, 2)],
            "grant order"
        );
        assert_eq!(a.total_slots(), 0);
        assert_eq!(a.table_holdings(TableId(1)), TableRowHoldings::default());
        assert_eq!(a.table_mode(TableId(1)), None);
        assert!(a.is_idle());
    }

    #[test]
    fn releasing_a_tables_rows_leaves_other_tables_and_the_intent() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IX, 2);
        a.record_grant(row(1, 5), LockMode::X, 2);
        a.record_grant(row(1, 2), LockMode::S, 1);
        a.record_grant(row(2, 2), LockMode::S, 2);
        assert_eq!(a.release_table_rows(TableId(1), |_| true), 2);
        assert_eq!(a.total_slots(), 4);
        assert_eq!(a.held_count(), 2);
        assert_eq!(a.table_holdings(TableId(1)), TableRowHoldings::default());
        assert_eq!(a.table_mode(TableId(1)), Some(LockMode::IX));
        assert_eq!(a.table_holdings(TableId(2)).rows, 1);
    }

    #[test]
    fn conversion_upgrades_mode_and_write_rows() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IS, 2);
        a.record_grant(row(1, 1), LockMode::S, 2);
        assert_eq!(a.table_holdings(TableId(1)).write_rows, 0);
        a.record_conversion(row(1, 1), LockMode::S, LockMode::X);
        assert_eq!(a.table_holdings(TableId(1)).write_rows, 1);
        a.record_conversion(ResourceId::Table(TableId(1)), LockMode::IS, LockMode::IX);
        assert_eq!(a.table_mode(TableId(1)), Some(LockMode::IX));
    }

    #[test]
    fn an_in_order_scan_lists_one_run_per_table() {
        assert_eq!(std::mem::size_of::<Run>(), 16);
        let mut a = AppLockState::default();
        for t in 1..=2 {
            a.record_grant(ResourceId::Table(TableId(t)), LockMode::IS, 2);
            for r in 0..100_000 {
                a.record_grant(row(t, r), LockMode::S, 1);
            }
        }
        assert_eq!(a.release_list.len(), 4, "a table lock and a run per table");
        assert_eq!(listed(&a).len(), 200_002);
        let mut scattered = AppLockState::default();
        for r in [7, 3, 9, 11, 10, 4] {
            scattered.record_grant(row(1, r), LockMode::S, 1);
        }
        assert_eq!(scattered.release_list.len(), 6, "no row follows the last");
        scattered.record_grant(row(1, 5), LockMode::S, 1);
        assert_eq!(scattered.release_list.len(), 6, "5 follows 4");
        let drained: Vec<ResourceId> = scattered.drain().flat_map(|run| run.resources()).collect();
        let rows = [7, 3, 9, 11, 10, 4, 5].map(|r| row(1, r));
        assert_eq!(drained, rows, "grant order");
    }

    #[test]
    fn compaction_drops_stale_and_repeated_entries() {
        let mut a = AppLockState::default();
        a.record_grant(row(1, 5), LockMode::S, 2);
        a.record_grant(row(2, 0), LockMode::S, 2);
        a.record_release(row(2, 0), LockMode::S, 2);
        for _ in 0..20 {
            a.record_grant(row(1, 6), LockMode::S, 2);
            a.record_release(row(1, 6), LockMode::S, 2);
        }
        a.record_grant(row(1, 6), LockMode::S, 2);
        assert_eq!(a.release_list.len(), 23);
        let held = [row(1, 5), row(1, 6)];
        a.compact_release_list(|res| held.contains(&res));
        // Row 6's repeats merge into row 5's run; table 2's entry, which
        // sorts after it with a lower row, covers nothing held.
        assert_eq!(listed(&a), held);
        assert_eq!(a.release_list.len(), 1);
        a.compact_release_list(|_| false);
        assert_eq!(a.release_list.len(), 1, "short lists are left alone");
    }

    /// Runs that overlap only partly still merge, so entries that each
    /// cover some held row cannot pile up.
    #[test]
    fn compaction_merges_overlapping_runs() {
        let mut a = AppLockState::default();
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IS, 2);
        a.record_grant(row(1, 1), LockMode::S, 1);
        a.record_grant(row(1, 2), LockMode::S, 1);
        for end in 3..30 {
            // Rows 1 and 2 again, one at a time so that one of them is
            // always held, then rows up to `end`: a run a row longer
            // than the last.
            for r in 1..=2 {
                a.record_release(row(1, r), LockMode::S, 1);
                a.record_grant(row(1, r), LockMode::S, 1);
            }
            for r in 3..=end {
                a.record_grant(row(1, r), LockMode::S, 1);
                a.record_release(row(1, r), LockMode::S, 1);
            }
        }
        a.record_grant(ResourceId::Table(TableId(1)), LockMode::IS, 2);
        assert_eq!(a.release_list.len(), 30);
        a.compact_release_list(|res| res == row(1, 1) || res == row(1, 2) || !res.is_row());
        let rows: Vec<ResourceId> = (1..30).map(|r| row(1, r)).collect();
        assert_eq!(listed(&a)[0], ResourceId::Table(TableId(1)));
        assert_eq!(listed(&a)[1..], rows, "one run over every row seen");
        assert_eq!(a.release_list.len(), 2);
    }

    #[test]
    fn waiting_state() {
        let mut a = AppLockState::default();
        assert!(a.is_idle());
        a.waiting_on = Some(row(1, 1));
        assert_eq!(a.waiting_on(), Some(row(1, 1)));
        assert!(!a.is_idle());
        a.waiting_on = None;
        assert!(a.is_idle());
    }
}
