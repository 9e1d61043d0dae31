//! The lock table: per-resource holders and FIFO wait queues.
//!
//! A [`LockHead`] is the only record of who holds a resource. Almost
//! every head has one holder charged two lock structures of one block
//! and nobody waiting, so that case lives inside the head, the two as
//! one [`SlotPair`], and a `(RowId, LockHead)` bucket is 32 bytes; a
//! shared or contended head keeps its holders, waiters and what the
//! pair cannot take behind one box instead. Emptied boxes go back on a
//! [`SpareBoxes`] list with their capacity: hot-row hand-offs do not allocate.
//!
//! The heads are keyed in two steps ([`LockTable`]): a small map from
//! table to that table's entry, which holds the table lock's own head,
//! and the entry's row heads split over [`ROW_SEGMENTS`] `RowId` maps.
//! A map grows by doubling, so a table grows one segment at a time and
//! never holds two generations of itself at once. Emptied entries go on
//! a spare list with their segments' capacity, as boxes do.
#![warn(clippy::missing_inline_in_public_items)]

use std::collections::hash_map::{Entry, VacantEntry};
use std::collections::VecDeque;

use locktune_memalloc::{SlotHandle, SlotPair};

use crate::app::AppId;
use crate::hash::{row_segment, FxHashMap, RowMap, ROW_SEGMENT_BITS};
use crate::mode::LockMode;
use crate::resource::{ResourceId, RowId, TableId};

/// Emptied boxes kept for reuse; beyond this they are freed.
const MAX_SPARE_BOXES: usize = 64;

/// Emptied [`Contended`] boxes awaiting reuse.
pub type SpareBoxes = Vec<Box<Contended>>;

/// One granted holding on a resource.
#[derive(Debug)]
pub struct Holder {
    /// Holder.
    pub app: AppId,
    /// Granted mode (the supremum of every request the holder made).
    pub mode: LockMode,
    /// The first lock structures; any the pair cannot take are spilled.
    slots: Option<SlotPair>,
}

/// One queued request. It is a conversion exactly while the head lists
/// its application as a holder; a conversion whose holding has gone
/// (released or aborted) is granted like a new request.
#[derive(Debug)]
pub struct Waiter {
    /// Requesting application.
    pub app: AppId,
    /// Requested mode.
    pub mode: LockMode,
    /// A pending escalation rides on this table-lock request: when it
    /// is granted, the application's row locks on the table are
    /// released.
    pub completes_escalation: bool,
}

/// The queue of every head that has no box.
static NO_WAITERS: VecDeque<Waiter> = VecDeque::new();

/// A head that is shared, contended or charged past its inline slots.
#[derive(Debug, Default)]
pub struct Contended {
    /// Every holder, in grant order.
    holders: Vec<Holder>,
    /// FIFO wait queue (conversions are pushed to the front: they beat
    /// new requests).
    queue: VecDeque<Waiter>,
    /// Lock structures a holding's pair cannot take, by holder: a third,
    /// a second in another block, or one at an index past `u16`.
    spill: Vec<(AppId, SlotHandle)>,
}

/// Per-resource lock state ("lock head").
///
/// Holders keep `Vec` order: a grant appends, a release moves the last
/// holder into the hole. A head moves to `Many` when it needs a second
/// holder, a waiter or a spilled slot, and stays there until it is empty.
#[derive(Debug, Default)]
pub enum LockHead {
    /// Nothing granted, nothing waiting.
    #[default]
    Idle,
    /// One holder; no other holder, waiter or spilled slot since `Idle`.
    One(Holder),
    /// Anything else.
    Many(Box<Contended>),
}

impl LockHead {
    /// Current holders, in order.
    #[inline]
    pub fn holders(&self) -> &[Holder] {
        match self {
            LockHead::Idle => &[],
            LockHead::One(h) => std::slice::from_ref(h),
            LockHead::Many(m) => &m.holders,
        }
    }

    /// Find the holder entry for `app`.
    #[inline]
    pub fn holder(&self, app: AppId) -> Option<&Holder> {
        self.holders().iter().find(|h| h.app == app)
    }

    /// Find the holder entry for `app`, mutably.
    #[inline]
    pub fn holder_mut(&mut self, app: AppId) -> Option<&mut Holder> {
        match self {
            LockHead::Idle => None,
            LockHead::One(h) => Some(h).filter(|h| h.app == app),
            LockHead::Many(m) => m.holders.iter_mut().find(|h| h.app == app),
        }
    }

    /// True while at least one application holds the resource.
    #[inline]
    pub fn is_held(&self) -> bool {
        !self.holders().is_empty()
    }

    /// Is `mode` compatible with every holder other than `app`?
    #[inline]
    pub fn compatible_for(&self, app: AppId, mode: LockMode) -> bool {
        self.holders()
            .iter()
            .filter(|h| h.app != app)
            .all(|h| mode.compatible_with(h.mode))
    }

    /// Lock structures charged to `app`'s holding here.
    #[inline(never)]
    pub fn slots_of(&self, app: AppId) -> u64 {
        let inline = self
            .holder(app)
            .map_or(0, |h| h.slots.map_or(0, |p| p.handles().count()));
        let spilled = match self {
            LockHead::Many(m) => m.spill.iter().filter(|(owner, _)| *owner == app).count(),
            _ => 0,
        };
        (inline + spilled) as u64
    }

    /// Append `app` as a holder in `mode`, charged `slots`.
    #[inline]
    pub fn add_holder(
        &mut self,
        app: AppId,
        mode: LockMode,
        slots: &[SlotHandle],
        spare: &mut SpareBoxes,
    ) {
        let (pair, inline) = SlotPair::pack(slots);
        let holder = Holder {
            app,
            mode,
            slots: pair,
        };
        let rest = &slots[inline..];
        if matches!(self, LockHead::Idle) && rest.is_empty() {
            *self = LockHead::One(holder);
            return;
        }
        let m = self.contended(spare);
        m.holders.push(holder);
        m.spill.extend(rest.iter().map(|&slot| (app, slot)));
    }

    /// Remove `app`'s holding, handing each lock structure it was
    /// charged to `free`. Returns the mode it held and the number of
    /// structures, or `None` when `app` was not a holder.
    #[inline]
    pub fn remove_holder(
        &mut self,
        app: AppId,
        mut free: impl FnMut(SlotHandle),
    ) -> Option<(LockMode, u64)> {
        let holder = match self {
            LockHead::One(h) if h.app == app => match std::mem::take(self) {
                LockHead::One(h) => h,
                _ => unreachable!("matched One above"),
            },
            LockHead::Many(m) => {
                let pos = m.holders.iter().position(|h| h.app == app)?;
                m.holders.swap_remove(pos)
            }
            _ => return None,
        };
        let mut freed = 0;
        // A plain loop: a `flat_map` over the `Option` cost OLTP 4 %.
        if let Some(pair) = holder.slots {
            for slot in pair.handles() {
                free(slot);
                freed += 1;
            }
        }
        if let LockHead::Many(m) = self {
            m.spill.retain(|&(owner, slot)| {
                if owner == app {
                    free(slot);
                    freed += 1;
                }
                owner != app
            });
        }
        Some((holder.mode, freed))
    }

    /// The wait queue, front first.
    #[inline]
    pub fn queue(&self) -> &VecDeque<Waiter> {
        match self {
            LockHead::Many(m) => &m.queue,
            _ => &NO_WAITERS,
        }
    }

    /// The wait queue, to push to or pop from.
    #[inline]
    pub fn queue_mut(&mut self, spare: &mut SpareBoxes) -> &mut VecDeque<Waiter> {
        &mut self.contended(spare).queue
    }

    /// Hand the box back once nothing is granted or waiting (not before:
    /// a hot row keeps its box across hand-offs). Returns true when the
    /// head is empty and can be dropped from the hash map.
    #[inline]
    pub fn trim(&mut self, spare: &mut SpareBoxes) -> bool {
        if matches!(self, LockHead::Many(m) if m.holders.is_empty() && m.queue.is_empty()) {
            let LockHead::Many(emptied) = std::mem::take(self) else {
                unreachable!("matched Many above");
            };
            if spare.len() < MAX_SPARE_BOXES {
                spare.push(emptied);
            }
        }
        self.is_empty()
    }

    /// True when nothing is granted, nothing is waiting and no box is
    /// left: the head can be dropped from the hash map.
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self, LockHead::Idle)
    }

    /// The box, taken from `spare` (or made) and given the holder of a
    /// `One` head if this head has none yet.
    fn contended(&mut self, spare: &mut SpareBoxes) -> &mut Contended {
        if !matches!(self, LockHead::Many(_)) {
            let mut m = spare.pop().unwrap_or_default();
            if let LockHead::One(h) = std::mem::take(self) {
                m.holders.push(h);
            }
            *self = LockHead::Many(m);
        }
        match self {
            LockHead::Many(m) => m,
            _ => unreachable!("made Many above"),
        }
    }
}

/// Row maps per table. Growth rehashes one segment, at most 1/64 of a
/// table: 4 tables × 100 000 rows locked in order peak at 16.55 MiB of
/// heap and end at 16.51, where one doubling map of 40-byte
/// `ResourceId` buckets peaked at 30.75 and ended at 20.50 (EXPERIMENTS
/// "A lock table that lands on its size").
pub(crate) const ROW_SEGMENTS: usize = 1 << ROW_SEGMENT_BITS;

/// Emptied table entries kept for reuse; beyond this they are freed.
const MAX_SPARE_TABLES: usize = 16;

/// One table's heads: the table lock's (`Idle` while only rows are
/// locked), a count of its rows', and theirs by [`row_segment`].
#[derive(Debug)]
struct TableHeads {
    head: LockHead,
    rows: usize,
    segments: [RowMap<LockHead>; ROW_SEGMENTS],
}

impl TableHeads {
    fn is_empty(&self) -> bool {
        self.rows == 0 && self.head.is_empty()
    }
}

/// Where a resource's head is, or would go ([`LockTable::slot`]).
pub(crate) enum Slot<'a> {
    /// The head: held or awaited, or an entry's `Idle` table head.
    Head(&'a mut LockHead),
    /// A row with no head, and its table's row count.
    Row(VacantEntry<'a, RowId, LockHead>, &'a mut usize),
    /// A table with no entry.
    NoTable,
}

/// Every lock head of a manager: held or awaited resources only, so an
/// emptied head is removed, and a table entry left with no head at all
/// goes on the spare list.
#[derive(Debug)]
pub(crate) struct LockTable {
    tables: FxHashMap<TableId, Box<TableHeads>>,
    /// Emptied entries, with their segments' capacity; boxed, as in the
    /// map, so an entry moves between the two without a 2 KiB copy.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<TableHeads>>,
}

impl LockTable {
    /// An empty table whose spare list is presized, so the first commit
    /// to empty a table allocates nothing.
    pub(crate) fn new() -> Self {
        let spare = Vec::with_capacity(MAX_SPARE_TABLES);
        LockTable {
            tables: FxHashMap::default(),
            spare,
        }
    }

    /// The head of `res`; an entry's table head may be `Idle`.
    #[inline]
    pub(crate) fn get(&self, res: ResourceId) -> Option<&LockHead> {
        let t = self.tables.get(&res.table())?;
        match res {
            ResourceId::Table(_) => Some(&t.head),
            ResourceId::Row(_, row) => t.segments[row_segment(row)].get(&row),
        }
    }

    /// Where the head of `res` is, or would go: a probe of the table map
    /// and, for a row, one of its segment.
    #[inline]
    pub(crate) fn slot(&mut self, res: ResourceId) -> Slot<'_> {
        let Some(t) = self.tables.get_mut(&res.table()) else {
            return Slot::NoTable;
        };
        match res {
            ResourceId::Table(_) => Slot::Head(&mut t.head),
            ResourceId::Row(_, row) => match t.segments[row_segment(row)].entry(row) {
                Entry::Occupied(occupied) => Slot::Head(occupied.into_mut()),
                Entry::Vacant(vacant) => Slot::Row(vacant, &mut t.rows),
            },
        }
    }

    /// The head of `res`, made `Idle` (with its table's entry, taken from
    /// the spare list) if it has none; the caller fills it.
    pub(crate) fn head_or_default(&mut self, res: ResourceId) -> &mut LockHead {
        let spare = &mut self.spare;
        let t = self.tables.entry(res.table()).or_insert_with(|| {
            spare.pop().unwrap_or_else(|| {
                let segments = std::array::from_fn(|_| RowMap::default());
                let (head, rows) = (LockHead::Idle, 0);
                Box::new(TableHeads {
                    head,
                    rows,
                    segments,
                })
            })
        });
        match res {
            ResourceId::Table(_) => &mut t.head,
            ResourceId::Row(_, row) => match t.segments[row_segment(row)].entry(row) {
                Entry::Occupied(occupied) => occupied.into_mut(),
                Entry::Vacant(vacant) => {
                    t.rows += 1;
                    vacant.insert(LockHead::Idle)
                }
            },
        }
    }

    /// Apply `release` to the head of `res`, then drop the head if that
    /// emptied it, and its table's entry if that leaves it empty. `None`
    /// when `res` has no head.
    #[inline]
    pub(crate) fn release<R>(
        &mut self,
        res: ResourceId,
        release: impl FnOnce(&mut LockHead) -> R,
    ) -> Option<R> {
        let t = self.tables.get_mut(&res.table())?;
        let released = match res {
            ResourceId::Table(_) => release(&mut t.head),
            ResourceId::Row(_, row) => {
                let Entry::Occupied(mut slot) = t.segments[row_segment(row)].entry(row) else {
                    return None;
                };
                let released = release(slot.get_mut());
                if slot.get().is_empty() {
                    slot.remove();
                    t.rows -= 1;
                }
                released
            }
        };
        if t.is_empty() {
            self.retire(res.table());
        }
        Some(released)
    }

    /// Move `table`'s emptied entry to the spare list.
    fn retire(&mut self, table: TableId) {
        let emptied = self.tables.remove(&table).expect("a table with an entry");
        if self.spare.len() < MAX_SPARE_TABLES {
            self.spare.push(emptied);
        }
    }

    /// `table`'s row heads and the room its segments have for them.
    pub(crate) fn rows_and_capacity(&self, table: TableId) -> (usize, usize) {
        let t = self.tables.get(&table);
        t.map_or((0, 0), |t| {
            (t.rows, t.segments.iter().map(RowMap::capacity).sum())
        })
    }

    /// Hand every row head of `table` to `release`, then drop the ones
    /// it emptied: a segment it emptied whole by one `clear`, which
    /// keeps the segment's capacity.
    pub(crate) fn sweep_rows(
        &mut self,
        table: TableId,
        mut release: impl FnMut(ResourceId, &mut LockHead),
    ) {
        let Some(t) = self.tables.get_mut(&table) else {
            return;
        };
        for segment in &mut t.segments {
            let mut left = 0;
            for (&row, head) in segment.iter_mut() {
                release(ResourceId::Row(table, row), head);
                left += usize::from(!head.is_empty());
            }
            t.rows -= segment.len() - left;
            match left {
                0 => segment.clear(),
                _ => segment.retain(|_, head| !head.is_empty()),
            }
        }
        if t.is_empty() {
            self.retire(table);
        }
    }

    /// Every head held or awaited, table by table.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ResourceId, &LockHead)> {
        self.tables.iter().flat_map(|(&table, t)| {
            let head = Some((ResourceId::Table(table), &t.head)).filter(|(_, h)| !h.is_empty());
            let rows = t.segments.iter().flatten();
            head.into_iter()
                .chain(rows.map(move |(&row, h)| (ResourceId::Row(table, row), h)))
        })
    }

    /// Panics unless every entry listed has a head, counts its rows, and
    /// keeps each row in its segment, and every spare is empty.
    pub(crate) fn validate(&self) {
        for (table, t) in &self.tables {
            let rows = t.segments.iter().enumerate();
            let rows = rows.flat_map(|(i, s)| s.keys().map(move |&r| (i, r)));
            assert!(
                rows.clone().all(|(i, r)| row_segment(r) == i),
                "{table:?}: misplaced row"
            );
            assert!(
                !t.is_empty() && t.rows == rows.count(),
                "{table:?}: row count"
            );
        }
        let empty = |t: &TableHeads| t.is_empty() && t.segments.iter().all(RowMap::is_empty);
        assert!(self.spare.iter().all(|t| empty(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_with(holders: &[(u32, LockMode)], spare: &mut SpareBoxes) -> LockHead {
        let mut h = LockHead::default();
        for &(app, mode) in holders {
            h.add_holder(AppId(app), mode, &[], spare);
        }
        h
    }

    fn waiter(app: u32) -> Waiter {
        Waiter {
            app: AppId(app),
            mode: LockMode::X,
            completes_escalation: false,
        }
    }

    /// The hash-map bucket of an uncontended row lock is 32 bytes: an
    /// 8-byte key and a head that keeps its one holder, and that holder's
    /// two lock structures, inline.
    #[test]
    fn a_lock_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Holder>(), 20);
        assert_eq!(std::mem::size_of::<LockHead>(), 24);
        assert_eq!(std::mem::size_of::<(RowId, LockHead)>(), 32);
    }

    /// A holding's two lock structures stay inline when they share a
    /// block; a second one in the next block spills, and both come back.
    #[test]
    fn a_pair_across_blocks_spills() {
        use locktune_memalloc::{LockMemoryPool, PoolConfig};
        let mut pool = LockMemoryPool::with_bytes(PoolConfig::new(3 * 64, 64), 2 * 3 * 64);
        let slots: Vec<_> = (0..4).map(|_| pool.allocate().unwrap()).collect();
        let mut spare = Vec::new();
        let (mut same, mut across) = (LockHead::default(), LockHead::default());
        same.add_holder(AppId(1), LockMode::X, &slots[..2], &mut spare);
        across.add_holder(AppId(1), LockMode::X, &slots[2..], &mut spare);
        assert!(matches!(same, LockHead::One(_)));
        assert!(
            matches!(across, LockHead::Many(_)),
            "block 0 slot 2, block 1 slot 0"
        );
        assert_eq!((same.slots_of(AppId(1)), across.slots_of(AppId(1))), (2, 2));
        let mut freed = Vec::new();
        for head in [&mut same, &mut across] {
            assert_eq!(
                head.remove_holder(AppId(1), |h| freed.push(h)),
                Some((LockMode::X, 2))
            );
        }
        assert_eq!(freed, slots);
    }

    #[test]
    fn compatibility_ignores_self() {
        let h = head_with(&[(1, LockMode::X)], &mut Vec::new());
        // App 1 itself asking again: compatible (only other holders count).
        assert!(h.compatible_for(AppId(1), LockMode::X));
        assert!(!h.compatible_for(AppId(2), LockMode::S));
    }

    #[test]
    fn compatibility_against_all_holders() {
        let h = head_with(&[(1, LockMode::IS), (2, LockMode::IX)], &mut Vec::new());
        assert!(h.compatible_for(AppId(3), LockMode::IX));
        assert!(!h.compatible_for(AppId(3), LockMode::S)); // conflicts with IX
    }

    #[test]
    fn a_head_with_only_a_waiter_is_not_empty() {
        let mut spare = Vec::new();
        let mut h = LockHead::default();
        assert!(h.queue().is_empty());
        h.queue_mut(&mut spare).push_back(waiter(1));
        assert_eq!(h.queue().front().map(|w| w.app), Some(AppId(1)));
        assert!(!h.trim(&mut spare), "a waiter is left");
        h.queue_mut(&mut spare).pop_front();
        assert!(h.trim(&mut spare), "nothing granted, nothing waiting");
    }

    #[test]
    fn remove_holder_keeps_swap_remove_order() {
        let holders: Vec<(u32, LockMode)> = (1..=4).map(|a| (a, LockMode::IS)).collect();
        let mut h = head_with(&holders, &mut Vec::new());
        assert!(h.remove_holder(AppId(1), |_| {}).is_some());
        let order: Vec<u32> = h.holders().iter().map(|g| g.app.0).collect();
        assert_eq!(order, vec![4, 2, 3], "the last holder fills the hole");
        assert!(h.remove_holder(AppId(1), |_| {}).is_none());
        assert!(h.remove_holder(AppId(2), |_| {}).is_some());
        let order: Vec<u32> = h.holders().iter().map(|g| g.app.0).collect();
        assert_eq!(order, vec![4, 3]);
    }

    /// A head keeps its box while anything is held; the emptied box goes
    /// to the spare list and the next contended head takes it from there.
    #[test]
    fn emptied_boxes_are_recycled() {
        let mut spare = Vec::new();
        let mut h = head_with(&[(1, LockMode::IS), (2, LockMode::IS)], &mut spare);
        assert!(h.remove_holder(AppId(2), |_| {}).is_some());
        assert!(!h.trim(&mut spare), "app 1 still holds");
        assert!(spare.is_empty(), "the box stays while app 1 holds");
        assert!(h.remove_holder(AppId(1), |_| {}).is_some());
        assert!(h.trim(&mut spare), "nothing granted, nothing waiting");
        assert_eq!(spare.len(), 1);
        let mut next = head_with(&[(3, LockMode::X)], &mut spare);
        assert_eq!(spare.len(), 1, "one holder needs no box");
        next.queue_mut(&mut spare).push_back(waiter(4));
        assert!(spare.is_empty(), "the queue reuses the spare box");
    }
}
