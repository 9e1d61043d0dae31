//! The lock table: per-resource holders and FIFO wait queues.
//!
//! A [`LockHead`] is the only record of who holds a resource. Almost
//! every head has one holder charged two lock structures and nobody
//! waiting, so that case lives inside the head and a `(ResourceId,
//! LockHead)` bucket fits one 64-byte cache line; co-holders, waiters
//! and lock structures past the second sit behind one box that only a
//! contended head carries. Emptied boxes go back on a [`SpareBoxes`]
//! list with their capacity, so hand-offs on a hot row do not allocate.

use std::collections::VecDeque;

use locktune_memalloc::SlotHandle;

use crate::app::AppId;
use crate::mode::LockMode;

/// Lock structures a holding keeps inside the head (the default
/// `first_holder_slots`).
const INLINE_SLOTS: usize = 2;

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
    /// The first lock structures charged to this holding, packed from
    /// the front; any further ones are in [`Contended::spill`].
    slots: [Option<SlotHandle>; INLINE_SLOTS],
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

/// What a head needs only once it is shared or contended.
#[derive(Debug, Default)]
pub struct Contended {
    /// Holders after the first, in grant order.
    co_holders: Vec<Holder>,
    /// FIFO wait queue (conversions are pushed to the front: they beat
    /// new requests).
    queue: VecDeque<Waiter>,
    /// Lock structures past a holding's inline ones, by holder (only a
    /// `first_holder_slots` above the default puts any here).
    spill: Vec<(AppId, SlotHandle)>,
}

/// Per-resource lock state ("lock head").
///
/// Holders keep `Vec` order: a grant appends, a release moves the last
/// holder into the hole. `first` is `None` only while nobody holds the
/// resource.
#[derive(Debug, Default)]
pub struct LockHead {
    first: Option<Holder>,
    more: Option<Box<Contended>>,
}

impl LockHead {
    /// Current holders, in order.
    pub fn holders(&self) -> impl Iterator<Item = &Holder> {
        let co_holders = self.more.as_deref().map(|m| &m.co_holders[..]);
        self.first.iter().chain(co_holders.unwrap_or_default())
    }

    /// Find the holder entry for `app`.
    pub fn holder(&self, app: AppId) -> Option<&Holder> {
        self.holders().find(|h| h.app == app)
    }

    /// Find the holder entry for `app`, mutably.
    pub fn holder_mut(&mut self, app: AppId) -> Option<&mut Holder> {
        let co_holders = self.more.as_deref_mut().map(|m| &mut m.co_holders[..]);
        self.first
            .iter_mut()
            .chain(co_holders.unwrap_or_default())
            .find(|h| h.app == app)
    }

    /// True while at least one application holds the resource.
    pub fn is_held(&self) -> bool {
        self.first.is_some()
    }

    /// Is `mode` compatible with every holder other than `app`?
    pub fn compatible_for(&self, app: AppId, mode: LockMode) -> bool {
        self.holders()
            .filter(|h| h.app != app)
            .all(|h| mode.compatible_with(h.mode))
    }

    /// Lock structures charged to `app`'s holding here.
    pub fn slots_of(&self, app: AppId) -> u64 {
        let inline = self
            .holder(app)
            .map_or(0, |h| h.slots.iter().flatten().count());
        let spilled = self.more.as_deref().map_or(0, |m| {
            m.spill.iter().filter(|(owner, _)| *owner == app).count()
        });
        (inline + spilled) as u64
    }

    /// Append `app` as a holder in `mode`, charged `slots`.
    pub fn add_holder(
        &mut self,
        app: AppId,
        mode: LockMode,
        slots: &[SlotHandle],
        spare: &mut SpareBoxes,
    ) {
        let mut inline = [None; INLINE_SLOTS];
        for (place, &slot) in inline.iter_mut().zip(slots) {
            *place = Some(slot);
        }
        let holder = Holder {
            app,
            mode,
            slots: inline,
        };
        if self.first.is_none() {
            self.first = Some(holder);
        } else {
            self.contended(spare).co_holders.push(holder);
        }
        if let Some(rest) = slots.get(INLINE_SLOTS..).filter(|rest| !rest.is_empty()) {
            let spill = &mut self.contended(spare).spill;
            spill.extend(rest.iter().map(|&slot| (app, slot)));
        }
    }

    /// Remove `app`'s holding, handing each lock structure it was
    /// charged to `free`. Returns the mode it held and the number of
    /// structures, or `None` when `app` was not a holder.
    pub fn remove_holder(
        &mut self,
        app: AppId,
        mut free: impl FnMut(SlotHandle),
    ) -> Option<(LockMode, u64)> {
        let more = self.more.as_deref_mut();
        let holder = if self.first.as_ref()?.app == app {
            let last = more.and_then(|m| m.co_holders.pop());
            std::mem::replace(&mut self.first, last)?
        } else {
            let co_holders = &mut more?.co_holders;
            let pos = co_holders.iter().position(|h| h.app == app)?;
            co_holders.swap_remove(pos)
        };
        let mut freed = 0;
        for slot in holder.slots.into_iter().flatten() {
            free(slot);
            freed += 1;
        }
        if let Some(m) = self.more.as_deref_mut().filter(|m| !m.spill.is_empty()) {
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
    pub fn queue(&self) -> &VecDeque<Waiter> {
        self.more.as_deref().map_or(&NO_WAITERS, |m| &m.queue)
    }

    /// The wait queue, to push to or pop from.
    pub fn queue_mut(&mut self, spare: &mut SpareBoxes) -> &mut VecDeque<Waiter> {
        &mut self.contended(spare).queue
    }

    /// Hand the box back once nothing is left in it. Returns true when
    /// the whole head is empty (nothing granted, nothing waiting) and
    /// can be dropped from the hash map.
    pub fn trim(&mut self, spare: &mut SpareBoxes) -> bool {
        let unused =
            |m: &Contended| m.co_holders.is_empty() && m.queue.is_empty() && m.spill.is_empty();
        if self.more.as_deref().is_some_and(unused) {
            let emptied = self.more.take().expect("checked above");
            if spare.len() < MAX_SPARE_BOXES {
                spare.push(emptied);
            }
        }
        self.is_empty()
    }

    /// True when nothing is granted, nothing is waiting and no box is
    /// left: the head can be dropped from the hash map.
    pub fn is_empty(&self) -> bool {
        self.first.is_none() && self.more.is_none()
    }

    fn contended(&mut self, spare: &mut SpareBoxes) -> &mut Contended {
        self.more
            .get_or_insert_with(|| spare.pop().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceId;

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

    /// One lock, one cache line: the hash-map bucket of an uncontended
    /// lock must not outgrow 64 bytes.
    #[test]
    fn a_lock_fits_one_cache_line() {
        assert!(std::mem::size_of::<(ResourceId, LockHead)>() <= 64);
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
        let order: Vec<u32> = h.holders().map(|g| g.app.0).collect();
        assert_eq!(order, vec![4, 2, 3], "the last holder fills the hole");
        assert!(h.remove_holder(AppId(1), |_| {}).is_none());
        assert!(h.remove_holder(AppId(2), |_| {}).is_some());
        let order: Vec<u32> = h.holders().map(|g| g.app.0).collect();
        assert_eq!(order, vec![4, 3]);
    }

    /// An emptied box goes to the spare list and the next contended
    /// head takes it from there.
    #[test]
    fn emptied_boxes_are_recycled() {
        let mut spare = Vec::new();
        let mut h = head_with(&[(1, LockMode::IS), (2, LockMode::IS)], &mut spare);
        assert!(h.remove_holder(AppId(2), |_| {}).is_some());
        assert!(!h.trim(&mut spare), "app 1 still holds");
        assert_eq!(spare.len(), 1);
        h.queue_mut(&mut spare).push_back(waiter(3));
        assert!(spare.is_empty(), "the queue reuses the spare box");
    }
}
