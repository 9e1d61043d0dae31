//! The lock table: per-resource holders and FIFO wait queues.
//!
//! A [`LockHead`] is the only record of who holds a resource. Almost
//! every head has one holder charged two lock structures of one block
//! and nobody waiting, so that case lives inside the head, the two as
//! one [`SlotPair`], and a `(ResourceId, LockHead)` bucket is 40 bytes;
//! a shared or contended head keeps its holders, waiters and what the
//! pair cannot take behind one box instead. Emptied boxes go back on a
//! [`SpareBoxes`] list with their capacity: hot-row hand-offs do not allocate.
#![warn(clippy::missing_inline_in_public_items)]

use std::collections::VecDeque;

use locktune_memalloc::{SlotHandle, SlotPair};

use crate::app::AppId;
use crate::mode::LockMode;

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

    /// The hash-map bucket of an uncontended lock is 40 bytes: a 16-byte
    /// key and a head that keeps its one holder, and that holder's two
    /// lock structures, inline.
    #[test]
    fn a_lock_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Holder>(), 20);
        assert_eq!(std::mem::size_of::<LockHead>(), 24);
        assert_eq!(std::mem::size_of::<(ResourceId, LockHead)>(), 40);
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
