//! The lock table: per-resource grant lists and FIFO wait queues.

use std::collections::VecDeque;

use locktune_memalloc::SlotHandle;

use crate::app::AppId;
use crate::inline::InlineVec;
use crate::mode::LockMode;
use crate::resource::TableId;

/// The lock structures charged to one holding: inline up to the
/// default `first_holder_slots` (2), on the heap beyond.
pub type SlotSet = InlineVec<SlotHandle, 2>;

/// One granted holding on a resource.
#[derive(Debug)]
pub struct Granted {
    /// Holder.
    pub app: AppId,
    /// Granted mode (the supremum of every request the holder made).
    pub mode: LockMode,
    /// Lock structures charged to this holding.
    pub slots: SlotSet,
}

/// Why a waiter is in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// A brand-new request.
    New,
    /// A holder converting its mode upward.
    Conversion,
}

/// A pending escalation attached to a waiting table-lock request: when
/// the table lock is finally granted, the application's row locks on
/// the table are released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationTicket {
    /// Table whose row locks will be collapsed.
    pub table: TableId,
}

/// One queued request.
#[derive(Debug)]
pub struct Waiter {
    /// Requesting application.
    pub app: AppId,
    /// Requested mode.
    pub mode: LockMode,
    /// New request or conversion.
    pub kind: WaitKind,
    /// Global arrival sequence (diagnostics; the queue itself is FIFO).
    pub seq: u64,
    /// Escalation to complete on grant, if any.
    pub escalation: Option<EscalationTicket>,
}

/// Per-resource lock state ("lock head").
#[derive(Debug, Default)]
pub struct LockHead {
    /// Current holders; the first lives inside the head.
    pub granted: InlineVec<Granted, 1>,
    /// FIFO wait queue (conversions are pushed to the front).
    pub queue: VecDeque<Waiter>,
}

impl LockHead {
    /// Find the holder entry for `app`.
    pub fn holder(&self, app: AppId) -> Option<&Granted> {
        self.granted.iter().find(|g| g.app == app)
    }

    /// Find the holder entry for `app`, mutably.
    pub fn holder_mut(&mut self, app: AppId) -> Option<&mut Granted> {
        self.granted.iter_mut().find(|g| g.app == app)
    }

    /// Remove and return `app`'s holder entry (`swap_remove` order).
    pub fn remove_holder(&mut self, app: AppId) -> Option<Granted> {
        let pos = self.granted.iter().position(|g| g.app == app)?;
        Some(self.granted.swap_remove(pos))
    }

    /// Is `mode` compatible with every holder other than `app`?
    pub fn compatible_for(&self, app: AppId, mode: LockMode) -> bool {
        self.granted
            .iter()
            .filter(|g| g.app != app)
            .all(|g| mode.compatible_with(g.mode))
    }

    /// True when `app` has a waiter queued here.
    pub fn has_waiter(&self, app: AppId) -> bool {
        self.queue.iter().any(|w| w.app == app)
    }

    /// Remove `app`'s waiter, returning it.
    pub fn remove_waiter(&mut self, app: AppId) -> Option<Waiter> {
        let pos = self.queue.iter().position(|w| w.app == app)?;
        self.queue.remove(pos)
    }

    /// True when nothing is granted and nothing waits (head can be
    /// dropped from the hash map).
    pub fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.queue.is_empty()
    }

    /// The supremum of all granted modes (diagnostics).
    pub fn group_mode(&self) -> Option<LockMode> {
        self.granted
            .iter()
            .map(|g| g.mode)
            .reduce(LockMode::supremum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn granted(app: u32, mode: LockMode) -> Granted {
        Granted {
            app: AppId(app),
            mode,
            slots: SlotSet::default(),
        }
    }

    #[test]
    fn compatibility_ignores_self() {
        let mut h = LockHead::default();
        h.granted.push(granted(1, LockMode::X));
        // App 1 itself asking again: compatible (only other holders count).
        assert!(h.compatible_for(AppId(1), LockMode::X));
        assert!(!h.compatible_for(AppId(2), LockMode::S));
    }

    #[test]
    fn compatibility_against_all_holders() {
        let mut h = LockHead::default();
        h.granted.push(granted(1, LockMode::IS));
        h.granted.push(granted(2, LockMode::IX));
        assert!(h.compatible_for(AppId(3), LockMode::IX));
        assert!(!h.compatible_for(AppId(3), LockMode::S)); // conflicts with IX
    }

    #[test]
    fn waiter_management() {
        let mut h = LockHead::default();
        h.queue.push_back(Waiter {
            app: AppId(1),
            mode: LockMode::X,
            kind: WaitKind::New,
            seq: 0,
            escalation: None,
        });
        assert!(h.has_waiter(AppId(1)));
        assert!(!h.has_waiter(AppId(2)));
        let w = h.remove_waiter(AppId(1)).unwrap();
        assert_eq!(w.app, AppId(1));
        assert!(h.is_empty());
    }

    #[test]
    fn group_mode_is_supremum() {
        let mut h = LockHead::default();
        assert_eq!(h.group_mode(), None);
        h.granted.push(granted(1, LockMode::IS));
        h.granted.push(granted(2, LockMode::IX));
        assert_eq!(h.group_mode(), Some(LockMode::IX));
    }

    #[test]
    fn remove_holder_keeps_swap_remove_order() {
        let mut h = LockHead::default();
        for a in 1..=4 {
            h.granted.push(granted(a, LockMode::IS));
        }
        assert_eq!(h.remove_holder(AppId(1)).map(|g| g.app), Some(AppId(1)));
        let order: Vec<u32> = h.granted.iter().map(|g| g.app.0).collect();
        assert_eq!(order, vec![4, 2, 3], "the last holder fills the hole");
        assert!(h.remove_holder(AppId(1)).is_none());
    }
}
