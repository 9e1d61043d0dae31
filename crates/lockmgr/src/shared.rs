//! Thread-safe wrapper for multi-threaded benches and examples.
//!
//! The core [`LockManager`] is single-threaded by design (the
//! discrete-event engine owns it). Real applications embedding the
//! library from multiple threads use this wrapper: one `parking_lot`
//! mutex over the whole manager. Lock-manager critical sections are
//! short (hash probe + vector ops), so a single well-behaved mutex is
//! competitive until very high core counts; the benches quantify this.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::app::AppId;
use crate::error::LockError;
use crate::hooks::TuningHooks;
use crate::manager::{GrantNotice, LockManager, LockOutcome, UnlockReport};
use crate::mode::LockMode;
use crate::resource::ResourceId;

/// A cloneable, thread-safe handle to a [`LockManager`].
#[derive(Clone)]
pub struct SharedLockManager {
    inner: Arc<Mutex<LockManager>>,
}

impl SharedLockManager {
    /// Wrap a manager.
    pub fn new(manager: LockManager) -> Self {
        SharedLockManager {
            inner: Arc::new(Mutex::new(manager)),
        }
    }

    /// Request a lock.
    pub fn lock(
        &self,
        app: AppId,
        res: ResourceId,
        mode: LockMode,
        hooks: &mut dyn TuningHooks,
    ) -> Result<LockOutcome, LockError> {
        self.inner.lock().lock(app, res, mode, hooks)
    }

    /// Release everything an application holds.
    pub fn unlock_all(&self, app: AppId, hooks: &mut dyn TuningHooks) -> UnlockReport {
        self.inner.lock().unlock_all(app, hooks)
    }

    /// Drain pending grant notifications.
    pub fn take_notifications(&self) -> Vec<GrantNotice> {
        self.inner.lock().take_notifications()
    }

    /// Run `f` with exclusive access to the manager (batch operations,
    /// invariant checks).
    pub fn with<R>(&self, f: impl FnOnce(&mut LockManager) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoTuning;
    use crate::manager::LockManagerConfig;
    use crate::resource::{RowId, TableId};
    use locktune_memalloc::{LockMemoryPool, PoolConfig};

    fn shared() -> SharedLockManager {
        let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 1 << 20);
        SharedLockManager::new(LockManager::new(pool, LockManagerConfig::default()))
    }

    #[test]
    fn concurrent_disjoint_lockers() {
        let mgr = shared();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let mgr = mgr.clone();
                std::thread::spawn(move || {
                    let app = AppId(t);
                    let mut hooks = NoTuning {
                        max_locks_percent: 98.0,
                    };
                    let table = TableId(t);
                    mgr.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks)
                        .unwrap();
                    for r in 0..100u64 {
                        let out = mgr
                            .lock(
                                app,
                                ResourceId::Row(table, RowId(r)),
                                LockMode::X,
                                &mut hooks,
                            )
                            .unwrap();
                        assert_eq!(out, LockOutcome::Granted);
                    }
                    mgr.unlock_all(app, &mut hooks);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        mgr.with(|m| {
            m.validate();
            assert_eq!(m.pool().used_slots(), 0);
        });
        assert_eq!(mgr.with(|m| m.stats().grants), 8 * 101);
    }

    #[test]
    fn concurrent_contention_is_serialized_safely() {
        let mgr = shared();
        let table = TableId(0);
        // All threads fight over the same rows in share mode.
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let mgr = mgr.clone();
                std::thread::spawn(move || {
                    let app = AppId(t);
                    let mut hooks = NoTuning {
                        max_locks_percent: 98.0,
                    };
                    mgr.lock(app, ResourceId::Table(table), LockMode::IS, &mut hooks)
                        .unwrap();
                    for r in 0..50u64 {
                        mgr.lock(
                            app,
                            ResourceId::Row(table, RowId(r)),
                            LockMode::S,
                            &mut hooks,
                        )
                        .unwrap();
                    }
                    mgr.unlock_all(app, &mut hooks);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        mgr.with(|m| {
            m.validate();
            assert_eq!(m.pool().used_slots(), 0);
            assert_eq!(m.locked_resources(), 0);
        });
    }
}
