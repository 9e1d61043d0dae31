#![warn(missing_docs)]

//! DB2-style lock memory pool (paper §2.2).
//!
//! DB2 allocates lock memory in 128 KiB blocks — one block per 32 pages
//! of `LOCKLIST` — each holding ~2000 lock structures. Blocks live on a
//! linked list ("the lock structure chain"):
//!
//! * lock structures are handed out from the **head** block;
//! * a block whose structures are exhausted is moved to a separate
//!   *full* list, exposing the next block as the new head;
//! * the first structure freed back to a full block returns that block
//!   to the **head** of the chain, so it is immediately reused.
//!
//! The consequence the tuning algorithm relies on: when demand needs
//! only half the allocated memory, blocks towards the **tail** of the
//! chain are entirely free. A shrink request therefore scans from the
//! tail for fully-free blocks and either frees enough of them or fails
//! without changing anything ("set aside … reintegrated" in the paper —
//! we collect candidates first and only commit when the request can be
//! fully satisfied).
//!
//! [`LockMemoryPool`] implements exactly this discipline. It does not
//! allocate real 128 KiB buffers — the lock *structures* that matter to
//! the tuning algorithm are slot bookkeeping — but every byte count it
//! reports corresponds to what a real allocation would hold. The lock
//! manager keeps the [`SlotHandle`]s this pool issues in its lock heads,
//! a holding's first two as one 12-byte [`SlotPair`]. A block's only
//! per-slot state is its allocation bitmap (256 bytes for 2 048 slots);
//! a slot is the lowest clear bit.
//!
//! [`SharedLockMemoryPool`] puts one pool behind a mutex for the
//! concurrent service and gives each handle a private slot cache: one
//! bitmap word's worth of free slots claimed in one trip (a pair comes
//! from one word), and a small buffer of frees returned in one trip.

pub mod backend;
pub mod block;
pub mod config;
pub mod error;
pub mod pool;
pub mod shared;
pub mod stats;

pub use backend::PoolBackend;
pub use block::{SlotHandle, SlotPair};
pub use config::PoolConfig;
pub use error::{PoolError, ShrinkError};
pub use pool::LockMemoryPool;
pub use shared::SharedLockMemoryPool;
pub use stats::{PoolStats, PoolUsage};
