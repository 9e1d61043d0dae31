//! Keep-last-N log with a monotonic cursor.
//!
//! The tuning-report log and the tenant directory's donation journal
//! are this one ring: a long-running server appends indefinitely, so
//! only the newest `cap` entries are kept, and every entry has a
//! sequence number so any number of pollers can resume from a cursor
//! without stealing each other's entries or re-copying the ring.

use std::collections::VecDeque;

/// Fixed-capacity log of the last `cap` entries pushed.
#[derive(Debug)]
pub struct RingLog<T> {
    cap: usize,
    buf: VecDeque<T>,
    /// Entries ever pushed — the sequence number the *next* entry will
    /// carry. The retained window is `[next_seq - buf.len(), next_seq)`.
    next_seq: u64,
}

impl<T: Clone> RingLog<T> {
    /// An empty log keeping at most `cap` (≥ 1) entries.
    pub fn new(cap: usize) -> Self {
        debug_assert!(cap > 0, "a keep-last-N log keeps at least one entry");
        RingLog {
            cap,
            buf: VecDeque::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// The sequence number the next pushed entry will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append `entry`, evicting the oldest when full.
    pub fn push(&mut self, entry: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(entry);
        self.next_seq += 1;
    }

    /// Every retained entry, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }

    /// Entries with sequence ≥ `since` (clamped to the retained
    /// window), oldest first, plus the next sequence number — the
    /// cursor for the following call. The first returned entry's
    /// sequence is `cursor - entries.len()`.
    pub fn since(&self, since: u64) -> (u64, Vec<T>) {
        let oldest = self.next_seq - self.buf.len() as u64;
        let start = since.clamp(oldest, self.next_seq);
        let skip = (start - oldest) as usize;
        (self.next_seq, self.buf.iter().skip(skip).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::RingLog;

    #[test]
    fn keeps_the_last_n_and_resumes_from_a_cursor() {
        let mut log = RingLog::new(3);
        assert_eq!(log.since(0), (0, vec![]));
        for i in 0..5u32 {
            assert_eq!(log.next_seq(), u64::from(i));
            log.push(i);
        }
        assert_eq!(log.snapshot(), vec![2, 3, 4]);
        // A cursor behind the window clamps to its oldest entry.
        assert_eq!(log.since(0), (5, vec![2, 3, 4]));
        assert_eq!(log.since(3), (5, vec![3, 4]));
        // A cursor at or past the head returns nothing.
        assert_eq!(log.since(5), (5, vec![]));
        assert_eq!(log.since(99), (5, vec![]));
    }
}
