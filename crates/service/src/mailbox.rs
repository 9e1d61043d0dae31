//! The hand-off queue: any number of producers, one consumer.
//!
//! Every hand-off between threads is a [`Mailbox`]: session and I/O
//! shard events ([`EventSink`]), admitted connections to their I/O
//! shard, reply frames to a threaded connection's writer. A consumer
//! parked in [`Mailbox::pop_until`] is unparked by a push only while it
//! sleeps (Nikolaev's rule, PAPERS.md: pay for a wake-up only when
//! someone sleeps); one that blocks elsewhere (an I/O shard, in
//! `epoll_wait`) gets a wake callback. [`Mailbox::try_pop`] on an empty
//! mailbox is one atomic load: the probe a grant wait spins on.
//!
//! [`EventSink`]: crate::EventSink

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::latch::Latch;

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// The consumer, while it is parked on an empty queue.
    consumer: Option<Thread>,
    /// The producer parked in `push_until` on a full queue.
    producer: Option<Thread>,
}

/// A single-consumer queue; see the module docs. Any thread may push.
/// One thread at a time may pop, and one at a time may wait in
/// [`Mailbox::push_until`].
pub struct Mailbox<T> {
    state: Latch<State<T>>,
    /// Mirror of the queue's length, written under the latch.
    len: AtomicUsize,
    wake: Option<Box<dyn Fn() + Send + Sync>>,
}

impl<T> Mailbox<T> {
    /// A mailbox whose consumer blocks in [`Mailbox::pop_until`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Mailbox {
            state: Latch::new(State {
                queue: VecDeque::new(),
                closed: false,
                consumer: None,
                producer: None,
            }),
            len: AtomicUsize::new(0),
            wake: None,
        }
    }

    /// A mailbox whose consumer blocks elsewhere: every push and the
    /// close call `wake`, which must be cheap and must not block.
    pub fn with_wake(wake: impl Fn() + Send + Sync + 'static) -> Self {
        Mailbox {
            wake: Some(Box::new(wake)),
            ..Self::new()
        }
    }

    /// Append `value` and wake the consumer; a closed mailbox hands the
    /// value back.
    pub fn push(&self, value: T) -> Result<(), T> {
        self.offer(value, usize::MAX, None)
    }

    /// [`Mailbox::push`] onto a mailbox that holds at most `cap` values,
    /// parking while it is full. The value comes back if `deadline`
    /// passes first or the mailbox is closed ([`Mailbox::is_closed`]
    /// tells which).
    pub fn push_until(&self, value: T, cap: usize, deadline: Instant) -> Result<(), T> {
        self.offer(value, cap, Some(deadline))
    }

    fn offer(&self, value: T, cap: usize, deadline: Option<Instant>) -> Result<(), T> {
        let mut st = self.state.lock();
        while !st.closed && st.queue.len() >= cap {
            let Some(left) = deadline.and_then(time_left) else {
                return Err(value);
            };
            st.producer = Some(thread::current());
            drop(st);
            thread::park_timeout(left);
            st = self.state.lock();
            st.producer = None;
        }
        if st.closed {
            return Err(value);
        }
        st.queue.push_back(value);
        self.len.store(st.queue.len(), Ordering::Release);
        let consumer = st.consumer.take();
        drop(st);
        if let Some(t) = consumer {
            t.unpark();
        }
        if let Some(wake) = &self.wake {
            wake();
        }
        Ok(())
    }

    /// Take the oldest value without waiting. On an empty mailbox this
    /// is one atomic load.
    pub fn try_pop(&self) -> Option<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.take(&mut self.state.lock())
    }

    fn take(&self, st: &mut State<T>) -> Option<T> {
        let value = st.queue.pop_front()?;
        self.len.store(st.queue.len(), Ordering::Release);
        if let Some(t) = st.producer.take() {
            t.unpark();
        }
        Some(value)
    }

    /// Take the oldest value, parking while the mailbox is empty until
    /// a push, a close, or `deadline` (`None`: no deadline). `None` at
    /// the deadline, or once the mailbox is closed and drained.
    pub fn pop_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            // Only the consumer registers there: this clears our own
            // registration from the last park, if a push did not.
            st.consumer = None;
            if let Some(value) = self.take(&mut st) {
                return Some(value);
            }
            if st.closed {
                return None;
            }
            let left = match deadline {
                None => None,
                Some(d) => Some(time_left(d)?),
            };
            st.consumer = Some(thread::current());
            drop(st);
            match left {
                None => thread::park(),
                Some(left) => thread::park_timeout(left),
            }
            st = self.state.lock();
        }
    }

    /// Refuse every later push and wake a parked consumer or producer.
    /// Values already queued can still be popped.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        let parked = [st.consumer.take(), st.producer.take()];
        drop(st);
        parked.into_iter().flatten().for_each(|t| t.unpark());
        if let Some(wake) = &self.wake {
            wake();
        }
    }

    /// Whether [`Mailbox::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Values queued (an atomic load; exact only to the consumer).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no value is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Time left before `deadline`, `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// Closes its mailbox when dropped, by a return or by a panic, so the
/// peer of a thread that died sees it closed instead of waiting on it.
pub struct CloseOnDrop<'a, T>(pub &'a Mailbox<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A wait that a wake-up ends comes back long before this.
    const LONG: Duration = Duration::from_secs(10);

    /// Run `f` on `mb` from another thread once a peer is parked in it.
    fn when_parked<T: Send + 'static>(
        mb: &Arc<Mailbox<T>>,
        f: impl FnOnce(&Mailbox<T>) + Send + 'static,
    ) -> thread::JoinHandle<()> {
        let mb = Arc::clone(mb);
        thread::spawn(move || {
            let parked = |st: &State<T>| st.consumer.is_some() || st.producer.is_some();
            while !parked(&mb.state.lock()) {
                thread::yield_now();
            }
            f(&mb);
        })
    }

    #[test]
    fn values_come_out_in_push_order() {
        let mb = Mailbox::new();
        (0..10).for_each(|i| mb.push(i).unwrap());
        assert_eq!(mb.len(), 10);
        assert!(std::iter::from_fn(|| mb.try_pop()).eq(0..10));
        assert!(mb.is_empty());
    }

    #[test]
    fn pop_until_wakes_on_a_push_and_gives_up_at_the_deadline() {
        let mb = Arc::new(Mailbox::new());
        let t0 = Instant::now();
        let pusher = when_parked(&mb, |mb| mb.push(7).unwrap());
        assert_eq!(mb.pop_until(Some(t0 + LONG)), Some(7));
        assert!(t0.elapsed() < LONG / 2, "woke late: {:?}", t0.elapsed());
        pusher.join().unwrap();

        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(mb.pop_until(Some(deadline)), None);
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn a_full_push_until_times_out_and_goes_through_after_a_pop() {
        let mb = Arc::new(Mailbox::new());
        mb.push_until(1, 1, Instant::now()).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(mb.push_until(2, 1, deadline), Err(2));
        assert!(Instant::now() >= deadline && !mb.is_closed());

        // A pop on another thread wakes the parked producer.
        let t0 = Instant::now();
        let popper = when_parked(&mb, |mb| assert_eq!(mb.try_pop(), Some(1)));
        mb.push_until(2, 1, t0 + LONG).unwrap();
        assert!(t0.elapsed() < LONG / 2, "woke late: {:?}", t0.elapsed());
        popper.join().unwrap();
        assert_eq!(mb.try_pop(), Some(2));
    }

    #[test]
    fn close_wakes_a_parked_peer_and_refuses_later_pushes() {
        let mb = Arc::new(Mailbox::<u32>::new());
        let closer = when_parked(&mb, Mailbox::close);
        assert_eq!(mb.pop_until(None), None);
        closer.join().unwrap();
        assert_eq!(mb.push(1), Err(1));

        // A dropped guard wakes a parked producer; queued values drain.
        let mb = Arc::new(Mailbox::new());
        mb.push(1).unwrap();
        let t0 = Instant::now();
        let closer = when_parked(&mb, |mb| drop(CloseOnDrop(mb)));
        assert_eq!(mb.push_until(2, 1, t0 + LONG), Err(2));
        assert!(t0.elapsed() < LONG / 2 && mb.is_closed());
        closer.join().unwrap();
        assert_eq!(mb.pop_until(None), Some(1));
        assert_eq!(mb.pop_until(None), None);
    }

    #[test]
    fn four_producers_to_one_parking_consumer_lose_and_reorder_nothing() {
        const PRODUCERS: usize = 4;
        const MESSAGES: u64 = 10_000;
        let mb = Arc::new(Mailbox::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || (0..MESSAGES).for_each(|i| mb.push((p, i)).unwrap()))
            })
            .collect();
        let mut next = [0u64; PRODUCERS];
        for _ in 0..PRODUCERS as u64 * MESSAGES {
            let (p, i) = mb.pop_until(None).expect("the mailbox stays open");
            assert_eq!(i, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        producers.into_iter().for_each(|p| p.join().unwrap());
        assert_eq!(next, [MESSAGES; PRODUCERS]);
        assert_eq!(mb.try_pop(), None);
    }
}
