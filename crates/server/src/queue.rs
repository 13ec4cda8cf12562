//! A bounded MPSC work queue with blocking backpressure.
//!
//! The producer blocks when the queue is full (backpressure, counted),
//! workers block when it is empty, and [`BoundedQueue::close`] drains
//! gracefully: workers keep popping until the queue is both closed *and*
//! empty, so no accepted request is ever dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters the queue accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted.
    pub enqueued: u64,
    /// High-water mark of queued requests. Note this may *exceed* the
    /// queue capacity: a crash-recovery requeue returns an
    /// already-accepted item to the front unconditionally, so a full
    /// queue plus a requeue observes `capacity + 1`.
    pub max_depth: usize,
    /// Times the producer had to block on a full queue (including
    /// bounded waits that ultimately gave up saturated).
    pub backpressure_waits: u64,
    /// Items handed back to the front: a lost worker's request the
    /// supervisor retries, or one a condemned worker popped
    /// (crash-recovery handoffs; disjoint from `enqueued`).
    pub requeued: u64,
}

/// Why a bounded-wait [`BoundedQueue::push_within`] refused an item. Both
/// variants hand the item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue was closed: nothing is accepted anymore.
    Closed(T),
    /// The queue stayed full past the admission wait: the item is shed.
    Saturated(T),
}

impl<T> PushError<T> {
    /// Recovers the refused item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Closed(item) | PushError::Saturated(item) => item,
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded multi-producer/multi-consumer queue (used single-producer,
/// many-worker here).
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the item
    /// back if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_within(item, None).map_err(PushError::into_inner)
    }

    /// Enqueues `item`, waiting at most `wait` for room (`None` = wait
    /// forever; `Some(ZERO)` = reject immediately when full). This is the
    /// admission-control path: a saturated queue sheds the item typed as
    /// [`PushError::Saturated`] instead of blocking the producer without
    /// bound.
    pub fn push_within(&self, item: T, wait: Option<Duration>) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().unwrap();
        if state.items.len() >= self.capacity && !state.closed {
            // One blocked push is one backpressure event, however many
            // spurious or futile wake-ups the condvar delivers before
            // room actually appears — and a bounded wait that gives up
            // still experienced the backpressure.
            state.stats.backpressure_waits += 1;
            let deadline = wait.map(|w| Instant::now() + w);
            while state.items.len() >= self.capacity && !state.closed {
                match deadline {
                    None => state = self.not_full.wait(state).unwrap(),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(PushError::Saturated(item));
                        }
                        let (guard, timeout) = self.not_full.wait_timeout(state, left).unwrap();
                        state = guard;
                        if timeout.timed_out()
                            && state.items.len() >= self.capacity
                            && !state.closed
                        {
                            return Err(PushError::Saturated(item));
                        }
                    }
                }
            }
        }
        if state.closed {
            return Err(PushError::Closed(item));
        }
        state.items.push_back(item);
        state.stats.enqueued += 1;
        state.stats.max_depth = state.stats.max_depth.max(state.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Returns a popped-but-unfinished item to the *front* of the queue
    /// (crash-recovery requeue, preserving request order). The item was
    /// already accepted once, so this ignores both capacity and close —
    /// workers drain a closed queue — never blocks, and does not count as
    /// a new enqueue (it counts in [`QueueStats::requeued`]). Because it
    /// ignores capacity, `max_depth` can legitimately exceed `capacity`
    /// after a crash-recovery requeue.
    pub fn requeue(&self, item: T) {
        let mut state = self.state.lock().unwrap();
        state.items.push_front(item);
        state.stats.requeued += 1;
        state.stats.max_depth = state.stats.max_depth.max(state.items.len());
        self.not_empty.notify_one();
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` only once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Closes the queue: no new items are accepted, queued items remain
    /// poppable, and every blocked thread wakes.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> QueueStats {
        self.state.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.stats().max_depth, 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let q = BoundedQueue::new(1);
        q.push(0).unwrap();
        thread::scope(|s| {
            let producer = s.spawn(|| q.push(1));
            // Wait until the producer has actually blocked on the full
            // queue — popping first would let it slip through without
            // ever experiencing backpressure.
            while q.stats().backpressure_waits == 0 {
                thread::yield_now();
            }
            assert_eq!(q.pop(), Some(0));
            assert_eq!(producer.join().unwrap(), Ok(()));
        });
        assert_eq!(q.pop(), Some(1));
        assert!(q.stats().backpressure_waits >= 1);
    }

    #[test]
    fn backpressure_counts_once_per_blocked_push() {
        // One push that blocks is ONE backpressure event, no matter how
        // many wake-ups it absorbs before room appears. Same-module
        // access to the private condvar lets us deliver wake-ups that
        // find the queue still full — the moral equivalent of a spurious
        // wake-up, made deterministic.
        let q = BoundedQueue::new(1);
        q.push(0u32).unwrap();
        thread::scope(|s| {
            let producer = s.spawn(|| q.push(1));
            // Wait until the producer has registered its (single) wait.
            while q.stats().backpressure_waits == 0 {
                thread::yield_now();
            }
            // Futile wake-ups: the queue is still full each time, so the
            // producer re-checks, re-sleeps, and must NOT re-count.
            for _ in 0..5 {
                q.not_full.notify_one();
                thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(q.stats().backpressure_waits, 1, "wake-ups inflated the counter");
            assert_eq!(q.pop(), Some(0));
            producer.join().unwrap().unwrap();
        });
        assert_eq!(q.stats().backpressure_waits, 1);
        // A push that never blocks contributes nothing.
        assert_eq!(q.pop(), Some(1));
        q.push(2).unwrap();
        assert_eq!(q.stats().backpressure_waits, 1);
    }

    #[test]
    fn requeue_goes_to_the_front_and_ignores_capacity_and_close() {
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        q.requeue(0); // full queue: requeue still lands, at the front
        assert_eq!(q.depth(), 2);
        q.close();
        q.requeue(-1); // closed queue: a recovered item is still served
        assert_eq!(q.pop(), Some(-1));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        // Requeues are not new acceptances; they have their own counter.
        assert_eq!(q.stats().enqueued, 1);
        assert_eq!(q.stats().requeued, 2);
        // And because requeue ignores capacity, the high-water mark is
        // allowed to exceed the configured capacity.
        assert_eq!(q.stats().max_depth, 3);
        assert!(q.stats().max_depth > q.capacity());
    }

    #[test]
    fn push_within_sheds_saturated_and_reports_closed() {
        let q = BoundedQueue::new(1);
        q.push_within(1, Some(Duration::ZERO)).unwrap();
        // Full + zero wait: immediate typed rejection, item handed back.
        assert_eq!(q.push_within(2, Some(Duration::ZERO)), Err(PushError::Saturated(2)));
        // Full + short wait with nobody popping: times out saturated.
        assert_eq!(q.push_within(3, Some(Duration::from_millis(10))), Err(PushError::Saturated(3)));
        // A bounded wait that gave up still counted as backpressure.
        assert_eq!(q.stats().backpressure_waits, 2);
        // Room appears within the wait: the push lands.
        thread::scope(|s| {
            let producer = s.spawn(|| q.push_within(4, Some(Duration::from_secs(10))));
            while q.stats().backpressure_waits < 3 {
                thread::yield_now();
            }
            assert_eq!(q.pop(), Some(1));
            assert_eq!(producer.join().unwrap(), Ok(()));
        });
        assert_eq!(q.pop(), Some(4));
        // Closed beats saturated, and the item comes back either way.
        q.close();
        let refused = q.push_within(5, Some(Duration::ZERO)).unwrap_err();
        assert_eq!(refused, PushError::Closed(5));
        assert_eq!(PushError::Saturated(6).into_inner(), 6);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        thread::scope(|s| {
            let consumers: Vec<_> = (0..3).map(|_| s.spawn(|| q.pop())).collect();
            q.close();
            for c in consumers {
                assert_eq!(c.join().unwrap(), None);
            }
        });
    }
}
