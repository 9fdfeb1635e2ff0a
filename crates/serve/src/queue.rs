//! The admission queue: a bounded MPSC queue with a draining consumer.
//!
//! Producers are transport threads admitting `dispatch` requests; the
//! server decides every decide-only request at admission, so none reaches
//! the queue. The single consumer is the dispatch executor, which takes
//! *everything queued* the moment it wakes — no timed wait — whether it
//! queued while the previous dispatches ran or a transport admitted it as
//! one burst ([`AdmissionQueue::try_push_all`]).
//!
//! The queue is deliberately built on `std::sync::{Mutex, Condvar}`, not
//! the vendored `parking_lot` (which exposes no condvar): the consumer
//! must *sleep* while the queue is empty, and a condvar is the only
//! primitive in the tree that can wake it without spinning. A notify is
//! a futex syscall whether or not anyone waits, so the consumer says it
//! sleeps under the lock first, and a push notifies `arrived` only then.
//! Producers never wait: a full queue refuses the request, which the
//! caller sheds. Every lock acquisition recovers from poisoning with
//! `PoisonError::into_inner` — a panicking producer must not wedge the
//! executor (the same discipline `hetsel-obs` applies to its registries;
//! the queue's state is a `VecDeque` and two flags, each valid after any
//! partial mutation).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Admission verdict for one push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request is in the queue.
    Admitted,
    /// The queue was full; the request was not enqueued (shed it).
    QueueFull,
    /// The queue is closed; the request was not enqueued (shed it).
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// The consumer is asleep on `arrived`.
    consumer_sleeping: bool,
}

/// A bounded MPSC queue whose one consumer drains whatever is queued.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signals the consumer: items arrived or the queue closed.
    arrived: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` queued requests (minimum 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                consumer_sleeping: false,
            }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking admission: load-shedding callers use this and turn
    /// [`Admission::QueueFull`] into a typed shed reply.
    pub fn try_push(&self, item: T) -> Admission {
        match self.try_push_all(std::iter::once(item)) {
            (1, _) => Admission::Admitted,
            (_, refusal) => refusal,
        }
    }

    /// Non-blocking admission of a whole burst under one lock, so the
    /// consumer sees the burst together and drains it as one batch.
    /// Admits items in order until the queue is full or closed; returns
    /// how many were admitted and the verdict for the rest
    /// ([`Admission::Admitted`] when all were).
    pub fn try_push_all(&self, items: impl IntoIterator<Item = T>) -> (usize, Admission) {
        let mut state = self.lock();
        if state.closed {
            return (0, Admission::Closed);
        }
        let mut admitted = 0;
        let mut verdict = Admission::Admitted;
        for item in items {
            if state.items.len() >= self.capacity {
                verdict = Admission::QueueFull;
                break;
            }
            state.items.push_back(item);
            admitted += 1;
        }
        let wake = admitted > 0 && state.consumer_sleeping;
        drop(state);
        if wake {
            self.arrived.notify_one();
        }
        (admitted, verdict)
    }

    /// Consumer side: blocks until at least one request is queued, then
    /// takes everything queued right now (up to `max_batch`) without
    /// waiting for more. Batches still form: from requests that queued
    /// while the previous batch was being handled, and from transport
    /// bursts admitted together by [`AdmissionQueue::try_push_all`].
    /// Returns `None` only when the queue is closed *and* drained.
    pub fn next_batch(&self, max_batch: usize) -> Option<Vec<T>> {
        let mut state = self.lock();
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state.consumer_sleeping = true;
            state = self
                .arrived
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.consumer_sleeping = false;
        }
        let take = state.items.len().min(max_batch.max(1));
        Some(state.items.drain(..take).collect())
    }

    /// Closes the queue: producers are refused from now on, the consumer
    /// drains what is left and then sees `None`. Returns the requests
    /// still queued so the caller can shed them with a typed reason
    /// instead of dropping them silently.
    pub fn close(&self) -> Vec<T> {
        let mut state = self.lock();
        state.closed = true;
        let orphans: Vec<T> = state.items.drain(..).collect();
        drop(state);
        self.arrived.notify_all();
        orphans
    }

    /// Current queue depth (point-in-time; the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Admission::Admitted);
        assert_eq!(q.try_push(2), Admission::Admitted);
        assert_eq!(q.try_push(3), Admission::QueueFull);
        assert_eq!(q.depth(), 2);
        let batch = q.next_batch(8).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(q.try_push(3), Admission::Admitted);
    }

    #[test]
    fn items_queued_before_next_batch_come_out_as_one_batch() {
        let q = AdmissionQueue::new(64);
        for i in 0..10 {
            assert_eq!(q.try_push(i), Admission::Admitted);
        }
        assert_eq!(q.next_batch(64).unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn lone_item_returns_without_a_timed_wait() {
        let q = Arc::new(AdmissionQueue::new(64));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                started_tx.send(()).unwrap();
                q.next_batch(64)
            })
        };
        started_rx.recv().unwrap();
        assert_eq!(q.try_push(7), Admission::Admitted);
        // Nothing else ever arrives: the consumer must return the lone
        // item instead of holding out for company.
        assert_eq!(consumer.join().unwrap(), Some(vec![7]));
    }

    #[test]
    fn a_burst_is_admitted_in_order_up_to_capacity() {
        let q = AdmissionQueue::new(4);
        assert_eq!(q.try_push(0), Admission::Admitted);
        assert_eq!(q.try_push_all(1..10), (3, Admission::QueueFull));
        assert_eq!(q.next_batch(64).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(q.try_push_all(10..12), (2, Admission::Admitted));
        q.close();
        assert_eq!(q.try_push_all(12..14), (0, Admission::Closed));
    }

    #[test]
    fn max_batch_bounds_a_batch() {
        let q = AdmissionQueue::new(64);
        for i in 0..10 {
            q.try_push(i);
        }
        let batch = q.next_batch(4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(q.depth(), 6);
    }

    #[test]
    fn close_returns_orphans_and_unblocks_consumer() {
        let q = Arc::new(AdmissionQueue::new(8));
        q.try_push(1);
        q.try_push(2);
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.next_batch(8) {
                    seen.extend(batch);
                }
                seen
            })
        };
        thread::sleep(Duration::from_millis(20));
        let orphans = q.close();
        assert_eq!(q.try_push(3), Admission::Closed);
        let seen = consumer.join().unwrap();
        // Everything queued went to exactly one side.
        let mut all = seen;
        all.extend(orphans);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
    }

    /// Capacity 2 against five `try_push_all` producers and the draining
    /// consumer: the consumer sleeps again and again, and must be woken
    /// whenever an item arrives. Every item arrives exactly once. A lost
    /// wake stalls the run, which the bounded wait turns into a failure
    /// instead of a hang.
    #[test]
    fn sleepers_are_always_woken() {
        const PER_PRODUCER: u64 = 5_000;
        const PRODUCERS: u64 = 5;
        let q = Arc::new(AdmissionQueue::new(2));
        let (done, finished) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while (seen.len() as u64) < PRODUCERS * PER_PRODUCER {
                    seen.extend(q.next_batch(8).expect("open until every item arrived"));
                }
                let _ = done.send(());
                seen
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let (mut next, end) = (p * PER_PRODUCER, (p + 1) * PER_PRODUCER);
                    while next < end {
                        let burst = next..(next + 3).min(end);
                        let (admitted, _) = q.try_push_all(burst);
                        next += admitted as u64;
                        if admitted == 0 {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("lost wake: the items stopped arriving");
        for producer in producers {
            producer.join().unwrap();
        }
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_queue_still_serves() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let _ = thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(q.state.is_poisoned());
        assert_eq!(q.try_push(7), Admission::Admitted);
        assert_eq!(q.next_batch(4).unwrap(), vec![7]);
        q.close();
    }
}
