//! The deadline timer: a dedicated thread over a min-heap of expiries.
//!
//! The engine's own deadline handling is a *post-hoc* elapsed check — it
//! evaluates, then notices the budget is gone. That is the right shape
//! inside a synchronous call (there is nobody else to answer), but a
//! server can do better: this timer fires the moment a queued request's
//! budget expires, completing it with a typed shed *while it is still
//! waiting*, so the caller gets its degraded answer exactly on deadline
//! instead of whenever the executor happens to reach the request. Only
//! queued dispatches are armed: admission decides every decide-only
//! request itself and checks its expiry when the decision returns.
//!
//! One thread, one `BinaryHeap<Reverse<expiry>>`, one condvar: the
//! thread sleeps until the earliest expiry (or indefinitely when the
//! heap is empty), pops everything due, and hands each still-unanswered
//! request to the expiry callback supplied by the server. Requests the
//! executor already answered are skipped — the [`Completion`]
//! first-completer-wins rule makes the race benign.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::pending::PendingRequest;

/// Heap entry: ordered by expiry (earliest first under `Reverse`), with
/// an insertion tick to keep the ordering total and deterministic when
/// expiries tie.
struct Entry {
    expires: Instant,
    tick: u64,
    request: Arc<PendingRequest>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.expires == other.expires && self.tick == other.tick
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> std::cmp::Ordering {
        (self.expires, self.tick).cmp(&(other.expires, other.tick))
    }
}

struct TimerState {
    heap: BinaryHeap<Reverse<Entry>>,
    next_tick: u64,
    closed: bool,
    /// What the thread last went to sleep for: `Some(None)` until
    /// something is armed, `Some(Some(t))` until `t`; `None` before its
    /// first sleep. Set under the lock the wait releases, so tests can arm
    /// an expiry against a thread known to be asleep.
    #[cfg(test)]
    asleep: Option<Option<Instant>>,
}

struct TimerShared {
    state: Mutex<TimerState>,
    wake: Condvar,
}

impl TimerShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, TimerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to the running timer thread.
pub struct DeadlineTimer {
    shared: Arc<TimerShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl DeadlineTimer {
    /// Spawns the timer thread. `on_expire` runs *on the timer thread*
    /// for every scheduled request whose expiry passes before anything
    /// else completed it; it must complete the request (the server's
    /// callback sheds it with
    /// [`ShedReason::DeadlineExpired`](crate::ShedReason::DeadlineExpired)).
    pub fn start(on_expire: impl Fn(&Arc<PendingRequest>) + Send + 'static) -> DeadlineTimer {
        let shared = Arc::new(TimerShared {
            state: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                next_tick: 0,
                closed: false,
                #[cfg(test)]
                asleep: None,
            }),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("hetsel-serve-timer".to_string())
            .spawn(move || run(&thread_shared, &on_expire))
            .expect("spawn timer thread");
        DeadlineTimer {
            shared,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Arms the timer for `request` (no-op for deadline-less requests).
    pub fn schedule(&self, request: &Arc<PendingRequest>) {
        let Some(expires) = request.expires else {
            return;
        };
        let mut state = self.shared.lock();
        if state.closed {
            return;
        }
        // The thread sleeps until the earliest expiry, so it needs waking
        // only when this entry becomes the earliest one.
        let earliest = state.heap.peek().map(|Reverse(e)| e.expires);
        let tick = state.next_tick;
        state.next_tick += 1;
        state.heap.push(Reverse(Entry {
            expires,
            tick,
            request: Arc::clone(request),
        }));
        drop(state);
        if earliest.is_none_or(|at| expires < at) {
            self.shared.wake.notify_one();
        }
    }

    /// Number of armed (not yet fired) deadlines.
    pub fn armed(&self) -> usize {
        self.shared.lock().heap.len()
    }

    /// Stops the thread. Entries still armed are dropped without firing —
    /// shutdown sheds queued requests through its own path, and answered
    /// requests need nothing from the timer. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().closed = true;
        self.shared.wake.notify_all();
        let thread = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

impl Drop for DeadlineTimer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(shared: &TimerShared, on_expire: &(impl Fn(&Arc<PendingRequest>) + Send + 'static)) {
    let mut state = shared.lock();
    loop {
        if state.closed {
            return;
        }
        // Fire everything due; collect first so the callback runs without
        // the heap lock held (it completes requests and touches metrics).
        let now = Instant::now();
        let mut due: Vec<Arc<PendingRequest>> = Vec::new();
        while state.heap.peek().is_some_and(|Reverse(e)| e.expires <= now) {
            let Reverse(entry) = state.heap.pop().expect("peeked entry pops");
            // Skip requests the executor (or shutdown) already answered.
            if !entry.request.done.is_done() {
                due.push(entry.request);
            }
        }
        if !due.is_empty() {
            drop(state);
            for request in &due {
                on_expire(request);
            }
            state = shared.lock();
            continue;
        }
        // Sleep until the earliest expiry, or until armed/closed.
        let earliest = state.heap.peek().map(|Reverse(e)| e.expires);
        #[cfg(test)]
        {
            state.asleep = Some(earliest);
        }
        state = match earliest {
            Some(at) => {
                shared
                    .wake
                    .wait_timeout(state, at.saturating_duration_since(now))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ServeReply, ServeRequest, ShedReason};
    use hetsel_core::DecisionRequest;
    use hetsel_ir::Binding;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A pending request whose id is its deadline in nanoseconds.
    fn pending(deadline: Duration) -> Arc<PendingRequest> {
        Arc::new(PendingRequest::new(
            ServeRequest::new(DecisionRequest::new("gemm", Binding::new()).with_deadline(deadline))
                .with_id(deadline.as_nanos() as u64),
        ))
    }

    /// Waits until the timer thread sleeps for `until` (see
    /// `TimerState::asleep`).
    fn await_asleep(timer: &DeadlineTimer, until: Option<Instant>) {
        let start = Instant::now();
        while timer.shared.lock().asleep != Some(until) {
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "the timer thread never slept for {until:?}"
            );
            std::thread::yield_now();
        }
    }

    /// Polls `request` for an answer for at most `limit`.
    fn answered_within(request: &PendingRequest, limit: Duration) -> bool {
        let start = Instant::now();
        while !request.done.is_done() {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn expired_requests_fire_in_deadline_order() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let fired2 = Arc::clone(&fired);
        let timer = DeadlineTimer::start(move |req| {
            let deadline_ns = req.serve.id.unwrap();
            fired2
                .lock()
                .unwrap()
                .push(Duration::from_nanos(deadline_ns));
            req.done.complete(ServeReply::error(None, "expired (test)"));
        });
        // With nothing armed the thread sleeps until woken, so arming
        // must wake it.
        await_asleep(&timer, None);
        let first = pending(Duration::from_millis(1));
        timer.schedule(&first);
        assert!(
            answered_within(&first, Duration::from_secs(1)),
            "arming an idle timer did not wake it"
        );
        // Asleep until `late`, the thread must be woken for an earlier
        // expiry, and must still fire `late` afterwards.
        let late = pending(Duration::from_secs(1));
        timer.schedule(&late);
        await_asleep(&timer, late.expires);
        let soon = pending(Duration::from_millis(5));
        timer.schedule(&soon);
        assert!(
            answered_within(&soon, Duration::from_millis(500)),
            "short deadline waited for the long one"
        );
        assert_eq!(soon.done.wait().status(), "error");
        assert!(
            answered_within(&late, Duration::from_secs(5)),
            "the later deadline never fired"
        );
        let order = fired.lock().unwrap().clone();
        assert_eq!(
            order,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(5),
                Duration::from_secs(1)
            ]
        );
    }

    #[test]
    fn answered_requests_do_not_fire() {
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let timer = DeadlineTimer::start(move |req| {
            count2.fetch_add(1, Ordering::SeqCst);
            req.done.complete(ServeReply::error(None, "expired (test)"));
        });
        let req = pending(Duration::from_millis(20));
        timer.schedule(&req);
        // The "executor" answers first.
        assert!(req.done.complete(ServeReply::shed(
            None,
            ShedReason::ShuttingDown,
            &crate::tests_support::degraded_decision(),
        )));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            count.load(Ordering::SeqCst),
            0,
            "timer fired on an answered request"
        );
    }

    #[test]
    fn shutdown_joins_and_drops_armed_entries() {
        let timer = DeadlineTimer::start(|req| {
            req.done.complete(ServeReply::error(None, "expired (test)"));
        });
        let req = pending(Duration::from_secs(3600));
        timer.schedule(&req);
        assert_eq!(timer.armed(), 1);
        timer.shutdown();
        assert!(!req.done.is_done(), "shutdown must not fire deadlines");
        // Scheduling after shutdown is a no-op.
        timer.schedule(&pending(Duration::from_millis(1)));
        assert_eq!(timer.armed(), 1);
    }
}
