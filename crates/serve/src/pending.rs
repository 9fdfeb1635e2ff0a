//! The in-flight dispatch: one `dispatch: true` [`ServeRequest`] waiting
//! for the executor, plus its single-assignment reply slot. Admission
//! decides every decide-only request itself, so one read by a transport
//! never becomes one; a request given to
//! [`ServerHandle::submit`](crate::ServerHandle::submit) always does, its
//! slot completed at once when admission answered it.
//!
//! Three parties race to complete a queued dispatch — the executor (with
//! the decision and its execution), the deadline timer (with a
//! [`ShedReason::DeadlineExpired`](crate::ShedReason::DeadlineExpired)
//! shed), and shutdown (with a
//! [`ShedReason::ShuttingDown`](crate::ShedReason::ShuttingDown) shed).
//! [`Completion`] makes the race safe: the first completer wins, later
//! completers get `false` back and drop their reply. The waiting
//! transport thread always observes exactly one reply.
//!
//! The completer notifies only a reader that is asleep: the reader sets a
//! flag under the slot lock before it sleeps, and a condvar notify is a
//! futex syscall even when nobody waits, while many replies land before
//! their reader asks.
//! [`Completion::wait_with`] lends the reply to a closure under the lock,
//! so a transport renders it without copying it out.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::proto::{ServeReply, ServeRequest};

/// Single-assignment reply slot with a blocking reader.
pub struct Completion {
    slot: Mutex<Slot>,
    ready: Condvar,
}

#[derive(Default)]
struct Slot {
    reply: Option<ServeReply>,
    /// Set, under the lock, by a reader about to sleep on `ready`. Only
    /// then does [`Completion::complete`] notify: a condvar notify is a
    /// futex syscall even with nobody waiting, and many replies land
    /// before anyone waits. The reply lands once, so the flag is never
    /// cleared.
    sleeping: bool,
}

impl Default for Completion {
    fn default() -> Completion {
        Completion {
            slot: Mutex::new(Slot::default()),
            ready: Condvar::new(),
        }
    }
}

impl Completion {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `reply` if the slot is still empty. Returns true when this
    /// call won the race (the reply will be delivered), false when an
    /// earlier completer already answered.
    pub fn complete(&self, reply: ServeReply) -> bool {
        let mut slot = self.lock();
        if slot.reply.is_some() {
            return false;
        }
        slot.reply = Some(reply);
        let sleeping = slot.sleeping;
        drop(slot);
        if sleeping {
            self.ready.notify_all();
        }
        true
    }

    /// True once a reply landed.
    pub fn is_done(&self) -> bool {
        self.lock().reply.is_some()
    }

    /// Blocks until the reply lands, then hands it to `f` under the slot
    /// lock and returns what `f` returns: a transport renders the reply
    /// in place instead of copying it out. `f` must not call back into
    /// this `Completion`; the lock is not reentrant.
    pub fn wait_with<R>(&self, f: impl FnOnce(&ServeReply) -> R) -> R {
        let mut slot = self.lock();
        loop {
            if let Some(reply) = &slot.reply {
                return f(reply);
            }
            slot.sleeping = true;
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the reply lands and returns a clone of it.
    pub fn wait(&self) -> ServeReply {
        self.wait_with(ServeReply::clone)
    }
}

/// One admitted request travelling through the server.
pub struct PendingRequest {
    /// The parsed envelope, without its deadline (see `expires`).
    pub serve: ServeRequest,
    /// When admission accepted it (latency measurement anchor).
    pub admitted: Instant,
    /// Absolute expiry instant, when the request carried a deadline.
    /// Serve enforces this with the timer thread — a *real* timer that
    /// answers the moment the budget runs out, not a post-hoc elapsed
    /// check after evaluation already happened.
    pub expires: Option<Instant>,
    /// The reply slot.
    pub done: Completion,
}

impl PendingRequest {
    /// Wraps an admitted envelope. Its deadline moves into `expires`, an
    /// absolute expiry counted from now: the timer owns the budget, and
    /// the request reaches the engine without it.
    pub fn new(mut serve: ServeRequest) -> PendingRequest {
        let expires = serve.request.deadline().map(expiry);
        serve.request = serve.request.without_deadline();
        PendingRequest {
            expires,
            serve,
            admitted: Instant::now(),
            done: Completion::default(),
        }
    }
}

/// The absolute instant a `deadline` counted from now runs out. A deadline
/// so large that `Instant + Duration` overflows (e.g. `u64::MAX`
/// nanoseconds) expires ~30 years out, identical in behaviour to "no
/// deadline" for any real run.
pub(crate) fn expiry(deadline: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(deadline)
        .unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 365 * 30))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_core::DecisionRequest;
    use hetsel_ir::Binding;
    use std::sync::{mpsc, Arc};
    use std::thread;

    fn pending(deadline: Option<Duration>) -> PendingRequest {
        let mut req = DecisionRequest::new("gemm", Binding::new());
        if let Some(d) = deadline {
            req = req.with_deadline(d);
        }
        PendingRequest::new(ServeRequest::new(req))
    }

    #[test]
    fn first_completer_wins() {
        let p = pending(None);
        assert!(p.done.complete(ServeReply::error(None, "first")));
        assert!(!p.done.complete(ServeReply::error(None, "second")));
        match p.done.wait() {
            ServeReply::Error { message, .. } => assert_eq!(message, "first"),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn wait_blocks_until_completed() {
        let p = Arc::new(pending(None));
        let waiter = {
            let p = Arc::clone(&p);
            thread::spawn(move || p.done.wait())
        };
        thread::sleep(Duration::from_millis(10));
        assert!(!p.done.is_done());
        assert!(p.done.complete(ServeReply::error(Some(4), "late")));
        assert_eq!(waiter.join().unwrap().id(), Some(4));
    }

    /// `complete` races `wait_with` on another thread, round after round.
    /// In even rounds the reply usually lands before the reader arrives;
    /// in odd ones the reply waits until the reader is asleep (seen
    /// through its flag, for at most 5 ms), so a wake that `complete`
    /// skips is lost. A lost wake fails the round's bounded wait instead
    /// of hanging the test.
    #[test]
    fn completion_never_loses_a_wake() {
        const ROUNDS: u64 = 20_000;
        let (slots, slots_rx) = mpsc::channel::<Arc<Completion>>();
        let (ids_tx, ids) = mpsc::channel();
        let reader = thread::spawn(move || {
            for done in slots_rx {
                let _ = ids_tx.send(done.wait_with(ServeReply::id));
            }
        });
        for round in 0..ROUNDS {
            let done = Arc::new(Completion::default());
            slots.send(Arc::clone(&done)).unwrap();
            if round % 2 == 1 {
                let patience = Instant::now() + Duration::from_millis(5);
                while !done.lock().sleeping && Instant::now() < patience {
                    thread::yield_now();
                }
            }
            assert!(done.complete(ServeReply::error(Some(round), "")));
            let id = ids
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("lost wake: round {round} was never read"));
            assert_eq!(id, Some(round));
        }
        drop(slots);
        reader.join().unwrap();
    }

    #[test]
    fn huge_deadlines_do_not_overflow() {
        let p = pending(Some(Duration::from_nanos(u64::MAX)));
        let expires = p.expires.expect("deadline recorded");
        assert!(expires > Instant::now() + Duration::from_secs(60));
    }

    #[test]
    fn zero_deadline_is_already_expired() {
        let p = pending(Some(Duration::ZERO));
        assert!(p.expires.expect("deadline recorded") <= Instant::now());
    }
}
