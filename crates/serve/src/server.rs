//! The decision server: admission, which decides → queue → dispatch
//! executor → reply.
//!
//! Admission answers every decide-only request on the thread that
//! submitted it, in this order: an unknown region is a typed error, a
//! zero budget, expired on arrival, is shed with
//! [`ShedReason::DeadlineExpired`], a stopped server sheds with
//! [`ShedReason::ShuttingDown`], a cached decision is answered `ok`
//! ([`DecisionEngine::lookup`](hetsel_core::DecisionEngine::lookup)), and
//! a cache miss is decided on the spot
//! ([`DecisionEngine::decide_miss`](hetsel_core::DecisionEngine::decide_miss)).
//! The region is looked up by name once, for all of it. A decision costs
//! at most a few microseconds of model evaluation; handing it to another
//! thread and back cost two sleeping-thread wake-ups, and made it wait
//! behind whatever that thread was executing. Only `dispatch` requests
//! take a queue slot.
//!
//! Admission is one function over a [`BorrowedRequest`], run once per
//! request. A transport runs it on the request it decoded in place from
//! the line, and renders the `ok` reply of a decided request at once: a
//! hit hands it the cache entry under its shard's lock
//! ([`CachedDecision`]), whose stored decision bytes it copies — no owned
//! request, no reply strings, no pending request, no `Decision` clone.
//! [`ServerHandle::submit_all`] runs it on a borrowed view of each owned
//! request. Only a dispatch becomes an owned [`ServeRequest`] in a
//! [`PendingRequest`].
//!
//! A decide-only miss takes its expiry at admission and is decided
//! without it, so the engine does no post-hoc degrade. If the expiry has
//! passed when the decision returns, the reply is the
//! [`ShedReason::DeadlineExpired`] shed the timer would have sent, and the
//! decision stays cached for a retry. It arms no timer. A queued dispatch
//! is shed by the [`DeadlineTimer`] thread the moment its budget runs
//! out; it reaches the dispatcher without its deadline
//! ([`PendingRequest::new`] moves it into the expiry), so the engine never
//! second-guesses the timer.
//!
//! One executor thread runs the queued dispatches. Each time it wakes it
//! takes everything queued in the [`AdmissionQueue`] (up to
//! [`ServeConfig::max_batch`]), without waiting for more, and runs each
//! through [`Dispatcher::dispatch`], which decides the request and
//! executes it on the chosen device.
//!
//! Admission control has two modes for dispatches, mirroring the
//! dispatcher's breaker/fallback vocabulary one layer up:
//!
//! * [`ServerHandle::submit`] and [`ServerHandle::submit_all`]
//!   **load-shed**: a full queue turns into an immediate
//!   [`ShedReason::QueueFull`] reply carrying the degraded
//!   compiler-default decision.
//! * [`ServerHandle::submit_wait`] **backpressures**: the caller blocks
//!   until the queue has room (or the server shuts down).
//!
//! Either way every admitted or refused request gets exactly one reply —
//! the serve-layer analogue of the dispatcher's "the host is never fully
//! load-shed" rule: admission may refuse to spend execution budget, but
//! it always answers, and a shed reply's degraded decision is always
//! runnable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use hetsel_core::{CachedDecision, Decision, Dispatcher, Lookup};
use hetsel_obs::{DecisionEvent, EventKind};

use crate::pending::{expiry, PendingRequest};
use crate::proto::{BorrowedRequest, ServeReply, ServeRequest, ShedReason};
use crate::queue::{Admission, AdmissionQueue};
use crate::timer::DeadlineTimer;

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Queued dispatches admitted before `submit` starts shedding
    /// (`submit_wait` blocks instead).
    pub queue_capacity: usize,
    /// Most queued dispatches the executor takes at once.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4096,
            max_batch: 512,
        }
    }
}

impl ServeConfig {
    /// Builder: admission queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Builder: most queued dispatches taken at once.
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch;
        self
    }
}

/// Shared server state. The timer's expiry callback holds a `Weak` back
/// to this (not an `Arc`) so the `Inner → timer → callback` chain is not
/// a reference cycle.
struct Inner {
    dispatcher: Dispatcher,
    queue: AdmissionQueue<Arc<PendingRequest>>,
    timer: OnceLock<DeadlineTimer>,
    /// Set once shutdown begins. Admission reads it instead of the queue's
    /// own closed flag, so a request answered before the queue never takes
    /// the queue lock.
    closed: AtomicBool,
}

impl Inner {
    fn publish_depth(&self) {
        hetsel_obs::static_gauge!("hetsel.serve.queue.depth").set(self.queue.depth() as i64);
    }

    /// The shed reply for a request to `region`. It carries the degraded
    /// compiler-default decision, obtained through the engine's zero-budget
    /// path (no model evaluation, the deadline reason recorded on both
    /// model sides). Unknown regions shed as typed errors instead.
    fn shed_reply(&self, id: Option<u64>, region: &str, reason: ShedReason) -> ServeReply {
        let reply = match self.dispatcher.engine().degraded(region) {
            Some(degraded) => ServeReply::shed(id, reason, &degraded),
            None => ServeReply::error(id, format!("unknown region {region:?}")),
        };
        // One cached counter per reason: a `queue_full` flood sheds on
        // every request, so no name is built or looked up here.
        match reason {
            ShedReason::QueueFull => hetsel_obs::static_counter!("hetsel.serve.shed.queue_full"),
            ShedReason::DeadlineExpired => {
                hetsel_obs::static_counter!("hetsel.serve.shed.deadline_expired")
            }
            ShedReason::ShuttingDown => {
                hetsel_obs::static_counter!("hetsel.serve.shed.shutting_down")
            }
        }
        .inc();
        hetsel_obs::record_event(|| {
            let mut ev = DecisionEvent::new(EventKind::Shed, region);
            ev.detail = reason.code();
            ev
        });
        reply
    }

    fn shed(&self, pending: &PendingRequest, reason: ShedReason) {
        let serve = &pending.serve;
        let reply = self.shed_reply(serve.id, serve.request.region(), reason);
        pending.done.complete(reply);
    }

    /// Answers a request before it takes a queue slot, unless it is a
    /// dispatch. In order: an unknown region gets the transport's typed
    /// "bad request" error (retrying it can never succeed, so it is not a
    /// shed); a zero budget, expired on arrival, is shed; a stopped
    /// server sheds with [`ShedReason::ShuttingDown`]; a dispatch goes on
    /// to the queue; a decide-only request is answered `ok` from the cache
    /// or, on a miss, decided here, on the submitting thread.
    fn answer_before_queue(&self, request: &BorrowedRequest<'_>) -> Admit<'_> {
        let engine = self.dispatcher.engine();
        let name = &*request.region;
        let Some(region) = engine.resolve(name) else {
            hetsel_obs::static_counter!("hetsel.serve.bad_request").inc();
            return Admit::Reply(ServeReply::error(
                request.id,
                format!("unknown region {name:?}"),
            ));
        };
        // Only a zero budget has run out on arrival; any other gets its
        // chance, and a decision's is checked again when it returns.
        if request.deadline.is_some_and(|d| d.is_zero()) {
            return Admit::Reply(self.shed_reply(request.id, name, ShedReason::DeadlineExpired));
        }
        // Relaxed: the flag guards no other data. A caller that saw
        // `shutdown` return is ordered after the store by that return.
        if self.closed.load(Ordering::Relaxed) {
            return Admit::Reply(self.shed_reply(request.id, name, ShedReason::ShuttingDown));
        }
        if request.dispatch {
            return Admit::Queue;
        }
        let expires = request.deadline.map(expiry);
        let binding = &request.binding;
        let miss = match engine.lookup(region, |p| binding.get(p), request.policy_override) {
            Lookup::Hit(cached) => {
                hetsel_obs::static_counter!("hetsel.serve.admission_hit").inc();
                return Admit::Hit(cached);
            }
            Lookup::Miss(miss) => miss,
        };
        hetsel_obs::static_counter!("hetsel.serve.admission_miss").inc();
        let decision = engine.decide_miss(miss, &binding.to_binding());
        if expires.is_some_and(|e| e <= Instant::now()) {
            // The budget ran out during evaluation: the shed the timer
            // would have sent. The decision stays cached for the retry.
            hetsel_obs::static_counter!("hetsel.serve.late_result").inc();
            return Admit::Reply(self.shed_reply(request.id, name, ShedReason::DeadlineExpired));
        }
        Admit::Decided(decision)
    }

    /// Acts on a queue verdict: arms the deadline timer for an admitted
    /// request, sheds a refused one.
    fn settle(&self, pending: &Arc<PendingRequest>, admission: Admission) {
        match admission {
            Admission::Admitted => {
                hetsel_obs::static_counter!("hetsel.serve.admitted").inc();
                if let Some(timer) = self.timer.get() {
                    timer.schedule(pending);
                }
            }
            Admission::QueueFull => self.shed(pending, ShedReason::QueueFull),
            Admission::Closed => self.shed(pending, ShedReason::ShuttingDown),
        }
    }
}

/// What admission made of one request.
pub(crate) enum Admit<'a> {
    /// Answered without a decision: an error or a shed.
    Reply(ServeReply),
    /// A decide-only request answered from the cache: an `ok` reply with
    /// this entry's decision. The entry holds its shard's lock until it is
    /// dropped.
    Hit(CachedDecision<'a>),
    /// A decide-only miss, decided on the spot: an `ok` reply with this
    /// decision.
    Decided(Decision),
    /// A dispatch, for the queue.
    Queue,
}

/// Cloneable submission handle; every transport thread holds one.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Runs admission on one request (see the module docs); the transport
    /// calls it on each request it decodes.
    pub(crate) fn admit(&self, request: &BorrowedRequest<'_>) -> Admit<'_> {
        self.inner.answer_before_queue(request)
    }

    /// Queues the dispatches admission sent on, in order, under one queue
    /// lock; arms the deadline timer for each, and sheds those past the
    /// queue's free space with [`ShedReason::QueueFull`]. Takes no lock
    /// for an empty burst.
    pub(crate) fn enqueue(&self, queued: &[Arc<PendingRequest>]) {
        if queued.is_empty() {
            return;
        }
        let inner = &self.inner;
        let (admitted, refusal) = inner.queue.try_push_all(queued.iter().cloned());
        for (i, pending) in queued.iter().enumerate() {
            let admission = if i < admitted {
                Admission::Admitted
            } else {
                refusal
            };
            inner.settle(pending, admission);
        }
        inner.publish_depth();
    }

    /// Runs admission on an owned request and wraps it, its reply slot
    /// completed when admission answered it. The flag is true when it
    /// still has to be queued.
    fn admit_owned(&self, serve: ServeRequest) -> (Arc<PendingRequest>, bool) {
        let reply = match self.admit(&BorrowedRequest::from(&serve)) {
            Admit::Reply(reply) => Some(reply),
            Admit::Hit(cached) => Some(ServeReply::ok(serve.id, cached.decision(), false, None)),
            Admit::Decided(decision) => Some(ServeReply::ok(serve.id, &decision, false, None)),
            Admit::Queue => None,
        };
        let pending = Arc::new(PendingRequest::new(serve));
        match reply {
            Some(reply) => {
                pending.done.complete(reply);
                (pending, false)
            }
            None => (pending, true),
        }
    }

    /// Admits `serve` (or answers or refuses it), returning the pending
    /// request to wait on. A decide-only request is decided before this
    /// returns: its reply slot is *already completed*, `ok` or, when its
    /// budget ran out (zero on arrival, or while it was evaluated),
    /// [`ShedReason::DeadlineExpired`]. So is a refused request's — a full
    /// queue sheds a dispatch with [`ShedReason::QueueFull`], a stopped
    /// server sheds with [`ShedReason::ShuttingDown`], an unknown region
    /// errors. Admission arms the deadline timer for a queued
    /// deadline-carrying dispatch. Callers can unconditionally `wait()`.
    pub fn submit(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        self.submit_all(std::iter::once(serve))
            .pop()
            .expect("one pending request per submitted request")
    }

    /// As [`ServerHandle::submit`], but a dispatch blocks for queue space
    /// instead of shedding (backpressure). Still sheds with
    /// [`ShedReason::ShuttingDown`] if the server stops while waiting.
    pub fn submit_wait(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        let inner = &self.inner;
        let (pending, queue) = self.admit_owned(serve);
        if queue {
            let admission = inner.queue.push_wait(Arc::clone(&pending));
            inner.settle(&pending, admission);
            inner.publish_depth();
        }
        pending
    }

    /// As [`ServerHandle::submit`] for a whole burst. Its dispatches are
    /// queued under one queue lock; a burst without one takes no queue
    /// lock. Returns one pending request per input, in input order;
    /// dispatches past the queue's free space shed with
    /// [`ShedReason::QueueFull`].
    pub fn submit_all(
        &self,
        burst: impl IntoIterator<Item = ServeRequest>,
    ) -> Vec<Arc<PendingRequest>> {
        let mut queued = Vec::new();
        let pending = burst
            .into_iter()
            .map(|serve| {
                let (pending, queue) = self.admit_owned(serve);
                if queue {
                    queued.push(Arc::clone(&pending));
                }
                pending
            })
            .collect();
        self.enqueue(&queued);
        pending
    }

    /// Convenience: submit (load-shedding admission) and block for the
    /// reply.
    pub fn call(&self, serve: ServeRequest) -> ServeReply {
        self.submit(serve).done.wait()
    }

    /// Convenience: submit with backpressure admission and block for the
    /// reply.
    pub fn call_wait(&self, serve: ServeRequest) -> ServeReply {
        self.submit_wait(serve).done.wait()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }
}

/// The running server: dispatch-executor thread + deadline-timer thread
/// around a [`Dispatcher`].
pub struct DecisionServer {
    inner: Arc<Inner>,
    executor: Option<JoinHandle<()>>,
}

impl DecisionServer {
    /// Starts the executor and timer threads over `dispatcher`.
    pub fn start(dispatcher: Dispatcher, config: ServeConfig) -> DecisionServer {
        let inner = Arc::new(Inner {
            dispatcher,
            queue: AdmissionQueue::new(config.queue_capacity),
            timer: OnceLock::new(),
            closed: AtomicBool::new(false),
        });
        let timer_inner: Weak<Inner> = Arc::downgrade(&inner);
        let timer = DeadlineTimer::start(move |pending| {
            // The server outlives its timer thread except during the
            // final teardown, where expiries no longer matter.
            if let Some(inner) = timer_inner.upgrade() {
                inner.shed(pending, ShedReason::DeadlineExpired);
            }
        });
        inner.timer.set(timer).ok().expect("timer set once");
        let exec_inner = Arc::clone(&inner);
        let executor = std::thread::Builder::new()
            .name("hetsel-serve-exec".to_string())
            .spawn(move || run_executor(&exec_inner, config))
            .expect("spawn executor thread");
        DecisionServer {
            inner,
            executor: Some(executor),
        }
    }

    /// A cloneable submission handle for transport threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The dispatcher the server decides and executes through.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.inner.dispatcher
    }

    /// Stops accepting requests, sheds every dispatch still queued with
    /// [`ShedReason::ShuttingDown`], and joins both threads. Every
    /// admitted request has been answered when this returns.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.inner.closed.store(true, Ordering::Relaxed);
        let orphans = self.inner.queue.close();
        for pending in &orphans {
            self.inner.shed(pending, ShedReason::ShuttingDown);
        }
        self.inner.publish_depth();
        if let Some(executor) = self.executor.take() {
            let _ = executor.join();
        }
        if let Some(timer) = self.inner.timer.get() {
            timer.shutdown();
        }
    }
}

impl Drop for DecisionServer {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The executor loop: take every queued dispatch (up to `max_batch`) and
/// run each through the dispatcher, in queue order.
fn run_executor(inner: &Inner, config: ServeConfig) {
    while let Some(batch) = inner.queue.next_batch(config.max_batch) {
        inner.publish_depth();
        hetsel_obs::static_histogram!("hetsel.serve.window.batch").record(batch.len() as u64);
        for pending in &batch {
            // Shed while it waited (deadline or shutdown): spend no
            // execution on it.
            if pending.done.is_done() {
                continue;
            }
            let serve = &pending.serve;
            let reply = match inner.dispatcher.dispatch(&serve.request) {
                Ok(outcome) => ServeReply::ok(serve.id, &outcome.decision, false, Some(&outcome)),
                Err(e) => ServeReply::error(serve.id, format!("dispatch failed: {e}")),
            };
            if pending.done.complete(reply) {
                hetsel_obs::static_counter!("hetsel.serve.replies").inc();
            } else {
                // The timer answered while it executed; the decision is
                // in the cache for the retry.
                hetsel_obs::static_counter!("hetsel.serve.late_result").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_core::{DecisionEngine, DecisionRequest, DispatcherConfig, Platform, Selector};
    use hetsel_polybench::{find_kernel, Dataset};
    use std::time::Duration;

    fn server_of(kernels: &[&str], config: ServeConfig) -> DecisionServer {
        let kernels: Vec<_> = kernels
            .iter()
            .map(|name| find_kernel(name).unwrap().0)
            .collect();
        let engine = DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels);
        DecisionServer::start(Dispatcher::new(engine, DispatcherConfig::default()), config)
    }

    fn server(config: ServeConfig) -> DecisionServer {
        server_of(&["gemm"], config)
    }

    /// A gemm request whose cache key varies with `n` (the extra binding
    /// slot perturbs the key without touching the model inputs).
    fn gemm(n: i64) -> ServeRequest {
        let (_, binding) = find_kernel("gemm").unwrap();
        ServeRequest::new(DecisionRequest::new(
            "gemm",
            binding(Dataset::Benchmark).with("n", n),
        ))
    }

    #[test]
    fn serves_decisions_end_to_end() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        let reply = handle.call(gemm(1024).with_id(11));
        match reply {
            ServeReply::Ok {
                id,
                decision,
                degraded,
                dispatched,
            } => {
                assert_eq!(id, Some(11));
                assert_eq!(decision.region, "gemm");
                assert!(!degraded);
                assert!(dispatched.is_none());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn dispatch_flag_returns_execution_evidence() {
        let server = server(ServeConfig::default());
        let reply = server.handle().call(gemm(512).with_dispatch());
        match reply {
            ServeReply::Ok { dispatched, .. } => {
                let d = dispatched.expect("dispatch evidence");
                assert!(d.attempts >= 1);
                assert!(d.simulated_s >= 0.0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_region_is_a_typed_error_not_a_shed() {
        let server = server(ServeConfig::default());
        let reply = server.handle().call(ServeRequest::new(DecisionRequest::new(
            "definitely-not-a-kernel",
            hetsel_ir::Binding::new(),
        )));
        assert_eq!(reply.status(), "error");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_sheds_with_a_runnable_default() {
        // A zero budget has expired by admission: shed before the engine
        // is consulted.
        let server = server(ServeConfig::default());
        let mut serve = gemm(64);
        serve.request = serve.request.with_deadline(Duration::ZERO);
        let reply = server.handle().call(serve);
        match reply {
            ServeReply::Shed {
                reason, decision, ..
            } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                // The degraded default is still a runnable decision.
                assert!(!decision.device.is_empty());
                assert_eq!(decision.policy, "always_offload");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_burst_gets_one_reply_per_request_in_order() {
        let server = server(ServeConfig::default().with_queue_capacity(4));
        let mut expired = gemm(32).with_id(2);
        expired.request = expired.request.with_deadline(Duration::ZERO);
        let unknown = ServeRequest::new(DecisionRequest::new(
            "definitely-not-a-kernel",
            hetsel_ir::Binding::new(),
        ))
        .with_id(3);
        // Eight requests: two refused before queueing, and a decide-only
        // miss decided at admission, which takes no queue slot. The five
        // dispatches overflow the four free slots by one, which sheds as
        // queue_full.
        let burst = vec![
            gemm(16).with_id(1).with_dispatch(),
            expired,
            unknown,
            gemm(8).with_id(4),
            gemm(24).with_id(5).with_dispatch(),
            gemm(40).with_id(6).with_dispatch(),
            gemm(48).with_id(7).with_dispatch(),
            gemm(56).with_id(8).with_dispatch(),
        ];
        let replies: Vec<ServeReply> = server
            .handle()
            .submit_all(burst)
            .iter()
            .map(|p| p.done.wait())
            .collect();
        let seen: Vec<(Option<u64>, &str)> = replies.iter().map(|r| (r.id(), r.status())).collect();
        assert_eq!(
            seen,
            vec![
                (Some(1), "ok"),
                (Some(2), "shed"),
                (Some(3), "error"),
                (Some(4), "ok"),
                (Some(5), "ok"),
                (Some(6), "ok"),
                (Some(7), "ok"),
                (Some(8), "shed"),
            ]
        );
        match &replies[7] {
            ServeReply::Shed { reason, .. } => assert_eq!(*reason, ShedReason::QueueFull),
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_sheds_queued_requests_with_typed_reason() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        // Cached before the stop: a stopped server must not answer it from
        // the cache at admission either.
        assert_eq!(handle.call(gemm(256)).status(), "ok");
        server.shutdown();
        for request in [gemm(128), gemm(256)] {
            match handle.call(request) {
                ServeReply::Shed { reason, .. } => {
                    assert_eq!(reason, ShedReason::ShuttingDown)
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn a_cached_deadline_request_is_answered_at_admission() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        let ServeReply::Ok { decision, .. } = handle.call(gemm(96)) else {
            panic!("the cold call must be decided");
        };
        let mut serve = gemm(96).with_id(5);
        serve.request = serve.request.with_deadline(Duration::from_secs(3600));
        let pending = handle.submit(serve);
        // Answered before submit returned: no queue slot, no timer entry.
        assert!(pending.done.is_done());
        assert_eq!(server.inner.timer.get().expect("timer runs").armed(), 0);
        assert_eq!(
            pending.done.wait(),
            ServeReply::Ok {
                id: Some(5),
                decision,
                degraded: false,
                dispatched: None,
            }
        );
        server.shutdown();
    }

    #[test]
    fn a_cached_dispatch_request_still_executes() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        assert_eq!(handle.call(gemm(640)).status(), "ok");
        match handle.call(gemm(640).with_dispatch()) {
            ServeReply::Ok { dispatched, .. } => {
                let d = dispatched.expect("dispatch evidence for a cached decision");
                assert!(d.attempts >= 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_submitters_all_get_replies() {
        let server = server(ServeConfig::default());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let handle = server.handle();
                std::thread::spawn(move || {
                    (0..50)
                        .map(|i| handle.call(gemm(64 + (t * 50 + i)).with_id(t as u64)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for reply in t.join().unwrap() {
                assert_eq!(reply.status(), "ok");
            }
        }
        server.shutdown();
    }

    #[test]
    fn a_decide_only_miss_never_waits_behind_a_dispatch() {
        let server = server_of(&["gemm", "3dconv"], ServeConfig::default());
        let handle = server.handle();
        // A host-bound dispatch (tens of milliseconds in cpusim) goes to
        // the executor first.
        let (_, conv) = find_kernel("3dconv").unwrap();
        let dispatch = handle.submit(
            ServeRequest::new(DecisionRequest::new("3dconv", conv(Dataset::Benchmark)))
                .with_id(1)
                .with_dispatch(),
        );
        // A miss submitted from another thread is decided on that thread:
        // its reply is in place when its submit returns.
        let miss = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.submit(gemm(4242).with_id(2)))
                .join()
                .unwrap()
        };
        assert!(miss.done.is_done(), "the miss waited for the executor");
        assert_eq!(miss.done.wait().status(), "ok");
        match dispatch.done.wait() {
            ServeReply::Ok { dispatched, .. } => assert!(dispatched.is_some()),
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_miss_whose_budget_runs_out_while_it_is_decided_is_shed_and_cached() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        let engine = server.dispatcher().engine();
        // Not zero, so admission does not shed it on arrival, but shorter
        // than any evaluation.
        let mut serve = gemm(7777).with_id(3);
        serve.request = serve.request.with_deadline(Duration::from_nanos(200));
        let pending = handle.submit(serve);
        assert!(pending.done.is_done());
        match pending.done.wait() {
            ServeReply::Shed {
                reason, decision, ..
            } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                assert_eq!(decision.policy, "always_offload");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // It was evaluated and cached: the retry is an admission hit.
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let admission_hits = hetsel_obs::registry().counter("hetsel.serve.admission_hit");
        let before = admission_hits.get();
        let retry = handle.submit(gemm(7777).with_id(4));
        assert!(retry.done.is_done());
        assert_eq!(retry.done.wait().status(), "ok");
        assert!(admission_hits.get() > before);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        server.shutdown();
    }

    #[test]
    fn a_miss_arms_no_deadline_timer() {
        let server = server(ServeConfig::default());
        let mut serve = gemm(8888).with_id(5);
        serve.request = serve.request.with_deadline(Duration::from_secs(3600));
        let pending = server.handle().submit(serve);
        assert!(pending.done.is_done());
        assert_eq!(pending.done.wait().status(), "ok");
        assert_eq!(server.inner.timer.get().expect("timer runs").armed(), 0);
        server.shutdown();
    }
}
