//! The decision server: admission control → batch drain → batch decide
//! → (optional) dispatch → reply.
//!
//! Admission answers what it can before a request takes a queue slot,
//! in this order: an unknown region is a typed error, a deadline that has
//! already expired is shed with [`ShedReason::DeadlineExpired`], a
//! stopped server sheds with [`ShedReason::ShuttingDown`], and a
//! decide-only request whose decision is cached is answered `ok` on the
//! submitting thread through
//! [`DecisionEngine::cached`](hetsel_core::DecisionEngine::cached) —
//! no queue slot, no timer entry, no batcher wake-up, and for a burst
//! with nothing left to queue, no queue lock. A hit is a fraction of a
//! microsecond of engine work; handing it to the batcher and back costs
//! two sleeping-thread wake-ups, far more. Cache misses and `dispatch`
//! requests go on to the queue.
//!
//! One batcher thread owns the engine-facing side. Each time it wakes it
//! takes everything queued in the [`AdmissionQueue`] — without waiting
//! for more — and evaluates it with a single
//! [`DecisionEngine::decide_batch`](hetsel_core::DecisionEngine::decide_batch)
//! call. A lone request is answered at once; requests that queued while
//! the previous batch was evaluated, or that a transport admitted as one
//! burst ([`ServerHandle::submit_all`]), share one batch, so the
//! per-request cost of shard locking and the rayon cold-miss pass is
//! paid once per *batch*, not once per request. A
//! separate [`DeadlineTimer`] thread answers deadline-carrying requests
//! the moment their budget expires — requests handed to the engine have
//! their deadlines stripped
//! ([`DecisionRequest::without_deadline`](hetsel_core::DecisionRequest::without_deadline)),
//! so the engine never second-guesses the timer with its own post-hoc
//! elapsed check.
//!
//! Admission control has two modes, mirroring the dispatcher's
//! breaker/fallback vocabulary one layer up:
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
//! load-shed" rule: admission may refuse to spend evaluation budget, but
//! it always answers, and a shed reply's degraded decision is always
//! runnable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetsel_core::{DecisionRequest, Dispatcher};
use hetsel_obs::{DecisionEvent, EventKind};

use crate::pending::PendingRequest;
use crate::proto::{ServeReply, ServeRequest, ShedReason};
use crate::queue::{Admission, AdmissionQueue};
use crate::timer::DeadlineTimer;

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Queued requests admitted before `submit` starts shedding
    /// (`submit_wait` blocks instead).
    pub queue_capacity: usize,
    /// Most requests one batch evaluates together.
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

    /// Builder: max requests per batch.
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

    /// The degraded compiler-default decision a shed reply carries,
    /// obtained through the engine's zero-budget path (no model
    /// evaluation, the deadline reason recorded on both model sides).
    /// Unknown regions shed as typed errors instead.
    fn shed_reply(&self, pending: &PendingRequest, reason: ShedReason) -> ServeReply {
        let request = &pending.serve.request;
        let reply = match self
            .dispatcher
            .engine()
            .decide_within(request, Duration::ZERO)
        {
            Some(degraded) => ServeReply::shed(pending.serve.id, reason, &degraded),
            None => ServeReply::error(
                pending.serve.id,
                format!("unknown region {:?}", request.region()),
            ),
        };
        hetsel_obs::registry()
            .counter(&format!("hetsel.serve.shed.{}", reason.metric_key()))
            .inc();
        hetsel_obs::record_event(|| {
            let mut ev = DecisionEvent::new(EventKind::Shed, request.region());
            ev.detail = reason.code();
            ev
        });
        reply
    }

    fn shed(&self, pending: &PendingRequest, reason: ShedReason) {
        let reply = self.shed_reply(pending, reason);
        pending.done.complete(reply);
    }

    /// Answers a request before it takes a queue slot, when admission can.
    /// In order: an unknown region gets the transport's typed "bad
    /// request" error (retrying it can never succeed, so it is not a
    /// shed); a deadline that has already expired is shed; a stopped
    /// server sheds with [`ShedReason::ShuttingDown`]; a decide-only
    /// request whose decision is cached is answered `ok` in place, with no
    /// queue slot, timer entry or batcher wake-up. Returns true when it
    /// answered; dispatches and cache misses go on to the queue.
    fn answer_before_queue(&self, pending: &PendingRequest) -> bool {
        let serve = &pending.serve;
        let engine = self.dispatcher.engine();
        let region = serve.request.region();
        if engine.database().region(region).is_none() {
            hetsel_obs::static_counter!("hetsel.serve.bad_request").inc();
            pending.done.complete(ServeReply::error(
                serve.id,
                format!("unknown region {region:?}"),
            ));
            return true;
        }
        if pending.expires.is_some_and(|at| at <= Instant::now()) {
            self.shed(pending, ShedReason::DeadlineExpired);
            return true;
        }
        // Relaxed: the flag guards no other data. A caller that saw
        // `shutdown` return is ordered after the store by that return.
        if self.closed.load(Ordering::Relaxed) {
            self.shed(pending, ShedReason::ShuttingDown);
            return true;
        }
        if serve.dispatch {
            return false;
        }
        match engine.cached(&serve.request) {
            Some(decision) => {
                hetsel_obs::static_counter!("hetsel.serve.admission_hit").inc();
                pending
                    .done
                    .complete(ServeReply::ok(serve.id, &decision, false, None));
                true
            }
            None => false,
        }
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

/// Cloneable submission handle; every transport thread holds one.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Admits `serve` (or answers or refuses it), returning the pending
    /// request to wait on. Admission arms the deadline timer for queued
    /// deadline-carrying requests. The reply slot is *already completed*
    /// when admission answered the request itself — a cached decide-only
    /// request gets its `ok` reply, a full queue sheds with
    /// [`ShedReason::QueueFull`], an already-expired deadline with
    /// [`ShedReason::DeadlineExpired`], a stopped server with
    /// [`ShedReason::ShuttingDown`], an unknown region errors — so
    /// callers can unconditionally `wait()`.
    pub fn submit(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        self.submit_all(std::iter::once(serve))
            .pop()
            .expect("one pending request per submitted request")
    }

    /// As [`ServerHandle::submit`], but blocks for queue space instead of
    /// shedding (backpressure). Still sheds with
    /// [`ShedReason::ShuttingDown`] if the server stops while waiting.
    pub fn submit_wait(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        let inner = &self.inner;
        let pending = Arc::new(PendingRequest::new(serve));
        if !inner.answer_before_queue(&pending) {
            let admission = inner.queue.push_wait(Arc::clone(&pending));
            inner.settle(&pending, admission);
            inner.publish_depth();
        }
        pending
    }

    /// As [`ServerHandle::submit`] for a whole burst. What admission does
    /// not answer itself is queued under one queue lock, so the batcher
    /// evaluates it together; a burst admission answers whole takes no
    /// queue lock. Returns one pending request per input, in input order;
    /// requests past the queue's free space shed with
    /// [`ShedReason::QueueFull`].
    pub fn submit_all(
        &self,
        burst: impl IntoIterator<Item = ServeRequest>,
    ) -> Vec<Arc<PendingRequest>> {
        let inner = &self.inner;
        let pending: Vec<Arc<PendingRequest>> = burst
            .into_iter()
            .map(|serve| Arc::new(PendingRequest::new(serve)))
            .collect();
        let queued: Vec<&Arc<PendingRequest>> = pending
            .iter()
            .filter(|p| !inner.answer_before_queue(p))
            .collect();
        if queued.is_empty() {
            return pending;
        }
        let (admitted, refusal) = inner.queue.try_push_all(queued.iter().copied().cloned());
        for (i, p) in queued.into_iter().enumerate() {
            let admission = if i < admitted {
                Admission::Admitted
            } else {
                refusal
            };
            inner.settle(p, admission);
        }
        inner.publish_depth();
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

/// The running server: batcher thread + deadline-timer thread around a
/// [`Dispatcher`].
pub struct DecisionServer {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
}

impl DecisionServer {
    /// Starts the batcher and timer threads over `dispatcher`.
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
        let batch_inner = Arc::clone(&inner);
        let batcher = std::thread::Builder::new()
            .name("hetsel-serve-batcher".to_string())
            .spawn(move || run_batcher(&batch_inner, config))
            .expect("spawn batcher thread");
        DecisionServer {
            inner,
            batcher: Some(batcher),
        }
    }

    /// A cloneable submission handle for transport threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The dispatcher the server evaluates through.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.inner.dispatcher
    }

    /// Stops accepting requests, sheds everything still queued with
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
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
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

/// The batcher loop: take everything queued, evaluate it with one
/// `decide_batch` call, answer (and optionally dispatch) every request in
/// it.
fn run_batcher(inner: &Arc<Inner>, config: ServeConfig) {
    while let Some(batch) = inner.queue.next_batch(config.max_batch) {
        inner.publish_depth();
        // Deadline-expired (or shutdown-shed) requests are already
        // answered; spend no evaluation budget on them.
        let live: Vec<&Arc<PendingRequest>> = batch.iter().filter(|p| !p.done.is_done()).collect();
        hetsel_obs::static_histogram!("hetsel.serve.window.batch").record(live.len() as u64);
        if live.is_empty() {
            continue;
        }
        // Strip deadlines: the timer owns them. Cloning here is fine —
        // the batcher amortises it over the batch, far off the engine's
        // zero-alloc hot path.
        let requests: Vec<DecisionRequest> = live
            .iter()
            .map(|p| p.serve.request.clone().without_deadline())
            .collect();
        let decisions = inner.dispatcher.engine().decide_batch(&requests);
        for ((pending, request), decision) in live.iter().zip(&requests).zip(decisions) {
            let reply = match decision {
                None => ServeReply::error(
                    pending.serve.id,
                    format!("unknown region {:?}", request.region()),
                ),
                Some(decision) => {
                    if pending.serve.dispatch {
                        // Dispatch re-enters the engine with the stripped
                        // request: a warm cache hit (the batch pass above
                        // just inserted it), then the fault-tolerant
                        // execution path.
                        match inner.dispatcher.dispatch(request) {
                            Ok(outcome) => {
                                ServeReply::ok(pending.serve.id, &decision, false, Some(&outcome))
                            }
                            Err(e) => {
                                ServeReply::error(pending.serve.id, format!("dispatch failed: {e}"))
                            }
                        }
                    } else {
                        ServeReply::ok(pending.serve.id, &decision, false, None)
                    }
                }
            };
            if pending.done.complete(reply) {
                hetsel_obs::static_counter!("hetsel.serve.replies").inc();
            } else {
                // The timer answered while we were evaluating; the work
                // is not wasted — the decision is in the cache for the
                // retry.
                hetsel_obs::static_counter!("hetsel.serve.late_result").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_core::{DecisionEngine, DispatcherConfig, Platform, Selector};
    use hetsel_polybench::{find_kernel, Dataset};

    fn server(config: ServeConfig) -> DecisionServer {
        let (kernel, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        );
        DecisionServer::start(Dispatcher::new(engine, DispatcherConfig::default()), config)
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
        // A zero budget has expired by admission: shed before queueing,
        // so the batcher never races the verdict.
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
        // Seven requests, two refused before queueing: the five left
        // overflow the four free slots by one, which sheds as queue_full.
        let burst = vec![
            gemm(16).with_id(1),
            expired,
            unknown,
            gemm(8).with_id(4),
            gemm(24).with_id(5),
            gemm(40).with_id(6),
            gemm(48).with_id(7),
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
                (Some(7), "shed"),
            ]
        );
        match &replies[6] {
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
    fn concurrent_submitters_coalesce_and_all_get_replies() {
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
}
