//! hetsel-serve: the decision engine as a long-running service.
//!
//! Everything below `hetsel-core` answers one synchronous question:
//! *should this region offload, right now?* This crate wraps that
//! question in a request loop so other processes can ask it over a
//! line-oriented JSON transport (stdin/stdout or TCP), with the three
//! properties a shared decision service needs that a library call does
//! not:
//!
//! 1. **Admission control.** A decide-only request whose decision is
//!    already cached is answered at admission, on the submitting thread
//!    ([`DecisionEngine::cached`](hetsel_core::DecisionEngine::cached)):
//!    a cache hit costs far less than a hand-off to another thread, so it
//!    takes no queue slot. Everything else meets a bounded queue between
//!    transports and the engine. Under overload, [`ServerHandle::submit`]
//!    sheds with a typed [`ShedReason`] instead of queueing unboundedly,
//!    and [`ServerHandle::submit_wait`] backpressures instead of shedding
//!    — the caller picks the failure mode. Every shed reply still carries
//!    the degraded compiler-default decision, so a refused caller always
//!    has something runnable: the serve-layer analogue of the
//!    dispatcher's "the host is never fully load-shed" rule.
//! 2. **Request coalescing without a wait.** The batcher takes whatever
//!    is queued — cache misses and dispatches — the moment it wakes and
//!    evaluates it with one
//!    [`decide_batch`](hetsel_core::DecisionEngine::decide_batch) call,
//!    amortising cache-shard locking and the rayon cold-miss pass. A lone
//!    request is answered at once; batches form from requests that queued
//!    while the previous batch was evaluated, and from transport bursts —
//!    every complete line a connection has buffered (up to
//!    [`MAX_IN_FLIGHT`]) is admitted together and answered with one
//!    write, rendered by [`ServeReply::write_json`].
//! 3. **Real deadline timers.** A dedicated timer thread answers a
//!    deadline-carrying request the moment its budget expires — not
//!    after evaluation happens to finish, which is all a synchronous
//!    post-hoc elapsed check can do. Requests handed to the engine have
//!    their deadlines stripped so the two mechanisms never fight.
//!
//! The crate is instrumented through `hetsel-obs` end to end: a
//! queue-depth gauge (`hetsel.serve.queue.depth`), admission and shed
//! counters (`hetsel.serve.admitted`, `hetsel.serve.admission_hit`,
//! `hetsel.serve.shed.<reason>`, `hetsel.serve.accept_error`), a
//! per-batch size histogram
//! (`hetsel.serve.window.batch`, named for the coalescing windows it
//! used to measure), and a
//! flight-recorder [`EventKind::Shed`](hetsel_obs::EventKind::Shed)
//! event for every shed request.
//!
//! ```text
//!  transports (stdin / tcp)          server threads
//!  ───────────────────────          ────────────────────────────
//!  burst → submit_all ──┐ admission: cached, decide-only → ok reply
//!  burst → submit_all ──┤            ┌─ batcher: drain → decide_batch
//!  burst → submit_all ──┴─► queue ───┤        → (dispatch) → reply
//!                                    └─ timer: deadline → shed reply
//! ```

#![warn(missing_docs)]

mod pending;
mod proto;
mod queue;
mod server;
mod timer;
mod transport;
mod warmup;

pub use pending::{Completion, PendingRequest};
pub use proto::{
    parse_request_line, ReplyDecision, ReplyDispatch, ServeReply, ServeRequest, ShedReason,
};
pub use queue::{Admission, AdmissionQueue};
pub use server::{DecisionServer, ServeConfig, ServerHandle};
pub use timer::DeadlineTimer;
pub use transport::{serve_lines, serve_tcp, TransportStats, MAX_IN_FLIGHT, MAX_LINE_BYTES};
pub use warmup::{warm_engine, WarmupReport, WarmupSource};

/// Shared helpers for in-crate unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use hetsel_core::{Decision, Device, DeviceId, Policy};
    use std::sync::Arc;

    /// A hand-built compiler-default decision for tests that need *a*
    /// decision without standing up an engine.
    pub fn degraded_decision() -> Decision {
        Decision {
            region: Arc::from("gemm"),
            device: Device::Host,
            device_id: DeviceId::HOST,
            device_name: Arc::from("host"),
            policy: Policy::AlwaysOffload,
            predicted_cpu_s: None,
            predicted_gpu_s: None,
            cpu_error: None,
            gpu_error: None,
            calibration: None,
        }
    }
}
