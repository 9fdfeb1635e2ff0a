//! hetsel-serve: the decision engine as a long-running service.
//!
//! Everything below `hetsel-core` answers one synchronous question:
//! *should this region offload, right now?* This crate wraps that
//! question in a request loop so other processes can ask it over a
//! line-oriented JSON transport (stdin/stdout or TCP), with the three
//! properties a shared decision service needs that a library call does
//! not:
//!
//! 1. **Admission that decides.** Every decide-only request is decided
//!    at admission, on the thread that reached it — as the paper's
//!    runtime decides at region entry: a cached decision is answered from
//!    the cache, and a cache miss is evaluated on the spot
//!    ([`DecisionEngine::lookup`](hetsel_core::DecisionEngine::lookup),
//!    then [`decide_miss`](hetsel_core::DecisionEngine::decide_miss), one
//!    region lookup for both). A decision costs at most a few
//!    microseconds of model evaluation, less than a hand-off to another
//!    thread and back, and so it never waits behind an execution. A
//!    transport admits each line's [`BorrowedRequest`] while the line is
//!    still in its read buffer, so a hit is answered from borrowed bytes
//!    with no heap allocation: no owned request, no pending request, no
//!    reply strings, no `Decision` clone — the reply wraps the bytes the
//!    cache entry stores for its decision, rendered once, on the entry's
//!    first hit ([`ServeReply::write_ok_json_rendered`]), and a miss's
//!    decision is rendered straight into the reply bytes
//!    ([`ServeReply::write_ok_json`]). Only `dispatch` requests meet
//!    a bounded queue between transports and the executor. Under
//!    overload, [`ServerHandle::submit`] sheds a dispatch with a typed
//!    [`ShedReason`] instead of queueing unboundedly, and
//!    [`ServerHandle::submit_wait`] backpressures instead of shedding —
//!    the caller picks the failure mode. Every shed reply still carries
//!    the degraded compiler-default decision, so a refused caller always
//!    has something runnable: the serve-layer analogue of the
//!    dispatcher's "the host is never fully load-shed" rule.
//! 2. **One dispatch executor, fed in bursts.** The executor thread takes
//!    whatever dispatches are queued the moment it wakes and runs each
//!    through the dispatcher. Transports work in bursts: every complete
//!    line a connection has buffered (up to [`MAX_IN_FLIGHT`]) is decoded
//!    in one pass by [`decode_request_line`] and admitted; its dispatches
//!    are queued together, and all its replies leave with one write,
//!    rendered by [`ServeReply::write_json`]. No thread is woken unless it
//!    is asleep: a condvar notify is a syscall even with no waiter, so the
//!    queue and the reply slots track their sleepers. A TCP server serves
//!    at most [`MAX_CONNECTIONS`] connections at once, which also bounds
//!    how many misses are evaluated at once.
//! 3. **Real deadline timers.** A dedicated timer thread answers a
//!    deadline-carrying dispatch the moment its budget expires — not
//!    after execution happens to finish, which is all a synchronous
//!    post-hoc elapsed check can do. A decide-only miss is decided
//!    without its deadline and shed if its expiry passed meanwhile; a
//!    queued dispatch reaches the engine without its deadline, so the
//!    two mechanisms never fight.
//!
//! The crate is instrumented through `hetsel-obs` end to end: a
//! queue-depth gauge (`hetsel.serve.queue.depth`), an open-connection
//! gauge (`hetsel.serve.conn.open`), admission and shed counters
//! (`hetsel.serve.admitted`, `hetsel.serve.admission_hit`,
//! `hetsel.serve.admission_miss`, `hetsel.serve.shed.<reason>`,
//! `hetsel.serve.accept_error`, `hetsel.serve.conn.refused`,
//! `hetsel.serve.conn.write_timeout`), a histogram of the dispatches the
//! executor takes at once (`hetsel.serve.window.batch`, named for the
//! coalescing windows it used to measure), and a flight-recorder
//! [`EventKind::Shed`](hetsel_obs::EventKind::Shed) event for every shed
//! request.
//!
//! ```text
//!  transport threads (stdin / tcp)              server threads
//!  ───────────────────────────────              ─────────────────────────
//!  line → decode → admit ─┬─ decide-only: cache hit, or miss → models
//!                         │                                → ok reply
//!                         └─ dispatch ─► queue ─┬─ executor: dispatch → reply
//!                                               └─ timer: deadline → shed
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
    decode_request_line, parse_request_line, BorrowedBinding, BorrowedRequest, ReplyDecision,
    ReplyDispatch, ServeReply, ServeRequest, ShedReason,
};
pub use queue::{Admission, AdmissionQueue};
pub use server::{DecisionServer, ServeConfig, ServerHandle};
pub use timer::DeadlineTimer;
pub use transport::{
    serve_lines, serve_tcp, TransportStats, MAX_CONNECTIONS, MAX_IN_FLIGHT, MAX_LINE_BYTES,
    WRITE_TIMEOUT,
};
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
