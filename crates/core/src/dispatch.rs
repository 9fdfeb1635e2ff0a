//! The fault-tolerant dispatch runtime.
//!
//! [`DecisionEngine`] answers *where* a region should run; [`Dispatcher`]
//! actually *runs* it there — against the timing simulators, which may be
//! carrying a seeded [`FaultPlan`] — and deals with everything the decision
//! layer assumes away:
//!
//! * **Device health**: every execution attempt feeds a per-device circuit
//!   breaker (closed → open after K consecutive failures → half-open probe
//!   with exponential backoff). Breaker time is the dispatcher's *logical
//!   tick clock* (one tick per dispatch), not wall time, so transitions are
//!   deterministic and replayable.
//! * **Retry**: transient faults are retried on the same device up to a
//!   bounded number of attempts, charging exponential backoff to the
//!   simulated time. Permanent faults fail the device over immediately.
//! * **Failover**: when the decided device is broken (breaker open), out of
//!   capacity, or exhausts its attempts, the request degrades with a typed
//!   [`FallbackReason`] — *fill then spill*: the decided device first, then
//!   the remaining accelerators in fleet id order, the host always last. A
//!   sick accelerator therefore drains to its peers before touching the
//!   host. The host is the last resort and is never fully load-shed: if
//!   every breaker rejects the request, the dispatcher forces a host probe
//!   rather than dropping the request.
//! * **Deadlines**: [`Dispatcher::dispatch_within`] bounds the decision
//!   phase; a missed budget degrades to the compiler default (see
//!   [`DecisionEngine::decide_request`]) and the outcome records it.
//!
//! Under a no-fault plan a dispatch is exactly a decide plus one simulator
//! run: decisions are bit-for-bit those of [`DecisionEngine::decide`], no
//! draws are taken, and none of the dispatcher's fault/retry/fallback
//! counters move.
//!
//! Everything in a [`DispatchOutcome`] is deterministic: same seeds, same
//! request sequence → the same outcomes, bit for bit. Wall-clock latency is
//! only ever exported through the (timing-gated) histogram
//! `hetsel.core.dispatch.ns`, never stored in an outcome.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::attributes::RegionAttributes;
use crate::explain::{DispatchTerms, Explanation};
use crate::fleet::DeviceId;
use crate::selector::{Decision, DecisionEngine, DecisionRequest, Device};
use hetsel_fault::{FaultKind, FaultPlan, InjectedFailure};
use hetsel_ir::Binding;
use parking_lot::Mutex;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// Logical ticks (dispatches) an open breaker waits before offering a
    /// half-open probe.
    pub open_backoff: u64,
    /// Backoff ceiling: each failed probe doubles the wait, capped here.
    pub max_backoff: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_backoff: 8,
            max_backoff: 256,
        }
    }
}

/// Retry tuning for transient faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Attempts per device per dispatch, including the first (min 1).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, seconds; doubles per
    /// retry. Charged to [`DispatchOutcome::simulated_s`].
    pub base_backoff_s: f64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 3,
            base_backoff_s: 1e-4,
        }
    }
}

/// Full dispatcher configuration: fault plans by device label plus breaker
/// and retry tuning. The default injects no faults at all.
#[derive(Debug, Clone, Default)]
pub struct DispatcherConfig {
    /// Fault plans by fleet device label (`"host"`, `"gpu"` on the classic
    /// pair), applied in order; a device without one runs fault-free.
    /// Labels must name devices registered in the engine's fleet
    /// ([`Dispatcher::new`] panics otherwise — a plan for a device that
    /// does not exist is a configuration bug).
    pub device_faults: Vec<(String, FaultPlan)>,
    /// Circuit-breaker tuning (shared by every device).
    pub breaker: BreakerConfig,
    /// Transient-fault retry tuning.
    pub retry: RetryConfig,
}

impl DispatcherConfig {
    /// Builder: inject `plan` on the attempts of the fleet device labelled
    /// `label` (any device, the host included).
    pub fn with_device_faults(mut self, label: &str, plan: FaultPlan) -> DispatcherConfig {
        self.device_faults.push((label.to_string(), plan));
        self
    }

    /// Builder: breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> DispatcherConfig {
        self.breaker = breaker;
        self
    }

    /// Builder: retry tuning.
    pub fn with_retry(mut self, retry: RetryConfig) -> DispatcherConfig {
        self.retry = retry;
        self
    }
}

/// Circuit-breaker state (see DESIGN.md §3.4 for the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow freely.
    Closed,
    /// Tripped: requests are rejected until the backoff elapses.
    Open,
    /// Probing: exactly one request is allowed through; its result decides
    /// between re-opening (with doubled backoff) and closing.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (`"closed"` / `"open"` / `"half_open"`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// The value exported on the `hetsel.core.breaker.<device>.state`
    /// gauge: 0 closed, 1 open, 2 half-open.
    pub fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a dispatch did not (or could not) run where the decision said.
/// The outcome records the *first* reason; every occurrence is counted
/// under `hetsel.core.dispatch.fallback.<metric_key>`.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The decision deadline expired; the request degraded to the compiler
    /// default before any device was tried.
    DeadlineExceeded,
    /// A breaker rejected the request on this device.
    BreakerOpen {
        /// The device kind whose breaker was open.
        device: Device,
    },
    /// The device had no in-flight capacity left; the request spilled to
    /// the next candidate.
    CapacityExhausted {
        /// The device kind that was at capacity.
        device: Device,
    },
    /// The device exhausted its attempts (or faulted permanently).
    DeviceFault {
        /// The faulting device kind.
        device: Device,
        /// The final fault kind on that device.
        kind: FaultKind,
    },
}

impl FallbackReason {
    /// Stable dotted suffix for the fallback counter.
    pub fn metric_key(&self) -> &'static str {
        match self {
            FallbackReason::DeadlineExceeded => "deadline_exceeded",
            FallbackReason::BreakerOpen { .. } => "breaker_open",
            FallbackReason::CapacityExhausted { .. } => "capacity_exhausted",
            FallbackReason::DeviceFault { .. } => "device_fault",
        }
    }
}

/// Compact encoding of a [`FallbackReason`] for the flight recorder's
/// one-byte `detail` slot (`0` means "no fallback" on a
/// [`hetsel_obs::EventKind::DispatchComplete`] event).
fn fallback_code(reason: &FallbackReason) -> u8 {
    match reason {
        FallbackReason::DeadlineExceeded => 1,
        FallbackReason::BreakerOpen { .. } => 2,
        FallbackReason::CapacityExhausted { .. } => 3,
        FallbackReason::DeviceFault { .. } => 4,
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::DeadlineExceeded => write!(f, "decision deadline exceeded"),
            FallbackReason::BreakerOpen { device } => {
                write!(f, "{device} breaker open")
            }
            FallbackReason::CapacityExhausted { device } => {
                write!(f, "{device} capacity exhausted")
            }
            FallbackReason::DeviceFault { device, kind } => {
                write!(f, "{kind} fault on {device}")
            }
        }
    }
}

/// How one dispatched request actually ran. Every field is deterministic
/// under fixed seeds — outcomes from two identical runs compare equal with
/// `==`, which is what the soak tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchOutcome {
    /// The decision that routed the request (deadline degradation
    /// included).
    pub decision: Decision,
    /// The kind of device the request finally ran on (may differ from
    /// `decision.device` after a fallback).
    pub device: Device,
    /// Fleet id of the device the request finally ran on.
    pub device_id: DeviceId,
    /// Interned fleet label of the device the request finally ran on.
    pub device_name: Arc<str>,
    /// Execution attempts across all devices (≥ 1).
    pub attempts: u32,
    /// Transient-fault retries among those attempts.
    pub retries: u32,
    /// First reason the request left the decided path, if it did.
    pub fallback: Option<FallbackReason>,
    /// Simulated execution time of the successful run, seconds, including
    /// fault-plan jitter and accumulated retry backoff.
    pub simulated_s: f64,
}

impl DispatchOutcome {
    /// True iff the request ran where the decision pointed, first try, no
    /// faults.
    pub fn clean(&self) -> bool {
        self.fallback.is_none() && self.retries == 0 && self.device_id == self.decision.device_id
    }
}

/// Why a dispatch produced no execution at all.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The region is not in the attribute database.
    UnknownRegion {
        /// The unknown region name.
        region: String,
    },
    /// Every candidate device faulted past its retry budget.
    AllDevicesFailed {
        /// The region that could not be run.
        region: String,
    },
    /// The binding does not resolve the region on any device — a modelling
    /// limitation, not a device fault (breakers are not charged).
    Unsimulatable {
        /// The region that could not be simulated.
        region: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::UnknownRegion { region } => {
                write!(f, "region `{region}` is not in the attribute database")
            }
            DispatchError::AllDevicesFailed { region } => {
                write!(f, "every device failed executing region `{region}`")
            }
            DispatchError::Unsimulatable { region } => {
                write!(f, "region `{region}` does not resolve on any device")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Point-in-time view of one device's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHealthSnapshot {
    /// The kind of device observed.
    pub device: Device,
    /// Fleet id of the device observed.
    pub device_id: DeviceId,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive failures while closed (resets on success).
    pub consecutive_failures: u32,
    /// Successful execution attempts, lifetime.
    pub successes: u64,
    /// Faulted execution attempts, lifetime.
    pub failures: u64,
    /// Times the breaker tripped open (including re-opens from half-open).
    pub trips: u64,
    /// Current open-state backoff, logical ticks.
    pub backoff: u64,
}

/// Mutable breaker core, behind the health record's mutex.
#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
    backoff: u64,
    /// True while a half-open probe is in flight (only one is admitted).
    probing: bool,
}

/// One device's health record: the breaker, the in-flight capacity gate,
/// and lifetime tallies. Tallies are atomics outside the lock so snapshots
/// are cheap. Metric names derive from the fleet's *interned label*
/// (`hetsel.core.breaker.<label>.state` / `.trip`), so the classic pair —
/// labels `host` and `gpu` — keeps every historical metric name.
#[derive(Debug)]
struct DeviceHealth {
    id: DeviceId,
    label: Arc<str>,
    device: Device,
    capacity: u32,
    inflight: AtomicU32,
    core: Mutex<BreakerCore>,
    successes: AtomicU64,
    failures: AtomicU64,
    trips: AtomicU64,
}

impl DeviceHealth {
    fn new(
        id: DeviceId,
        label: Arc<str>,
        device: Device,
        capacity: u32,
        cfg: &BreakerConfig,
    ) -> DeviceHealth {
        hetsel_obs::registry()
            .gauge(&hetsel_obs::metrics::device_leaf_metric_name(
                "hetsel.core.breaker",
                &label,
                "state",
            ))
            .set(BreakerState::Closed.gauge_value());
        DeviceHealth {
            id,
            label,
            device,
            capacity,
            inflight: AtomicU32::new(0),
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: 0,
                backoff: cfg.open_backoff.max(1),
                probing: false,
            }),
            successes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        }
    }

    fn publish_state(&self, state: BreakerState) {
        hetsel_obs::registry()
            .gauge(&hetsel_obs::metrics::device_leaf_metric_name(
                "hetsel.core.breaker",
                &self.label,
                "state",
            ))
            .set(state.gauge_value());
    }

    /// Publishes a breaker *transition* (not a republish): updates the
    /// state gauge and, when the flight recorder is live, appends a
    /// [`hetsel_obs::EventKind::BreakerTransition`] event whose `detail`
    /// byte carries the gauge encoding of the new state and whose region
    /// slot carries the device label.
    fn note_transition(&self, state: BreakerState, now: u64) {
        self.publish_state(state);
        hetsel_obs::record_event(|| {
            let mut ev = hetsel_obs::DecisionEvent::new(
                hetsel_obs::EventKind::BreakerTransition,
                &self.label,
            );
            ev.tick = now;
            ev.device = self.id.0;
            ev.detail = state.gauge_value() as u8;
            ev
        });
    }

    /// Reserves one in-flight slot, or reports the device at capacity.
    fn try_acquire(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Returns an in-flight slot taken by [`DeviceHealth::try_acquire`].
    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// May a request execute on this device at logical time `now`? An open
    /// breaker whose backoff elapsed transitions to half-open and admits
    /// exactly one probe.
    fn admit(&self, now: u64) -> bool {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= core.opened_at.saturating_add(core.backoff) {
                    core.state = BreakerState::HalfOpen;
                    core.probing = true;
                    self.note_transition(BreakerState::HalfOpen, now);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if core.probing {
                    false
                } else {
                    core.probing = true;
                    true
                }
            }
        }
    }

    /// Forces an open breaker into a half-open probe regardless of backoff
    /// — the last-resort host path, which is never fully load-shed.
    fn force_probe(&self, now: u64) {
        let mut core = self.core.lock();
        if core.state == BreakerState::Open {
            core.state = BreakerState::HalfOpen;
            core.probing = true;
            self.note_transition(BreakerState::HalfOpen, now);
        }
    }

    fn on_success(&self, cfg: &BreakerConfig, now: u64) {
        self.successes.fetch_add(1, Ordering::Relaxed);
        let mut core = self.core.lock();
        core.consecutive_failures = 0;
        match core.state {
            BreakerState::Closed => {}
            // A successful probe (or a success from a request admitted just
            // before a concurrent trip) heals the breaker and resets the
            // backoff ladder.
            BreakerState::HalfOpen | BreakerState::Open => {
                core.state = BreakerState::Closed;
                core.probing = false;
                core.backoff = cfg.open_backoff.max(1);
                self.note_transition(BreakerState::Closed, now);
            }
        }
    }

    fn on_failure(&self, cfg: &BreakerConfig, now: u64) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => {
                core.consecutive_failures += 1;
                if core.consecutive_failures >= cfg.failure_threshold.max(1) {
                    core.state = BreakerState::Open;
                    core.opened_at = now;
                    core.backoff = cfg.open_backoff.max(1);
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    hetsel_obs::registry()
                        .counter(&hetsel_obs::metrics::device_leaf_metric_name(
                            "hetsel.core.breaker",
                            &self.label,
                            "trip",
                        ))
                        .inc();
                    self.note_transition(BreakerState::Open, now);
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: back to open with doubled (capped) backoff.
                core.state = BreakerState::Open;
                core.opened_at = now;
                core.backoff = core.backoff.saturating_mul(2).min(cfg.max_backoff.max(1));
                core.probing = false;
                self.trips.fetch_add(1, Ordering::Relaxed);
                hetsel_obs::registry()
                    .counter(&hetsel_obs::metrics::device_leaf_metric_name(
                        "hetsel.core.breaker",
                        &self.label,
                        "trip",
                    ))
                    .inc();
                self.note_transition(BreakerState::Open, now);
            }
            // A failure from an attempt admitted before the trip: the
            // breaker is already open, nothing more to record.
            BreakerState::Open => {}
        }
    }

    fn snapshot(&self) -> DeviceHealthSnapshot {
        let core = self.core.lock();
        DeviceHealthSnapshot {
            device: self.device,
            device_id: self.id,
            state: core.state,
            consecutive_failures: core.consecutive_failures,
            successes: self.successes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            trips: self.trips.load(Ordering::Relaxed),
            backoff: core.backoff,
        }
    }
}

/// How one execution attempt sequence on a single device ended.
enum ExecFailure {
    /// The device faulted past its retry budget; the final fault kind.
    Fault(FaultKind),
    /// The binding does not resolve — no device fault, breakers untouched.
    Unresolvable,
}

/// The fault-tolerant dispatch runtime: a [`DecisionEngine`] plus the
/// health/retry/failover machinery described in the module docs.
///
/// ```
/// use hetsel_core::{DecisionRequest, Dispatcher, DispatcherConfig, DecisionEngine, Selector, Platform};
///
/// let kernels: Vec<_> = hetsel_polybench::suite().into_iter().flat_map(|b| b.kernels).collect();
/// let engine = DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels);
/// let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
/// let binding = hetsel_polybench::find_kernel("gemm").unwrap().1(hetsel_polybench::Dataset::Test);
/// let outcome = dispatcher.dispatch(&DecisionRequest::new("gemm", binding)).unwrap();
/// assert!(outcome.clean() && outcome.simulated_s > 0.0);
/// ```
#[derive(Debug)]
pub struct Dispatcher {
    engine: DecisionEngine,
    config: DispatcherConfig,
    /// One health record per fleet device, indexed by `DeviceId.0` (host at
    /// 0, accelerators in registration order).
    health: Vec<DeviceHealth>,
    /// One fault plan per fleet device, parallel to `health`.
    plans: Vec<FaultPlan>,
    /// Logical breaker clock: one tick per dispatch.
    clock: AtomicU64,
    /// Fault-plan draw sequence, shared by every device so every attempt
    /// consumes a unique draw.
    draws: AtomicU64,
}

impl Dispatcher {
    /// Wraps `engine` with the dispatch runtime under `config`: one circuit
    /// breaker, one capacity gate and one fault plan per device in the
    /// engine's fleet.
    ///
    /// Panics when `config.device_faults` names a label the fleet does not
    /// register.
    pub fn new(engine: DecisionEngine, config: DispatcherConfig) -> Dispatcher {
        let fleet = engine.selector().fleet().clone();
        let mut health = Vec::with_capacity(fleet.len());
        let mut plans = vec![FaultPlan::none(); fleet.len()];
        health.push(DeviceHealth::new(
            DeviceId::HOST,
            fleet.host_label_arc().clone(),
            Device::Host,
            fleet.host_capacity(),
            &config.breaker,
        ));
        for (i, accel) in fleet.accelerators().iter().enumerate() {
            health.push(DeviceHealth::new(
                DeviceId((i + 1) as u16),
                accel.label_arc().clone(),
                Device::Gpu,
                accel.capacity,
                &config.breaker,
            ));
        }
        for (label, plan) in &config.device_faults {
            let id = fleet.device_id_of(label).unwrap_or_else(|| {
                panic!("device_faults label `{label}` is not registered in the engine's fleet")
            });
            plans[id.0 as usize] = *plan;
        }
        Dispatcher {
            engine,
            config,
            health,
            plans,
            clock: AtomicU64::new(0),
            draws: AtomicU64::new(0),
        }
    }

    /// The wrapped decision engine.
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// The dispatcher's configuration.
    pub fn config(&self) -> &DispatcherConfig {
        &self.config
    }

    /// Current breaker state of the kind-level `device` view: the host, or
    /// the *primary* accelerator for [`Device::Gpu`] (`Closed` when the
    /// fleet has none — a breaker that cannot trip never opens).
    pub fn breaker_state(&self, device: Device) -> BreakerState {
        match self.health_of(device) {
            Some(health) => health.core.lock().state,
            None => BreakerState::Closed,
        }
    }

    /// Current breaker state of the fleet device `id`, or `None` for an
    /// unregistered id.
    pub fn breaker_state_by_id(&self, id: DeviceId) -> Option<BreakerState> {
        self.health.get(id.0 as usize).map(|h| h.core.lock().state)
    }

    /// Current health snapshot of the kind-level `device` view (the primary
    /// accelerator for [`Device::Gpu`]; a synthesized always-closed snapshot
    /// when the fleet registers no accelerator).
    pub fn health(&self, device: Device) -> DeviceHealthSnapshot {
        match self.health_of(device) {
            Some(health) => health.snapshot(),
            None => DeviceHealthSnapshot {
                device,
                device_id: DeviceId(1),
                state: BreakerState::Closed,
                consecutive_failures: 0,
                successes: 0,
                failures: 0,
                trips: 0,
                backoff: self.config.breaker.open_backoff.max(1),
            },
        }
    }

    /// Current health snapshot of the fleet device `id`, or `None` for an
    /// unregistered id.
    pub fn health_by_id(&self, id: DeviceId) -> Option<DeviceHealthSnapshot> {
        self.health.get(id.0 as usize).map(|h| h.snapshot())
    }

    /// Re-publishes both pair-view breaker-state gauges (they are also kept
    /// current on every transition); returns the `(host, gpu)` snapshots.
    pub fn publish_health(&self) -> (DeviceHealthSnapshot, DeviceHealthSnapshot) {
        for health in &self.health {
            let snapshot = health.snapshot();
            health.publish_state(snapshot.state);
        }
        (self.health(Device::Host), self.health(Device::Gpu))
    }

    /// Re-publishes every device's breaker-state gauge; returns one
    /// snapshot per fleet device, in id order.
    pub fn publish_health_all(&self) -> Vec<DeviceHealthSnapshot> {
        self.health
            .iter()
            .map(|health| {
                let snapshot = health.snapshot();
                health.publish_state(snapshot.state);
                snapshot
            })
            .collect()
    }

    /// Decides and executes `request`: the full fault-tolerant path. See
    /// the module docs for the exact failover order.
    pub fn dispatch(&self, request: &DecisionRequest) -> Result<DispatchOutcome, DispatchError> {
        self.dispatch_bounded(request, None)
    }

    /// Shared dispatch path: `deadline_override`, when present, replaces
    /// the request's own decision deadline. The override is threaded
    /// straight through to the engine's bounded request path — the request
    /// is never cloned to carry it.
    fn dispatch_bounded(
        &self,
        request: &DecisionRequest,
        deadline_override: Option<Duration>,
    ) -> Result<DispatchOutcome, DispatchError> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.dispatch.ns").start_timer();
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let (decision, deadline_degraded) = self
            .engine
            .decide_request_bounded(request, deadline_override)
            .ok_or_else(|| DispatchError::UnknownRegion {
                region: request.region().to_string(),
            })?;
        let attrs = self
            .engine
            .database()
            .region(request.region())
            .expect("region decided, so it is in the database");

        let mut fallback: Option<FallbackReason> = None;
        if deadline_degraded {
            self.note_fallback(
                &mut fallback,
                FallbackReason::DeadlineExceeded,
                request.region(),
                decision.device_id,
                now,
            );
        }
        let mut attempts = 0u32;
        let mut retries = 0u32;
        let mut backoff_s = 0.0f64;
        let mut any_fault = false;
        let mut unresolvable = false;
        let mut host_attempted = false;

        // Fill-then-spill candidate order: the decided device first, then
        // the remaining accelerators in fleet id order, the host always
        // last — a sick accelerator drains to its peers before the host.
        // (For the classic pair this is exactly the old `[decided, other]`.)
        let mut order: Vec<DeviceId> = Vec::with_capacity(self.health.len());
        order.push(decision.device_id);
        for id in (1..self.health.len()).map(|i| DeviceId(i as u16)) {
            if id != decision.device_id {
                order.push(id);
            }
        }
        if !decision.device_id.is_host() {
            order.push(DeviceId::HOST);
        }

        for id in order {
            let health = &self.health[id.0 as usize];
            let device = health.device;
            // Capacity gates before the breaker so a spilled request never
            // consumes the device's single half-open probe slot.
            if !health.try_acquire() {
                self.note_fallback(
                    &mut fallback,
                    FallbackReason::CapacityExhausted { device },
                    request.region(),
                    id,
                    now,
                );
                continue;
            }
            if !health.admit(now) {
                health.release();
                self.note_fallback(
                    &mut fallback,
                    FallbackReason::BreakerOpen { device },
                    request.region(),
                    id,
                    now,
                );
                continue;
            }
            if id.is_host() {
                host_attempted = true;
            }
            let result = self.execute(
                id,
                attrs,
                request.binding(),
                now,
                &mut attempts,
                &mut retries,
                &mut backoff_s,
            );
            health.release();
            match result {
                Ok(run_s) => {
                    let outcome = DispatchOutcome {
                        decision,
                        device,
                        device_id: id,
                        device_name: health.label.clone(),
                        attempts,
                        retries,
                        fallback,
                        simulated_s: run_s + backoff_s,
                    };
                    self.observe_outcome(request.region(), &outcome, now);
                    return Ok(outcome);
                }
                Err(ExecFailure::Fault(kind)) => {
                    any_fault = true;
                    self.note_fallback(
                        &mut fallback,
                        FallbackReason::DeviceFault { device, kind },
                        request.region(),
                        id,
                        now,
                    );
                }
                Err(ExecFailure::Unresolvable) => unresolvable = true,
            }
        }

        // Last resort: the host is never fully load-shed. If its breaker or
        // capacity gate rejected the request above, force a half-open probe
        // and try once more — a healthy host must complete the request no
        // matter how broken every accelerator is.
        if !host_attempted {
            let host = &self.health[0];
            host.force_probe(now);
            match self.execute(
                DeviceId::HOST,
                attrs,
                request.binding(),
                now,
                &mut attempts,
                &mut retries,
                &mut backoff_s,
            ) {
                Ok(run_s) => {
                    let outcome = DispatchOutcome {
                        decision,
                        device: Device::Host,
                        device_id: DeviceId::HOST,
                        device_name: host.label.clone(),
                        attempts,
                        retries,
                        fallback,
                        simulated_s: run_s + backoff_s,
                    };
                    self.observe_outcome(request.region(), &outcome, now);
                    return Ok(outcome);
                }
                Err(ExecFailure::Fault(kind)) => {
                    any_fault = true;
                    self.note_fallback(
                        &mut fallback,
                        FallbackReason::DeviceFault {
                            device: Device::Host,
                            kind,
                        },
                        request.region(),
                        DeviceId::HOST,
                        now,
                    );
                }
                Err(ExecFailure::Unresolvable) => unresolvable = true,
            }
        }

        let region = request.region().to_string();
        if unresolvable && !any_fault {
            Err(DispatchError::Unsimulatable { region })
        } else {
            Err(DispatchError::AllDevicesFailed { region })
        }
    }

    /// As [`Dispatcher::dispatch`], additionally producing the full
    /// [`Explanation`] with its [`DispatchTerms`] filled in: what the models
    /// said, where the request ran, how many attempts it took, and the
    /// breaker states left behind. The model breakdown reflects the
    /// engine's own policy (a `policy_override` on the request changes the
    /// outcome's decision, not the explanation's model evidence).
    pub fn dispatch_explained(
        &self,
        request: &DecisionRequest,
    ) -> Result<(DispatchOutcome, Explanation), DispatchError> {
        let outcome = self.dispatch(request)?;
        let mut explanation = self
            .engine
            .explain(request.region(), request.binding())
            .expect("region dispatched, so it explains");
        explanation.dispatch = Some(DispatchTerms {
            device: outcome.device_name.to_string(),
            attempts: outcome.attempts,
            retries: outcome.retries,
            fallback: outcome.fallback.map(|f| f.metric_key().to_string()),
            simulated_s: outcome.simulated_s,
            gpu_breaker: self.breaker_state(Device::Gpu).name().to_string(),
            cpu_breaker: self.breaker_state(Device::Host).name().to_string(),
        });
        if let Some(row) = hetsel_obs::accuracy().lookup(request.region(), &outcome.device_name) {
            explanation.accuracy = Some(crate::explain::AccuracyBlock::from_row(&row));
        }
        Ok((outcome, explanation))
    }

    /// As [`Dispatcher::dispatch`] with an explicit decision deadline,
    /// overriding any deadline the request already carries. The override
    /// is applied in place — the request is not cloned (the same
    /// needless-clone shape [`DecisionEngine::decide_within`] fixed).
    pub fn dispatch_within(
        &self,
        request: &DecisionRequest,
        deadline: Duration,
    ) -> Result<DispatchOutcome, DispatchError> {
        self.dispatch_bounded(request, Some(deadline))
    }

    /// The kind-level health view: the host record, or the *primary*
    /// accelerator's for [`Device::Gpu`] (`None` on a host-only fleet).
    fn health_of(&self, device: Device) -> Option<&DeviceHealth> {
        match device {
            Device::Gpu => self.health.get(1),
            Device::Host => self.health.first(),
        }
    }

    /// Records a fallback event: counts every occurrence, keeps the first
    /// reason for the outcome, and (when the flight recorder is live)
    /// appends a [`hetsel_obs::EventKind::Fallback`] event whose `detail`
    /// byte is the [`fallback_code`] of the reason.
    fn note_fallback(
        &self,
        slot: &mut Option<FallbackReason>,
        reason: FallbackReason,
        region: &str,
        device: DeviceId,
        now: u64,
    ) {
        hetsel_obs::registry()
            .counter(&format!(
                "hetsel.core.dispatch.fallback.{}",
                reason.metric_key()
            ))
            .inc();
        hetsel_obs::record_event(|| {
            let mut ev = hetsel_obs::DecisionEvent::new(hetsel_obs::EventKind::Fallback, region);
            ev.tick = now;
            ev.device = device.0;
            ev.detail = fallback_code(&reason);
            ev
        });
        if slot.is_none() {
            *slot = Some(reason);
        }
    }

    /// Feeds the accuracy observatory and flight recorder with a completed
    /// dispatch: one `DispatchComplete` event plus one predicted-vs-observed
    /// sample for the executed device. The engine only predicted for the
    /// decided device and the host, so an execution that spilled to a
    /// *different* accelerator has no matching prediction and is not scored.
    /// A "flip" is counted when the predicted ordering between the executed
    /// device and its alternative disagrees with the observed ordering —
    /// i.e. the model picked the wrong side of the CPU/accelerator boundary.
    fn observe_outcome(&self, region: &str, outcome: &DispatchOutcome, now: u64) {
        let decision = &outcome.decision;
        hetsel_obs::record_event(|| {
            let mut ev =
                hetsel_obs::DecisionEvent::new(hetsel_obs::EventKind::DispatchComplete, region);
            ev.tick = now;
            ev.device = outcome.device_id.0;
            ev.verdict_accel = decision.device == Device::Gpu;
            ev.detail = outcome.fallback.as_ref().map_or(0, fallback_code);
            ev.predicted_cpu_s = decision.predicted_cpu_s.unwrap_or(f64::NAN);
            ev.predicted_accel_s = decision.predicted_gpu_s.unwrap_or(f64::NAN);
            ev.simulated_s = outcome.simulated_s;
            ev
        });
        if hetsel_obs::flight_recording_enabled() {
            hetsel_obs::registry()
                .counter(&hetsel_obs::metrics::device_leaf_metric_name(
                    "hetsel.core.flight",
                    &outcome.device_name,
                    "events",
                ))
                .inc();
        }
        // One calibration sample per completed dispatch: the *raw* model
        // prediction for the executed device (the tag keeps it even when the
        // decision shipped corrected numbers) against what actually ran.
        // Spills to a device the engine never predicted for carry no raw
        // prediction and teach the calibrator nothing.
        if let Some(tag) = decision.calibration {
            let raw = if outcome.device_id.is_host() {
                tag.raw_cpu_s
            } else if outcome.device_id == decision.device_id {
                tag.raw_gpu_s
            } else {
                None
            };
            if let Some(raw_s) = raw {
                self.engine.selector().calibrator().observe(
                    region,
                    &outcome.device_name,
                    tag.class,
                    raw_s,
                    outcome.simulated_s,
                );
            }
        }
        let (pred_exec, pred_other) = if outcome.device_id.is_host() {
            (decision.predicted_cpu_s, decision.predicted_gpu_s)
        } else if outcome.device_id == decision.device_id {
            (decision.predicted_gpu_s, decision.predicted_cpu_s)
        } else {
            (None, None)
        };
        let Some(predicted_s) = pred_exec else { return };
        let observed_s = outcome.simulated_s;
        let flip = pred_other.is_some_and(|other| (predicted_s <= other) != (observed_s <= other));
        hetsel_obs::accuracy().observe(region, &outcome.device_name, predicted_s, observed_s, flip);
        hetsel_obs::registry()
            .counter(&hetsel_obs::metrics::device_leaf_metric_name(
                "hetsel.core.accuracy",
                &outcome.device_name,
                "samples",
            ))
            .inc();
        if flip {
            hetsel_obs::registry()
                .counter(&hetsel_obs::metrics::device_leaf_metric_name(
                    "hetsel.core.accuracy",
                    &outcome.device_name,
                    "flips",
                ))
                .inc();
        }
    }

    /// Runs the region on one fleet device with bounded transient retries.
    /// Returns the successful run's simulated seconds (jitter included);
    /// backoff is accumulated into `backoff_s` by the caller's accounting.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        id: DeviceId,
        attrs: &RegionAttributes,
        binding: &Binding,
        now: u64,
        attempts: &mut u32,
        retries: &mut u32,
        backoff_s: &mut f64,
    ) -> Result<f64, ExecFailure> {
        let plan = &self.plans[id.0 as usize];
        let health = &self.health[id.0 as usize];
        let platform = &self.engine.selector().platform;
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            *attempts += 1;
            // The no-fault fast path takes no draw: a healthy dispatcher
            // consumes no randomness and leaves the draw sequence (and
            // all fault counters) untouched.
            let seq = if plan.is_none() {
                0
            } else {
                self.draws.fetch_add(1, Ordering::Relaxed)
            };
            let result = if id.is_host() {
                hetsel_cpusim::simulate_with_faults(
                    &attrs.kernel,
                    binding,
                    &platform.cpu,
                    platform.host_threads,
                    plan,
                    seq,
                )
                .map(|r| r.total_s())
            } else {
                // Each accelerator simulates against its *own* registered
                // descriptor, not the platform's.
                let descriptor = &self
                    .engine
                    .selector()
                    .fleet()
                    .accelerator(id)
                    .expect("routed id names a fleet accelerator")
                    .descriptor;
                hetsel_gpusim::simulate_with_faults(&attrs.kernel, binding, descriptor, plan, seq)
                    .map(|r| r.total_s())
            };
            match result {
                Ok(run_s) => {
                    health.on_success(&self.config.breaker, now);
                    return Ok(run_s);
                }
                Err(InjectedFailure::Unresolvable) => return Err(ExecFailure::Unresolvable),
                Err(InjectedFailure::Fault(fault)) => {
                    hetsel_obs::registry()
                        .counter(&hetsel_obs::metrics::device_metric_name(
                            "hetsel.core.dispatch.faults",
                            &health.label,
                        ))
                        .inc();
                    health.on_failure(&self.config.breaker, now);
                    match fault.kind {
                        FaultKind::Transient if attempt < max_attempts => {
                            *retries += 1;
                            hetsel_obs::static_counter!("hetsel.core.dispatch.retries").inc();
                            // Exponential backoff, charged to simulated time
                            // (shift capped well below overflow).
                            *backoff_s += self.config.retry.base_backoff_s
                                * f64::from(1u32 << (attempt - 1).min(20));
                        }
                        kind => return Err(ExecFailure::Fault(kind)),
                    }
                }
                #[allow(unreachable_patterns)]
                Err(_) => return Err(ExecFailure::Unresolvable),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::selector::{Policy, Selector};
    use hetsel_polybench::{find_kernel, Dataset};

    fn engine() -> DecisionEngine {
        let (k, _) = find_kernel("gemm").unwrap();
        DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&k),
        )
    }

    fn gemm_request(ds: Dataset) -> DecisionRequest {
        let (_, binding) = find_kernel("gemm").unwrap();
        DecisionRequest::new("gemm", binding(ds))
    }

    fn breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_backoff: 4,
            max_backoff: 16,
        }
    }

    #[test]
    fn healthy_dispatch_is_exactly_the_decision() {
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        let request = gemm_request(Dataset::Test);
        let outcome = dispatcher.dispatch(&request).unwrap();
        let decision = dispatcher
            .engine()
            .decide("gemm", request.binding())
            .unwrap();
        assert_eq!(outcome.decision, decision);
        assert_eq!(outcome.device, decision.device);
        assert!(outcome.clean());
        assert_eq!((outcome.attempts, outcome.retries), (1, 0));
        assert!(outcome.simulated_s > 0.0);
        assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Closed);
        assert_eq!(dispatcher.breaker_state(Device::Host), BreakerState::Closed);
    }

    #[test]
    fn unknown_region_is_a_typed_error() {
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        let err = dispatcher
            .dispatch(&DecisionRequest::new("missing", Binding::new()))
            .unwrap_err();
        assert_eq!(
            err,
            DispatchError::UnknownRegion {
                region: "missing".into()
            }
        );
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn unresolvable_binding_is_not_a_device_fault() {
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        let err = dispatcher
            .dispatch(&DecisionRequest::new("gemm", Binding::new()))
            .unwrap_err();
        assert_eq!(
            err,
            DispatchError::Unsimulatable {
                region: "gemm".into()
            }
        );
        // No breaker was charged: the failure is a modelling limitation.
        assert_eq!(dispatcher.health(Device::Gpu).failures, 0);
        assert_eq!(dispatcher.health(Device::Host).failures, 0);
    }

    #[test]
    fn permanent_gpu_fault_fails_over_to_the_host() {
        let config = DispatcherConfig::default()
            .with_device_faults("gpu", FaultPlan::permanent(7, 1.0))
            .with_breaker(breaker());
        let dispatcher = Dispatcher::new(engine(), config);
        // Benchmark-size gemm decides GPU; the injected fault forces host.
        let outcome = dispatcher
            .dispatch(&gemm_request(Dataset::Benchmark))
            .unwrap();
        assert_eq!(outcome.decision.device, Device::Gpu);
        assert_eq!(outcome.device, Device::Host);
        assert_eq!(
            outcome.fallback,
            Some(FallbackReason::DeviceFault {
                device: Device::Gpu,
                kind: FaultKind::Permanent,
            })
        );
        assert_eq!(outcome.retries, 0, "permanent faults are not retried");
    }

    #[test]
    fn breaker_opens_after_threshold_and_sheds_load() {
        let config = DispatcherConfig::default()
            .with_device_faults("gpu", FaultPlan::permanent(11, 1.0))
            .with_breaker(breaker());
        let dispatcher = Dispatcher::new(engine(), config);
        let request = gemm_request(Dataset::Benchmark);
        // Three dispatches = three GPU failures = the threshold.
        for _ in 0..3 {
            let outcome = dispatcher.dispatch(&request).unwrap();
            assert_eq!(outcome.device, Device::Host);
        }
        assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Open);
        assert_eq!(dispatcher.health(Device::Gpu).trips, 1);
        // While open, the GPU is not even attempted: the fallback reason
        // becomes BreakerOpen and the host serves directly.
        let outcome = dispatcher.dispatch(&request).unwrap();
        assert_eq!(outcome.device, Device::Host);
        assert_eq!(
            outcome.fallback,
            Some(FallbackReason::BreakerOpen {
                device: Device::Gpu
            })
        );
        assert_eq!(outcome.attempts, 1, "only the host ran");
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        // Transient p=1 then p=0 is impossible within one plan, so trip the
        // breaker with a plan, then rebuild a dispatcher sharing no state —
        // instead: use a plan whose failures stop mattering because the
        // backoff admits a probe and the probe's draw is deterministic.
        // Simplest deterministic route: permanent faults to trip it, then
        // verify the half-open transition fires at the right logical tick.
        let config = DispatcherConfig::default()
            .with_device_faults("gpu", FaultPlan::permanent(13, 1.0))
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                open_backoff: 3,
                max_backoff: 8,
            });
        let dispatcher = Dispatcher::new(engine(), config);
        let request = gemm_request(Dataset::Benchmark);
        for _ in 0..2 {
            dispatcher.dispatch(&request).unwrap();
        }
        assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Open);
        let opened_at = 1u64; // second dispatch, now = 1
                              // Dispatches at now = 2, 3 are still inside the backoff window
                              // (2 and 3 < opened_at + 3 = 4): load-shed, no GPU attempt.
        for _ in 0..2 {
            let outcome = dispatcher.dispatch(&request).unwrap();
            assert_eq!(outcome.attempts, 1);
            assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Open);
        }
        // now = 4 = opened_at + backoff: half-open probe admitted; it fails
        // (p=1), so the breaker re-opens with doubled backoff.
        let before = dispatcher.health(Device::Gpu).backoff;
        let outcome = dispatcher.dispatch(&request).unwrap();
        assert!(outcome.attempts > 1, "the probe ran on the GPU");
        assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Open);
        let after = dispatcher.health(Device::Gpu).backoff;
        assert_eq!(after, (before * 2).min(8), "failed probe doubles backoff");
        assert_eq!(dispatcher.health(Device::Gpu).trips, 2);
        let _ = opened_at;
    }

    #[test]
    fn transient_faults_retry_with_backoff() {
        // p=1 transient: every attempt faults, so retries exhaust and the
        // request fails over. Retry accounting must show max_attempts tries.
        let config = DispatcherConfig::default()
            .with_device_faults("gpu", FaultPlan::transient(17, 1.0))
            .with_retry(RetryConfig {
                max_attempts: 3,
                base_backoff_s: 1e-4,
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 100, // keep the breaker out of this test
                ..breaker()
            });
        let dispatcher = Dispatcher::new(engine(), config);
        let outcome = dispatcher
            .dispatch(&gemm_request(Dataset::Benchmark))
            .unwrap();
        assert_eq!(outcome.device, Device::Host);
        assert_eq!(outcome.attempts, 4, "3 GPU attempts + 1 host attempt");
        assert_eq!(outcome.retries, 2, "two retries after the first fault");
        // The backoff (1e-4 + 2e-4) is charged to simulated time.
        let plain = Dispatcher::new(engine(), DispatcherConfig::default());
        let clean = plain.dispatch(&gemm_request(Dataset::Benchmark)).unwrap();
        // Different device (host vs gpu) — just assert the charge is there.
        assert!(outcome.simulated_s > 0.0 && clean.simulated_s > 0.0);
        assert_eq!(
            outcome.fallback,
            Some(FallbackReason::DeviceFault {
                device: Device::Gpu,
                kind: FaultKind::Transient,
            })
        );
    }

    #[test]
    fn same_seed_same_outcome_sequence() {
        let make = || {
            Dispatcher::new(
                engine(),
                DispatcherConfig::default()
                    .with_device_faults("gpu", FaultPlan::transient(42, 0.5).with_jitter(1e-4))
                    .with_breaker(breaker()),
            )
        };
        let a = make();
        let b = make();
        let requests: Vec<DecisionRequest> = [Dataset::Mini, Dataset::Test, Dataset::Benchmark]
            .into_iter()
            .cycle()
            .take(30)
            .map(gemm_request)
            .collect();
        let run = |d: &Dispatcher| -> Vec<Result<DispatchOutcome, DispatchError>> {
            requests.iter().map(|r| d.dispatch(r)).collect()
        };
        assert_eq!(run(&a), run(&b), "same seeds must replay bit-for-bit");
    }

    #[test]
    fn deadline_degraded_dispatch_records_the_reason() {
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        let outcome = dispatcher
            .dispatch_within(&gemm_request(Dataset::Test), Duration::ZERO)
            .unwrap();
        assert_eq!(outcome.decision.policy, Policy::AlwaysOffload);
        assert_eq!(outcome.fallback, Some(FallbackReason::DeadlineExceeded));
        assert_eq!(outcome.device, Device::Gpu, "compiler default offloads");
        assert!(outcome.simulated_s > 0.0, "the request still completed");
    }

    #[test]
    fn host_is_never_fully_load_shed() {
        // Both devices permanently faulty: breakers on both trip open.
        // Dispatches keep completing... no — with p=1 everywhere nothing
        // can complete. Instead: host healthy, GPU broken, GPU breaker
        // open, *host* breaker forced open by injecting host faults first
        // is not possible with a healthy host plan. So: trip the host
        // breaker with a host plan that faults only early draws.
        // Deterministic route: host transient p=1 with max_attempts=1 and
        // threshold=1 trips the host breaker on the first host-decided
        // dispatch; after that a forced probe must still reach the host.
        let config = DispatcherConfig::default()
            .with_device_faults("host", FaultPlan::transient(5, 1.0))
            .with_device_faults("gpu", FaultPlan::permanent(6, 1.0))
            .with_retry(RetryConfig {
                max_attempts: 1,
                base_backoff_s: 0.0,
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                open_backoff: 1000,
                max_backoff: 1000,
            });
        let dispatcher = Dispatcher::new(engine(), config);
        let request = gemm_request(Dataset::Benchmark);
        // Everything faults: the dispatch fails, both breakers trip.
        let err = dispatcher.dispatch(&request).unwrap_err();
        assert!(matches!(err, DispatchError::AllDevicesFailed { .. }));
        assert_eq!(dispatcher.breaker_state(Device::Gpu), BreakerState::Open);
        assert_eq!(dispatcher.breaker_state(Device::Host), BreakerState::Open);
        // Next dispatch: both breakers reject, but the host is force-probed
        // anyway (and faults again — the guarantee is the *attempt*).
        let before = dispatcher.health(Device::Host).failures;
        let _ = dispatcher.dispatch(&request).unwrap_err();
        assert!(
            dispatcher.health(Device::Host).failures > before,
            "the forced host probe executed despite the open breaker"
        );
    }

    #[test]
    fn healthy_dispatcher_records_no_failures_or_retries() {
        // Health tallies are per-dispatcher, so this is race-free even with
        // fault-injecting tests running in sibling threads (the global
        // zero-added-counters claim is pinned by the single-test
        // `dispatch_p0` integration binary).
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
            let outcome = dispatcher.dispatch(&gemm_request(ds)).unwrap();
            assert_eq!(outcome.retries, 0);
            assert_eq!(outcome.attempts, 1);
        }
        for device in [Device::Gpu, Device::Host] {
            let snapshot = dispatcher.health(device);
            assert_eq!(snapshot.failures, 0, "{device}");
            assert_eq!(snapshot.trips, 0, "{device}");
        }
        assert_eq!(
            dispatcher.health(Device::Gpu).successes + dispatcher.health(Device::Host).successes,
            3
        );
    }

    fn two_accel_engine(offload: bool) -> DecisionEngine {
        use crate::fleet::Fleet;
        let platform = Platform::power8_k80();
        let fleet = Fleet::pair_labeled(&platform, "k80")
            .with_accelerator_from("v100", &Platform::power9_v100());
        let mut selector = Selector::new(platform).with_fleet(fleet);
        if offload {
            selector = selector.with_policy(Policy::AlwaysOffload);
        }
        let (k, _) = find_kernel("gemm").unwrap();
        DecisionEngine::new(selector, std::slice::from_ref(&k))
    }

    #[test]
    fn sick_accelerator_spills_to_its_peer_before_the_host() {
        // Primary "k80" permanently faulty; its healthy peer "v100" must
        // absorb the spill before the host is even considered.
        let config = DispatcherConfig::default()
            .with_device_faults("k80", FaultPlan::permanent(7, 1.0))
            .with_breaker(breaker());
        let dispatcher = Dispatcher::new(two_accel_engine(true), config);
        let outcome = dispatcher
            .dispatch(&gemm_request(Dataset::Benchmark))
            .unwrap();
        assert_eq!(
            &*outcome.decision.device_name, "k80",
            "policy offloads to the primary"
        );
        assert_eq!(&*outcome.device_name, "v100", "the peer absorbs the spill");
        assert_eq!(outcome.device_id, DeviceId(2));
        assert_eq!(outcome.device, Device::Gpu);
        assert!(matches!(
            outcome.fallback,
            Some(FallbackReason::DeviceFault {
                device: Device::Gpu,
                kind: FaultKind::Permanent,
            })
        ));
        let host = dispatcher.health_by_id(DeviceId::HOST).unwrap();
        assert_eq!(
            host.successes + host.failures,
            0,
            "the host was never touched"
        );
    }

    #[test]
    fn an_open_breaker_on_one_accelerator_never_affects_its_peer() {
        let config = DispatcherConfig::default()
            .with_device_faults("k80", FaultPlan::permanent(19, 1.0))
            .with_breaker(breaker());
        let dispatcher = Dispatcher::new(two_accel_engine(true), config);
        let request = gemm_request(Dataset::Benchmark);
        // Three dispatches = three k80 failures = the trip threshold.
        for _ in 0..3 {
            let outcome = dispatcher.dispatch(&request).unwrap();
            assert_eq!(&*outcome.device_name, "v100");
        }
        assert_eq!(
            dispatcher.breaker_state_by_id(DeviceId(1)),
            Some(BreakerState::Open)
        );
        // Isolation: the sibling accelerator and the host stay closed and
        // keep serving; the open breaker only re-routes, never blocks them.
        assert_eq!(
            dispatcher.breaker_state_by_id(DeviceId(2)),
            Some(BreakerState::Closed)
        );
        assert_eq!(
            dispatcher.breaker_state_by_id(DeviceId::HOST),
            Some(BreakerState::Closed)
        );
        let outcome = dispatcher.dispatch(&request).unwrap();
        assert_eq!(&*outcome.device_name, "v100");
        assert!(matches!(
            outcome.fallback,
            Some(FallbackReason::BreakerOpen {
                device: Device::Gpu
            })
        ));
        assert_eq!(outcome.attempts, 1, "only the healthy peer ran");
        let snapshots = dispatcher.publish_health_all();
        assert_eq!(snapshots.len(), 3);
        assert_eq!(snapshots[2].failures, 0, "v100 never failed");
    }

    #[test]
    fn capacity_exhaustion_spills_with_a_typed_reason() {
        use crate::fleet::Fleet;
        let platform = Platform::power8_k80();
        let fleet = Fleet::pair_labeled(&platform, "k80")
            .with_accelerator_from("v100", &Platform::power9_v100())
            .with_capacity("k80", 0);
        let selector = Selector::new(platform)
            .with_fleet(fleet)
            .with_policy(Policy::AlwaysOffload);
        let (k, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector, std::slice::from_ref(&k));
        let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
        let outcome = dispatcher
            .dispatch(&gemm_request(Dataset::Benchmark))
            .unwrap();
        assert_eq!(&*outcome.device_name, "v100");
        assert_eq!(
            outcome.fallback,
            Some(FallbackReason::CapacityExhausted {
                device: Device::Gpu
            })
        );
        assert_eq!(outcome.attempts, 1, "the gated device was never executed");
        let k80 = dispatcher.health_by_id(DeviceId(1)).unwrap();
        assert_eq!(k80.successes + k80.failures, 0);
    }

    #[test]
    fn unknown_device_fault_label_panics_at_construction() {
        let config =
            DispatcherConfig::default().with_device_faults("tpu", FaultPlan::permanent(1, 1.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Dispatcher::new(engine(), config)
        }));
        assert!(result.is_err(), "unregistered label must panic");
    }

    #[test]
    fn dispatch_explained_carries_dispatch_terms() {
        let dispatcher = Dispatcher::new(engine(), DispatcherConfig::default());
        let (outcome, explanation) = dispatcher
            .dispatch_explained(&gemm_request(Dataset::Test))
            .unwrap();
        let terms = explanation.dispatch.as_ref().expect("dispatch terms");
        assert_eq!(terms.device, &*outcome.device_name);
        assert_eq!(
            terms.device,
            outcome.device.name(),
            "pair labels are host/gpu"
        );
        assert_eq!((terms.attempts, terms.retries), (1, 0));
        assert_eq!(terms.fallback, None);
        assert_eq!(terms.gpu_breaker, "closed");
        assert_eq!(terms.cpu_breaker, "closed");
        assert_eq!(terms.simulated_s, outcome.simulated_s);
        assert!(explanation.describes(&outcome.decision));
    }
}
