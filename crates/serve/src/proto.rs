//! The wire protocol: newline-delimited JSON, one request and one reply
//! per line.
//!
//! A request line is an envelope around the engine's own
//! [`DecisionRequest`] serialization:
//!
//! ```json
//! {"id":7,"request":{"region":"gemm","binding":{"n":1024},"policy_override":null,"deadline_ns":50000},"dispatch":false}
//! ```
//!
//! `id` is an opaque caller correlation token echoed back verbatim
//! (optional; replies to id-less requests carry `"id":null`). `dispatch`
//! asks the server to execute the decision through the fault-tolerant
//! [`Dispatcher`](hetsel_core::Dispatcher) after deciding, and defaults
//! to false.
//!
//! Every request line gets exactly one reply line — including malformed
//! ones, which get a typed `"status":"error"` reply instead of a dropped
//! connection, and shed ones, which get `"status":"shed"` with a typed
//! reason and the degraded compiler-default decision so a caller always
//! has *something* to run with. That is the serve-layer face of the
//! dispatcher's "the host is never fully load-shed" rule: admission
//! control may refuse to spend model-evaluation budget on a request, but
//! it never refuses to answer it.
//!
//! Neither direction goes through the vendored serde's [`Value`] tree on
//! the serve path. [`decode_request_line`] decodes a line in one pass into
//! a [`BorrowedRequest`] whose region and binding names borrow the line,
//! so a request answered from the decision cache is never copied out of
//! the read buffer; [`parse_request_line`] is the same decode, then owned.
//! [`ServeReply::write_json`] renders a reply straight from its fields,
//! with the engine's decision renderer
//! ([`DecisionFields`](hetsel_core::wire::DecisionFields)) for the
//! decision. [`ServeReply::write_ok_json_rendered`] wraps a decision
//! already rendered — a cache entry's stored JSON — in its `ok` reply,
//! without building the reply or formatting anything. The [`Deserialize`]
//! and [`Serialize`] impls stay, as the oracles these are tested against
//! (`tests/request_decode.rs`, `tests/reply_json.rs`) and for clients.

use std::borrow::Cow;
use std::time::Duration;

use hetsel_core::wire::{write_bool, write_opt_f64, write_str, DecisionFields};
use hetsel_core::{Decision, DecisionRequest, DispatchOutcome, Policy};
use hetsel_ir::Binding;
use serde::{Deserialize, Serialize, Value};

/// Why the server refused to evaluate a request. The ordinal doubles as
/// the flight-recorder `detail` byte on
/// [`EventKind::Shed`](hetsel_obs::EventKind::Shed) events, mirroring how
/// dispatch encodes `FallbackReason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity when the request arrived.
    QueueFull,
    /// The request's deadline expired: on arrival (a zero budget), while
    /// admission decided it, or (real timer, not a post-hoc check) before
    /// the executor ran its dispatch.
    DeadlineExpired,
    /// The server was shutting down when the request was admitted or
    /// still queued.
    ShuttingDown,
}

impl ShedReason {
    /// Stable snake_case name: the JSON wire spelling and the metric leaf
    /// under `hetsel.serve.shed.<name>`.
    pub fn metric_key(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::ShuttingDown => "shutting_down",
        }
    }

    /// The flight-recorder detail byte (non-zero, mirroring
    /// `fallback_code` in hetsel-core).
    pub fn code(self) -> u8 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::DeadlineExpired => 2,
            ShedReason::ShuttingDown => 3,
        }
    }

    /// Parses a [`ShedReason::metric_key`] spelling.
    pub fn parse(s: &str) -> Option<ShedReason> {
        match s {
            "queue_full" => Some(ShedReason::QueueFull),
            "deadline_expired" => Some(ShedReason::DeadlineExpired),
            "shutting_down" => Some(ShedReason::ShuttingDown),
            _ => None,
        }
    }
}

/// One parsed request line: the engine request plus the envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller correlation token, echoed back verbatim in the reply.
    pub id: Option<u64>,
    /// The decision request proper.
    pub request: DecisionRequest,
    /// Execute the decision through the dispatcher after deciding.
    pub dispatch: bool,
}

impl ServeRequest {
    /// A plain envelope around `request` with no id and no dispatch.
    pub fn new(request: DecisionRequest) -> ServeRequest {
        ServeRequest {
            id: None,
            request,
            dispatch: false,
        }
    }

    /// Builder: attach a correlation id.
    pub fn with_id(mut self, id: u64) -> ServeRequest {
        self.id = Some(id);
        self
    }

    /// Builder: ask for dispatch, not just a decision.
    pub fn with_dispatch(mut self) -> ServeRequest {
        self.dispatch = true;
        self
    }
}

impl Serialize for ServeRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), self.id.to_value()),
            ("request".to_string(), self.request.to_value()),
            ("dispatch".to_string(), Value::Bool(self.dispatch)),
        ])
    }
}

/// The `Value`-tree reading of a request, kept as the oracle that
/// [`parse_request_line`] is tested against (`tests/request_decode.rs`).
impl Deserialize for ServeRequest {
    fn from_value(v: &Value) -> Result<ServeRequest, serde::Error> {
        if !matches!(v, Value::Object(_)) {
            return Err(serde::Error::msg(format!(
                "expected a request object, found {v:?}"
            )));
        }
        let id = match v.get("id") {
            None | Some(Value::Null) => None,
            Some(other) => Some(<u64 as Deserialize>::from_value(other)?),
        };
        let request = match v.get("request") {
            Some(req) => DecisionRequest::from_value(req)?,
            None => return Err(serde::Error::msg("missing field: request")),
        };
        let dispatch = match v.get("dispatch") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(other) => return Err(serde::Error::msg(format!("bad dispatch flag: {other:?}"))),
        };
        Ok(ServeRequest {
            id,
            request,
            dispatch,
        })
    }
}

/// Binding entries a [`BorrowedBinding`] holds without the heap, as the
/// engine's cache key holds its parameter slots.
const INLINE_ENTRIES: usize = 8;

/// A request line decoded in place by [`decode_request_line`]: the fields
/// of a [`ServeRequest`], with the region and the binding names borrowed
/// from the line. A name the line spells with an escape is the one thing
/// decoded into a string of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct BorrowedRequest<'line> {
    /// Caller correlation token, echoed back verbatim in the reply.
    pub id: Option<u64>,
    /// The region the request names.
    pub region: Cow<'line, str>,
    /// The runtime binding, entry by entry as the line spells it.
    pub binding: BorrowedBinding<'line>,
    /// Decide under this policy instead of the engine's own.
    pub policy_override: Option<Policy>,
    /// The request's budget.
    pub deadline: Option<Duration>,
    /// Execute the decision through the dispatcher after deciding.
    pub dispatch: bool,
}

impl BorrowedRequest<'_> {
    /// The owned request: the one [`parse_request_line`] returns for the
    /// same line.
    pub fn into_owned(self) -> ServeRequest {
        let mut request = DecisionRequest::new(self.region, self.binding.to_binding());
        if let Some(policy) = self.policy_override {
            request = request.with_policy(policy);
        }
        if let Some(deadline) = self.deadline {
            request = request.with_deadline(deadline);
        }
        ServeRequest {
            id: self.id,
            request,
            dispatch: self.dispatch,
        }
    }
}

/// A borrowed view of an owned request, for code that handles both forms
/// as one.
impl<'a> From<&'a ServeRequest> for BorrowedRequest<'a> {
    fn from(serve: &'a ServeRequest) -> BorrowedRequest<'a> {
        let mut binding = BorrowedBinding::default();
        for (name, value) in serve.request.binding().iter() {
            binding.push(Cow::Borrowed(name), value);
        }
        BorrowedRequest {
            id: serve.id,
            region: Cow::Borrowed(serve.request.region()),
            binding,
            policy_override: serve.request.policy_override(),
            deadline: serve.request.deadline(),
            dispatch: serve.dispatch,
        }
    }
}

/// A request's binding as its line spells it: `(name, value)` entries in
/// line order, repeated names included. The first eight entries are held
/// inline, so a binding that short is decoded without the heap; the rest
/// spill to a vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BorrowedBinding<'line> {
    len: usize,
    inline: [(Cow<'line, str>, i64); INLINE_ENTRIES],
    spill: Vec<(Cow<'line, str>, i64)>,
}

impl<'line> BorrowedBinding<'line> {
    /// Appends an entry.
    pub fn push(&mut self, name: Cow<'line, str>, value: i64) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = (name, value),
            None => self.spill.push((name, value)),
        }
        self.len += 1;
    }

    /// The value `name` is bound to: its last entry's, as in the
    /// [`Binding`] [`BorrowedBinding::to_binding`] builds.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.entries()
            .rev()
            .find_map(|(n, value)| (n == name).then_some(value))
    }

    /// The entries, in line order.
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = (&str, i64)> {
        let inline = &self.inline[..self.len.min(INLINE_ENTRIES)];
        inline
            .iter()
            .chain(&self.spill)
            .map(|(name, value)| (&**name, *value))
    }

    /// The owned binding: every entry set in line order, so a repeated
    /// name keeps its last value.
    pub fn to_binding(&self) -> Binding {
        let mut binding = Binding::new();
        for (name, value) in self.entries() {
            binding.set(name, value);
        }
        binding
    }
}

/// One reply line. Exactly one is written per request line, whatever
/// happened to the request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// The request was evaluated. `degraded` is true when the engine's
    /// own deadline accounting degraded the decision (e.g. a zero-budget
    /// request); `dispatched` carries execution evidence when the
    /// envelope asked for dispatch.
    Ok {
        /// Echoed correlation id.
        id: Option<u64>,
        /// The decision taken.
        decision: ReplyDecision,
        /// True when the decision is a deadline-degraded compiler default.
        degraded: bool,
        /// Dispatch evidence, when the request asked for execution.
        dispatched: Option<ReplyDispatch>,
    },
    /// The request was refused by admission control; the carried decision
    /// is the degraded compiler default so the caller can still act.
    Shed {
        /// Echoed correlation id.
        id: Option<u64>,
        /// Why admission control refused the request.
        reason: ShedReason,
        /// The degraded compiler-default decision.
        decision: ReplyDecision,
    },
    /// The line could not be parsed into a request (or named an unknown
    /// region). The connection stays open; `message` says what was wrong.
    Error {
        /// Echoed correlation id, when one could be parsed.
        id: Option<u64>,
        /// Human-readable parse/validation failure.
        message: String,
    },
}

/// Wire form of a decision inside a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyDecision {
    /// Region name.
    pub region: String,
    /// Kind-level device (`host` / `gpu`).
    pub device: String,
    /// Fleet label of the chosen device.
    pub device_name: String,
    /// Policy that made the choice ([`Policy::name`](hetsel_core::Policy::name) spelling).
    pub policy: String,
    /// Predicted host seconds, when the policy consulted the model.
    pub predicted_cpu_s: Option<f64>,
    /// Predicted accelerator seconds, when consulted.
    pub predicted_gpu_s: Option<f64>,
    /// True when online calibration *applied* corrections to the predicted
    /// times this verdict was taken over (Active mode, warm cells). Always
    /// serialized; absent in an incoming document means `false`, so
    /// pre-calibration peers interoperate unchanged.
    pub calibrated: bool,
}

impl ReplyDecision {
    /// Projects the engine's decision into its wire form.
    pub fn from_decision(d: &Decision) -> ReplyDecision {
        let f = DecisionFields::from(d);
        ReplyDecision {
            region: f.region.to_string(),
            device: f.device.to_string(),
            device_name: f.device_name.to_string(),
            policy: f.policy.to_string(),
            predicted_cpu_s: f.predicted_cpu_s,
            predicted_gpu_s: f.predicted_gpu_s,
            calibrated: f.calibrated,
        }
    }
}

/// The owned form's wire fields: it renders with the engine's decision
/// renderer.
impl<'a> From<&'a ReplyDecision> for DecisionFields<'a> {
    fn from(d: &'a ReplyDecision) -> DecisionFields<'a> {
        DecisionFields {
            region: &d.region,
            device: &d.device,
            device_name: &d.device_name,
            policy: &d.policy,
            predicted_cpu_s: d.predicted_cpu_s,
            predicted_gpu_s: d.predicted_gpu_s,
            calibrated: d.calibrated,
        }
    }
}

/// Wire form of a dispatch outcome inside an `ok` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyDispatch {
    /// Fleet label of the device the request finally ran on.
    pub device_name: String,
    /// Execution attempts across all devices.
    pub attempts: u32,
    /// First fallback reason, when the request left the decided path.
    pub fallback: Option<String>,
    /// Simulated execution seconds.
    pub simulated_s: f64,
}

impl ReplyDispatch {
    /// Projects the dispatcher's outcome into its wire form.
    pub fn from_outcome(o: &DispatchOutcome) -> ReplyDispatch {
        ReplyDispatch {
            device_name: o.device_name.to_string(),
            attempts: o.attempts,
            fallback: o.fallback.map(|f| f.metric_key().to_string()),
            simulated_s: o.simulated_s,
        }
    }
}

impl Serialize for ReplyDecision {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("region".to_string(), Value::Str(self.region.clone())),
            ("device".to_string(), Value::Str(self.device.clone())),
            (
                "device_name".to_string(),
                Value::Str(self.device_name.clone()),
            ),
            ("policy".to_string(), Value::Str(self.policy.clone())),
            (
                "predicted_cpu_s".to_string(),
                self.predicted_cpu_s.to_value(),
            ),
            (
                "predicted_gpu_s".to_string(),
                self.predicted_gpu_s.to_value(),
            ),
            ("calibrated".to_string(), Value::Bool(self.calibrated)),
        ])
    }
}

impl Deserialize for ReplyDecision {
    fn from_value(v: &Value) -> Result<ReplyDecision, serde::Error> {
        let field = |k: &str| -> Result<String, serde::Error> {
            match v.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                other => Err(serde::Error::msg(format!("bad {k}: {other:?}"))),
            }
        };
        let opt_f64 = |k: &str| -> Result<Option<f64>, serde::Error> {
            match v.get(k) {
                None | Some(Value::Null) => Ok(None),
                Some(other) => <f64 as Deserialize>::from_value(other).map(Some),
            }
        };
        Ok(ReplyDecision {
            region: field("region")?,
            device: field("device")?,
            device_name: field("device_name")?,
            policy: field("policy")?,
            predicted_cpu_s: opt_f64("predicted_cpu_s")?,
            predicted_gpu_s: opt_f64("predicted_gpu_s")?,
            calibrated: match v.get("calibrated") {
                None | Some(Value::Null) => false,
                Some(Value::Bool(b)) => *b,
                other => return Err(serde::Error::msg(format!("bad calibrated: {other:?}"))),
            },
        })
    }
}

impl Serialize for ReplyDispatch {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "device_name".to_string(),
                Value::Str(self.device_name.clone()),
            ),
            (
                "attempts".to_string(),
                Value::UInt(u64::from(self.attempts)),
            ),
            (
                "fallback".to_string(),
                match &self.fallback {
                    Some(f) => Value::Str(f.clone()),
                    None => Value::Null,
                },
            ),
            ("simulated_s".to_string(), Value::Float(self.simulated_s)),
        ])
    }
}

impl Deserialize for ReplyDispatch {
    fn from_value(v: &Value) -> Result<ReplyDispatch, serde::Error> {
        let device_name = match v.get("device_name") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(serde::Error::msg(format!("bad device_name: {other:?}"))),
        };
        let attempts = match v.get("attempts") {
            Some(n) => <u32 as Deserialize>::from_value(n)?,
            None => return Err(serde::Error::msg("missing field: attempts")),
        };
        let fallback = match v.get("fallback") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(s.clone()),
            other => return Err(serde::Error::msg(format!("bad fallback: {other:?}"))),
        };
        let simulated_s = match v.get("simulated_s") {
            Some(n) => <f64 as Deserialize>::from_value(n)?,
            None => return Err(serde::Error::msg("missing field: simulated_s")),
        };
        Ok(ReplyDispatch {
            device_name,
            attempts,
            fallback,
            simulated_s,
        })
    }
}

impl ServeReply {
    /// The echoed correlation id, whatever the status.
    pub fn id(&self) -> Option<u64> {
        match self {
            ServeReply::Ok { id, .. }
            | ServeReply::Shed { id, .. }
            | ServeReply::Error { id, .. } => *id,
        }
    }

    /// Wire status string: `ok` / `shed` / `error`.
    pub fn status(&self) -> &'static str {
        match self {
            ServeReply::Ok { .. } => "ok",
            ServeReply::Shed { .. } => "shed",
            ServeReply::Error { .. } => "error",
        }
    }

    /// An `ok` reply for a freshly evaluated request.
    pub fn ok(
        id: Option<u64>,
        decision: &Decision,
        degraded: bool,
        dispatched: Option<&DispatchOutcome>,
    ) -> ServeReply {
        ServeReply::Ok {
            id,
            decision: ReplyDecision::from_decision(decision),
            degraded,
            dispatched: dispatched.map(ReplyDispatch::from_outcome),
        }
    }

    /// A `shed` reply carrying the degraded compiler default.
    pub fn shed(id: Option<u64>, reason: ShedReason, decision: &Decision) -> ServeReply {
        ServeReply::Shed {
            id,
            reason,
            decision: ReplyDecision::from_decision(decision),
        }
    }

    /// An `error` reply.
    pub fn error(id: Option<u64>, message: impl Into<String>) -> ServeReply {
        ServeReply::Error {
            id,
            message: message.into(),
        }
    }
}

impl ServeReply {
    /// Appends the reply's JSON text, without a newline, to `out`. The
    /// bytes are exactly those of `serde_json::to_string(self)`, written
    /// straight from the fields instead of through a [`Value`] tree; the
    /// property test `tests/reply_json.rs` holds the two to that.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            ServeReply::Ok {
                id,
                decision,
                degraded,
                dispatched,
            } => {
                write_ok_head(out, *id);
                DecisionFields::from(decision).write_json(out);
                write_ok_tail(out, *degraded, dispatched.as_ref());
            }
            ServeReply::Shed {
                id,
                reason,
                decision,
            } => {
                write_head(out, *id, "shed");
                out.extend_from_slice(b",\"reason\":");
                write_str(out, reason.metric_key());
                out.extend_from_slice(b",\"decision\":");
                DecisionFields::from(decision).write_json(out);
                out.push(b'}');
            }
            ServeReply::Error { id, message } => {
                write_head(out, *id, "error");
                out.extend_from_slice(b",\"message\":");
                write_str(out, message);
                out.push(b'}');
            }
        }
    }

    /// Appends the JSON text of `ServeReply::ok(id, decision, false, None)`
    /// — the reply to a decide-only request — straight from the engine's
    /// decision, without building the reply and its strings. The field
    /// renderer is [`ServeReply::write_json`]'s; `tests/reply_json.rs`
    /// holds the bytes to `serde_json::to_string` of the built reply.
    pub fn write_ok_json(out: &mut Vec<u8>, id: Option<u64>, decision: &Decision) {
        write_ok_head(out, id);
        DecisionFields::from(decision).write_json(out);
        write_ok_tail(out, false, None);
    }

    /// As [`ServeReply::write_ok_json`], with the decision given as its
    /// rendered JSON object — what
    /// [`DecisionFields::write_json`](hetsel_core::wire::DecisionFields::write_json)
    /// writes, and a decision-cache entry stores
    /// ([`CachedDecision::json`](hetsel_core::CachedDecision::json)) —
    /// copied verbatim.
    pub fn write_ok_json_rendered(out: &mut Vec<u8>, id: Option<u64>, decision_json: &[u8]) {
        write_ok_head(out, id);
        out.extend_from_slice(decision_json);
        write_ok_tail(out, false, None);
    }
}

/// The opening of every reply: `{"id":…,"status":…`.
fn write_head(out: &mut Vec<u8>, id: Option<u64>, status: &str) {
    out.extend_from_slice(b"{\"id\":");
    match id {
        Some(id) => write_uint(out, id),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"status\":");
    write_str(out, status);
}

/// An `ok` reply up to its decision object: `{"id":…,"status":"ok","decision":`.
fn write_ok_head(out: &mut Vec<u8>, id: Option<u64>) {
    write_head(out, id, "ok");
    out.extend_from_slice(b",\"decision\":");
}

/// The rest of an `ok` reply after its decision object.
fn write_ok_tail(out: &mut Vec<u8>, degraded: bool, dispatched: Option<&ReplyDispatch>) {
    out.extend_from_slice(b",\"degraded\":");
    write_bool(out, degraded);
    out.extend_from_slice(b",\"dispatched\":");
    match dispatched {
        Some(d) => d.write_json(out),
        None => out.extend_from_slice(b"null"),
    }
    out.push(b'}');
}

impl ReplyDispatch {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"device_name\":");
        write_str(out, &self.device_name);
        out.extend_from_slice(b",\"attempts\":");
        write_uint(out, u64::from(self.attempts));
        out.extend_from_slice(b",\"fallback\":");
        match &self.fallback {
            Some(f) => write_str(out, f),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"simulated_s\":");
        write_opt_f64(out, Some(self.simulated_s));
        out.push(b'}');
    }
}

/// An unsigned integer in decimal, as `Display` writes it, without the
/// formatting machinery: every reply echoes its id.
fn write_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

impl Serialize for ServeReply {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), self.id().to_value()),
            ("status".to_string(), Value::Str(self.status().to_string())),
        ];
        match self {
            ServeReply::Ok {
                decision,
                degraded,
                dispatched,
                ..
            } => {
                fields.push(("decision".to_string(), decision.to_value()));
                fields.push(("degraded".to_string(), Value::Bool(*degraded)));
                fields.push((
                    "dispatched".to_string(),
                    match dispatched {
                        Some(d) => d.to_value(),
                        None => Value::Null,
                    },
                ));
            }
            ServeReply::Shed {
                reason, decision, ..
            } => {
                fields.push((
                    "reason".to_string(),
                    Value::Str(reason.metric_key().to_string()),
                ));
                fields.push(("decision".to_string(), decision.to_value()));
            }
            ServeReply::Error { message, .. } => {
                fields.push(("message".to_string(), Value::Str(message.clone())));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServeReply {
    fn from_value(v: &Value) -> Result<ServeReply, serde::Error> {
        let id = match v.get("id") {
            None | Some(Value::Null) => None,
            Some(other) => Some(<u64 as Deserialize>::from_value(other)?),
        };
        let status = match v.get("status") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(serde::Error::msg(format!("bad status: {other:?}"))),
        };
        match status.as_str() {
            "ok" => {
                let decision = match v.get("decision") {
                    Some(d) => ReplyDecision::from_value(d)?,
                    None => return Err(serde::Error::msg("missing field: decision")),
                };
                let degraded = match v.get("degraded") {
                    Some(Value::Bool(b)) => *b,
                    other => return Err(serde::Error::msg(format!("bad degraded: {other:?}"))),
                };
                let dispatched = match v.get("dispatched") {
                    None | Some(Value::Null) => None,
                    Some(d) => Some(ReplyDispatch::from_value(d)?),
                };
                Ok(ServeReply::Ok {
                    id,
                    decision,
                    degraded,
                    dispatched,
                })
            }
            "shed" => {
                let reason = match v.get("reason") {
                    Some(Value::Str(s)) => ShedReason::parse(s)
                        .ok_or_else(|| serde::Error::msg(format!("unknown shed reason {s:?}")))?,
                    other => return Err(serde::Error::msg(format!("bad reason: {other:?}"))),
                };
                let decision = match v.get("decision") {
                    Some(d) => ReplyDecision::from_value(d)?,
                    None => return Err(serde::Error::msg("missing field: decision")),
                };
                Ok(ServeReply::Shed {
                    id,
                    reason,
                    decision,
                })
            }
            "error" => {
                let message = match v.get("message") {
                    Some(Value::Str(s)) => s.clone(),
                    other => return Err(serde::Error::msg(format!("bad message: {other:?}"))),
                };
                Ok(ServeReply::Error { id, message })
            }
            other => Err(serde::Error::msg(format!("unknown status {other:?}"))),
        }
    }
}

/// Parses one request line into an owned request: [`decode_request_line`],
/// then [`BorrowedRequest::into_owned`].
pub fn parse_request_line(line: &str) -> Result<ServeRequest, Box<ServeReply>> {
    decode_request_line(line).map(BorrowedRequest::into_owned)
}

/// Decodes one request line in place. Returns the typed error reply
/// (never panics) when the line is not a valid request; blank lines are
/// the caller's business (transports skip them). The error side is boxed:
/// replies are wide (they carry a whole degraded decision in the shed arm)
/// and the refusal path is cold.
///
/// The line is decoded in one pass, with no intermediate [`Value`] tree.
/// The region and the binding names are borrowed from the line unless it
/// spells them with escapes, and a binding of up to eight entries is held
/// inline, so a plain line decodes without touching the heap. It accepts
/// exactly the lines `serde_json::from_str::<ServeRequest>` accepts, to the
/// same values, and the [`Deserialize`] impl above stays as the oracle
/// that `tests/request_decode.rs` holds this decoder to:
///
/// * a duplicated key counts once, by its first copy, in the envelope and
///   in `request`; inside `binding` every copy is kept, and the last wins;
/// * the error reply of a line that is JSON but not a request carries the
///   first top-level `"id"`, when that is an integer in `u64` range; a line
///   that is not JSON carries none.
///
/// Time and memory are linear in the line, however hostile: nesting in
/// unknown members is stepped over with a heap stack, not recursion.
pub fn decode_request_line(line: &str) -> Result<BorrowedRequest<'_>, Box<ServeReply>> {
    let mut decoder = Decoder {
        text: line,
        pos: 0,
        invalid: None,
    };
    let bad =
        |id, message: String| Box::new(ServeReply::error(id, format!("bad request: {message}")));
    // Decoded in place: the request is wide (its binding holds eight
    // entries inline), so it is filled where it lies, not moved.
    let mut request = BorrowedRequest {
        id: None,
        region: Cow::Borrowed(""),
        binding: BorrowedBinding::default(),
        policy_override: None,
        deadline: None,
        dispatch: false,
    };
    let valid = match decoder
        .envelope(&mut request)
        .and_then(|valid| decoder.end().map(|()| valid))
    {
        Ok(valid) => valid,
        Err(Syntax(message)) => return Err(bad(None, message)),
    };
    match (decoder.invalid, valid) {
        (None, true) => Ok(request),
        (Some(message), _) => Err(bad(request.id, message)),
        (None, false) => Err(bad(request.id, "missing field: request".to_string())),
    }
}

/// The line is not JSON, as the vendored `serde_json` reads JSON.
struct Syntax(String);

/// One JSON value as the decoder needs it: scalars in full, containers
/// checked and stepped over.
enum Item<'a> {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float,
    Str(Cow<'a, str>),
    Container,
}

struct Decoder<'a> {
    text: &'a str,
    pos: usize,
    /// The first reason the line, though JSON, is not a request. Decoding
    /// carries on to the end of the line after it, because a later syntax
    /// error still makes the line not JSON, and takes the echoed id away.
    invalid: Option<String>,
}

impl<'a> Decoder<'a> {
    /// The envelope, decoded into `into`. The first copy of each member
    /// counts; `null` and invalid values leave the field at its default.
    /// Returns whether a valid `request` member was seen.
    fn envelope(&mut self, into: &mut BorrowedRequest<'a>) -> Result<bool, Syntax> {
        self.ws();
        if self.peek() != Some(b'{') {
            self.item()?;
            self.mark_invalid(|| "expected a request object".to_string());
            return Ok(false);
        }
        let (mut id, mut request, mut dispatch) = (false, None, false);
        self.object(|d, key| {
            match &*key {
                "id" if !id => {
                    id = true;
                    into.id = d.uint("id")?;
                }
                "request" if request.is_none() => request = Some(d.decision_request(into)?),
                "dispatch" if !dispatch => {
                    dispatch = true;
                    into.dispatch = match d.item()? {
                        Item::Null => false,
                        Item::Bool(b) => b,
                        _ => {
                            d.mark_invalid(|| "bad dispatch flag".to_string());
                            false
                        }
                    };
                }
                _ => {
                    d.item()?;
                }
            }
            Ok(())
        })?;
        Ok(request == Some(true))
    }

    /// The `request` member's fields, decoded into `into`; returns whether
    /// they make a valid request.
    fn decision_request(&mut self, into: &mut BorrowedRequest<'a>) -> Result<bool, Syntax> {
        if self.peek() != Some(b'{') {
            self.item()?;
            self.mark_invalid(|| "request is not an object".to_string());
            return Ok(false);
        }
        // Each member's first copy counts; `region` also records whether
        // it was a string.
        let mut region: Option<bool> = None;
        let (mut binding, mut policy, mut deadline) = (false, false, false);
        self.object(|d, key| {
            match &*key {
                "region" if region.is_none() => {
                    region = Some(match d.item()? {
                        Item::Str(s) => {
                            into.region = s;
                            true
                        }
                        _ => {
                            d.mark_invalid(|| "region is not a string".to_string());
                            false
                        }
                    })
                }
                "binding" if !binding => {
                    binding = true;
                    d.binding(&mut into.binding)?;
                }
                "policy_override" if !policy => {
                    policy = true;
                    into.policy_override = match d.item()? {
                        Item::Null => None,
                        Item::Str(s) => {
                            let parsed = Policy::parse(&s);
                            if parsed.is_none() {
                                d.mark_invalid(|| format!("unknown policy {s:?}"));
                            }
                            parsed
                        }
                        _ => {
                            d.mark_invalid(|| "policy_override is not a string".to_string());
                            None
                        }
                    };
                }
                "deadline_ns" if !deadline => {
                    deadline = true;
                    into.deadline = d.uint("deadline_ns")?.map(Duration::from_nanos);
                }
                _ => {
                    d.item()?;
                }
            }
            Ok(())
        })?;
        if region.is_none() {
            self.mark_invalid(|| "missing field: region".to_string());
        }
        if !binding {
            self.mark_invalid(|| "missing field: binding".to_string());
        }
        Ok(region == Some(true) && binding)
    }

    /// The `binding` member, its entries appended to `into`: every entry
    /// must be an integer in `i64` range. Entries are kept in order, so a
    /// repeated name reads as its last value.
    fn binding(&mut self, into: &mut BorrowedBinding<'a>) -> Result<(), Syntax> {
        if self.peek() != Some(b'{') {
            self.item()?;
            self.mark_invalid(|| "binding is not an object".to_string());
            return Ok(());
        }
        self.object(|d, name| {
            match d.item()? {
                Item::Int(n) => into.push(name, n),
                Item::UInt(n) => match i64::try_from(n) {
                    Ok(n) => into.push(name, n),
                    Err(_) => d.mark_invalid(|| format!("binding {name} out of range: {n}")),
                },
                _ => d.mark_invalid(|| format!("binding {name} is not an integer")),
            }
            Ok(())
        })
    }

    /// An optional unsigned member (`id`, `deadline_ns`): `null` is none,
    /// an integer in `u64` range is kept (`-0` too, as serde converts it),
    /// anything else is invalid.
    fn uint(&mut self, field: &'static str) -> Result<Option<u64>, Syntax> {
        Ok(match self.item()? {
            Item::Null => None,
            Item::UInt(n) => Some(n),
            Item::Int(n) if n >= 0 => Some(n.unsigned_abs()),
            _ => {
                self.mark_invalid(|| format!("{field} is not an unsigned integer"));
                None
            }
        })
    }

    fn mark_invalid(&mut self, message: impl FnOnce() -> String) {
        if self.invalid.is_none() {
            self.invalid = Some(message());
        }
    }

    /// Calls `member` with each key of the object at the cursor, with the
    /// cursor at the key's value; `member` must consume that value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Syntax>,
    ) -> Result<(), Syntax> {
        self.pos += 1;
        self.ws();
        if self.eat(b"}") {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            member(self, key)?;
            self.ws();
            match self.bump() {
                Some(b',') => self.ws(),
                Some(b'}') => return Ok(()),
                _ => return Err(self.unexpected("',' or '}' in an object")),
            }
        }
    }

    /// A member's key and its colon, leaving the cursor at the value.
    fn key(&mut self) -> Result<Cow<'a, str>, Syntax> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected("a key"));
        }
        let key = self.string()?;
        self.ws();
        if !self.eat(b":") {
            return Err(self.unexpected("':'"));
        }
        self.ws();
        Ok(key)
    }

    /// The value at the cursor.
    fn item(&mut self) -> Result<Item<'a>, Syntax> {
        Ok(match self.peek() {
            Some(b'{' | b'[') => {
                self.skip_container()?;
                Item::Container
            }
            Some(b'"') => Item::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(b'n') if self.eat(b"null") => Item::Null,
            Some(b't') if self.eat(b"true") => Item::Bool(true),
            Some(b'f') if self.eat(b"false") => Item::Bool(false),
            _ => return Err(self.unexpected("a value")),
        })
    }

    /// Steps over the object or array at the cursor, checking its syntax.
    /// `open` holds the closing byte of each container entered, so depth
    /// costs heap, not call stack.
    fn skip_container(&mut self) -> Result<(), Syntax> {
        let mut open: Vec<u8> = Vec::new();
        loop {
            // The cursor is at a value.
            match self.peek() {
                Some(first @ (b'{' | b'[')) => {
                    self.pos += 1;
                    self.ws();
                    let close = if first == b'{' { b'}' } else { b']' };
                    if !self.eat(&[close]) {
                        open.push(close);
                        if close == b'}' {
                            self.key()?;
                        }
                        continue;
                    }
                }
                _ => {
                    self.item()?;
                }
            }
            // After a value: close what it ended, or go on to the next one.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                self.ws();
                match self.bump() {
                    Some(b',') => {
                        self.ws();
                        if close == b'}' {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        open.pop();
                    }
                    _ => return Err(self.unexpected("',' or a closing bracket")),
                }
            }
        }
    }

    /// The string literal at the cursor. It is borrowed from the line when
    /// it has no escapes; plain runs are found and copied whole, so each
    /// byte is looked at once.
    fn string(&mut self) -> Result<Cow<'a, str>, Syntax> {
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Syntax("unterminated string".to_string()))?;
            // Both ends sit next to an ASCII byte (a quote, a backslash,
            // or the last of an escape), so they are character boundaries.
            let plain = &self.text[start..start + run];
            self.pos = start + run + 1;
            if self.text.as_bytes()[start + run] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut s) => {
                        s.push_str(plain);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(plain);
            s.push(self.escape()?);
        }
    }

    /// The character an escape stands for; the cursor is past its
    /// backslash. `\u` takes four bytes through `u32::from_str_radix`, as
    /// the vendored `serde_json` does, and a lone surrogate is refused.
    fn escape(&mut self) -> Result<char, Syntax> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .text
                    .as_bytes()
                    .get(self.pos..self.pos + 4)
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| Syntax("bad \\u escape".to_string()))?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| Syntax("bad \\u code point".to_string()))?
            }
            _ => return Err(Syntax(format!("bad escape before byte {}", self.pos))),
        })
    }

    /// The number at the cursor, read as the vendored `serde_json` reads
    /// it: an optional minus, then a run of digits and `.eE+-`. Any of
    /// `.eE+-` in the run makes it a float; otherwise it is signed when it
    /// starts with a minus. The run then goes through std's parser.
    fn number(&mut self) -> Result<Item<'a>, Syntax> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let item = if float {
            text.parse::<f64>().ok().map(|_| Item::Float)
        } else if text.starts_with('-') {
            text.parse().ok().map(Item::Int)
        } else {
            text.parse().ok().map(Item::UInt)
        };
        item.ok_or_else(|| Syntax(format!("invalid number at byte {start}")))
    }

    /// Checks that only whitespace follows the envelope.
    fn end(&mut self) -> Result<(), Syntax> {
        self.ws();
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.unexpected("the end of the line")),
        }
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += usize::from(b.is_some());
        b
    }

    fn eat(&mut self, word: &[u8]) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    fn unexpected(&self, wanted: &str) -> Syntax {
        match self.peek() {
            Some(b) => Syntax(format!(
                "expected {wanted} at byte {}, found {:?}",
                self.pos,
                char::from(b)
            )),
            None => Syntax(format!("expected {wanted}, found the end of the line")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_ir::Binding;

    #[test]
    fn request_envelope_round_trips() {
        let req = ServeRequest::new(DecisionRequest::new(
            "gemm",
            Binding::new().with("ni", 1024),
        ))
        .with_id(7)
        .with_dispatch();
        let json = serde_json::to_string(&req).unwrap();
        let back: ServeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        // id and dispatch are optional on the wire.
        let min = r#"{"request":{"region":"atax","binding":{}}}"#;
        let back: ServeRequest = serde_json::from_str(min).unwrap();
        assert_eq!(back.id, None);
        assert!(!back.dispatch);
        assert_eq!(back.request.region(), "atax");
    }

    #[test]
    fn malformed_lines_become_typed_error_replies() {
        for line in [
            "",
            "not json",
            "{}",
            "[1,2,3]",
            r#"{"id":3}"#,
            r#"{"request":{"region":42,"binding":{}}}"#,
            r#"{"id":"x","request":{"region":"gemm","binding":{}}}"#,
        ] {
            let reply = parse_request_line(line).expect_err("must not parse");
            assert_eq!(reply.status(), "error");
        }
        // A parsable id survives into the error reply.
        let reply = parse_request_line(r#"{"id":3}"#).expect_err("no request field");
        assert_eq!(reply.id(), Some(3));
    }

    #[test]
    fn shed_reasons_have_stable_spellings() {
        for r in [
            ShedReason::QueueFull,
            ShedReason::DeadlineExpired,
            ShedReason::ShuttingDown,
        ] {
            assert_eq!(ShedReason::parse(r.metric_key()), Some(r));
            assert_ne!(r.code(), 0, "0 is the no-shed detail byte");
        }
        assert_eq!(ShedReason::parse("nonsense"), None);
    }
}
