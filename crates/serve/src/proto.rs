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

use std::io::Write;

use hetsel_core::{Decision, DecisionRequest, DispatchOutcome};
use serde::{Deserialize, Serialize, Value};

/// Why the server refused to evaluate a request. The ordinal doubles as
/// the flight-recorder `detail` byte on
/// [`EventKind::Shed`](hetsel_obs::EventKind::Shed) events, mirroring how
/// dispatch encodes `FallbackReason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity when the request arrived.
    QueueFull,
    /// The request's deadline expired (real timer, not a post-hoc check)
    /// before the batcher evaluated it, or had already expired on arrival.
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
        ReplyDecision {
            region: d.region.to_string(),
            device: d.device.name().to_string(),
            device_name: d.device_name.to_string(),
            policy: d.policy.name().to_string(),
            predicted_cpu_s: d.predicted_cpu_s,
            predicted_gpu_s: d.predicted_gpu_s,
            calibrated: d.calibration.is_some_and(|t| t.applied),
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
        out.extend_from_slice(b"{\"id\":");
        match self.id() {
            Some(id) => write_uint(out, id),
            None => out.extend_from_slice(b"null"),
        }
        out.extend_from_slice(b",\"status\":");
        write_str(out, self.status());
        match self {
            ServeReply::Ok {
                decision,
                degraded,
                dispatched,
                ..
            } => {
                out.extend_from_slice(b",\"decision\":");
                decision.write_json(out);
                out.extend_from_slice(b",\"degraded\":");
                write_bool(out, *degraded);
                out.extend_from_slice(b",\"dispatched\":");
                match dispatched {
                    Some(d) => d.write_json(out),
                    None => out.extend_from_slice(b"null"),
                }
            }
            ServeReply::Shed {
                reason, decision, ..
            } => {
                out.extend_from_slice(b",\"reason\":");
                write_str(out, reason.metric_key());
                out.extend_from_slice(b",\"decision\":");
                decision.write_json(out);
            }
            ServeReply::Error { message, .. } => {
                out.extend_from_slice(b",\"message\":");
                write_str(out, message);
            }
        }
        out.push(b'}');
    }
}

impl ReplyDecision {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"region\":");
        write_str(out, &self.region);
        out.extend_from_slice(b",\"device\":");
        write_str(out, &self.device);
        out.extend_from_slice(b",\"device_name\":");
        write_str(out, &self.device_name);
        out.extend_from_slice(b",\"policy\":");
        write_str(out, &self.policy);
        out.extend_from_slice(b",\"predicted_cpu_s\":");
        write_opt_f64(out, self.predicted_cpu_s);
        out.extend_from_slice(b",\"predicted_gpu_s\":");
        write_opt_f64(out, self.predicted_gpu_s);
        out.extend_from_slice(b",\"calibrated\":");
        write_bool(out, self.calibrated);
        out.push(b'}');
    }
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

fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

fn write_uint(out: &mut Vec<u8>, v: u64) {
    write!(out, "{v}").expect("writing to a Vec cannot fail");
}

/// A float as `serde_json` writes it: `Debug`, the shortest form that
/// parses back to the same bits; `null` for none and for NaN and ±∞,
/// which JSON cannot spell.
fn write_opt_f64(out: &mut Vec<u8>, x: Option<f64>) {
    match x {
        Some(x) if x.is_finite() => write!(out, "{x:?}").expect("writing to a Vec cannot fail"),
        _ => out.extend_from_slice(b"null"),
    }
}

/// A JSON string literal with `serde_json`'s escapes: `\"`, `\\`, `\n`,
/// `\r` and `\t` by name, every other control byte as `\u00XX`, and
/// everything else — multi-byte UTF-8 included — verbatim.
fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let named: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(named);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
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

/// Parses one request line. Returns the typed error reply (never panics)
/// when the line is not a valid request; blank lines are the caller's
/// business (transports skip them). The error side is boxed: replies are
/// wide (they carry a whole degraded decision in the shed arm) and the
/// refusal path is cold.
pub fn parse_request_line(line: &str) -> Result<ServeRequest, Box<ServeReply>> {
    match serde_json::from_str::<ServeRequest>(line) {
        Ok(req) => Ok(req),
        Err(e) => {
            // Best-effort id recovery so even a reply to a half-broken
            // line correlates, when the envelope's id did parse.
            let id = serde_json::from_str::<Value>(line)
                .ok()
                .and_then(|v| match v.get("id") {
                    Some(Value::UInt(n)) => Some(*n),
                    Some(Value::Int(n)) => u64::try_from(*n).ok(),
                    _ => None,
                });
            Err(Box::new(ServeReply::error(id, format!("bad request: {e}"))))
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
