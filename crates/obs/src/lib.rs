//! # hetsel-obs — decision telemetry for the offloading framework
//!
//! The paper's selling point is that the dispatch decision is cheap enough
//! to take at every region launch; this crate makes every such decision
//! *observable* without giving that cheapness back. Four independent layers:
//!
//! * [`metrics`] — a process-wide registry of named [`Counter`]s,
//!   [`Gauge`]s and log-scale latency [`Histogram`]s (p50/p95/p99).
//!   Counters and gauges are always live (one relaxed RMW each); duration
//!   timers are gated behind [`metrics::set_timing`] so the instrumented
//!   cache-hit decision path never pays for a clock read it did not ask for.
//!   Their `*.ns` histograms are the one in-process timing mechanism.
//! * [`flight`] — the decision flight recorder: a fixed-capacity,
//!   lock-free ring of structured [`DecisionEvent`]s (verdicts, dispatch
//!   completions, fallbacks, breaker transitions), gated behind
//!   [`flight::set_flight_recording`] with the same one-relaxed-load
//!   disabled path.
//! * [`mod@accuracy`] — the accuracy observatory: per-`(region, device)`
//!   streaming predicted-vs-observed error statistics (Welford
//!   mean/variance, signed bias, misprediction-flip counter).
//! * [`export`] — the ops surface: Prometheus-style text exposition with
//!   a validator, versioned JSONL snapshots of all of the above, and
//!   snapshot diffing.
//!
//! Metric names follow the dotted `hetsel.<crate>.<name>` convention
//! documented in DESIGN.md §"Observability".

#![warn(missing_docs)]

pub mod accuracy;
pub mod export;
pub mod flight;
pub mod metrics;

pub use accuracy::{accuracy, AccuracyObservatory, AccuracyRow};
pub use export::{
    diff_snapshots, jsonl_snapshot, prometheus_exposition, validate_exposition, SnapshotDiff,
    SNAPSHOT_VERSION,
};
pub use flight::{
    flight_recorder, flight_recording_enabled, record_event, set_flight_recording, DecisionEvent,
    EventKind, FlightRecorder,
};
pub use metrics::{
    registry, shard_metric_name, Counter, Gauge, HistTimer, Histogram, HistogramSummary,
    MetricsSnapshot, Registry,
};

/// Escapes a string for inclusion in a JSON document (used by the
/// snapshot, flight-recorder and accuracy renderers).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Caches a registry handle in a function-local static so hot paths touch
/// the registry's lock exactly once per metric per process.
///
/// ```
/// let hits = hetsel_obs::static_counter!("hetsel.example.hits");
/// hits.inc();
/// ```
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// As [`static_counter!`] for histograms.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// As [`static_counter!`] for gauges.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::registry().gauge($name))
    }};
}
