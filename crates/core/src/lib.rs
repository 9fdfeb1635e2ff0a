//! # hetsel-core — the hybrid decision framework
//!
//! The paper's primary contribution assembled: a **program attribute
//! database** populated at compile time with static features and symbolic
//! IPDA expressions ([`AttributeDatabase`]), a **platform** description
//! pairing the timing simulators with the analytical models' parameter
//! tables ([`Platform`]), and the **runtime selector** that binds runtime
//! values, evaluates both models, and dispatches the region to the
//! predicted-faster device ([`Selector`]).
//!
//! The crate also provides the evaluation machinery: simulate both targets
//! ("measure"), compare against the oracle, and aggregate policy outcomes —
//! everything the experiment binaries in `hetsel-bench` use to regenerate
//! the paper's tables and figures.

#![warn(missing_docs)]

pub mod attributes;
pub mod calib;
pub mod dispatch;
pub mod explain;
pub mod fleet;
pub mod history;
pub mod platform;
pub mod program;
pub mod selector;
pub mod snapshot;
pub mod split;
pub mod wire;

pub use attributes::{
    AccessExport, AttributeDatabase, CompiledModelRef, DatabaseExport, RegionAttributes,
    RegionExport,
};
pub use calib::{
    BindingClass, CalibRow, CalibrationMode, CalibrationTag, Calibrator, CalibratorConfig,
};
pub use dispatch::{
    BreakerConfig, BreakerState, DeviceHealthSnapshot, DispatchError, DispatchOutcome, Dispatcher,
    DispatcherConfig, FallbackReason, RetryConfig,
};
pub use explain::{
    validate_report_json, AccuracyBlock, BoundParam, CalibrationBlock, CpuTerms, DevicePrediction,
    DispatchTerms, ExplainReport, Explanation, GpuTerms, PhaseTimings,
};
pub use fleet::{AcceleratorDevice, DeviceId, DeviceKind, Fleet};
pub use history::AdaptiveSelector;
pub use platform::Platform;
pub use program::{plan_program, ProgramPlan};
pub use selector::{
    choose_among, choose_device, geomean, CacheMiss, CachedDecision, Decision, DecisionCacheStats,
    DecisionEngine, DecisionRequest, Device, DeviceChoice, Evaluation, Lookup, Measured,
    ModelSource, Policy, ResolvedRegion, Selector, DEFAULT_DECISION_CACHE, DEFAULT_DECISION_SHARDS,
};
pub use snapshot::SnapshotError;
pub use split::{best_split, SplitDecision};
