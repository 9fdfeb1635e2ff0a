//! Public-API surface snapshot for the umbrella crate.
//!
//! Every name and signature the prelude and the redesigned request API
//! promise is pinned here as a *typed* reference — removing an item,
//! changing a signature, or renaming a fleet builder breaks this file at
//! compile time, which is the point: downstream code holds exactly these
//! references. The runtime assertions at the bottom snapshot the name list
//! itself so an accidental rename shows up as a readable diff.

#![allow(clippy::type_complexity)] // the exact signatures ARE the snapshot

use std::time::Duration;

use std::sync::Arc;

use hetsel::core::{
    AcceleratorDevice, BreakerConfig, DeviceHealthSnapshot, DevicePrediction, DispatchTerms,
    RegionAttributes, RetryConfig,
};
use hetsel::models::GpuModelParams;
use hetsel::prelude::*;

/// Pin a function item to an explicit pointer type. The turbofish-free
/// assignment is the whole test: it fails to compile if the signature
/// drifts.
macro_rules! pin {
    ($ty:ty, $value:expr) => {{
        let pinned: $ty = $value;
        let _ = pinned;
    }};
}

#[test]
fn the_request_api_surface_is_stable() {
    // --- DecisionRequest: the redesigned request type ------------------
    pin!(fn(String, Binding) -> DecisionRequest, DecisionRequest::new);
    pin!(
        fn(DecisionRequest, Policy) -> DecisionRequest,
        DecisionRequest::with_policy
    );
    pin!(
        fn(DecisionRequest, Duration) -> DecisionRequest,
        DecisionRequest::with_deadline
    );
    pin!(
        fn(DecisionRequest) -> DecisionRequest,
        DecisionRequest::without_policy
    );
    pin!(
        fn(DecisionRequest) -> DecisionRequest,
        DecisionRequest::without_deadline
    );
    pin!(fn(&DecisionRequest) -> &str, DecisionRequest::region);
    pin!(fn(&DecisionRequest) -> &Binding, DecisionRequest::binding);
    pin!(
        fn(&DecisionRequest) -> Option<Policy>,
        DecisionRequest::policy_override
    );
    pin!(
        fn(&DecisionRequest) -> Option<Duration>,
        DecisionRequest::deadline
    );

    // --- Selector: the two canonical entry points ----------------------
    pin!(fn(Platform) -> Selector, Selector::new);
    pin!(fn(Selector, Policy) -> Selector, Selector::with_policy);
    pin!(
        fn(&Selector, &Kernel, &Binding) -> (Result<f64, ModelError>, Result<f64, ModelError>),
        Selector::predict::<Kernel>
    );
    pin!(
        fn(&Selector, &Kernel, &Binding) -> Decision,
        Selector::decide::<Kernel>
    );
    pin!(
        fn(&Selector, &RegionAttributes, &Binding) -> Decision,
        Selector::decide::<RegionAttributes>
    );

    // --- Calibration: the online feedback loop --------------------------
    pin!(
        fn(Selector, CalibrationMode) -> Selector,
        Selector::with_calibration
    );
    pin!(
        fn(Selector, Arc<Calibrator>) -> Selector,
        Selector::with_calibrator
    );
    pin!(fn(&Selector) -> CalibrationMode, Selector::calibration);
    pin!(fn(&Selector) -> &Arc<Calibrator>, Selector::calibrator);

    // --- Fleet: the N-device generalization -----------------------------
    pin!(fn() -> Fleet, Fleet::host_only);
    pin!(fn(&Platform) -> Fleet, Fleet::pair);
    pin!(fn(&Platform, &str) -> Fleet, Fleet::pair_labeled);
    pin!(
        fn(Fleet, &str, hetsel::gpusim::GpuDescriptor, GpuModelParams) -> Fleet,
        Fleet::with_accelerator
    );
    pin!(
        fn(Fleet, &str, &Platform) -> Fleet,
        Fleet::with_accelerator_from
    );
    pin!(fn(Fleet, &str, u32) -> Fleet, Fleet::with_capacity);
    pin!(fn(&Fleet, &str) -> Option<Fleet>, Fleet::restrict);
    pin!(fn(&Fleet, &str) -> Option<DeviceId>, Fleet::device_id_of);
    pin!(fn(&Fleet, DeviceId) -> Option<&str>, Fleet::label);
    pin!(fn(DeviceId) -> Device, DeviceId::kind);
    pin!(fn(&Fleet) -> &[AcceleratorDevice], Fleet::accelerators);
    pin!(fn(Selector, Fleet) -> Selector, Selector::with_fleet);
    pin!(fn(&Selector) -> &Fleet, Selector::fleet);
    pin!(
        fn(
            &Selector,
            &str,
            Option<Result<f64, ModelError>>,
            &[Option<Result<f64, ModelError>>],
        ) -> Decision,
        Selector::decide_from_outcomes
    );
    pin!(
        fn(&DecisionEngine, &str, &Binding, DeviceId) -> Option<Decision>,
        DecisionEngine::decide_for
    );

    // --- DecisionEngine: request-level entry points ---------------------
    pin!(
        fn(Selector, &[Kernel]) -> DecisionEngine,
        DecisionEngine::new
    );
    pin!(
        fn(&DecisionEngine, &str, &Binding) -> Option<Decision>,
        DecisionEngine::decide
    );
    pin!(
        fn(&DecisionEngine, &DecisionRequest) -> Option<Decision>,
        DecisionEngine::decide_request
    );
    pin!(
        fn(&DecisionEngine, &str) -> Option<Decision>,
        DecisionEngine::degraded
    );
    pin!(
        fn(&DecisionEngine, &str, &Binding) -> Option<Explanation>,
        DecisionEngine::explain
    );
    pin!(
        fn(&DecisionEngine, &str, &Binding) -> Option<(Decision, Explanation)>,
        DecisionEngine::decide_explained
    );

    // --- Dispatcher: the fault-tolerant runtime -------------------------
    pin!(
        fn(DecisionEngine, DispatcherConfig) -> Dispatcher,
        Dispatcher::new
    );
    pin!(
        fn(&Dispatcher, &DecisionRequest) -> Result<DispatchOutcome, DispatchError>,
        Dispatcher::dispatch
    );
    pin!(
        fn(&Dispatcher, &DecisionRequest) -> Result<(DispatchOutcome, Explanation), DispatchError>,
        Dispatcher::dispatch_explained
    );
    pin!(fn(&Dispatcher) -> &DecisionEngine, Dispatcher::engine);
    pin!(
        fn(&Dispatcher, DeviceId) -> Option<BreakerState>,
        Dispatcher::breaker_state_by_id
    );
    pin!(
        fn(&Dispatcher, DeviceId) -> Option<DeviceHealthSnapshot>,
        Dispatcher::health_by_id
    );
    pin!(
        fn(&Dispatcher) -> Vec<DeviceHealthSnapshot>,
        Dispatcher::publish_health_all
    );

    // --- DispatcherConfig builders --------------------------------------
    pin!(
        fn(DispatcherConfig, &str, FaultPlan) -> DispatcherConfig,
        DispatcherConfig::with_device_faults
    );
    pin!(
        fn(DispatcherConfig, BreakerConfig) -> DispatcherConfig,
        DispatcherConfig::with_breaker
    );
    pin!(
        fn(DispatcherConfig, RetryConfig) -> DispatcherConfig,
        DispatcherConfig::with_retry
    );

    // --- FaultPlan constructors ------------------------------------------
    pin!(fn() -> FaultPlan, FaultPlan::none);
    pin!(fn(u64, f64) -> FaultPlan, FaultPlan::transient);
    pin!(fn(u64, f64) -> FaultPlan, FaultPlan::permanent);
    pin!(fn(FaultPlan, f64) -> FaultPlan, FaultPlan::with_jitter);
}

#[test]
fn the_public_enums_carry_their_promised_variants() {
    // `#[non_exhaustive]` lets these grow, but the documented variants must
    // not disappear. Constructing each one pins it.
    let _ = [Device::Host, Device::Gpu];
    let _ = [
        Policy::ModelDriven,
        Policy::AlwaysHost,
        Policy::AlwaysOffload,
    ];
    let _ = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];
    let _ = [
        CalibrationMode::Off,
        CalibrationMode::Shadow,
        CalibrationMode::Active,
    ];
    let _ = [FaultKind::Transient, FaultKind::Permanent];
    let _ = [DeviceId::HOST, DeviceId(1)];
    let _ = [
        FallbackReason::DeadlineExceeded,
        FallbackReason::BreakerOpen {
            device: DeviceId(1),
        },
        FallbackReason::CapacityExhausted {
            device: DeviceId(1),
        },
        FallbackReason::DeviceFault {
            device: DeviceId(1),
            kind: FaultKind::Transient,
        },
    ];
    let errors = [
        DispatchError::UnknownRegion { region: "r".into() },
        DispatchError::AllDevicesFailed { region: "r".into() },
        DispatchError::Unsimulatable { region: "r".into() },
    ];
    // DispatchError implements the std error traits.
    for e in &errors {
        let _: &dyn std::error::Error = e;
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn the_prelude_name_list_is_the_documented_snapshot() {
    // Compile-time presence check for every prelude name (a `use` of each,
    // so a removal or a rename fails loudly), plus the sorted-list snapshot
    // that makes the diff readable when this test does fail.
    #[rustfmt::skip]
    const PRELUDE: &[&str] = &[
        "AttributeDatabase", "Binding", "BreakerState", "CalibrationMode", "Calibrator",
        "CompiledModel", "CostModel", "Decision", "DecisionEngine", "DecisionRequest",
        "Device", "DeviceId", "DispatchError", "DispatchOutcome", "Dispatcher",
        "DispatcherConfig", "Explanation", "Expr", "FallbackReason", "FaultKind",
        "FaultPlan", "Fleet", "Kernel", "KernelBuilder", "ModelError",
        "Platform", "Policy", "Prediction", "Selector", "Transfer",
        "cexpr",
    ];
    let mut sorted = PRELUDE.to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, PRELUDE, "keep the snapshot sorted");

    // One reference per name; `hetsel::prelude` must export all of them.
    // The model traits are not object-safe (associated types), so they are
    // pinned as generic bounds.
    use hetsel::prelude as p;
    fn _pins_cost_model<M: p::CostModel>() {}
    fn _pins_compiled_model<M: p::CompiledModel>() {}
    let _ = (
        std::any::type_name::<p::AttributeDatabase>(),
        std::any::type_name::<p::Binding>(),
        std::any::type_name::<p::BreakerState>(),
        std::any::type_name::<p::CalibrationMode>(),
        std::any::type_name::<p::Calibrator>(),
        std::any::type_name::<p::Decision>(),
        std::any::type_name::<p::DecisionEngine>(),
        std::any::type_name::<p::DecisionRequest>(),
        std::any::type_name::<p::Device>(),
        std::any::type_name::<p::DeviceId>(),
        std::any::type_name::<p::DispatchError>(),
        std::any::type_name::<p::DispatchOutcome>(),
        std::any::type_name::<p::Dispatcher>(),
        std::any::type_name::<p::DispatcherConfig>(),
        std::any::type_name::<p::Explanation>(),
        std::any::type_name::<p::Expr>(),
        std::any::type_name::<p::FallbackReason>(),
        std::any::type_name::<p::FaultKind>(),
        std::any::type_name::<p::FaultPlan>(),
        std::any::type_name::<p::Fleet>(),
        std::any::type_name::<p::Kernel>(),
        std::any::type_name::<p::KernelBuilder>(),
        std::any::type_name::<p::ModelError>(),
        std::any::type_name::<p::Platform>(),
        std::any::type_name::<p::Policy>(),
        std::any::type_name::<p::Prediction>(),
        std::any::type_name::<p::Selector>(),
        std::any::type_name::<p::Transfer>(),
        p::cexpr::scalar("n"),
    );
}

#[test]
fn device_predictions_mirror_the_documented_json_schema() {
    // The explain schema's per-candidate block: exactly these fields,
    // these types. A struct literal is an exhaustive field check.
    let row = DevicePrediction {
        name: "v100".to_string(),
        kind: "accelerator".to_string(),
        predicted_s: Some(1e-3),
        error: None,
    };
    let json = serde_json::to_string(&row).expect("serializes");
    for key in ["\"name\"", "\"kind\"", "\"predicted_s\"", "\"error\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn dispatch_terms_mirror_the_documented_json_schema() {
    // The explain schema's dispatch block: exactly these fields, these
    // types. A struct literal is an exhaustive field check.
    let terms = DispatchTerms {
        device: "gpu".to_string(),
        attempts: 1,
        retries: 0,
        fallback: None,
        simulated_s: 1e-3,
        gpu_breaker: "closed".to_string(),
        cpu_breaker: "closed".to_string(),
    };
    let json = serde_json::to_string(&terms).expect("serializes");
    for key in [
        "\"device\"",
        "\"attempts\"",
        "\"retries\"",
        "\"fallback\"",
        "\"simulated_s\"",
        "\"gpu_breaker\"",
        "\"cpu_breaker\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
