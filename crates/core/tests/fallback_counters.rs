//! The fallback counters, in a test binary of their own: they are
//! process-wide, and a sibling test deciding or dispatching on another
//! thread would move them.
//!
//! A model-driven decision counts each failed model once under
//! `hetsel.core.fallback.<reason>`, and a dispatch counts each fallback
//! once under `hetsel.core.dispatch.fallback.<reason>`, where `<reason>`
//! is the failure's `metric_key`. An explanation counts nothing.
//!
//! The tests take [`SERIAL`] so that neither moves a counter while the
//! other reads it.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hetsel_core::{
    BreakerConfig, CalibrationMode, Calibrator, CalibratorConfig, DecisionEngine, DecisionRequest,
    Dispatcher, DispatcherConfig, Fleet, Platform, Policy, Selector,
};
use hetsel_fault::FaultPlan;
use hetsel_ir::Binding;
use hetsel_models::ModelError;
use hetsel_obs::Counter;
use hetsel_polybench::{find_kernel, Dataset};

static SERIAL: Mutex<()> = Mutex::new(());

fn model_fallbacks(err: &ModelError) -> Arc<Counter> {
    hetsel_obs::registry().counter(&format!("hetsel.core.fallback.{}", err.metric_key()))
}

/// Dispatches `request` and checks that its outcome fell back for
/// `reason` and that `reason`'s counter moved by exactly one.
fn dispatch_falls_back_once(dispatcher: &Dispatcher, request: &DecisionRequest, reason: &str) {
    let counter =
        hetsel_obs::registry().counter(&format!("hetsel.core.dispatch.fallback.{reason}"));
    let before = counter.get();
    let outcome = dispatcher.dispatch(request).expect("the host completes it");
    assert_eq!(outcome.fallback.map(|f| f.metric_key()), Some(reason));
    assert_eq!(counter.get(), before + 1, "{reason}");
}

#[test]
fn each_failure_counts_once_under_its_reason() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let kernels = std::slice::from_ref(&kernel);
    let platform = Platform::power9_v100();
    let pair = Selector::new(platform.clone());

    // gemm without `n`: every model the decision consults fails unbound.
    let unbound = model_fallbacks(&ModelError::UnboundSymbol { name: "n".into() });
    let before = unbound.get();
    let decision = pair.decide(&kernel, &Binding::new());
    assert!(matches!(
        decision.cpu_error,
        Some(ModelError::UnboundSymbol { .. })
    ));
    assert_eq!(unbound.get(), before + 2, "the host and one accelerator");
    let trio = pair
        .clone()
        .with_fleet(Fleet::pair(&platform).with_accelerator_from("k80", &Platform::power8_k80()));
    let before = unbound.get();
    trio.decide(&kernel, &Binding::new());
    assert_eq!(unbound.get(), before + 3, "the host and two accelerators");
    // A policy that consults no model counts nothing, and an engine counts
    // an evaluation, not the cache hit that replays it.
    let before = unbound.get();
    pair.clone()
        .with_policy(Policy::AlwaysHost)
        .decide(&kernel, &Binding::new());
    assert_eq!(unbound.get(), before);
    let engine = DecisionEngine::new(pair.clone(), kernels);
    engine.decide("gemm", &Binding::new()).unwrap();
    engine.decide("gemm", &Binding::new()).unwrap();
    assert_eq!(unbound.get(), before + 2);

    // A non-finite prediction counts under its own reason.
    let non_finite = model_fallbacks(&ModelError::non_finite(f64::NAN));
    let before = non_finite.get();
    pair.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[Some(Ok(1.0))]);
    assert_eq!(non_finite.get(), before + 1);

    // Dispatch: a permanent accelerator fault trips its breaker at once,
    // and the open breaker then refuses the accelerator.
    let request = DecisionRequest::new("gemm", binding(Dataset::Benchmark));
    let faulty = Dispatcher::new(
        DecisionEngine::new(pair.clone(), kernels),
        DispatcherConfig::default()
            .with_device_faults("gpu", FaultPlan::permanent(7, 1.0))
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                open_backoff: 1_000,
                max_backoff: 1_000,
            }),
    );
    dispatch_falls_back_once(&faulty, &request, "device_fault");
    dispatch_falls_back_once(&faulty, &request, "breaker_open");
    let healthy = Dispatcher::new(
        DecisionEngine::new(pair.clone(), kernels),
        DispatcherConfig::default(),
    );
    dispatch_falls_back_once(
        &healthy,
        &request.clone().with_deadline(Duration::ZERO),
        "deadline_exceeded",
    );
    let gated = Dispatcher::new(
        DecisionEngine::new(
            pair.with_fleet(Fleet::pair(&platform).with_capacity("gpu", 0)),
            kernels,
        ),
        DispatcherConfig::default(),
    );
    dispatch_falls_back_once(&gated, &request, "capacity_exhausted");
}

/// The counters a decision moves: one per device under
/// `hetsel.core.decisions.<label>`, one per failed model under
/// `hetsel.core.fallback.<reason>`, and the calibration flip counters.
fn decision_counters() -> Vec<(String, u64)> {
    hetsel_obs::registry()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("hetsel.core.decisions.")
                || name.starts_with("hetsel.core.fallback.")
                || name == "hetsel.core.calib.flip"
                || name == "hetsel.core.calib.shadow_flip"
        })
        .collect()
}

#[test]
fn explain_counts_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let cal = Arc::new(Calibrator::new(CalibratorConfig {
        min_samples: 1,
        max_abs_log: f64::INFINITY,
        epoch_threshold: 0.0,
        capacity: 256,
    }));
    let engine = |mode| {
        let selector = Selector::new(Platform::power9_v100())
            .with_calibration(mode)
            .with_calibrator(Arc::clone(&cal));
        DecisionEngine::new(selector, std::slice::from_ref(&kernel))
    };
    let (active, shadow) = (
        engine(CalibrationMode::Active),
        engine(CalibrationMode::Shadow),
    );
    // Warm the chosen device's cell with a 1000x misprediction: the
    // Active verdict flips, and the Shadow one would.
    let d = active.decide("gemm", &b).unwrap();
    let tag = d.calibration.unwrap();
    let raw = if d.device_id.is_host() {
        tag.raw_cpu_s
    } else {
        tag.raw_gpu_s
    }
    .unwrap();
    cal.observe("gemm", &d.device_name, tag.class, raw, raw * 1e3);

    let before = decision_counters();
    for engine in [&active, &shadow] {
        let unbound = engine.explain("gemm", &Binding::new()).unwrap();
        assert!(unbound.cpu_error.is_some() && unbound.gpu_error.is_some());
        let flipped = engine.explain("gemm", &b).unwrap();
        assert!(flipped.calibration.unwrap().flipped, "the cell is warm");
    }
    assert_eq!(
        decision_counters(),
        before,
        "explain moved a decision counter"
    );

    // The same flip through `decide` does count: the check above can see one.
    let flips = hetsel_obs::registry().counter("hetsel.core.calib.flip");
    let flips_before = flips.get();
    assert!(
        active
            .decide("gemm", &b)
            .unwrap()
            .calibration
            .unwrap()
            .flipped
    );
    assert_eq!(flips.get(), flips_before + 1);
}
