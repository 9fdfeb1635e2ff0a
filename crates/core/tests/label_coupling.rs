//! Satellite pin: one interned fleet label is the single source of truth
//! for every spelling of a device's name — the decision, the explain
//! struct and its JSON, the metric names, and the dispatch outcome. A
//! custom label must show up verbatim in all of them, and the hot-path
//! carriers must share the very same `Arc<str>` allocation (no copy can
//! ever drift from the registered spelling).

use hetsel_core::{
    DecisionEngine, DecisionRequest, Device, DeviceId, Dispatcher, DispatcherConfig, Fleet,
    Platform, Selector,
};
use hetsel_polybench::{find_kernel, Dataset};
use std::sync::Arc;

#[test]
fn one_interned_label_names_the_device_everywhere() {
    let platform = Platform::power9_v100();
    let fleet = Fleet::pair_labeled(&platform, "v100");
    let label: Arc<str> = fleet.label_arc(DeviceId(1)).expect("accel exists").clone();
    let (kernel, binding) = find_kernel("gemm").expect("gemm is in the suite");
    let b = binding(Dataset::Benchmark);
    let engine = DecisionEngine::new(
        Selector::new(platform).with_fleet(fleet),
        std::slice::from_ref(&kernel),
    );

    let reg = hetsel_obs::registry();
    let decisions_before = reg.counter("hetsel.core.decisions.v100").get();

    // The decision's name IS the registered label, pointer-for-pointer,
    // and the decision counter is named after the same spelling.
    let d = engine.decide("gemm", &b).expect("gemm is known");
    assert_eq!(
        d.device_id.kind(),
        Device::Gpu,
        "gemm offloads under Benchmark"
    );
    assert!(
        Arc::ptr_eq(&d.device_name, &label),
        "label was re-allocated"
    );
    assert_eq!(
        reg.counter("hetsel.core.decisions.v100").get(),
        decisions_before + 1,
        "decision counter is not derived from the fleet label"
    );

    // The explain struct and its JSON rendering spell it identically.
    let e = engine.explain("gemm", &b).expect("gemm is known");
    assert_eq!(e.device_name, "v100");
    assert!(e
        .devices
        .iter()
        .any(|p| p.name == "v100" && p.kind == "accelerator"));
    let report = hetsel_core::ExplainReport {
        platform: "POWER9 + V100 (NVLink2)".to_string(),
        dataset: "benchmark".to_string(),
        explanations: vec![e],
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("v100"), "label missing from explain JSON");
    hetsel_core::validate_report_json(&json).expect("explain JSON validates");

    // The dispatcher's outcome, its breaker metrics, and the per-device
    // accuracy/flight-recorder counters all reuse the label.
    let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
    hetsel_obs::set_flight_recording(true);
    let flight_before = reg.counter("hetsel.core.flight.v100.events").get();
    let samples_before = reg.counter("hetsel.core.accuracy.v100.samples").get();
    let outcome = dispatcher
        .dispatch(&DecisionRequest::new("gemm", b))
        .expect("dispatch succeeds");
    hetsel_obs::set_flight_recording(false);
    assert!(Arc::ptr_eq(&outcome.device_name, &label));
    assert_eq!(
        reg.counter("hetsel.core.flight.v100.events").get(),
        flight_before + 1,
        "flight event counter is not derived from the fleet label"
    );
    assert_eq!(
        reg.counter("hetsel.core.accuracy.v100.samples").get(),
        samples_before + 1,
        "accuracy sample counter is not derived from the fleet label"
    );
    assert!(
        hetsel_obs::accuracy().lookup("gemm", "v100").is_some(),
        "observatory rows are keyed by the registered label"
    );
    assert!(
        hetsel_obs::flight_recorder()
            .drain()
            .iter()
            .any(|ev| ev.device == 1 && ev.region_str() == "gemm"),
        "drained flight events carry the dispatched region and device id"
    );
    dispatcher.publish_health_all();
    let snapshot = reg.snapshot();
    let gauges: Vec<&str> = snapshot.gauges.iter().map(|(n, _)| n.as_str()).collect();
    assert!(gauges.contains(&"hetsel.core.breaker.v100.state"));
    assert!(gauges.contains(&"hetsel.core.breaker.host.state"));
}
