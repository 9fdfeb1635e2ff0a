//! End-to-end selection tests across the whole framework: attribute
//! database, models, simulators, and the runtime selector.

use hetsel::core::{AttributeDatabase, Device, Platform, Policy, Selector};
use hetsel::ir::{Binding, Kernel};
use hetsel::models::{CoalescingMode, TripMode};
use hetsel::polybench::{all_kernels, suite, Dataset};

#[test]
fn database_compiles_whole_suite_and_selector_decides_every_region() {
    let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
    let sel = Selector::new(Platform::power9_v100());
    let db = AttributeDatabase::compile(&kernels, &sel);
    assert_eq!(db.len(), 24);

    for (name, kernel, binding) in all_kernels() {
        let region = db
            .region(&kernel.name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let b = binding(Dataset::Mini);
        let d = sel.decide(region, &b);
        assert!(
            d.predicted_cpu_s.is_some() && d.predicted_gpu_s.is_some(),
            "{}: models must evaluate under a complete binding",
            kernel.name
        );
    }
}

#[test]
fn database_export_serializes_symbolic_strides() {
    let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
    let db = AttributeDatabase::compile(&kernels, &Selector::new(Platform::power9_v100()));
    let json = serde_json::to_string_pretty(&db.export()).unwrap();
    // The symbolic strides of the transposed walks survive serialisation.
    assert!(json.contains("[n]"));
    let back: hetsel::core::DatabaseExport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.regions.len(), 24);
}

#[test]
fn model_driven_beats_always_offload_on_mini() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform.clone());
    let mut model_time = 0.0;
    let mut offload_time = 0.0;
    let mut oracle_time = 0.0;
    for (_, kernel, binding) in all_kernels() {
        let b = binding(Dataset::Mini);
        let e = sel.evaluate(&kernel, &b).expect("simulators run");
        model_time += e.achieved_s();
        offload_time += e.measured.gpu_s;
        oracle_time += e.oracle_s();
    }
    // Mini inputs are pure overhead noise; require only sanity: the
    // selector stays within striking distance of the oracle and of blind
    // offloading (the substantive comparison lives in the paper-scale
    // model_accuracy tests and the fig8 binary).
    assert!(
        model_time <= offload_time * 2.0,
        "model {model_time} vs always-offload {offload_time}"
    );
    assert!(
        model_time <= oracle_time * 2.5,
        "model {model_time} vs oracle {oracle_time}"
    );
}

#[test]
fn policies_behave_as_labelled() {
    let (_, kernel, binding) = all_kernels().remove(0);
    let b = binding(Dataset::Mini);
    let p = Platform::power9_v100();
    assert_eq!(
        Selector::new(p.clone())
            .with_policy(Policy::AlwaysHost)
            .decide(&kernel, &b)
            .device_id
            .kind(),
        Device::Host
    );
    assert_eq!(
        Selector::new(p.clone())
            .with_policy(Policy::AlwaysOffload)
            .decide(&kernel, &b)
            .device_id
            .kind(),
        Device::Gpu
    );
}

#[test]
fn unresolved_bindings_fall_back_to_compiler_default() {
    let (_, kernel, _) = all_kernels().remove(0);
    let sel = Selector::new(Platform::power9_v100());
    let d = sel.decide(&kernel, &Binding::new());
    assert_eq!(d.device_id.kind(), Device::Gpu);
    assert!(d.predicted_cpu_s.is_none());
}

#[test]
fn selector_knobs_change_predictions() {
    let (kernel, binding) = hetsel::polybench::find_kernel("syrk").unwrap();
    let b = binding(Dataset::Test);
    let p = Platform::power9_v100();
    let ipda = Selector::new(p.clone()).predict(&kernel, &b).1.unwrap();
    let pess = Selector::new(p.clone())
        .with_coalescing(CoalescingMode::AssumeUncoalesced)
        .predict(&kernel, &b)
        .1
        .unwrap();
    assert!(
        pess >= ipda,
        "assume-uncoalesced must not be faster than IPDA"
    );

    let rt = Selector::new(p.clone()).predict(&kernel, &b).0.unwrap();
    let a128 = Selector::new(p)
        .with_trip_mode(TripMode::Assume128)
        .predict(&kernel, &b)
        .0
        .unwrap();
    // test-mode inner loops run 1100 iterations; the abstraction sees 128.
    assert!(rt > a128);
}

#[test]
fn decision_is_consistent_with_own_predictions() {
    let sel = Selector::new(Platform::power9_v100());
    for (_, kernel, binding) in all_kernels() {
        let b = binding(Dataset::Test);
        let d = sel.decide(&kernel, &b);
        let (c, g) = (d.predicted_cpu_s.unwrap(), d.predicted_gpu_s.unwrap());
        let expect = if g < c { Device::Gpu } else { Device::Host };
        assert_eq!(d.device_id.kind(), expect, "{}", kernel.name);
    }
}
