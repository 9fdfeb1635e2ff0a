//! Integration tests for the framework extensions working together:
//! profile feedback layered over split/program planning, and the x86
//! platform driving the full stack.

use std::sync::Arc;

use hetsel_core::{
    best_split, plan_program, AdaptiveSelector, CalibRow, CalibrationMode, Calibrator,
    CalibratorConfig, Device, Platform, Selector,
};
use hetsel_ir::Binding;
use hetsel_polybench::{find_kernel, suite, Dataset};

#[test]
fn calibration_survives_serialisation_and_still_decides() {
    let platform = Platform::power9_v100();
    let adaptive = AdaptiveSelector::new(Selector::new(platform.clone()));
    let (kernel, binding) = find_kernel("3dconv").unwrap();
    let b = binding(Dataset::Benchmark);
    adaptive.run_and_learn(&kernel, &b).unwrap();
    assert_eq!(
        adaptive.select(&kernel, &b).device,
        Device::Gpu,
        "learned corrections flip the conv decision in-process"
    );

    // Persist the learned calibration corrections, restore them into a
    // fresh process-equivalent selector and decide again from the restored
    // corrections alone.
    let calib_json = serde_json::to_string(&adaptive.selector.calibrator().snapshot()).unwrap();

    let rows: Vec<CalibRow> = serde_json::from_str(&calib_json).unwrap();
    let restored_cal = Calibrator::new(CalibratorConfig::greedy());
    restored_cal.absorb(&rows);
    let adaptive2 = AdaptiveSelector {
        selector: Selector::new(platform)
            .with_calibration(CalibrationMode::Active)
            .with_calibrator(Arc::new(restored_cal)),
    };
    let d = adaptive2.select(&kernel, &b);
    assert_eq!(
        d.device,
        Device::Gpu,
        "restored corrections flip the conv decision"
    );
}

#[test]
fn history_is_binding_sensitive() {
    let platform = Platform::power9_v100();
    let adaptive = AdaptiveSelector::new(Selector::new(platform));
    let (kernel, binding) = find_kernel("3dconv").unwrap();
    adaptive
        .run_and_learn(&kernel, &binding(Dataset::Benchmark))
        .unwrap();
    // A different binding is a different configuration: back to the model.
    let d_model = adaptive.select(&kernel, &binding(Dataset::Test));
    let s_model = Selector::new(Platform::power9_v100()).decide(&kernel, &binding(Dataset::Test));
    assert_eq!(d_model.device, s_model.device);
}

#[test]
fn split_and_plan_are_consistent_with_the_binary_selector() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform.clone());
    for name in ["gemm", "2dconv", "corr.mean"] {
        let (kernel, binding) = find_kernel(name).unwrap();
        let b = binding(Dataset::Benchmark);
        let d = sel.decide(&kernel, &b);
        let s = best_split(&kernel, &b, &platform, 32).unwrap();
        // The split's endpoints reproduce the binary predictions' ordering.
        let split_prefers_gpu = s.gpu_only_s < s.host_only_s;
        assert_eq!(
            split_prefers_gpu,
            d.device == Device::Gpu,
            "{name}: split endpoints vs selector"
        );
    }
}

#[test]
fn program_plans_exist_for_every_program_on_every_platform() {
    for platform in [
        Platform::power8_k80(),
        Platform::power8_p100(),
        Platform::power9_v100(),
        Platform::xeon_v100(),
    ] {
        for b in suite() {
            let binding = (b.binding)(Dataset::Test);
            let p = plan_program(&b.kernels, &binding, &platform)
                .unwrap_or_else(|| panic!("{}: no plan on {}", b.name, platform.name));
            assert_eq!(p.assignments.len(), b.kernels.len());
            assert!(p.predicted_s.is_finite() && p.predicted_s > 0.0);
        }
    }
}

#[test]
fn xeon_platform_full_stack_on_mini() {
    let platform = Platform::xeon_v100();
    let sel = Selector::new(platform);
    for (_, kernel, binding) in hetsel_polybench::all_kernels() {
        let b = binding(Dataset::Mini);
        let e = sel.evaluate(&kernel, &b).expect("xeon stack runs");
        assert!(
            e.measured.cpu_s > 0.0 && e.measured.gpu_s > 0.0,
            "{}",
            kernel.name
        );
    }
}

#[test]
fn unresolved_program_returns_none() {
    let platform = Platform::power9_v100();
    let b = suite().remove(0);
    assert!(plan_program(&b.kernels, &Binding::new(), &platform).is_none());
}
