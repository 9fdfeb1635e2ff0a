//! The calibration equivalence and convergence contract.
//!
//! Off mode, cold (zero-sample) Shadow, and cold Active must be
//! *bit-for-bit* identical to the uncalibrated engine across the whole
//! Polybench suite — calibration is opt-in and pay-for-use. Shadow mode
//! with warm cells computes and records what it would change but never
//! alters a verdict. Active mode with a constant-bias oracle converges
//! to the oracle's bias, flips the verdict, and the flip is visible in
//! the metrics registry and the flight recorder.
//!
//! The `stress_*` variants are `#[ignore]`d sweeps picked up by the CI
//! release stress filter (`cargo test --release -p hetsel-core --
//! --ignored stress`).

use std::sync::Arc;

use hetsel_core::{
    CalibrationMode, Calibrator, CalibratorConfig, Decision, DecisionEngine, Device, Fleet,
    Platform, Selector,
};
use hetsel_polybench::{all_kernels, find_kernel, Dataset};

/// An unclamped, instantly-publishing calibrator profile for tests that
/// need warm cells after a single observation.
fn eager_config() -> CalibratorConfig {
    CalibratorConfig {
        min_samples: 1,
        max_abs_log: f64::INFINITY,
        epoch_threshold: 0.0,
        capacity: 256,
    }
}

/// Bitwise equality on the verdict-bearing fields. The calibration tag
/// itself is allowed to differ — Off mode carries none, Shadow carries
/// its would-be corrections.
fn same_verdict(a: &Decision, b: &Decision) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    a.device_id.kind() == b.device_id.kind()
        && a.device_id == b.device_id
        && a.device_name == b.device_name
        && bits(a.predicted_cpu_s) == bits(b.predicted_cpu_s)
        && bits(a.predicted_gpu_s) == bits(b.predicted_gpu_s)
        && a.cpu_error.is_some() == b.cpu_error.is_some()
        && a.gpu_error.is_some() == b.gpu_error.is_some()
}

fn equivalence_sweep(datasets: &[Dataset]) {
    let platform = Platform::power9_v100();
    let off = Selector::new(platform.clone());
    let shadow = Selector::new(platform.clone()).with_calibration(CalibrationMode::Shadow);
    let active_cold = Selector::new(platform).with_calibration(CalibrationMode::Active);
    for (name, kernel, binding) in all_kernels() {
        for &ds in datasets {
            let b = binding(ds);
            let base = off.decide(&kernel, &b);
            assert!(
                base.calibration.is_none(),
                "{name}: Off mode must not carry a calibration tag"
            );

            let s = shadow.decide(&kernel, &b);
            assert!(
                same_verdict(&base, &s),
                "{name}/{ds:?}: zero-sample Shadow drifted from Off"
            );
            let tag = s.calibration.expect("shadow tags model-driven decisions");
            assert_eq!(tag.cpu_factor.to_bits(), 1f64.to_bits(), "{name}: cold cpu");
            assert_eq!(tag.gpu_factor.to_bits(), 1f64.to_bits(), "{name}: cold gpu");
            assert!(!tag.applied && !tag.flipped, "{name}: cold shadow is inert");

            let a = active_cold.decide(&kernel, &b);
            assert!(
                same_verdict(&base, &a),
                "{name}/{ds:?}: zero-sample Active drifted from Off"
            );
            assert!(
                !a.calibration.expect("active tags too").applied,
                "{name}: nothing to apply on cold cells"
            );
        }
    }
}

#[test]
fn off_and_cold_calibration_are_bit_for_bit_the_uncalibrated_engine() {
    equivalence_sweep(&[Dataset::Benchmark]);
}

#[test]
fn warm_shadow_flags_but_never_flips_the_verdict() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let base = Selector::new(Platform::power9_v100()).decide(&kernel, &b);

    let cal = Arc::new(Calibrator::new(eager_config()));
    let shadow = Selector::new(Platform::power9_v100())
        .with_calibration(CalibrationMode::Shadow)
        .with_calibrator(Arc::clone(&cal));
    let tag0 = shadow.decide(&kernel, &b).calibration.unwrap();
    let raw = if base.device_id.kind() == Device::Gpu {
        tag0.raw_gpu_s.unwrap()
    } else {
        tag0.raw_cpu_s.unwrap()
    };

    // Teach the calibrator that the chosen side is catastrophically
    // mispredicted — a correction that would flip the verdict.
    let flips_before = hetsel_obs::registry()
        .counter("hetsel.core.calib.shadow_flip")
        .get();
    cal.observe(&kernel.name, &base.device_name, tag0.class, raw, raw * 1e3);

    let d = shadow.decide(&kernel, &b);
    assert!(
        same_verdict(&base, &d),
        "shadow mode must never alter the verdict"
    );
    let tag = d.calibration.unwrap();
    assert!(tag.flipped, "the would-be flip is recorded");
    assert!(!tag.applied, "but nothing was applied");
    assert!(
        hetsel_obs::registry()
            .counter("hetsel.core.calib.shadow_flip")
            .get()
            > flips_before,
        "shadow flips are counted"
    );
}

#[test]
fn constant_bias_oracle_converges_and_flips_through_the_engine() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let cal = Arc::new(Calibrator::new(CalibratorConfig {
        min_samples: 3,
        max_abs_log: f64::INFINITY,
        ..CalibratorConfig::default()
    }));
    let selector = Selector::new(Platform::power9_v100())
        .with_calibration(CalibrationMode::Active)
        .with_calibrator(Arc::clone(&cal));
    let engine = DecisionEngine::new(selector, std::slice::from_ref(&kernel));

    let d0 = engine.decide("gemm", &b).unwrap();
    let tag0 = d0.calibration.unwrap();
    assert!(!tag0.applied, "cold engine applies nothing");
    let raw = if d0.device_id.kind() == Device::Gpu {
        tag0.raw_gpu_s.unwrap()
    } else {
        tag0.raw_cpu_s.unwrap()
    };

    // Constant-bias oracle: the chosen side actually runs 50x slower
    // than the model predicts, every time.
    let epoch0 = cal.epoch();
    for _ in 0..6 {
        cal.observe("gemm", &d0.device_name, tag0.class, raw, raw * 50.0);
    }
    assert!(
        cal.epoch() > epoch0,
        "a published correction bumps the epoch (lazy cache invalidation)"
    );

    let flips_before = hetsel_obs::registry()
        .counter("hetsel.core.calib.flip")
        .get();
    hetsel_obs::set_flight_recording(true);
    let d1 = engine.decide("gemm", &b).unwrap();
    hetsel_obs::set_flight_recording(false);

    assert_ne!(
        d0.device_id.kind(),
        d1.device_id.kind(),
        "the correction flips the verdict"
    );
    let tag1 = d1.calibration.unwrap();
    assert!(tag1.applied && tag1.flipped);
    let factor = if d0.device_id.kind() == Device::Gpu {
        tag1.gpu_factor
    } else {
        tag1.cpu_factor
    };
    assert!(
        ((factor - 50.0) / 50.0).abs() < 1e-9,
        "correction converged to the oracle's bias, got {factor}"
    );
    assert!(
        hetsel_obs::registry()
            .counter("hetsel.core.calib.flip")
            .get()
            > flips_before,
        "active flips are counted"
    );
    assert!(
        hetsel_obs::flight_recorder()
            .snapshot()
            .iter()
            .any(|e| e.kind == hetsel_obs::EventKind::CalibrationFlip && e.region_str() == "gemm"),
        "the flip is in the flight recorder"
    );
}

#[test]
fn epoch_movement_invalidates_lazily_not_per_sample() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let cal = Arc::new(Calibrator::default());
    let selector = Selector::new(Platform::power9_v100())
        .with_calibration(CalibrationMode::Active)
        .with_calibrator(Arc::clone(&cal));
    let engine = DecisionEngine::new(selector, std::slice::from_ref(&kernel));

    engine.decide("gemm", &b).unwrap();
    engine.decide("gemm", &b).unwrap();
    let warm = engine.stats();
    assert_eq!((warm.hits, warm.misses), (1, 1), "second decide is a hit");

    // Below the default gate (min_samples 3): samples fold, nothing
    // publishes, cached decisions keep answering.
    let epoch0 = cal.epoch();
    cal.observe("gemm", "host", hetsel_core::BindingClass::of(&b), 1.0, 2.0);
    assert_eq!(cal.epoch(), epoch0, "one sample publishes nothing");
    engine.decide("gemm", &b).unwrap();
    assert_eq!(
        engine.stats().hits,
        warm.hits + 1,
        "still the cached verdict"
    );
}

/// An explanation under calibration is the evidence behind its decision:
/// with warm cells in Shadow and Active mode, on the pair fleet and on a
/// host + v100 + k80 fleet, `decide_explained`'s explanation describes
/// its decision and its calibration block carries the decision's tag
/// field for field — flips included.
#[test]
fn explain_matches_decide_under_calibration() {
    let platform = Platform::power9_v100();
    let trio = Fleet::pair_labeled(&platform, "v100")
        .with_accelerator_from("k80", &Platform::power8_k80());
    let kernels: Vec<_> = all_kernels().into_iter().map(|(_, k, _)| k).collect();
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    for (fleet_name, fleet) in [("pair", Fleet::pair(&platform)), ("trio", trio)] {
        for mode in [CalibrationMode::Shadow, CalibrationMode::Active] {
            let cal = Arc::new(Calibrator::new(eager_config()));
            let selector = Selector::new(platform.clone())
                .with_fleet(fleet.clone())
                .with_calibration(mode)
                .with_calibrator(Arc::clone(&cal));
            // Warm the Benchmark-class cells: every other region's chosen
            // device is taught a 1000x misprediction (a flip), the rest a
            // mild host bias. Test-class cells stay cold. The engine is
            // built afterwards, so its Shadow cache holds no decision
            // tagged before the cells warmed.
            for (i, (_, kernel, binding)) in all_kernels().into_iter().enumerate() {
                let name = kernel.name.as_str();
                let b = binding(Dataset::Benchmark);
                let d = selector.decide(&kernel, &b);
                let tag = d.calibration.expect("model-driven decisions carry a tag");
                let (label, raw, ratio) = if i % 2 == 0 {
                    let raw = if d.device_id.is_host() {
                        tag.raw_cpu_s
                    } else {
                        tag.raw_gpu_s
                    };
                    (&*d.device_name, raw, 1e3)
                } else {
                    ("host", tag.raw_cpu_s, 1.5)
                };
                if let Some(raw) = raw {
                    cal.observe(name, label, tag.class, raw, raw * ratio);
                }
            }
            let engine = DecisionEngine::new(selector, &kernels);
            let mut flips = 0;
            for (_, kernel, binding) in all_kernels() {
                let name = kernel.name.as_str();
                for ds in [Dataset::Test, Dataset::Benchmark] {
                    let (d, e) = engine.decide_explained(name, &binding(ds)).unwrap();
                    let at = format!("{fleet_name}/{}/{name}/{ds:?}", mode.name());
                    assert!(e.describes(&d), "{at}: explanation diverges\n{e:?}\n{d:?}");
                    let tag = d.calibration.expect("tagged");
                    let block = e.calibration.expect("explained under calibration");
                    assert_eq!(block.mode, mode.name(), "{at}");
                    assert_eq!(block.class, tag.class.0, "{at}");
                    assert_eq!(bits(block.raw_cpu_s), bits(tag.raw_cpu_s), "{at}");
                    assert_eq!(bits(block.raw_gpu_s), bits(tag.raw_gpu_s), "{at}");
                    assert_eq!(block.cpu_factor.to_bits(), tag.cpu_factor.to_bits(), "{at}");
                    assert_eq!(block.gpu_factor.to_bits(), tag.gpu_factor.to_bits(), "{at}");
                    assert_eq!(block.applied, tag.applied, "{at}");
                    assert_eq!(block.flipped, tag.flipped, "{at}");
                    flips += usize::from(tag.flipped);
                }
            }
            assert!(flips > 0, "{fleet_name}/{}: no flip exercised", mode.name());
        }
    }
}

#[test]
#[ignore = "release-mode stress sweep (CI: --ignored stress)"]
fn stress_calibration_equivalence_across_every_dataset() {
    equivalence_sweep(&[Dataset::Mini, Dataset::Test, Dataset::Benchmark]);
}

#[test]
#[ignore = "release-mode stress sweep (CI: --ignored stress)"]
fn stress_warm_shadow_never_alters_any_suite_verdict() {
    // Deterministically perturb every (kernel, device) cell, then verify
    // Shadow still reproduces the Off verdicts across the whole suite.
    let platform = Platform::power9_v100();
    let off = Selector::new(platform.clone());
    let cal = Arc::new(Calibrator::new(eager_config()));
    let shadow = Selector::new(platform)
        .with_calibration(CalibrationMode::Shadow)
        .with_calibrator(Arc::clone(&cal));
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    for (name, kernel, binding) in all_kernels() {
        for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
            let b = binding(ds);
            let base = off.decide(&kernel, &b);
            if let Some(tag) = shadow.decide(&kernel, &b).calibration {
                // Bias both sides by pseudo-random factors in [1/8, 8].
                for (label, raw) in [("host", tag.raw_cpu_s), ("gpu", tag.raw_gpu_s)] {
                    if let Some(raw) = raw {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let bias = ((lcg >> 40) as f64 / (1u64 << 24) as f64) * 6.0 - 3.0;
                        cal.observe(name, label, tag.class, raw, raw * bias.exp2());
                    }
                }
            }
            let d = shadow.decide(&kernel, &b);
            assert!(
                same_verdict(&base, &d),
                "{name}/{ds:?}: warm shadow altered the verdict"
            );
        }
    }
}
