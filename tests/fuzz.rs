//! Fuzz-style robustness: the entire stack — IPDA, MCA, both analytical
//! models, both simulators, the selector — must handle hundreds of
//! synthetic kernels without panics, NaNs, or inverted invariants.

use hetsel::core::{Platform, Selector};
use hetsel::ir::synth::generate;
use hetsel::ir::Binding;

fn binding_for(s: &hetsel::ir::SynthKernel, n: i64, m: i64) -> Binding {
    let mut b = Binding::new();
    for p in &s.params {
        b.set(*p, if *p == "n" { n } else { m });
    }
    b
}

#[test]
fn whole_stack_survives_synthetic_kernels() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform.clone());
    for seed in 0..120u64 {
        let s = generate(seed);
        let b = binding_for(&s, 2048, 96);
        let k = &s.kernel;

        // Static analyses.
        let info = hetsel::ipda::analyze(k);
        assert!(!info.accesses.is_empty(), "seed {seed}");
        for a in &info.accesses {
            assert!(
                a.thread_stride.resolve(&b).is_some(),
                "seed {seed}: irregular synth access"
            );
        }

        // Models.
        let (cpu, gpu) = sel.predict(k, &b);
        let (cpu, gpu) = (cpu.unwrap(), gpu.unwrap());
        assert!(cpu.is_finite() && cpu > 0.0, "seed {seed}: cpu model {cpu}");
        assert!(gpu.is_finite() && gpu > 0.0, "seed {seed}: gpu model {gpu}");

        // Simulators.
        let m = sel
            .measure(k, &b)
            .unwrap_or_else(|| panic!("seed {seed}: sims failed"));
        assert!(m.cpu_s.is_finite() && m.cpu_s > 0.0, "seed {seed}");
        assert!(m.gpu_s.is_finite() && m.gpu_s > 0.0, "seed {seed}");

        // Decision consistent with its own predictions.
        let d = sel.decide(k, &b);
        let expect = if gpu < cpu {
            hetsel::core::Device::Gpu
        } else {
            hetsel::core::Device::Host
        };
        assert_eq!(d.device_id.kind(), expect, "seed {seed}");
    }
}

#[test]
fn gpu_engines_agree_on_synthetic_kernels() {
    let gpu = hetsel::gpusim::tesla_v100();
    for seed in 0..40u64 {
        let s = generate(seed);
        let b = binding_for(&s, 4096, 64);
        let fast = hetsel::gpusim::simulate(&s.kernel, &b, &gpu).unwrap();
        let detailed = hetsel::gpusim::simulate_detailed(&s.kernel, &b, &gpu).unwrap();
        let ratio = detailed.kernel_s / fast.kernel_s;
        assert!(
            (0.05..=20.0).contains(&ratio),
            "seed {seed}: detailed {} vs roofline {} (ratio {ratio:.2})",
            detailed.kernel_s,
            fast.kernel_s
        );
    }
}

#[test]
fn synthetic_kernels_scale_sanely() {
    // Bigger n never makes the simulated CPU faster (all synth kernels
    // have chunk sizes well past the false-sharing threshold at n >= 8192).
    let cpu = hetsel::cpusim::power9_host();
    for seed in 0..30u64 {
        let s = generate(seed);
        let b1 = binding_for(&s, 8192, 64);
        let b2 = binding_for(&s, 16384, 64);
        let t1 = hetsel::cpusim::simulate(&s.kernel, &b1, &cpu, 160).unwrap();
        let t2 = hetsel::cpusim::simulate(&s.kernel, &b2, &cpu, 160).unwrap();
        assert!(
            t2.total_s() >= t1.total_s() * 0.9,
            "seed {seed}: {} then {}",
            t1.total_s(),
            t2.total_s()
        );
    }
}
