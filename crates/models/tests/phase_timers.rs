//! The phase timers: the `*.ns` histograms at the MCA, IPDA and model
//! compile/evaluate boundaries record while `set_timing` is on and stay
//! untouched while it is off.
//!
//! A test binary of its own, because `set_timing` is process-wide and
//! would leak into any test running beside it.

use hetsel_ir::Kernel;
use hetsel_models::{
    cpu, gpu, power9_params, v100_params, CoalescingMode, CompiledCpuModel, CompiledGpuModel,
    TripMode,
};
use hetsel_obs::metrics::set_timing;
use hetsel_polybench::{find_kernel, Dataset};

const COMPILE_PHASES: [&str; 5] = [
    "hetsel.mca.compile.cycles.ns",
    "hetsel.mca.compile.loadout.ns",
    "hetsel.ipda.analyze.ns",
    "hetsel.models.cpu.compile.ns",
    "hetsel.models.gpu.compile.ns",
];
const CPU_EVALUATE: &str = "hetsel.models.cpu.evaluate.ns";
const GPU_EVALUATE: &str = "hetsel.models.gpu.evaluate.ns";

fn count(name: &str) -> u64 {
    hetsel_obs::registry().histogram(name).count()
}

fn counts() -> Vec<u64> {
    COMPILE_PHASES
        .iter()
        .chain(&[CPU_EVALUATE, GPU_EVALUATE])
        .map(|name| count(name))
        .collect()
}

/// Compiles gemm's CPU and GPU models with the IPDA memo cleared, so the
/// analysis runs (and is timed) again.
fn compile(kernel: &Kernel) -> (CompiledCpuModel, CompiledGpuModel) {
    hetsel_ipda::clear_analysis_memo();
    (
        cpu::compile(kernel, &power9_params(), 160, TripMode::Runtime),
        gpu::compile(
            kernel,
            &v100_params(),
            TripMode::Runtime,
            CoalescingMode::Ipda,
        ),
    )
}

#[test]
fn phase_timers_record_only_while_timing_is_on() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Test);

    set_timing(false);
    let before = counts();
    let (cpu_model, gpu_model) = compile(&kernel);
    cpu_model.evaluate(&b).unwrap();
    gpu_model.evaluate(&b).unwrap();
    assert_eq!(counts(), before, "timing off: no phase records a sample");

    set_timing(true);
    let before = counts();
    let (cpu_model, gpu_model) = compile(&kernel);
    let compiled = counts();
    for (i, name) in COMPILE_PHASES.iter().enumerate() {
        assert!(compiled[i] > before[i], "{name} recorded no sample");
    }

    let (cpu0, gpu0) = (count(CPU_EVALUATE), count(GPU_EVALUATE));
    cpu_model.evaluate(&b).unwrap();
    assert_eq!(count(CPU_EVALUATE), cpu0 + 1, "one sample per CPU evaluate");
    assert_eq!(
        count(GPU_EVALUATE),
        gpu0,
        "a CPU evaluate times only itself"
    );
    gpu_model.evaluate(&b).unwrap();
    assert_eq!(count(GPU_EVALUATE), gpu0 + 1, "one sample per GPU evaluate");
    assert_eq!(count(CPU_EVALUATE), cpu0 + 1);
    set_timing(false);
}
