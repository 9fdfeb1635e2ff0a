//! Experimental platforms: a host, an accelerator, and the model parameter
//! sets describing them.
//!
//! The paper evaluates two machines: POWER8 + Tesla K80 over PCIe 3.0, and
//! POWER9 (AC922) + Tesla V100 over NVLink 2.0. A [`Platform`] bundles the
//! timing simulators (standing in for the hardware) with the analytical
//! models' parameter tables for the same hardware.

use hetsel_cpusim::CpuDescriptor;
use hetsel_gpusim::GpuDescriptor;
use hetsel_models::{CpuModelParams, GpuModelParams};

/// One heterogeneous node: host + accelerator + model parameters.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Display name.
    pub name: &'static str,
    /// Host hardware model (ground truth).
    pub cpu: CpuDescriptor,
    /// Accelerator hardware model (ground truth).
    pub gpu: GpuDescriptor,
    /// Analytical CPU model parameters (Table II).
    pub cpu_model: CpuModelParams,
    /// Analytical GPU model parameters (Table III).
    pub gpu_model: GpuModelParams,
    /// OpenMP threads the host runs with.
    pub host_threads: u32,
}

impl Platform {
    /// The paper's newer platform: POWER9 (AC922) + Tesla V100 on NVLink 2,
    /// host at its full 160 threads.
    pub fn power9_v100() -> Platform {
        Platform {
            name: "POWER9 + V100 (NVLink2)",
            cpu: hetsel_cpusim::power9_host(),
            gpu: hetsel_gpusim::tesla_v100(),
            cpu_model: hetsel_models::power9_params(),
            gpu_model: hetsel_models::v100_params(),
            host_threads: 160,
        }
    }

    /// The intermediate generation: POWER8 + Tesla P100 on NVLink 1.0 (the
    /// "Minsky" S822LC, chronologically between the paper's two systems).
    pub fn power8_p100() -> Platform {
        Platform {
            name: "POWER8 + P100 (NVLink1)",
            cpu: hetsel_cpusim::power8_host(),
            gpu: hetsel_gpusim::tesla_p100(),
            cpu_model: hetsel_models::power8_params(),
            gpu_model: hetsel_models::p100_params(),
            host_threads: 160,
        }
    }

    /// The paper's older platform: POWER8 + Tesla K80 on PCIe 3.0.
    pub fn power8_k80() -> Platform {
        Platform {
            name: "POWER8 + K80 (PCIe3)",
            cpu: hetsel_cpusim::power8_host(),
            gpu: hetsel_gpusim::tesla_k80(),
            cpu_model: hetsel_models::power8_params(),
            gpu_model: hetsel_models::k80_params(),
            host_threads: 160,
        }
    }

    /// An x86 node: dual-socket Skylake Xeon + V100 over PCIe 3.0 — the
    /// host class the paper could not evaluate because of LLVM-MCA's
    /// backend requirements; here it is one more descriptor.
    pub fn xeon_v100() -> Platform {
        let mut gpu = hetsel_gpusim::tesla_v100();
        gpu.bus = hetsel_gpusim::pcie3(); // x86 nodes attach V100s over PCIe
        let mut gpu_model = hetsel_models::v100_params();
        gpu_model.device = gpu.clone();
        Platform {
            name: "Xeon + V100 (PCIe3)",
            cpu: hetsel_cpusim::xeon_host(),
            gpu,
            cpu_model: hetsel_models::cpu::CpuModelParams {
                name: "Xeon Gold 6148",
                freq_ghz: 2.4,
                tlb_entries: 1536,
                tlb_miss_penalty: 20.0,
                page_bytes: 4 * 1024,
                loop_overhead_per_iter: 4.0,
                schedule_overhead_static: 8000.0,
                synchronization_overhead: 3500.0,
                par_startup: 2500.0,
                fork_per_thread: 18_000.0,
                cores: 40,
                smt_benefit: 1.3,
                unroll: 4.0,
                core: hetsel_mca::skylake(),
                outer_loop_vectorization: true,
            },
            gpu_model,
            host_threads: 80,
        }
    }

    /// Same platform with a restricted host thread count (the paper's
    /// 4-thread configuration of Figures 6–7).
    pub fn with_threads(mut self, threads: u32) -> Platform {
        self.host_threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let p9 = Platform::power9_v100();
        assert_eq!(p9.host_threads, 160);
        assert_eq!(p9.cpu.name, "POWER9 (AC922)");
        assert_eq!(p9.gpu.name, "Tesla V100");
        assert_eq!(p9.gpu_model.device.name, "Tesla V100");
        let p8 = Platform::power8_k80();
        assert_eq!(p8.gpu.bus.name, "PCIe 3.0 x16");
    }

    #[test]
    fn xeon_platform_decides_the_suite() {
        use crate::selector::Selector;
        let sel = Selector::new(Platform::xeon_v100());
        // The framework runs end to end on the x86 host the paper could not
        // evaluate: sane decisions on a compute kernel and a tiny kernel.
        let (k, binding) = hetsel_polybench::find_kernel("gemm").unwrap();
        let b = binding(hetsel_polybench::Dataset::Benchmark);
        let d = sel.decide(&k, &b);
        assert_eq!(d.device_id.kind(), crate::selector::Device::Gpu);
        let m = sel.measure(&k, &b).unwrap();
        assert!(m.cpu_s > 0.0 && m.gpu_s > 0.0);
    }

    #[test]
    fn pascal_platform_exists() {
        let p = Platform::power8_p100();
        assert_eq!(p.gpu.name, "Tesla P100");
        assert_eq!(p.gpu.bus.name, "NVLink 1.0");
    }

    #[test]
    fn with_threads_restricts() {
        let p = Platform::power9_v100().with_threads(4);
        assert_eq!(p.host_threads, 4);
    }
}
