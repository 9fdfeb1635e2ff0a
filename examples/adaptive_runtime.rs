//! Extensions in action: profile feedback (paper §V — "profiling could
//! compliment our methodology by feeding the program attribute database
//! with more actionable data over time") and cooperative CPU+GPU splitting
//! (the Valero-Lara schemes motivating the paper's introduction).
//!
//! ```text
//! cargo run --release --example adaptive_runtime
//! ```

use hetsel::core::{best_split, AdaptiveSelector, Platform, Selector};
use hetsel::polybench::{find_kernel, Dataset};

fn main() {
    let platform = Platform::power9_v100();

    // --- profile feedback ---------------------------------------------
    println!("== profile feedback: the convolution misprediction heals itself\n");
    let adaptive = AdaptiveSelector::new(Selector::new(platform.clone()));
    let (kernel, binding) = find_kernel("3dconv").unwrap();
    let b = binding(Dataset::Benchmark);
    for launch in 1..=3 {
        let (decision, cost) = adaptive.run_and_learn(&kernel, &b).unwrap();
        println!(
            "launch {launch}: chose {:<5} cost {:.2} ms   (calibrator holds {} cells)",
            format!("{}", decision.device),
            cost * 1e3,
            adaptive.selector.calibrator().len()
        );
    }
    println!(
        "\nThe first launch follows the analytical model (host — the paper's\n\
         documented conv misprediction); every later launch uses the observed\n\
         truth and offloads.\n"
    );

    // --- cooperative split ----------------------------------------------
    println!("== cooperative CPU+GPU execution: fractional offloading\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "kernel", "host-only", "gpu-only", "split", "gpu frac", "gain"
    );
    for name in ["corr.std", "2dconv", "gemm", "atax.k2", "covar.mean"] {
        let (kernel, binding) = find_kernel(name).unwrap();
        let b = binding(Dataset::Benchmark);
        let s = best_split(&kernel, &b, &platform, 64).unwrap();
        println!(
            "{:<14} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2} {:>7.2}x",
            name,
            s.host_only_s * 1e3,
            s.gpu_only_s * 1e3,
            s.predicted_s * 1e3,
            s.gpu_fraction,
            s.gain_over_best_single()
        );
    }
    println!(
        "\nKernels where the devices are evenly matched gain the most from\n\
         splitting; lopsided kernels collapse to a single device, so the\n\
         extension never costs anything the binary selector had."
    );
}
