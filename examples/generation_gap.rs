//! The paper's Section III story: one GPU generation can flip the
//! offloading decision. Runs the 3-D convolution (heavily memory-bound, low
//! arithmetic intensity) on both experimental platforms and shows the
//! decision inverting, plus the CORR mean/std kernels flipping the other
//! way thanks to POWER9's vector support.
//!
//! ```text
//! cargo run --release --example generation_gap
//! ```

use hetsel::core::{Platform, Selector};
use hetsel::polybench::{find_kernel, Dataset};

fn main() {
    let platforms = [Platform::power8_k80(), Platform::power9_v100()];
    let cases = [
        ("3dconv", "memory-bound stencil: wins on Volta's 900 GB/s"),
        ("corr.mean", "vectorisable reduction: POWER9 keeps it home"),
        ("corr.std", "vectorisable reduction: POWER9 keeps it home"),
        ("atax.k1", "transfer-dominated in benchmark mode"),
    ];

    for (name, why) in cases {
        let (kernel, binding) = find_kernel(name).expect("kernel exists");
        let b = binding(Dataset::Benchmark);
        println!("== {name} (benchmark mode) — {why}");
        for platform in &platforms {
            let sel = Selector::new(platform.clone());
            let m = sel.measure(&kernel, &b).expect("simulators run");
            let d = sel.decide(&kernel, &b);
            println!(
                "  {:<24} host {:>9.2?}ms  gpu {:>9.2?}ms  true speedup {:>5.2}x  -> {} ({})",
                platform.name,
                m.cpu_s * 1e3,
                m.gpu_s * 1e3,
                m.speedup().unwrap_or(f64::NAN),
                m.best_device(),
                if d.device_id.kind() == m.best_device() {
                    "model agrees"
                } else {
                    "model disagrees"
                },
            );
        }
        println!();
    }
    println!(
        "The same source code, recompiled for a different node, changes sides —\n\
         the paper's argument for making the decision in the runtime, per launch."
    );
}
