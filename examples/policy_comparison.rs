//! A miniature of the paper's Figure 8: run every Polybench kernel under
//! the three runtime policies — never offload, always offload (the
//! compiler default), and the model-driven selector — and compare the
//! suite-wide outcome against the oracle.
//!
//! Uses the paper's `test` dataset; see `cargo run -p hetsel-bench --bin
//! fig8` for the full-size experiment.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use hetsel::core::{geomean, Device, Platform, Policy, Selector};
use hetsel::polybench::{all_kernels, Dataset};

fn main() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform.clone());
    let ds = Dataset::Test;

    println!(
        "policy comparison on {} — {} mode, {} host threads\n",
        platform.name, ds, platform.host_threads
    );

    let mut rows = Vec::new();
    for (_, kernel, binding) in all_kernels() {
        let b = binding(ds);
        let e = sel.evaluate(&kernel, &b).expect("simulators run");
        rows.push(e);
    }

    for policy in [
        Policy::AlwaysHost,
        Policy::AlwaysOffload,
        Policy::ModelDriven,
    ] {
        let mut speedups = Vec::new();
        let mut correct = 0;
        for e in &rows {
            let device = match policy {
                Policy::AlwaysHost => Device::Host,
                Policy::AlwaysOffload => Device::Gpu,
                _ => e.decision.device_id.kind(),
            };
            speedups.push(e.measured.cpu_s / e.measured.on(device));
            if device == e.measured.best_device() {
                correct += 1;
            }
        }
        println!(
            "{:<16} geomean speedup {:>6.2}x   correct decisions {:>2}/{}",
            format!("{policy:?}"),
            geomean(speedups.iter().copied()),
            correct,
            rows.len()
        );
    }
    let oracle = geomean(rows.iter().map(|e| e.measured.cpu_s / e.oracle_s()));
    println!(
        "{:<16} geomean speedup {:>6.2}x   (upper bound)",
        "Oracle", oracle
    );

    println!("\nper-kernel choices of the model-driven selector:");
    for e in &rows {
        println!(
            "  {:<14} -> {:<5} (true speedup {:>6.2}x) {}",
            e.decision.region,
            format!("{}", e.decision.device_id.kind()),
            e.measured.speedup().unwrap_or(f64::NAN),
            if e.correct() { "" } else { "  <- mispredicted" }
        );
    }
}
