//! Program-level planning in action: the 3MM pipeline (`E = A·B`,
//! `F = C·D`, `G = E·F`) decided as a whole, with intermediates kept
//! resident on the chosen device — OpenMP `target data` semantics layered
//! over the paper's per-region selector.
//!
//! ```text
//! cargo run --release --example program_pipeline
//! ```

use hetsel::core::{plan_program, Platform, Selector};
use hetsel::polybench::{full_suite, Dataset};

fn main() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform.clone());

    for name in ["3MM", "2MM", "CORR", "FDTD2D"] {
        let program = full_suite().into_iter().find(|b| b.name == name).unwrap();
        println!("== {} ({} regions)", program.name, program.kernels.len());
        for ds in Dataset::paper_modes() {
            let binding = (program.binding)(ds);

            // Per-region view (the paper's methodology).
            print!("  {ds:<9} per-region:");
            for k in &program.kernels {
                let d = sel.decide(k, &binding);
                print!(" {}={}", k.name, d.device_id.kind());
            }
            println!();

            // Whole-program view with residency.
            let plan = plan_program(&program.kernels, &binding, &platform).unwrap();
            print!("  {ds:<9} planned:   ");
            for (name, d) in &plan.assignments {
                print!(" {name}={d}");
            }
            println!(
                "\n  {ds:<9} predicted: {:.3} ms planned vs {:.3} ms naive ({:.2}x)",
                plan.predicted_s * 1e3,
                plan.naive_predicted_s * 1e3,
                plan.gain_over_naive()
            );
        }
        println!();
    }
    println!(
        "Chained regions stop paying for intermediate transfers once the\n\
         planner sees the program instead of one launch at a time."
    );
}
