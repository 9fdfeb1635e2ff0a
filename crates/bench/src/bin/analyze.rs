//! `analyze` — the full diagnostic stack for one kernel, in the spirit of
//! an `llvm-mca`-style command-line tool:
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin analyze -- gemm benchmark
//! cargo run --release -p hetsel-bench --bin analyze -- atax.k2 test p8
//! ```
//!
//! Prints the IPDA access table, the MCA throughput report, both model
//! predictions with their intermediate quantities, the simulator ground
//! truth, and the selector's decision.

use hetsel_core::{best_split, Platform, Selector};
use hetsel_ir::Kernel;
use hetsel_models::{CoalescingMode, TripMode};
use hetsel_polybench::{full_suite, Dataset};

fn find(name: &str) -> Option<(Kernel, hetsel_polybench::BindingFn)> {
    for b in full_suite() {
        for k in b.kernels {
            if k.name == name {
                return Some((k, b.binding));
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("gemm");
    let ds = match args.get(2).map(String::as_str) {
        Some("benchmark") => Dataset::Benchmark,
        Some("mini") => Dataset::Mini,
        _ => Dataset::Test,
    };
    let platform = match args.get(3).map(String::as_str) {
        Some("p8") | Some("k80") => Platform::power8_k80(),
        _ => Platform::power9_v100(),
    };

    let Some((kernel, binding)) = find(name) else {
        eprintln!("unknown kernel '{name}'; available:");
        for b in full_suite() {
            for k in &b.kernels {
                eprint!(" {}", k.name);
            }
        }
        eprintln!();
        std::process::exit(1);
    };
    let b = binding(ds);
    println!(
        "== {} on {} ({} mode, binding {})\n",
        kernel.name, platform.name, ds, b
    );
    println!("{}", hetsel_ir::to_openmp_c(&kernel));

    // --- IPDA ---
    println!("[ipda] inter-thread strides:");
    let info = hetsel_ipda::analyze(&kernel);
    for a in &info.accesses {
        println!(
            "  {:<6} {:<8} IPD_th = {:<10} resolved = {:<8} txns/warp = {:<3} {:?}",
            if a.is_store { "store" } else { "load" },
            kernel.array(a.array).name,
            format!("{}", a.thread_stride),
            a.thread_stride
                .resolve(&b)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into()),
            a.transactions_per_warp(&b, 32),
            a.thread_pattern(&b),
        );
    }

    // --- MCA ---
    let tc = hetsel_ir::trips::resolve(&kernel, &b);
    let core = &platform.cpu_model.core;
    let max_depth = {
        let mut d = 0;
        kernel.walk_assigns(|loops, _| d = d.max(loops.len()));
        d
    };
    let mut inner_assigns: Vec<hetsel_ir::Assign> = Vec::new();
    kernel.walk_assigns(|loops, a| {
        if loops.len() == max_depth {
            inner_assigns.push(a.clone());
        }
    });
    let refs: Vec<&hetsel_ir::Assign> = inner_assigns.iter().collect();
    let body = hetsel_mca::lower_assigns(&refs, true);
    let sim = hetsel_mca::simulate(&body, core, hetsel_mca::SimOptions::default());
    println!("\n{}", hetsel_mca::report(&body, core, &sim));
    let cpi = hetsel_mca::parallel_iter_cycles(&kernel, core, &|l| tc.of(l), None);
    println!("[mca] Machine_cycles_per_iter (whole parallel body): {cpi:.1}");

    // --- Models ---
    let cp = hetsel_models::cpu::predict(
        &kernel,
        &b,
        &platform.cpu_model,
        platform.host_threads,
        TripMode::Runtime,
    );
    let gp = hetsel_models::gpu::predict(
        &kernel,
        &b,
        &platform.gpu_model,
        TripMode::Runtime,
        CoalescingMode::Ipda,
    );
    if let Some(c) = &cp {
        println!(
            "\n[cpu model] {:.3} ms  (chunk {}, {:.1} cycles/iter, vector x{:.2}, TLB cost {:.0} cycles)",
            c.seconds * 1e3,
            c.chunk,
            c.machine_cycles_per_iter,
            c.vector_factor,
            c.cache_cost
        );
    }
    if let Some(g) = &gp {
        println!(
            "[gpu model] {:.3} ms  (kernel {:.3} ms + transfer {:.3} ms; {:?}, MWP {:.1}, CWP {:.1}, N {}, #Rep {}, #OMP_Rep {}, coal {:.0} / uncoal {:.0})",
            g.seconds * 1e3,
            g.kernel_seconds * 1e3,
            g.transfer_seconds * 1e3,
            g.case,
            g.mwp,
            g.cwp,
            g.n_warps,
            g.rep,
            g.omp_rep,
            g.coal_mem_insts,
            g.uncoal_mem_insts
        );
    }

    // --- Simulators (ground truth) ---
    let sel = Selector::new(platform.clone());
    if let Some(m) = sel.measure(&kernel, &b) {
        println!(
            "\n[simulated] host {:.3} ms, gpu {:.3} ms  -> true offload speedup {:.2}x (oracle: {})",
            m.cpu_s * 1e3,
            m.gpu_s * 1e3,
            m.speedup().unwrap_or(f64::NAN),
            m.best_device()
        );
        let d = sel.decide(&kernel, &b);
        println!(
            "[decision ] {} (predicted speedup {:.2}x) — {}",
            d.device_id.kind(),
            d.predicted_speedup().unwrap_or(f64::NAN),
            if d.device_id.kind() == m.best_device() {
                "correct"
            } else {
                "WRONG"
            }
        );
    }

    // --- Cooperative split ---
    if let Some(s) = best_split(&kernel, &b, &platform, 64) {
        println!(
            "[split    ] best GPU fraction {:.2} -> predicted {:.3} ms (pure host {:.3} ms, pure gpu {:.3} ms)",
            s.gpu_fraction,
            s.predicted_s * 1e3,
            s.host_only_s * 1e3,
            s.gpu_only_s * 1e3
        );
    }
}
