//! Quickstart: define an OpenMP-style kernel, compile its static
//! attributes, and let the hybrid runtime pick the execution target.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hetsel::prelude::*;

fn main() {
    // #pragma omp target teams distribute parallel for map(to: x) map(tofrom: y)
    // for (i = 0; i < n; i++) y[i] = a * x[i] + y[i];
    let mut kb = KernelBuilder::new("axpy");
    let x = kb.array("x", 4, &["n".into()], Transfer::In);
    let y = kb.array("y", 4, &["n".into()], Transfer::InOut);
    let i = kb.parallel_loop(0, "n");
    let rhs = cexpr::add(
        cexpr::mul(cexpr::scalar("a"), kb.load(x, &[i.into()])),
        kb.load(y, &[i.into()]),
    );
    kb.store(y, &[i.into()], rhs);
    kb.end_loop();
    let kernel = kb.finish();

    // Compile-time half: static features + IPDA symbolic strides + both
    // cost models, fully compiled for the selector's configuration.
    let selector = Selector::new(Platform::power9_v100());
    let db = AttributeDatabase::compile(std::slice::from_ref(&kernel), &selector);
    let region = db.region("axpy").unwrap();
    println!("compiled region '{}':", kernel.name);
    println!(
        "  runtime parameters required: {:?}",
        region.required_params
    );
    for a in &region.access_info.accesses {
        println!(
            "  {} {}: IPD_thread = {}",
            if a.is_store { "store" } else { "load " },
            kernel.array(a.array).name,
            a.thread_stride
        );
    }

    // Runtime half: the decision engine binds values, evaluates the
    // precompiled models, and memoizes the decision per (region, values).
    let engine = DecisionEngine::from_database(selector, db, 64);
    println!(
        "\n{:<14} {:>12} {:>12} {:>10} {:>8}",
        "n", "pred CPU", "pred GPU", "speedup", "target"
    );
    for exp in [10u32, 14, 18, 22, 26] {
        let n = 1i64 << exp;
        let binding = Binding::new().with("n", n);
        let d = engine.decide("axpy", &binding).unwrap();
        println!(
            "{:<14} {:>10.1}µs {:>10.1}µs {:>9.2}x {:>8}",
            format!("2^{exp}"),
            d.predicted_cpu_s.unwrap() * 1e6,
            d.predicted_gpu_s.unwrap() * 1e6,
            d.predicted_speedup().unwrap(),
            d.device_id.kind()
        );
    }
    // Re-reaching a region with known extents is a cache hit.
    let _ = engine.decide("axpy", &Binding::new().with("n", 1i64 << 26));
    let stats = engine.stats();
    println!(
        "\ndecision cache: {} hits / {} misses",
        stats.hits, stats.misses
    );

    // Sanity: run the real computation on the host through rayon, the way
    // the fallback path would.
    let n = 1 << 16;
    let a = 2.5f32;
    let xs: Vec<f32> = (0..n).map(|v| v as f32).collect();
    let mut ys: Vec<f32> = (0..n).map(|v| (v % 7) as f32).collect();
    use hetsel::ir as _;
    {
        use rayon::prelude::*;
        ys.par_iter_mut().zip(&xs).for_each(|(y, x)| *y += a * x);
    }
    println!(
        "\nhost fallback executed axpy over {n} elements; y[42] = {}",
        ys[42]
    );
}
