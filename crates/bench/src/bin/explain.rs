//! `explain` — why did the selector send a region where it sent it?
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin explain -- gemm
//! cargo run --release -p hetsel-bench --bin explain -- gemm atax.k2 --dataset benchmark
//! cargo run --release -p hetsel-bench --bin explain -- --json --validate
//! ```
//!
//! For each requested kernel (default: the whole Polybench suite) the tool
//! compiles the attribute database, takes the offloading decision through a
//! [`DecisionEngine`], and prints the full evidence: resolved bindings,
//! both models' predicted times with their dominant cost-model terms
//! (MWP/CWP, coalesced vs. uncoalesced memory instructions, `#OMP_Rep`,
//! fork/join/chunking overheads), the winning margin, and per-phase
//! timings.
//!
//! Flags:
//! - `--json`      emit one machine-readable `ExplainReport` document
//! - `--validate`  check the report against the schema contract; non-zero
//!   exit on violation (CI runs this)
//! - `--dataset mini|test|benchmark` (default `test`)
//! - `--platform p9|p8` (default POWER9+V100)
//! - `--metrics`   append a registry snapshot to `results/metrics.jsonl`
//! - `--dispatch`  route every kernel through the fault-tolerant
//!   [`Dispatcher`] so each explanation carries the dispatch terms (final
//!   device, attempts, retries, fallback reason, breaker states)
//! - `--gpu-fault P` with `--dispatch`: inject seeded transient GPU faults
//!   with probability `P` (deterministic; seed 42)

use hetsel_core::{
    DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, ExplainReport, Platform,
    Selector,
};
use hetsel_fault::FaultPlan;
use hetsel_ir::Kernel;
use hetsel_polybench::{full_suite, Dataset};

fn main() {
    let mut kernels: Vec<String> = Vec::new();
    let mut json = false;
    let mut validate = false;
    let mut metrics = false;
    let mut dispatch = false;
    let mut gpu_fault = 0.0f64;
    let mut ds = Dataset::Test;
    let mut platform = Platform::power9_v100();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--validate" => validate = true,
            "--metrics" => metrics = true,
            "--dispatch" => dispatch = true,
            "--gpu-fault" => {
                i += 1;
                gpu_fault = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(p) if (0.0..=1.0).contains(&p) => p,
                    _ => {
                        eprintln!("--gpu-fault needs a probability in [0, 1]");
                        std::process::exit(2);
                    }
                };
            }
            "--dataset" => {
                i += 1;
                ds = match args.get(i).map(String::as_str) {
                    Some("mini") => Dataset::Mini,
                    Some("test") => Dataset::Test,
                    Some("benchmark") => Dataset::Benchmark,
                    other => {
                        eprintln!("--dataset needs mini|test|benchmark, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--platform" => {
                i += 1;
                platform = match args.get(i).map(String::as_str) {
                    Some("p8") | Some("k80") => Platform::power8_k80(),
                    Some("p9") | Some("v100") => Platform::power9_v100(),
                    other => {
                        eprintln!("--platform needs p9|p8, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            name => kernels.push(name.to_string()),
        }
        i += 1;
    }

    hetsel_obs::metrics::set_timing(true);

    // Resolve the requested kernels (default: everything in the suite).
    let mut targets: Vec<(Kernel, hetsel_polybench::BindingFn)> = Vec::new();
    for b in full_suite() {
        for k in b.kernels {
            if kernels.is_empty() || kernels.iter().any(|n| n == &k.name) {
                targets.push((k, b.binding));
            }
        }
    }
    let found: Vec<&str> = targets.iter().map(|(k, _)| k.name.as_str()).collect();
    if let Some(missing) = kernels.iter().find(|n| !found.contains(&n.as_str())) {
        eprintln!("unknown kernel '{missing}'; available:{}", {
            let mut s = String::new();
            for b in full_suite() {
                for k in &b.kernels {
                    s.push(' ');
                    s.push_str(&k.name);
                }
            }
            s
        });
        std::process::exit(1);
    }

    let all: Vec<Kernel> = targets.iter().map(|(k, _)| k.clone()).collect();
    let engine = DecisionEngine::new(Selector::new(platform.clone()), &all);
    if gpu_fault > 0.0 && !dispatch {
        eprintln!("--gpu-fault only takes effect with --dispatch");
        std::process::exit(2);
    }

    let mut explanations = Vec::with_capacity(targets.len());
    let stats;
    if dispatch {
        // Route each kernel through the fault-tolerant runtime: the
        // explanations gain the dispatch block (attempts, retries,
        // fallback, breaker states). The fault plan is seeded, so repeated
        // runs tell the same story.
        let mut config = DispatcherConfig::default();
        if gpu_fault > 0.0 {
            config = config
                .with_device_faults("gpu", FaultPlan::transient(42, gpu_fault).with_jitter(1e-4));
        }
        let dispatcher = Dispatcher::new(engine, config);
        for (kernel, binding) in &targets {
            let request = DecisionRequest::new(&kernel.name, binding(ds));
            let (_, explanation) = dispatcher
                .dispatch_explained(&request)
                .expect("kernel came from the database and the host is healthy");
            explanations.push(explanation);
        }
        dispatcher.publish_health();
        dispatcher.engine().publish_stats();
        stats = dispatcher.engine().stats();
    } else {
        for (kernel, binding) in &targets {
            let b = binding(ds);
            let (_, explanation) = engine
                .decide_explained(&kernel.name, &b)
                .expect("kernel came from the database");
            explanations.push(explanation);
        }
        engine.publish_stats();
        stats = engine.stats();
    }
    eprintln!(
        "[cache] hits={} misses={} len={}/{} evictions={} shards={}",
        stats.hits, stats.misses, stats.len, stats.capacity, stats.evictions, stats.shards
    );

    let report = ExplainReport {
        platform: platform.name.to_string(),
        dataset: ds.to_string(),
        explanations,
    };

    let doc = serde_json::to_string_pretty(&report).expect("report serializes");
    if json {
        println!("{doc}");
    } else {
        println!("platform {}  dataset {}\n", report.platform, report.dataset);
        for e in &report.explanations {
            println!("{}", e.render_human());
        }
    }

    if metrics {
        match hetsel_bench::metrics_dump("explain") {
            Ok(path) => eprintln!("[metrics] appended snapshot to {}", path.display()),
            Err(e) => eprintln!("[metrics] dump failed: {e}"),
        }
    }

    if validate {
        match hetsel_core::validate_report_json(&doc) {
            Ok(r) => eprintln!(
                "[validate] ok: {} explanations conform to the schema",
                r.explanations.len()
            ),
            Err(e) => {
                eprintln!("[validate] FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
