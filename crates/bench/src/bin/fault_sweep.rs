//! `fault_sweep` — the dispatch runtime under an injected-fault sweep.
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin fault_sweep
//! cargo run --release -p hetsel-bench --bin fault_sweep -- --seed 7 --rounds 5 --kind permanent
//! ```
//!
//! For each GPU fault probability p ∈ {0, 0.1, 0.25, 0.5, 0.75, 1.0} the
//! harness dispatches every Polybench kernel under every dataset `rounds`
//! times through a [`Dispatcher`] whose GPU carries a seeded transient (or
//! `--kind permanent`) fault plan, and records what the fault-tolerance
//! machinery did: completions, retries, fallbacks by reason, where requests
//! actually ran, breaker trips and the final breaker state. The sweep is
//! fully deterministic in `--seed`.
//!
//! The table prints to stdout; the machine-readable document lands in
//! `results/fault_sweep.json`.

use hetsel_core::{
    BreakerConfig, DecisionEngine, DecisionRequest, DeviceId, Dispatcher, DispatcherConfig,
    FallbackReason, Platform, Selector,
};
use hetsel_fault::FaultPlan;
use hetsel_ir::Kernel;
use hetsel_polybench::{suite, Dataset};
use serde::Serialize;

/// Aggregate outcome of one sweep point (one fault probability).
#[derive(Debug, Clone, Serialize)]
struct SweepPoint {
    /// Injected GPU fault probability.
    fault_prob: f64,
    /// Requests dispatched.
    requests: u64,
    /// Requests that completed on some device (the soak bar: all of them).
    completed: u64,
    /// Requests that failed every device.
    failed: u64,
    /// Requests that ran on the GPU / the host.
    ran_on_gpu: u64,
    ran_on_host: u64,
    /// Total execution attempts and transient retries.
    attempts: u64,
    retries: u64,
    /// First-fallback counts by reason.
    fallback_deadline: u64,
    fallback_breaker_open: u64,
    fallback_device_fault: u64,
    /// GPU breaker: lifetime trips and final state.
    gpu_breaker_trips: u64,
    gpu_breaker_final: String,
    /// Mean simulated seconds per completed request (jitter + backoff
    /// included).
    mean_simulated_s: f64,
}

/// The whole sweep document written to `results/fault_sweep.json`.
#[derive(Debug, Clone, Serialize)]
struct SweepReport {
    platform: String,
    kind: String,
    seed: u64,
    rounds: u64,
    points: Vec<SweepPoint>,
}

fn main() {
    let mut seed = 0xfa17u64;
    let mut rounds = 3u64;
    let mut permanent = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bad_usage("--seed needs an integer"));
            }
            "--rounds" => {
                i += 1;
                rounds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bad_usage("--rounds needs an integer"));
            }
            "--kind" => {
                i += 1;
                permanent = match args.get(i).map(String::as_str) {
                    Some("transient") => false,
                    Some("permanent") => true,
                    _ => bad_usage("--kind needs transient|permanent"),
                };
            }
            flag => bad_usage(&format!("unknown flag {flag}")),
        }
        i += 1;
    }

    let platform = Platform::power9_v100();
    let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
    let mut requests: Vec<DecisionRequest> = Vec::new();
    for _ in 0..rounds {
        for bench in suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let binding = (bench.binding)(ds);
                for k in &bench.kernels {
                    requests.push(DecisionRequest::new(&k.name, binding.clone()));
                }
            }
        }
    }

    let kind = if permanent { "permanent" } else { "transient" };
    println!(
        "fault sweep on {} — {} GPU faults, seed {seed}, {} requests per point\n",
        platform.name,
        kind,
        requests.len()
    );
    println!(
        "{:>6}  {:>9}  {:>7}  {:>7}  {:>7}  {:>8}  {:>8}  {:>9}  {:>7}",
        "p", "completed", "gpu", "host", "retries", "brk_open", "dev_flt", "gpu_trips", "final"
    );

    let mut points = Vec::new();
    for p in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let plan = if permanent {
            FaultPlan::permanent(seed, p)
        } else {
            FaultPlan::transient(seed, p).with_jitter(1e-4)
        };
        let dispatcher = Dispatcher::new(
            DecisionEngine::new(Selector::new(platform.clone()), &kernels),
            DispatcherConfig::default()
                .with_device_faults("gpu", plan)
                .with_breaker(BreakerConfig::default()),
        );

        let mut point = SweepPoint {
            fault_prob: p,
            requests: requests.len() as u64,
            completed: 0,
            failed: 0,
            ran_on_gpu: 0,
            ran_on_host: 0,
            attempts: 0,
            retries: 0,
            fallback_deadline: 0,
            fallback_breaker_open: 0,
            fallback_device_fault: 0,
            gpu_breaker_trips: 0,
            gpu_breaker_final: String::new(),
            mean_simulated_s: 0.0,
        };
        let mut simulated = 0.0f64;
        for request in &requests {
            match dispatcher.dispatch(request) {
                Ok(outcome) => {
                    point.completed += 1;
                    if outcome.device_id.is_host() {
                        point.ran_on_host += 1;
                    } else {
                        point.ran_on_gpu += 1;
                    }
                    point.attempts += u64::from(outcome.attempts);
                    point.retries += u64::from(outcome.retries);
                    simulated += outcome.simulated_s;
                    match outcome.fallback {
                        Some(FallbackReason::DeadlineExceeded) => point.fallback_deadline += 1,
                        Some(FallbackReason::BreakerOpen { .. }) => {
                            point.fallback_breaker_open += 1
                        }
                        Some(FallbackReason::DeviceFault { .. }) => {
                            point.fallback_device_fault += 1
                        }
                        _ => {}
                    }
                }
                Err(_) => point.failed += 1,
            }
        }
        let health = dispatcher
            .health_by_id(DeviceId(1))
            .expect("the pair fleet registers its accelerator as id 1");
        point.gpu_breaker_trips = health.trips;
        point.gpu_breaker_final = health.state.name().to_string();
        point.mean_simulated_s = if point.completed > 0 {
            simulated / point.completed as f64
        } else {
            0.0
        };

        println!(
            "{:>6.2}  {:>4}/{:<4}  {:>7}  {:>7}  {:>7}  {:>8}  {:>8}  {:>9}  {:>7}",
            p,
            point.completed,
            point.requests,
            point.ran_on_gpu,
            point.ran_on_host,
            point.retries,
            point.fallback_breaker_open,
            point.fallback_device_fault,
            point.gpu_breaker_trips,
            point.gpu_breaker_final
        );
        points.push(point);
    }

    // A transient-fault sweep with a healthy host must complete everything;
    // fail loudly here so CI-style runs catch a dispatch regression.
    let dropped: u64 = points.iter().map(|pt| pt.failed).sum();
    if !permanent && dropped > 0 {
        eprintln!("[fault_sweep] FAILED: {dropped} requests completed on no device");
        std::process::exit(1);
    }

    let report = SweepReport {
        platform: platform.name.to_string(),
        kind: kind.to_string(),
        seed,
        rounds,
        points,
    };
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fault_sweep.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results/ is creatable");
    }
    let doc = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, doc).expect("results/fault_sweep.json is writable");
    eprintln!("\n[fault_sweep] wrote {}", path.display());
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fault_sweep [--seed N] [--rounds N] [--kind transient|permanent]");
    std::process::exit(2);
}
