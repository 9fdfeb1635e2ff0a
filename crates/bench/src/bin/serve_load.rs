//! Load bench for the `hetsel-serve` decision service: replays
//! heavy-tailed (Zipf-weighted) Polybench traffic against a running
//! server and reports sustained throughput, exact p50/p99 request
//! latency, and the admission-control behaviour under pressure.
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin serve_load
//! # → results/serve_load.json
//! cargo run --release -p hetsel-bench --bin serve_load -- --duration-ms 500
//! cargo run --release -p hetsel-bench --bin serve_load -- --validate
//! ```
//!
//! Three measured blocks:
//!
//! * **warm** — open-loop throughput: each producer submits `depth`
//!   requests, then waits for them all. Every request is decide-only, so
//!   admission decides it on the producer's own thread, from the cache
//!   or, on a miss, by evaluating the models. Sustained decisions/sec over
//!   the measured interval.
//! * **latency** — closed-loop: producers issue one request at a time and
//!   record every round trip. Percentiles are computed from the *raw*
//!   sample vector, not the obs histogram (whose log2 buckets are only
//!   2×-accurate).
//! * **shed** — pressure: a second, deliberately tiny server (short
//!   queue, small batches) is flooded without backpressure with fresh
//!   `dispatch: true` gemm requests to exercise `queue_full`: only
//!   dispatches take queue slots, and the models send gemm to the
//!   accelerator at every size, whose simulation takes microseconds, so
//!   the flood is short. Decide-only misses with sub-microsecond deadlines
//!   exercise `deadline_expired`: admission decides them and sheds them
//!   when the evaluation returns. Every shed is still a typed reply
//!   carrying a runnable compiler-default decision; the block counts them
//!   by reason and reports the phase's wall time, and `--validate` fails
//!   unless both reasons occurred. The **windows** block counts the
//!   batches the tiny server's executor took during the flood.
//!
//! Traffic is deterministic: xorshift64-seeded producers, Zipf(s = 1.1)
//! region popularity over all 24 paper kernels, and 1 request in 16
//! setting one of its region's declared size parameters to a random
//! value, so the cache sees a realistic miss trickle, not a pure replay.
//! (Cache keys hold only declared parameters; perturbing any other
//! binding would hit.)

use std::time::{Duration, Instant};

use hetsel_core::{
    DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform, Selector,
};
use hetsel_ir::{Binding, Kernel};
use hetsel_polybench::{all_kernels, Dataset};
use hetsel_serve::{DecisionServer, ServeConfig, ServeReply, ServeRequest, ServerHandle};
use serde::Serialize;

#[derive(Serialize)]
struct ConfigBlock {
    producers: usize,
    depth: usize,
    duration_ms: u64,
    queue_capacity: usize,
    max_batch: usize,
    regions: usize,
    zipf_s: f64,
    seed: u64,
}

#[derive(Serialize)]
struct WarmBlock {
    total_ok: u64,
    elapsed_s: f64,
    decisions_per_sec: f64,
}

#[derive(Serialize)]
struct LatencyBlock {
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: f64,
}

#[derive(Serialize)]
struct ShedBlock {
    elapsed_s: f64,
    deadline_expired: u64,
    queue_full: u64,
    shutting_down: u64,
    ok_under_pressure: u64,
    total_replies: u64,
}

#[derive(Serialize)]
struct WindowsBlock {
    windows: u64,
    requests: u64,
    mean_batch: f64,
}

#[derive(Serialize)]
struct Doc {
    generator: &'static str,
    platform: String,
    config: ConfigBlock,
    warm: WarmBlock,
    latency: LatencyBlock,
    shed: ShedBlock,
    windows: WindowsBlock,
}

/// xorshift64: deterministic, seed-splittable, good enough for traffic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One region of the traffic: its name, its benchmark binding and the
/// size parameters it declares (the ones its decision cache keys on).
struct Region {
    name: String,
    binding: Binding,
    params: Vec<String>,
}

/// Zipf-weighted region traffic over the Polybench kernel census.
struct Traffic {
    regions: Vec<Region>,
    cumulative: Vec<f64>,
}

impl Traffic {
    fn new(zipf_s: f64) -> Traffic {
        let regions: Vec<Region> = all_kernels()
            .into_iter()
            .map(|(_, kernel, binding)| Region {
                name: kernel.name.clone(),
                binding: binding(Dataset::Benchmark),
                params: kernel.params(),
            })
            .collect();
        let weights: Vec<f64> = (1..=regions.len())
            .map(|rank| 1.0 / (rank as f64).powf(zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Traffic {
            regions,
            cumulative,
        }
    }

    /// A Zipf-ranked region.
    fn region(&self, rng: &mut Rng) -> &Region {
        let u = rng.unit();
        let idx = self
            .cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.regions.len() - 1);
        &self.regions[idx]
    }

    /// One request: a Zipf-ranked region; 1 in 16 gets a random value for
    /// one of its declared size parameters, so the decision cache sees a
    /// steady miss trickle.
    fn request(&self, rng: &mut Rng) -> DecisionRequest {
        let region = self.region(rng);
        let mut binding = region.binding.clone();
        if rng.next().is_multiple_of(16) {
            let param = &region.params[rng.next() as usize % region.params.len()];
            binding.set(param.clone(), 16 + (rng.next() % 4096) as i64);
        }
        DecisionRequest::new(region.name.clone(), binding)
    }

    /// A request no earlier one shares a cache key with, for `serial`
    /// unique within a run: a Zipf-ranked region whose first declared
    /// size parameter is set from `serial`.
    fn fresh_request(&self, rng: &mut Rng, serial: u64) -> DecisionRequest {
        let region = self.region(rng);
        let mut binding = region.binding.clone();
        binding.set(region.params[0].clone(), 16 + serial as i64);
        DecisionRequest::new(region.name.clone(), binding)
    }
}

/// A `dispatch: true` gemm request with an `n` no other `serial` uses. The
/// models send gemm to the accelerator at every size, and its simulation
/// takes microseconds.
fn fresh_gemm_dispatch(serial: u64) -> ServeRequest {
    let binding = Binding::new().with("n", 64 + serial as i64);
    ServeRequest::new(DecisionRequest::new("gemm", binding)).with_dispatch()
}

fn engine() -> DecisionEngine {
    let kernels: Vec<Kernel> = all_kernels().into_iter().map(|(_, k, _)| k).collect();
    DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels)
}

fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mut duration_ms: u64 = 2_000;
    let mut producers: usize =
        std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    let mut depth: usize = 512;
    let mut validate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--duration-ms" => duration_ms = value("--duration-ms").parse().expect("ms"),
            "--producers" => producers = value("--producers").parse().expect("count"),
            "--depth" => depth = value("--depth").parse().expect("count"),
            "--validate" => validate = true,
            other => panic!("unknown argument {other:?} (options: --duration-ms N, --producers N, --depth N, --validate)"),
        }
    }
    let producers = producers.max(1);
    let depth = depth.max(1);

    let out_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/serve_load.json");
    if validate {
        validate_doc(&out_path);
        return;
    }

    let zipf_s = 1.1;
    let seed = BENCH_SEED;
    let config = ServeConfig::default();
    let traffic = Traffic::new(zipf_s);
    let platform = Platform::power9_v100();
    let server = DecisionServer::start(
        Dispatcher::new(engine(), DispatcherConfig::default()),
        config,
    );

    // Warmup: prime the decision cache's popular keys and every
    // lazily-created metric before any measurement.
    run_closed_loop(
        &server.handle(),
        &traffic,
        producers,
        seed,
        Duration::from_millis((duration_ms / 10).clamp(50, 500)),
    );

    // Block 1: open-loop sustained throughput.
    let phase = Duration::from_millis(duration_ms / 2);
    let start = Instant::now();
    let total_ok = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let handle = server.handle();
                let traffic = &traffic;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ ((p as u64 + 1) * 0x9e37_79b9_7f4a_7c15));
                    let mut ok = 0u64;
                    let mut in_flight = Vec::with_capacity(depth);
                    while start.elapsed() < phase {
                        in_flight.clear();
                        for _ in 0..depth {
                            in_flight.push(
                                handle.submit_wait(ServeRequest::new(traffic.request(&mut rng))),
                            );
                        }
                        for pending in &in_flight {
                            if pending.done.wait().status() == "ok" {
                                ok += 1;
                            }
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    let elapsed = start.elapsed();
    let warm = WarmBlock {
        total_ok,
        elapsed_s: elapsed.as_secs_f64(),
        decisions_per_sec: total_ok as f64 / elapsed.as_secs_f64(),
    };
    println!(
        "[serve_load] warm: {:.0} decisions/sec ({} ok over {:.2}s, {} producers × depth {})",
        warm.decisions_per_sec, warm.total_ok, warm.elapsed_s, producers, depth
    );

    // Block 2: closed-loop latency, raw samples for exact percentiles.
    let mut latencies = run_closed_loop(
        &server.handle(),
        &traffic,
        producers,
        seed ^ 0xdead_beef,
        Duration::from_millis(duration_ms / 2),
    );
    latencies.sort_unstable();
    let latency = LatencyBlock {
        samples: latencies.len() as u64,
        p50_ns: exact_percentile(&latencies, 0.50),
        p99_ns: exact_percentile(&latencies, 0.99),
        max_ns: latencies.last().copied().unwrap_or(0),
        mean_ns: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        },
    };
    println!(
        "[serve_load] latency: p50 {} ns, p99 {} ns over {} closed-loop calls",
        latency.p50_ns, latency.p99_ns, latency.samples
    );

    // Block 3: admission pressure against a deliberately tiny server.
    let windows_before = window_summary();
    let shed = shed_pressure(&traffic, seed ^ 0x5eed, producers);
    let windows_after = window_summary();
    println!(
        "[serve_load] shed: {} queue_full, {} deadline_expired, {} shutting_down ({} ok under pressure) in {:.1} ms",
        shed.queue_full,
        shed.deadline_expired,
        shed.shutting_down,
        shed.ok_under_pressure,
        shed.elapsed_s * 1e3
    );
    server.shutdown();

    let windows = WindowsBlock {
        windows: windows_after.0.saturating_sub(windows_before.0),
        requests: windows_after.1.saturating_sub(windows_before.1),
        mean_batch: {
            let w = windows_after.0.saturating_sub(windows_before.0);
            let r = windows_after.1.saturating_sub(windows_before.1);
            if w == 0 {
                0.0
            } else {
                r as f64 / w as f64
            }
        },
    };

    let doc = Doc {
        generator: "hetsel-bench serve_load",
        platform: platform.name.to_string(),
        config: ConfigBlock {
            producers,
            depth,
            duration_ms,
            queue_capacity: config.queue_capacity,
            max_batch: config.max_batch,
            regions: traffic.regions.len(),
            zipf_s,
            seed,
        },
        warm,
        latency,
        shed,
        windows,
    };
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("results/ is creatable");
    }
    let json = serde_json::to_string_pretty(&doc).expect("doc serializes");
    std::fs::write(&out_path, json).expect("results/serve_load.json is writable");
    println!("[serve_load] wrote {}", out_path.display());
}

/// Closed-loop phase shared by warmup and the latency block: every
/// producer issues one request at a time; returns all round-trip times.
fn run_closed_loop(
    handle: &ServerHandle,
    traffic: &Traffic,
    producers: usize,
    seed: u64,
    duration: Duration,
) -> Vec<u64> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ ((p as u64 + 1) * 0xa076_1d64_78bd_642f));
                    let mut samples = Vec::new();
                    while start.elapsed() < duration {
                        let t0 = Instant::now();
                        let reply = handle.call(ServeRequest::new(traffic.request(&mut rng)));
                        if reply.status() == "ok" {
                            samples.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Floods a tiny server (short queue, small batches) with dispatches,
/// without backpressure, beside a wave of sub-microsecond deadlines, then
/// shuts it down — exercising the typed shed reasons.
fn shed_pressure(traffic: &Traffic, seed: u64, producers: usize) -> ShedBlock {
    let tiny = DecisionServer::start(
        Dispatcher::new(engine(), DispatcherConfig::default()),
        ServeConfig::default()
            .with_queue_capacity(64)
            .with_max_batch(16),
    );
    let mut block = ShedBlock {
        elapsed_s: 0.0,
        deadline_expired: 0,
        queue_full: 0,
        shutting_down: 0,
        ok_under_pressure: 0,
        total_replies: 0,
    };
    let start = Instant::now();
    let replies: Vec<ServeReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers.max(2))
            .map(|p| {
                let handle = tiny.handle();
                let traffic = &traffic;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ ((p as u64 + 1) * 0x2545_f491_4f6c_dd1d));
                    let mut pendings = Vec::new();
                    // Burst far past the queue capacity, no backpressure.
                    for i in 0..512 {
                        let serial = (p * 512 + i) as u64;
                        let serve = if i % 4 == 0 {
                            // Every fourth request is a decide-only miss
                            // with an unmeetable budget: admission decides
                            // it and sheds it when the evaluation returns.
                            let request = traffic
                                .fresh_request(&mut rng, serial)
                                .with_deadline(Duration::from_nanos(200));
                            ServeRequest::new(request)
                        } else {
                            // Only dispatches take queue slots.
                            fresh_gemm_dispatch(serial)
                        };
                        pendings.push(handle.submit(serve));
                    }
                    pendings
                        .iter()
                        .map(|pending| pending.done.wait())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    block.elapsed_s = start.elapsed().as_secs_f64();
    tiny.shutdown();
    for reply in &replies {
        block.total_replies += 1;
        match reply {
            ServeReply::Ok { .. } => block.ok_under_pressure += 1,
            ServeReply::Shed { reason, .. } => match reason.metric_key() {
                "queue_full" => block.queue_full += 1,
                "deadline_expired" => block.deadline_expired += 1,
                _ => block.shutting_down += 1,
            },
            ServeReply::Error { .. } => {}
        }
    }
    block
}

/// `(batches, requests)` so far on the serve batch-size histogram.
fn window_summary() -> (u64, u64) {
    hetsel_obs::registry()
        .snapshot()
        .histograms
        .iter()
        .find(|(name, _)| name == "hetsel.serve.window.batch")
        .map(|(_, h)| (h.count, h.sum))
        .unwrap_or((0, 0))
}

/// Fixed bench seed: runs are reproducible unless the generator changes.
const BENCH_SEED: u64 = 0x5e12_e10ad;

/// `--validate`: structural schema check for CI. Exits nonzero with a
/// message when the document is missing or malformed.
fn validate_doc(path: &std::path::Path) {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let doc: serde::Value = serde_json::from_str(&raw)
        .unwrap_or_else(|e| fail(&format!("{} is not JSON: {e}", path.display())));
    for key in [
        "generator",
        "platform",
        "config",
        "warm",
        "latency",
        "shed",
        "windows",
    ] {
        if doc.get(key).is_none() {
            fail(&format!("missing top-level key {key:?}"));
        }
    }
    let num = |block: &str, key: &str| -> f64 {
        match doc.get(block).and_then(|b| b.get(key)) {
            Some(serde::Value::UInt(n)) => *n as f64,
            Some(serde::Value::Int(n)) => *n as f64,
            Some(serde::Value::Float(x)) => *x,
            other => fail(&format!("{block}.{key} is not numeric: {other:?}")),
        }
    };
    let throughput = num("warm", "decisions_per_sec");
    let p50 = num("latency", "p50_ns");
    let p99 = num("latency", "p99_ns");
    if throughput <= 0.0 {
        fail("warm.decisions_per_sec must be positive");
    }
    if num("latency", "samples") <= 0.0 {
        fail("latency.samples must be positive");
    }
    if p50 > p99 {
        fail(&format!("p50 ({p50}) exceeds p99 ({p99})"));
    }
    // The pressure phase must really exercise both admission sheds; a
    // traffic change that lets admission answer everything would
    // otherwise turn the census silently to zero.
    for reason in ["queue_full", "deadline_expired"] {
        if num("shed", reason) <= 0.0 {
            fail(&format!(
                "shed.{reason} must be positive: the pressure phase shed none"
            ));
        }
    }
    num("windows", "mean_batch");
    println!(
        "[serve_load] {} validates: {:.0} decisions/sec, p50 {} ns, p99 {} ns",
        path.display(),
        throughput,
        p50,
        p99
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("[serve_load] INVALID: {msg}");
    std::process::exit(2);
}
