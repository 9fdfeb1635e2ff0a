//! Contention benchmark for the sharded decision cache.
//!
//! The acceptance bar: with 8 threads on a 95%-hit workload, the sharded
//! engine must deliver ≥3× the throughput of the single-mutex baseline.
//! One benchmark "iteration" is a full round — 8 threads each taking
//! `OPS_PER_THREAD` decisions — so the reported per-iter times of
//! `sharded16` and `single_mutex` compare directly (same total work), and
//! the harness prints the throughput ratio at the end.
//!
//! The ratio is meaningful only where threads actually run in parallel:
//! on a single-core host every workload is hardware-serialized, lock
//! contention never materializes, and the ratio degenerates to ~1×. The
//! harness prints the detected parallelism next to the ratio so a
//! single-core reading is not mistaken for a regression.
//!
//! Workload: 95% of decisions walk a shared hot set that fits the cache
//! (hits after warm-up); 5% walk a cold sequence much longer than the
//! capacity, so it always misses and exercises insert + eviction under
//! contention.

use criterion::{criterion_group, criterion_main, Criterion};
use hetsel_core::{AttributeDatabase, DecisionEngine, Platform, Selector, DEFAULT_DECISION_SHARDS};
use hetsel_ir::Binding;
use hetsel_polybench::find_kernel;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 4000;
const HOT_KEYS: usize = 64;
const CAPACITY: usize = 4096;

fn engine_with_shards(shards: usize) -> DecisionEngine {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let sel = Selector::new(Platform::power9_v100());
    let db = AttributeDatabase::compile(std::slice::from_ref(&kernel), &sel);
    DecisionEngine::from_database_sharded(sel, db, CAPACITY, shards)
}

/// One full round: 8 threads, each `OPS_PER_THREAD` decisions, 95% from
/// the hot set. `cold` hands out a fresh never-seen key per miss so the 5%
/// stays a miss across benchmark iterations.
fn hammer_round(engine: &DecisionEngine, cold: &AtomicI64) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let mut binding = Binding::new();
                for i in 0..OPS_PER_THREAD {
                    let n = if i % 20 == 19 {
                        cold.fetch_add(1, Ordering::Relaxed)
                    } else {
                        (1 + (t * 7 + i) % HOT_KEYS) as i64
                    };
                    binding.set("n", n);
                    black_box(engine.decide("gemm", &binding));
                }
            });
        }
    });
}

/// Warm the hot set so steady-state rounds run at the intended 95% hit
/// rate from the first measured iteration.
fn warm(engine: &DecisionEngine) {
    let mut binding = Binding::new();
    for n in 1..=HOT_KEYS as i64 {
        binding.set("n", n);
        engine.decide("gemm", &binding);
    }
}

fn contended_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("contended_decide_8t_95hit");

    let sharded = engine_with_shards(DEFAULT_DECISION_SHARDS);
    warm(&sharded);
    let cold = AtomicI64::new(1_000_000);
    let t0 = Instant::now();
    hammer_round(&sharded, &cold);
    let sharded_round = t0.elapsed();
    group.bench_function("sharded16", |b| {
        b.iter(|| hammer_round(&sharded, &cold));
    });

    let single = engine_with_shards(1);
    warm(&single);
    let t0 = Instant::now();
    hammer_round(&single, &cold);
    let single_round = t0.elapsed();
    group.bench_function("single_mutex", |b| {
        b.iter(|| hammer_round(&single, &cold));
    });
    group.finish();

    let ops = (THREADS * OPS_PER_THREAD) as f64;
    let sharded_tput = ops / sharded_round.as_secs_f64();
    let single_tput = ops / single_round.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "contention: sharded16 {:.2} Mops/s vs single_mutex {:.2} Mops/s — {:.1}x \
         ({THREADS} threads on {cores} core{})",
        sharded_tput / 1e6,
        single_tput / 1e6,
        sharded_tput / single_tput,
        if cores == 1 {
            "; serialized, ratio not meaningful"
        } else {
            "s"
        }
    );
    let stats = sharded.stats();
    println!(
        "contention: sharded engine stats hits={} misses={} len={}/{} evictions={} shards={}",
        stats.hits, stats.misses, stats.len, stats.capacity, stats.evictions, stats.shards
    );
}

criterion_group!(benches, contended_decide);
criterion_main!(benches);
