//! Concurrency tests for the sharded decision cache: many threads
//! hammering `decide()`, or `resolve` → `lookup` → `decide_miss` as the
//! decision service decides, must produce bit-for-bit the
//! decisions a cold selector computes, keep the cache inside its capacity,
//! and account every decision as exactly one hit or one miss.
//!
//! The quick variants run in every `cargo test`. The `stress_*` soak tests
//! are `#[ignore]`d and run by CI in release mode
//! (`cargo test --release -p hetsel-core -- --ignored stress`), where the
//! optimizer removes the instrumentation slack that hides real races.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use hetsel_core::{Decision, DecisionEngine, DecisionRequest, Lookup, Platform, Selector};
use hetsel_ir::Binding;
use hetsel_polybench::find_kernel;

fn selector() -> Selector {
    Selector::new(Platform::power9_v100())
}

/// The ground truth for `gemm` under `n`: what a cold selector computes.
fn expected_decisions(ns: impl IntoIterator<Item = i64>) -> HashMap<i64, Decision> {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let s = selector();
    ns.into_iter()
        .map(|n| (n, s.decide(&kernel, &Binding::new().with("n", n))))
        .collect()
}

/// Decides `request` the way the decision service does: `resolve`, then
/// `lookup`, and on a miss `decide_miss`.
fn decide_via_lookup(engine: &DecisionEngine, request: &DecisionRequest) -> Option<Decision> {
    let region = engine.resolve(request.region())?;
    let binding = request.binding();
    Some(
        match engine.lookup(region, |p| binding.get(p), request.policy_override()) {
            Lookup::Hit(cached) => cached.decision().clone(),
            Lookup::Miss(miss) => engine.decide_miss(miss, binding),
        },
    )
}

/// Spawns `threads` workers, each deciding `per_thread` times by walking
/// `ns` from a thread-specific offset, and checks every answer against the
/// cold-path ground truth. Returns the total number of decisions taken.
fn hammer(engine: &DecisionEngine, threads: usize, per_thread: usize, ns: &[i64]) -> u64 {
    let expected = expected_decisions(ns.iter().copied());
    let decided = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let expected = &expected;
            let decided = &decided;
            scope.spawn(move || {
                let mut binding = Binding::new();
                for i in 0..per_thread {
                    let n = ns[(t * 7 + i) % ns.len()];
                    binding.set("n", n);
                    let d = engine.decide("gemm", &binding).expect("gemm is known");
                    assert_eq!(
                        &d, &expected[&n],
                        "n={n}: concurrent decision diverged from the cold path"
                    );
                    decided.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    decided.load(Ordering::Relaxed)
}

#[test]
fn concurrent_decides_are_bit_identical_and_accounted() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    // Capacity is split across 16 shards, so it is sized for the *worst*
    // stripe, not the average: 256 gives every shard 16 slots for a
    // 24-key working set.
    let engine = DecisionEngine::with_capacity(selector(), std::slice::from_ref(&kernel), 256);
    let ns: Vec<i64> = (1..=24).collect();
    let decided = hammer(&engine, 4, 200, &ns);
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, decided, "{stats:?}");
    assert!(stats.len <= stats.capacity, "{stats:?}");
    assert_eq!(stats.misses, 24, "one miss per distinct key: {stats:?}");
    assert_eq!(stats.evictions, 0, "{stats:?}");
}

#[test]
fn concurrent_lookups_match_the_cold_path() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::with_capacity(selector(), std::slice::from_ref(&kernel), 256);
    let ns: Vec<i64> = (1..=16).collect();
    let expected = expected_decisions(ns.iter().copied());
    let bindings: Vec<Binding> = ns.iter().map(|&n| Binding::new().with("n", n)).collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let expected = &expected;
            let bindings = &bindings;
            let ns = &ns;
            scope.spawn(move || {
                let requests: Vec<DecisionRequest> = bindings
                    .iter()
                    .map(|b| DecisionRequest::new("gemm", b.clone()))
                    .collect();
                for _ in 0..50 {
                    for (request, n) in requests.iter().zip(ns) {
                        let decision = decide_via_lookup(engine, request);
                        assert_eq!(decision.as_ref(), Some(&expected[n]));
                    }
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, 4 * 50 * 16, "{stats:?}");
    assert!(stats.len <= stats.capacity);
}

/// 16 threads, a working set that mostly hits with a per-thread tail of
/// fresh keys: the mixed hit/miss soak the issue prescribes.
#[test]
#[ignore = "soak test; run with --release -- --ignored stress"]
fn stress_mixed_hit_miss_soak() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::with_capacity(selector(), std::slice::from_ref(&kernel), 4096);
    // 64 hot keys shared by all threads + 16×64 cold keys touched once.
    let hot: Vec<i64> = (1..=64).collect();
    let expected_hot = expected_decisions(hot.iter().copied());
    let decided = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..16i64 {
            let engine = &engine;
            let hot = &hot;
            let expected_hot = &expected_hot;
            let decided = &decided;
            scope.spawn(move || {
                let mut binding = Binding::new();
                for i in 0..4000usize {
                    let n = if i % 20 == 19 {
                        // 5%: a key no other thread ever touches (the
                        // per-thread ranges are disjoint).
                        100_000 + t * 10_000 + i as i64
                    } else {
                        hot[(t as usize * 5 + i) % hot.len()]
                    };
                    binding.set("n", n);
                    let d = engine.decide("gemm", &binding).expect("gemm is known");
                    if let Some(e) = expected_hot.get(&n) {
                        assert_eq!(&d, e, "n={n} diverged under contention");
                    }
                    decided.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(
        stats.hits + stats.misses,
        decided.load(Ordering::Relaxed),
        "every decision is exactly one hit or one miss: {stats:?}"
    );
    assert!(stats.len <= stats.capacity, "{stats:?}");
    // 64 hot keys miss once each; each thread's 200 cold keys miss once.
    assert_eq!(stats.misses, 64 + 16 * 200, "{stats:?}");
}

/// 8 threads thrashing a deliberately tiny cache: far more live keys than
/// capacity, so eviction and re-miss churn constantly. The cache must stay
/// bounded, keep exact accounting, and never corrupt a decision.
#[test]
#[ignore = "soak test; run with --release -- --ignored stress"]
fn stress_capacity_thrash_stays_bounded() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::with_capacity(selector(), std::slice::from_ref(&kernel), 32);
    let ns: Vec<i64> = (1..=256).collect();
    let decided = hammer(&engine, 8, 2000, &ns);
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, decided, "{stats:?}");
    assert!(stats.len <= stats.capacity, "{stats:?}");
    assert!(
        stats.evictions
            >= stats
                .misses
                .saturating_sub(stats.capacity as u64 + stats.len as u64),
        "thrash must evict: {stats:?}"
    );
}

/// Mixed `decide` and `lookup` traffic against the same engine: the two
/// entry points share shards, stats, and decisions.
#[test]
#[ignore = "soak test; run with --release -- --ignored stress"]
fn stress_mixed_decide_and_lookup_traffic() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::with_capacity(selector(), std::slice::from_ref(&kernel), 1024);
    let ns: Vec<i64> = (1..=48).collect();
    let expected = expected_decisions(ns.iter().copied());
    let decided = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..12usize {
            let engine = &engine;
            let ns = &ns;
            let expected = &expected;
            let decided = &decided;
            scope.spawn(move || {
                if t % 2 == 0 {
                    let bindings: Vec<Binding> =
                        ns.iter().map(|&n| Binding::new().with("n", n)).collect();
                    let requests: Vec<DecisionRequest> = bindings
                        .iter()
                        .map(|b| DecisionRequest::new("gemm", b.clone()))
                        .collect();
                    for _ in 0..250 {
                        for (request, n) in requests.iter().zip(ns) {
                            let decision = decide_via_lookup(engine, request);
                            assert_eq!(decision.as_ref(), Some(&expected[n]));
                        }
                        decided.fetch_add(requests.len() as u64, Ordering::Relaxed);
                    }
                } else {
                    let mut binding = Binding::new();
                    for i in 0..12_000usize {
                        let n = ns[(t * 11 + i) % ns.len()];
                        binding.set("n", n);
                        let d = engine.decide("gemm", &binding).expect("gemm is known");
                        assert_eq!(&d, &expected[&n]);
                        decided.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.hits + stats.misses, decided.load(Ordering::Relaxed));
    assert_eq!(stats.misses, 48, "the working set fits: one miss per key");
    assert!(stats.len <= stats.capacity);
}
