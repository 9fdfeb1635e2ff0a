//! Proof that a cache-hit `decide` — and the cache-only probe
//! `DecisionEngine::resolve` + `DecisionEngine::lookup` — performs **zero
//! heap allocations**.
//!
//! A counting global allocator tallies every `alloc`/`realloc`/
//! `alloc_zeroed` on a per-thread counter; the test primes the engine (the
//! miss populates the cache and first hits initialise every lazily-created
//! metric), snapshots the counter, runs a burst of cache-hit decides, and
//! asserts the counter did not move. This pins the whole hot-path design:
//! the inline-slot `CacheKey` with its precomputed hash, the intrusive
//! index-linked LRU (no key clones, no queue records), and the `Arc<str>`
//! region name that makes `Decision::clone` pointer-copy only.
//!
//! The counter is thread-local so the libtest harness's own threads cannot
//! perturb the measurement.
//!
//! The flight recorder must not regress this: with recording *disabled*
//! (the default — the two original tests) the hot path pays one relaxed
//! load; with recording *enabled* the event is written into the
//! preallocated lock-free ring, so even the instrumented path stays
//! allocation-free once the ring's one-time `Box` exists. A dispatch
//! allocates (the simulators do), but recording adds nothing to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use hetsel_core::{
    CalibrationMode, Calibrator, CalibratorConfig, Decision, DecisionEngine, DecisionRequest,
    DeviceId, Dispatcher, DispatcherConfig, Fleet, Lookup, Platform, Policy, Selector,
};
use hetsel_polybench::{find_kernel, Dataset};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The decision service's probe of one request: `resolve`, then `lookup`
/// with `binding` returning a parameter's value by name; a hit's decision
/// is cloned (a pointer copy), a miss answers `None`.
fn probe(
    engine: &DecisionEngine,
    region: &str,
    binding: impl Fn(&str) -> Option<i64>,
    policy_override: Option<Policy>,
) -> Option<Decision> {
    match engine.lookup(engine.resolve(region)?, binding, policy_override) {
        Lookup::Hit(cached) => Some(cached.decision().clone()),
        Lookup::Miss(_) => None,
    }
}

#[test]
fn cache_hit_decide_allocates_nothing() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );

    // Prime: the first call misses (evaluates the models, inserts, and
    // creates every lazily-initialised counter/histogram); the next calls
    // hit and warm whatever the hit path touches lazily.
    let first = engine.decide("gemm", &b).expect("gemm is known");
    assert!(
        first.cpu_error.is_none() && first.gpu_error.is_none(),
        "fully-bound gemm must produce clean predictions: {first:?}"
    );
    for _ in 0..3 {
        engine.decide("gemm", &b).expect("primed hit");
    }

    let before = allocs_on_this_thread();
    let mut last = None;
    for _ in 0..1000 {
        last = engine.decide("gemm", &b);
    }
    let after = allocs_on_this_thread();

    assert_eq!(
        after - before,
        0,
        "cache-hit decide must not allocate (1000 hits allocated {} times)",
        after - before
    );
    // The burst really was answering from the cache, bit-identically.
    assert_eq!(last.expect("hit"), first);
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert!(stats.hits >= 1003);
}

#[test]
fn cache_hit_decide_with_flight_recorder_enabled_allocates_nothing() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );

    // Recording adds nothing to a dispatch either. The dispatcher is
    // primed with recording off only, so a metric the recorded path took
    // from the registry on first use would show as a difference below.
    let recorder = hetsel_obs::flight_recorder();
    let dispatcher = Dispatcher::new(
        DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        ),
        DispatcherConfig::default(),
    );
    let request = DecisionRequest::new("gemm", b.clone());
    for _ in 0..3 {
        dispatcher.dispatch(&request).expect("healthy dispatch");
    }
    const N: u64 = 50;
    let dispatch_allocs = || {
        let before = allocs_on_this_thread();
        for _ in 0..N {
            dispatcher.dispatch(&request).expect("healthy dispatch");
        }
        allocs_on_this_thread() - before
    };
    let unrecorded = dispatch_allocs();
    let recorded_before = recorder.total_recorded();
    hetsel_obs::set_flight_recording(true);
    let recorded = dispatch_allocs();
    assert!(
        recorder.total_recorded() >= recorded_before + N,
        "the recorded dispatches really were recorded"
    );
    assert_eq!(
        recorded, unrecorded,
        "recording must add no allocation to a dispatch ({recorded} allocs over {N} recorded dispatches vs {unrecorded} unrecorded)"
    );

    // Prime the ring's one-time slot allocation, the cache entry, and
    // every lazily-created metric before counting.
    let first = engine.decide("gemm", &b).expect("gemm is known");
    for _ in 0..3 {
        engine.decide("gemm", &b).expect("primed hit");
    }
    probe(&engine, "gemm", |p| b.get(p), None).expect("primed probe hit");

    let recorded_before = recorder.total_recorded();
    let before = allocs_on_this_thread();
    let mut last = None;
    for _ in 0..1000 {
        last = engine.decide("gemm", &b);
    }
    let after = allocs_on_this_thread();
    // The same again through the cache-only probe.
    let mut probed = None;
    for _ in 0..1000 {
        probed = probe(&engine, "gemm", |p| b.get(p), None);
    }
    let after_probes = allocs_on_this_thread();
    hetsel_obs::set_flight_recording(false);

    assert_eq!(
        after - before,
        0,
        "recorded cache-hit decide must not allocate (1000 hits allocated {} times)",
        after - before
    );
    assert_eq!(
        after_probes - after,
        0,
        "recorded lookup hit must not allocate (1000 hits allocated {} times)",
        after_probes - after
    );
    assert_eq!(last.expect("hit"), first);
    assert_eq!(probed.expect("hit"), first);
    assert!(
        recorder.total_recorded() >= recorded_before + 2000,
        "both bursts really were recorded, not silently dropped"
    );
}

#[test]
fn lookup_hit_allocates_nothing() {
    // The decision service answers cached decisions at admission through
    // `resolve` + `lookup`; its hit must be as allocation-free as a decide
    // hit. The second request carries a policy override, so key
    // resolution covers its cache partition. (The recorder-enabled
    // variant runs in the recorder test above: only one test here may
    // toggle the process-wide recording flag.)
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );
    let plain = DecisionRequest::new("gemm", binding(Dataset::Benchmark));
    let overridden = plain.clone().with_policy(Policy::AlwaysHost);
    // The same requests as borrowed parts, the way the decision service
    // probes a request line it decoded in place: the binding is a lookup
    // over entries that borrow the line, the last of a repeated name
    // winning.
    let n = binding(Dataset::Benchmark).get("n").expect("gemm binds n");
    let entries = [("m", 7), ("n", n - 1), ("n", n)];
    let borrowed = |name: &str| {
        entries
            .iter()
            .rev()
            .find_map(|&(k, v)| (k == name).then_some(v))
    };
    for request in [&plain, &overridden] {
        let first = engine.decide_request(request).expect("gemm is known");
        let owned = || {
            probe(
                &engine,
                request.region(),
                |p| request.binding().get(p),
                request.policy_override(),
            )
        };
        let parts = || {
            probe(
                &engine,
                request.region(),
                borrowed,
                request.policy_override(),
            )
        };
        for _ in 0..3 {
            owned().expect("primed hit");
            parts().expect("primed borrowed hit");
        }
        let before = allocs_on_this_thread();
        let mut last = None;
        for _ in 0..1000 {
            last = owned();
        }
        let after = allocs_on_this_thread();
        let mut from_parts = None;
        for _ in 0..1000 {
            from_parts = parts();
        }
        let after_parts = allocs_on_this_thread();
        assert_eq!(
            after - before,
            0,
            "lookup hit must not allocate (1000 hits allocated {} times)",
            after - before
        );
        assert_eq!(
            after_parts - after,
            0,
            "borrowed lookup hit must not allocate (1000 hits allocated {} times)",
            after_parts - after
        );
        assert_eq!(last.expect("hit"), first);
        assert_eq!(from_parts.expect("borrowed hit"), first);
    }
}

#[test]
fn calibrated_cache_hit_decide_allocates_nothing() {
    // Active calibration must not tax the hit path: the per-decide cost is
    // one relaxed epoch load folded into the cache key. Corrections are
    // resolved only on misses, so a warm engine with *published* (epoch >
    // 0) corrections answers hits exactly as allocation-free as an
    // uncalibrated one.
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let calibrator = std::sync::Arc::new(Calibrator::new(CalibratorConfig {
        min_samples: 1,
        ..CalibratorConfig::default()
    }));
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100())
            .with_calibration(CalibrationMode::Active)
            .with_calibrator(std::sync::Arc::clone(&calibrator)),
        std::slice::from_ref(&kernel),
    );

    // Warm a real correction so the stamped epoch is nonzero, then prime
    // the post-publication cache entry and the lazily-created metrics.
    let cold = engine.decide("gemm", &b).expect("gemm is known");
    let tag = cold.calibration.expect("active mode tags decisions");
    let raw = tag.raw_cpu_s.expect("fully-bound gemm predicts the host");
    calibrator.observe("gemm", "host", tag.class, raw, raw * 1.5);
    assert!(calibrator.epoch() > 0, "the correction published");
    let first = engine.decide("gemm", &b).expect("gemm is known");
    assert!(
        first.calibration.expect("tagged").applied,
        "the burst below must exercise the corrected path"
    );
    for _ in 0..3 {
        engine.decide("gemm", &b).expect("primed hit");
    }

    let before = allocs_on_this_thread();
    let mut last = None;
    for _ in 0..1000 {
        last = engine.decide("gemm", &b);
    }
    let after = allocs_on_this_thread();

    assert_eq!(
        after - before,
        0,
        "calibrated cache-hit decide must not allocate (1000 hits allocated {} times)",
        after - before
    );
    assert_eq!(last.expect("hit"), first);
}

#[test]
fn scoped_cache_hit_decide_allocates_nothing() {
    // The fleet generalization must not have bought its `(region, device)`
    // cache key at the price of hot-path allocations: a `decide_for` hit
    // on a multi-accelerator fleet is as allocation-free as `decide`.
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let platform = Platform::power9_v100();
    let fleet = Fleet::pair_labeled(&platform, "v100")
        .with_accelerator_from("k80", &Platform::power8_k80());
    let scope = fleet.device_id_of("k80").expect("k80 is registered");
    let engine = DecisionEngine::new(
        Selector::new(platform).with_fleet(fleet),
        std::slice::from_ref(&kernel),
    );

    let first = engine
        .decide_for("gemm", &b, scope)
        .expect("gemm is known and k80 has a compiled model");
    assert_eq!(first.device_id, scope);
    for _ in 0..3 {
        engine.decide_for("gemm", &b, scope).expect("primed hit");
    }
    // The whole-fleet and host-scoped entries live under different keys in
    // the same cache; prime them too so the burst below is all hits even
    // if a future change makes the paths share state.
    engine.decide("gemm", &b).expect("gemm is known");
    engine
        .decide_for("gemm", &b, DeviceId::HOST)
        .expect("host scope");

    let before = allocs_on_this_thread();
    let mut last = None;
    for _ in 0..1000 {
        last = engine.decide_for("gemm", &b, scope);
    }
    let after = allocs_on_this_thread();

    assert_eq!(
        after - before,
        0,
        "scoped cache-hit decide must not allocate (1000 hits allocated {} times)",
        after - before
    );
    assert_eq!(last.expect("hit"), first);
}

#[test]
fn a_deadline_dispatch_allocates_as_a_plain_one() {
    // A budget travels on the request, built once with `with_deadline`:
    // a warm dispatch carrying one must have exactly the allocation
    // profile of a plain one.
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );
    let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
    let request = DecisionRequest::new("gemm", b);
    // A deadline no warm decision can miss: the decision itself stays
    // un-degraded, so both loops below execute the identical path apart
    // from the deadline check.
    let bounded = request.clone().with_deadline(Duration::from_secs(3600));

    // Prime the cache, the accuracy cells, and every lazily-created
    // metric on both variants before counting.
    for _ in 0..3 {
        dispatcher.dispatch(&request).expect("healthy dispatch");
        dispatcher
            .dispatch(&bounded)
            .expect("healthy bounded dispatch");
    }

    const N: u64 = 200;
    let before = allocs_on_this_thread();
    for _ in 0..N {
        dispatcher.dispatch(&request).expect("healthy dispatch");
    }
    let plain = allocs_on_this_thread() - before;

    let before = allocs_on_this_thread();
    for _ in 0..N {
        dispatcher
            .dispatch(&bounded)
            .expect("healthy bounded dispatch");
    }
    let with_deadline = allocs_on_this_thread() - before;

    assert_eq!(
        with_deadline, plain,
        "a deadline must cost no allocation ({with_deadline} allocs over {N} bounded dispatches vs {plain} plain)"
    );
}
