//! The cache-only probe, [`DecisionEngine::lookup`], against the full
//! request path it short-circuits.
//!
//! The decision service's admission step probes first and decides only
//! the misses, with [`DecisionEngine::decide_miss`]. That is sound only
//! if:
//!
//! * a miss changes nothing — no statistics, no cache entry, no
//!   flight-recorder event — so the later decide counts it exactly once;
//! * a hit is counted and recorded as a decide hit is, so
//!   `hits + misses == decisions` still holds across the two calls;
//! * a hit is the decision `decide_request` would return, bit for bit,
//!   whichever cache partition the request keys into.
//!
//! Its own test binary: it reads the process-wide flight recorder.

use std::sync::Arc;
use std::time::Duration;

use hetsel_core::{
    CalibrationMode, Calibrator, CalibratorConfig, Decision, DecisionEngine, DecisionRequest,
    Lookup, Platform, Policy, Selector,
};
use hetsel_ir::Kernel;
use hetsel_polybench::{all_kernels, find_kernel, Dataset};

fn suite_engine(selector: Selector) -> DecisionEngine {
    let kernels: Vec<Kernel> = all_kernels().into_iter().map(|(_, k, _)| k).collect();
    DecisionEngine::new(selector, &kernels)
}

/// Every suite region under both paper datasets.
fn suite_requests() -> Vec<DecisionRequest> {
    all_kernels()
        .into_iter()
        .flat_map(|(_, kernel, binding)| {
            [Dataset::Test, Dataset::Benchmark]
                .map(|ds| DecisionRequest::new(kernel.name.clone(), binding(ds)))
        })
        .collect()
}

/// What the cache alone answers for `request`, as admission probes it:
/// `resolve`, then `lookup`, the hit's decision cloned. `None` on a miss
/// and for an unknown region.
fn probe(engine: &DecisionEngine, request: &DecisionRequest) -> Option<Decision> {
    let region = engine.resolve(request.region())?;
    let binding = request.binding();
    match engine.lookup(region, |p| binding.get(p), request.policy_override()) {
        Lookup::Hit(cached) => Some(cached.decision().clone()),
        Lookup::Miss(_) => None,
    }
}

/// Equality down to the bits of every predicted time.
fn assert_bit_identical(a: &Decision, b: &Decision, what: &str) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(a, b, "{what}");
    assert_eq!(bits(a.predicted_cpu_s), bits(b.predicted_cpu_s), "{what}");
    assert_eq!(bits(a.predicted_gpu_s), bits(b.predicted_gpu_s), "{what}");
}

#[test]
fn a_probe_miss_leaves_stats_and_cache_untouched() {
    let engine = suite_engine(Selector::new(Platform::power9_v100()));
    let (_, binding) = find_kernel("gemm").unwrap();
    let request = DecisionRequest::new("gemm", binding(Dataset::Benchmark));
    let cold = engine.stats();
    assert_eq!(probe(&engine, &request), None);
    assert_eq!(
        probe(&engine, &request.clone().with_policy(Policy::AlwaysHost)),
        None
    );
    assert_eq!(engine.stats(), cold, "a miss must count and insert nothing");

    let decided = engine.decide_request(&request).unwrap();
    let warm = engine.stats();
    assert_eq!((warm.hits, warm.misses, warm.len), (0, 1, 1));
    // An unknown region does not resolve, and costs nothing either.
    assert_eq!(
        probe(
            &engine,
            &DecisionRequest::new("no-such-region", binding(Dataset::Benchmark))
        ),
        None
    );
    // The override partition is still cold: warming the plain key did not
    // make it answerable.
    assert_eq!(
        probe(&engine, &request.clone().with_policy(Policy::AlwaysHost)),
        None
    );
    assert_eq!(engine.stats(), warm);

    let hit = probe(&engine, &request).expect("the plain key is cached");
    assert_bit_identical(&hit, &decided, "probe hit vs decide_request");
    let after = engine.stats();
    assert_eq!((after.hits, after.misses, after.len), (1, 1, 1));
}

#[test]
fn probing_then_deciding_the_misses_keeps_the_accounting_exact() {
    let engine = suite_engine(Selector::new(Platform::power9_v100()));
    let reference = suite_engine(Selector::new(Platform::power9_v100()));
    let mut requests = suite_requests();
    // Warm every other request, and repeat a few so the probed burst holds
    // duplicate keys on both sides of the split.
    for request in requests.iter().step_by(2) {
        engine.decide_request(request).unwrap();
    }
    requests.extend(requests[..6].to_vec());
    let before = engine.stats();

    // Probe the whole burst before deciding any of it, as admission does
    // with a burst of lines: a key repeated in the burst misses each time.
    let mut answers: Vec<Option<Decision>> = vec![None; requests.len()];
    let mut missed = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let region = engine.resolve(request.region()).expect("suite region");
        let binding = request.binding();
        match engine.lookup(region, |p| binding.get(p), request.policy_override()) {
            Lookup::Hit(cached) => answers[i] = Some(cached.decision().clone()),
            Lookup::Miss(miss) => missed.push((i, miss)),
        }
    }
    assert!(!missed.is_empty() && missed.len() < requests.len());
    let probed = engine.stats();
    assert_eq!(probed.misses, before.misses, "probing never counts a miss");
    assert_eq!(
        probed.hits - before.hits,
        (requests.len() - missed.len()) as u64
    );

    // A repeated miss finds its key inserted by the first one: a late hit.
    let repeats = missed
        .iter()
        .filter(|&&(i, _)| {
            missed
                .iter()
                .any(|&(j, _)| j < i && requests[j] == requests[i])
        })
        .count() as u64;
    assert!(repeats > 0, "the burst repeats a missed key");
    let misses = missed.len() as u64;
    for (i, miss) in missed {
        answers[i] = Some(engine.decide_miss(miss, requests[i].binding()));
    }
    let after = engine.stats();
    assert_eq!(after.misses - probed.misses, misses - repeats);
    assert_eq!(after.hits - probed.hits, repeats, "late hits");
    assert_eq!(after.len - probed.len, (misses - repeats) as usize);
    let decided = answers.iter().filter(|d| d.is_some()).count() as u64;
    assert_eq!(decided, requests.len() as u64);
    assert_eq!(
        (after.hits + after.misses) - (before.hits + before.misses),
        decided,
        "hits + misses == decides across probe and decide"
    );
    for (request, answer) in requests.iter().zip(&answers) {
        let expected = reference.decide_request(request).unwrap();
        assert_bit_identical(answer.as_ref().unwrap(), &expected, request.region());
    }
}

#[test]
fn probe_hits_equal_decide_request_in_every_partition() {
    let engine = suite_engine(Selector::new(Platform::power9_v100()));
    for plain in suite_requests() {
        for request in [
            plain.clone(),
            plain.clone().with_policy(Policy::AlwaysHost),
            plain.clone().with_policy(Policy::AlwaysOffload),
            plain.clone().with_policy(Policy::ModelDriven),
        ] {
            assert_eq!(probe(&engine, &request), None, "{request:?} starts cold");
            let decided = engine.decide_request(&request).unwrap();
            let hit = probe(&engine, &request).expect("decide_request cached it");
            assert_bit_identical(&hit, &decided, request.region());
            // And the probe answered what decide_request now answers warm.
            assert_eq!(engine.decide_request(&request).unwrap(), hit);
        }
        // A live budget keys like the plain request: its decide is a hit.
        let budgeted = plain.clone().with_deadline(Duration::from_secs(3600));
        let warm = engine.stats();
        assert_bit_identical(
            &engine.decide_request(&budgeted).unwrap(),
            &probe(&engine, &plain).expect("the plain key is warm"),
            plain.region(),
        );
        assert_eq!(engine.stats().misses, warm.misses, "{budgeted:?}");
    }
}

#[test]
fn probes_follow_the_active_calibration_epoch() {
    let calibrator = Arc::new(Calibrator::new(CalibratorConfig {
        min_samples: 1,
        ..CalibratorConfig::default()
    }));
    let engine = suite_engine(
        Selector::new(Platform::power9_v100())
            .with_calibration(CalibrationMode::Active)
            .with_calibrator(Arc::clone(&calibrator)),
    );
    let (_, binding) = find_kernel("gemm").unwrap();
    let request = DecisionRequest::new("gemm", binding(Dataset::Benchmark));
    let cold = engine.decide_request(&request).unwrap();
    assert_bit_identical(&probe(&engine, &request).unwrap(), &cold, "epoch 0");

    // A published correction moves every Active key to the new epoch: the
    // old entry must not answer the probe, and the miss stays uncounted.
    let tag = cold.calibration.expect("active mode tags decisions");
    let raw = tag.raw_cpu_s.expect("fully-bound gemm predicts the host");
    calibrator.observe("gemm", "host", tag.class, raw, raw * 1.5);
    assert!(calibrator.epoch() > 0, "the correction published");
    let stale = engine.stats();
    assert_eq!(probe(&engine, &request), None);
    assert_eq!(engine.stats(), stale);

    let corrected = engine.decide_request(&request).unwrap();
    assert!(corrected.calibration.expect("tagged").applied);
    let hit = probe(&engine, &request).expect("re-decided under the new epoch");
    assert_bit_identical(&hit, &corrected, "published epoch");
}

#[test]
fn a_probe_hit_is_flight_recorded_and_a_miss_is_not() {
    // The other tests here record too while recording is on. No other
    // test uses this binding, so its predicted host time tells our events
    // apart.
    let request = DecisionRequest::new("gemm", hetsel_ir::Binding::new().with("n", 777));
    let expected = suite_engine(Selector::new(Platform::power9_v100()))
        .decide_request(&request)
        .unwrap();
    let cpu_bits = expected.predicted_cpu_s.map(f64::to_bits);
    let ours = |hit: bool| {
        hetsel_obs::flight_recorder()
            .snapshot()
            .iter()
            .filter(|ev| {
                ev.kind == hetsel_obs::EventKind::Decide
                    && ev.region_str() == "gemm"
                    && Some(ev.predicted_cpu_s.to_bits()) == cpu_bits
                    && ev.cache_hit == hit
            })
            .count()
    };
    let engine = suite_engine(Selector::new(Platform::power9_v100()));
    hetsel_obs::set_flight_recording(true);
    assert_eq!(probe(&engine, &request), None);
    let after_miss = (ours(false), ours(true));
    engine.decide_request(&request).unwrap();
    let after_decide = (ours(false), ours(true));
    probe(&engine, &request).unwrap();
    let after_hit = (ours(false), ours(true));
    hetsel_obs::set_flight_recording(false);
    assert_eq!(after_miss, (0, 0), "a probe miss records nothing");
    assert_eq!(after_decide, (1, 0));
    assert_eq!(after_hit, (1, 1), "a probe hit records one Decide hit");
}
