//! The no-fault equivalence contract, in its own test binary.
//!
//! This file must contain exactly one test: it asserts that a healthy
//! dispatcher adds **zero** fault/retry/fallback/breaker counts to the
//! process-wide metrics registry, and the registry is shared by every test
//! in a binary — a sibling test injecting faults in another thread would
//! make the assertion racy. One test per process makes it exact.

use hetsel_core::{
    BreakerState, DecisionEngine, DecisionRequest, DeviceId, Dispatcher, DispatcherConfig,
    Platform, Selector,
};
use hetsel_ir::Kernel;
use hetsel_polybench::{suite, Dataset};

#[test]
fn p0_dispatch_is_decide_plus_one_run_with_zero_added_counters() {
    let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
    let reference = DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels);
    let dispatcher = Dispatcher::new(
        DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels),
        DispatcherConfig::default(),
    );

    let registry = hetsel_obs::registry();
    let watched = [
        "hetsel.core.dispatch.retries",
        "hetsel.core.dispatch.faults.gpu",
        "hetsel.core.dispatch.faults.host",
        "hetsel.core.dispatch.fallback.deadline_exceeded",
        "hetsel.core.dispatch.fallback.breaker_open",
        "hetsel.core.dispatch.fallback.device_fault",
        "hetsel.core.breaker.gpu.trip",
        "hetsel.core.breaker.host.trip",
    ];
    let before: Vec<u64> = watched.iter().map(|n| registry.counter(n).get()).collect();

    // Two passes per key: the second pass exercises the cache-hit path,
    // where the zero-added-counters claim matters most.
    for _pass in 0..2 {
        for bench in suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let binding = (bench.binding)(ds);
                for k in &bench.kernels {
                    let expected = reference.decide(&k.name, &binding).expect("known region");
                    let outcome = dispatcher
                        .dispatch(&DecisionRequest::new(&k.name, binding.clone()))
                        .expect("healthy dispatch completes");
                    assert_eq!(
                        outcome.decision, expected,
                        "{} {ds}: p=0 dispatch decision diverged from decide",
                        k.name
                    );
                    assert_eq!(outcome.device_id, expected.device_id);
                    assert!(outcome.clean(), "{} {ds}: {outcome:?}", k.name);
                }
            }
        }
    }

    for (name, before) in watched.iter().zip(before) {
        assert_eq!(
            registry.counter(name).get(),
            before,
            "`{name}` moved under a no-fault dispatcher"
        );
    }
    assert_eq!(
        dispatcher.breaker_state_by_id(DeviceId(1)),
        Some(BreakerState::Closed)
    );
    assert_eq!(
        dispatcher.breaker_state_by_id(DeviceId::HOST),
        Some(BreakerState::Closed)
    );
    // The engines took identical decision paths: same hit/miss accounting.
    assert_eq!(dispatcher.engine().stats().misses, reference.stats().misses);
}
