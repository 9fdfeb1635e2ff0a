//! Release-mode soak: the flight recorder must never block the decide hot
//! path. Eight threads hammer `decide_request` with recording enabled while
//! a drainer thread concurrently snapshots and drains the ring — the
//! recorder's per-slot seqlock makes writers wait-free (a torn slot is
//! skipped by readers, never retried by writers), so the soak passing
//! under `--release` (where weak-memory reorderings actually happen) pins
//! that claim.
//!
//! Run with the other soaks: `cargo test --release -p hetsel-core --
//! --ignored stress`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hetsel_core::{DecisionEngine, DecisionRequest, Platform, Selector};
use hetsel_ir::Kernel;
use hetsel_polybench::Dataset;

#[test]
#[ignore = "release-mode soak; run via `cargo test --release -- --ignored stress`"]
fn stress_flight_recorder_never_blocks_deciding() {
    let kernels: Vec<Kernel> = hetsel_polybench::suite()
        .into_iter()
        .flat_map(|b| b.kernels)
        .collect();
    let requests: Vec<DecisionRequest> = hetsel_polybench::suite()
        .into_iter()
        .flat_map(|b| {
            let binding = (b.binding)(Dataset::Benchmark);
            b.kernels
                .into_iter()
                .map(move |k| DecisionRequest::new(k.name.clone(), binding.clone()))
        })
        .collect();
    let engine = Arc::new(DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        &kernels,
    ));

    let recorder = hetsel_obs::flight_recorder();
    let recorded_before = recorder.total_recorded();
    hetsel_obs::set_flight_recording(true);

    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let recorder = hetsel_obs::flight_recorder();
            let mut drained = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Non-destructive peek, then a destructive drain: both run
                // concurrently with eight writer threads.
                let _peek = recorder.snapshot();
                drained += recorder.drain().len() as u64;
            }
            drained += recorder.drain().len() as u64;
            drained
        })
    };

    let threads = 8;
    let rounds = 2_000;
    let expected: Vec<Option<_>> = requests.iter().map(|r| engine.decide_request(r)).collect();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let requests = requests.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                for _ in 0..rounds {
                    let got: Vec<Option<_>> =
                        requests.iter().map(|r| engine.decide_request(r)).collect();
                    assert_eq!(got, expected, "recording must not corrupt decisions");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("a deciding worker panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let drained = drainer.join().expect("the drainer panicked");
    hetsel_obs::set_flight_recording(false);

    // Every round over R regions appends R decide events; with the
    // concurrent drainer racing the ring's wrap-around some may be
    // overwritten before being read, but the recorder's own tally counts
    // every append.
    let appended = recorder.total_recorded() - recorded_before;
    let floor = threads as u64 * rounds as u64 * requests.len() as u64;
    assert!(
        appended >= floor,
        "expected at least {floor} recorded events, saw {appended}"
    );
    assert!(drained > 0, "the drainer observed live traffic");
}
