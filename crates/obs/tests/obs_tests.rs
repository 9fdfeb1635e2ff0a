//! Integration tests for the metrics registry: the concurrency behaviour
//! unit tests cannot cover.

use std::sync::Arc;
use std::thread;

use hetsel_obs::registry;

#[test]
fn counters_are_exact_under_thread_fanout() {
    let c = registry().counter("hetsel.test.concurrent");
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                for _ in 0..per_thread {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.get(), threads as u64 * per_thread);
}

#[test]
fn histogram_is_consistent_under_thread_fanout() {
    let h = registry().histogram("hetsel.test.concurrent_hist");
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for v in 0..5_000u64 {
                    h.record(v * 4 + t);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let s = h.summary();
    assert_eq!(s.count, 20_000);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, 4 * 4999 + 3);
    // Sum of 0..20000 shifted: exact because every sample value 0..=19999
    // appears exactly once across the four threads.
    assert_eq!(s.sum, (0..20_000u64).sum::<u64>());
    assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
}
