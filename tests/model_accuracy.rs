//! Model-vs-simulator accuracy tests (the Figure 6/7 claims): predictions
//! track the simulated ground truth closely enough that *relative* error
//! between the two versions of a kernel — the quantity the framework
//! actually acts on — yields mostly-correct decisions.

use hetsel::core::{Platform, Selector};
use hetsel::polybench::{all_kernels, Dataset};

fn scatter(ds: Dataset, threads: u32) -> (f64, usize, usize) {
    let platform = Platform::power9_v100().with_threads(threads);
    let sel = Selector::new(platform);
    let mut log_err = 0.0;
    let mut correct = 0;
    let mut total = 0;
    for (_, kernel, binding) in all_kernels() {
        let b = binding(ds);
        let d = sel.decide(&kernel, &b);
        let m = sel.measure(&kernel, &b).unwrap();
        let predicted = d.predicted_cpu_s.unwrap() / d.predicted_gpu_s.unwrap();
        let actual = m.speedup().unwrap();
        log_err += (predicted / actual).ln().abs();
        if d.device_id.kind() == m.best_device() {
            correct += 1;
        }
        total += 1;
    }
    ((log_err / total as f64).exp(), correct, total)
}

/// Figure 6: test mode, 4-thread host. The paper's framework "assumes that
/// ... the relative error among versions of the kernel is more important
/// than errors in the prediction of actual execution time": we require the
/// geometric-mean error factor under 4x and a large majority of correct
/// decisions.
#[test]
fn fig6_test_mode_four_threads() {
    let (gmae, correct, total) = scatter(Dataset::Test, 4);
    assert!(gmae < 4.0, "geometric mean error factor {gmae}");
    assert!(correct * 10 >= total * 8, "{correct}/{total} correct");
}

/// Figure 7: benchmark mode, 4-thread host.
#[test]
fn fig7_benchmark_mode_four_threads() {
    let (gmae, correct, total) = scatter(Dataset::Benchmark, 4);
    assert!(gmae < 4.0, "geometric mean error factor {gmae}");
    assert!(correct * 10 >= total * 8, "{correct}/{total} correct");
}

/// At the full 160 threads the decisions get harder (the paper's close
/// calls live here); still require a clear majority.
#[test]
fn full_thread_decisions_majority_correct() {
    let (_, correct, total) = scatter(Dataset::Test, 160);
    assert!(correct * 10 >= total * 7, "test: {correct}/{total}");
    let (_, correct, total) = scatter(Dataset::Benchmark, 160);
    assert!(correct * 10 >= total * 6, "benchmark: {correct}/{total}");
}

/// The paper's reported conv misprediction survives in our reproduction:
/// the model under-credits the GPU on the benchmark-mode convolutions
/// because the CPU model lacks a memory hierarchy.
#[test]
fn conv_misprediction_reproduced() {
    let platform = Platform::power9_v100();
    let sel = Selector::new(platform);
    let (kernel, binding) = hetsel::polybench::find_kernel("3dconv").unwrap();
    let b = binding(Dataset::Benchmark);
    let d = sel.decide(&kernel, &b);
    let m = sel.measure(&kernel, &b).unwrap();
    let predicted = d.predicted_cpu_s.unwrap() / d.predicted_gpu_s.unwrap();
    assert!(predicted < 1.0, "model predicts a slowdown ({predicted})");
    assert!(
        m.speedup().unwrap() > 1.0,
        "the true offloading speedup is a win"
    );
}
