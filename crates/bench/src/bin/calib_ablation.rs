//! Online-calibration ablation: the fig6/table1 replay, Off vs Active.
//!
//! Replays the whole Polybench suite (the paper's `test` and `benchmark`
//! datasets) through the fault-tolerant dispatcher for several passes,
//! once with calibration Off and once in Active mode. Every completed
//! dispatch feeds the Active engine's calibrator one predicted-vs-observed
//! sample, so later passes decide on corrected predictions; the Off engine
//! replays the identical traffic with the analytical models alone.
//!
//! Two headline numbers per mode land in `results/calib_ablation.json`:
//! the mean relative error of the executed device's prediction against
//! the simulated run (`|predicted − observed| / observed`), and the
//! selection accuracy against the simulated oracle. The document also
//! keeps the per-pass error means, which show *when* the corrections
//! start paying (after `min_samples` passes publish the first biases).
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin calib_ablation
//! cargo run --release -p hetsel-bench --bin calib_ablation -- --validate
//! ```
//!
//! `--validate` re-reads the document and schema-checks it for CI; the
//! calibration contract it enforces is that Active's mean relative error
//! is *strictly* below Off's.

use hetsel_bench::paper_selector;
use hetsel_core::{
    CalibrationMode, DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform,
};
use hetsel_polybench::{all_kernels, Dataset};
use serde::{Deserialize, Serialize};

const DATASETS: [Dataset; 2] = [Dataset::Test, Dataset::Benchmark];
const PASSES: u32 = 6;

/// One mode's aggregate over the full replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ModeBlock {
    /// Calibration mode name: `off` or `active`.
    mode: String,
    /// Scored predictions (dispatches whose executed device had one).
    samples: u64,
    /// Mean `|predicted − observed| / observed` over all samples.
    mean_rel_error: f64,
    /// Per-pass means of the same error, `passes` entries.
    pass_mean_rel_error: Vec<f64>,
    /// Decisions matching the simulated oracle.
    correct: u64,
    /// Total decisions taken.
    total: u64,
    /// `correct / total`.
    selection_accuracy: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Doc {
    /// Platform the replay ran on.
    platform: String,
    /// Dataset modes replayed, in order.
    datasets: Vec<String>,
    /// Replay passes over the suite, per mode.
    passes: u32,
    /// Off first, then Active.
    modes: Vec<ModeBlock>,
    /// `off.mean_rel_error − active.mean_rel_error` (positive = calibration
    /// shrank the error).
    error_shrink: f64,
    /// `active.selection_accuracy − off.selection_accuracy`.
    accuracy_gain: f64,
}

fn run_mode(mode: CalibrationMode) -> ModeBlock {
    let platform = Platform::power9_v100();
    let kernels: Vec<_> = all_kernels().into_iter().map(|(_, k, _)| k).collect();
    let engine = DecisionEngine::new(
        paper_selector(platform.clone()).with_calibration(mode),
        &kernels,
    );
    let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
    let oracle = paper_selector(platform);

    let mut err_sum = 0.0;
    let mut samples = 0u64;
    let mut correct = 0u64;
    let mut total = 0u64;
    let mut pass_means = Vec::with_capacity(PASSES as usize);
    for _ in 0..PASSES {
        let mut pass_sum = 0.0;
        let mut pass_n = 0u64;
        for (_, kernel, binding) in all_kernels() {
            for ds in DATASETS {
                let b = binding(ds);
                let request = DecisionRequest::new(kernel.name.clone(), b.clone());
                let outcome = dispatcher.dispatch(&request).expect("suite dispatches");
                let d = &outcome.decision;
                let predicted = if outcome.device_id.is_host() {
                    d.predicted_cpu_s
                } else {
                    d.predicted_gpu_s
                };
                if let Some(p) = predicted {
                    let rel = ((p - outcome.simulated_s) / outcome.simulated_s).abs();
                    err_sum += rel;
                    samples += 1;
                    pass_sum += rel;
                    pass_n += 1;
                }
                let measured = oracle.measure(&kernel, &b).expect("simulators run");
                total += 1;
                if d.device_id.kind() == measured.best_device() {
                    correct += 1;
                }
            }
        }
        pass_means.push(if pass_n == 0 {
            0.0
        } else {
            pass_sum / pass_n as f64
        });
    }
    ModeBlock {
        mode: mode.name().to_string(),
        samples,
        mean_rel_error: if samples == 0 {
            0.0
        } else {
            err_sum / samples as f64
        },
        pass_mean_rel_error: pass_means,
        correct,
        total,
        selection_accuracy: correct as f64 / total as f64,
    }
}

fn validate_doc(path: &std::path::Path) {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e} (run the bench first)", path.display()));
    let doc: Doc = serde_json::from_str(&raw).expect("calib_ablation.json parses");
    assert!(!doc.platform.is_empty(), "platform is empty");
    assert!(
        doc.passes >= 2,
        "need at least two passes to learn anything"
    );
    assert_eq!(doc.datasets.len(), DATASETS.len(), "dataset census");
    assert_eq!(doc.modes.len(), 2, "exactly off and active");
    let off = &doc.modes[0];
    let active = &doc.modes[1];
    assert_eq!((off.mode.as_str(), active.mode.as_str()), ("off", "active"));
    for m in &doc.modes {
        assert!(m.samples > 0, "{}: no scored samples", m.mode);
        assert!(m.total > 0 && m.correct <= m.total, "{}: census", m.mode);
        assert!(
            m.mean_rel_error.is_finite() && m.mean_rel_error >= 0.0,
            "{}: bad mean_rel_error {}",
            m.mode,
            m.mean_rel_error
        );
        assert!(
            (0.0..=1.0).contains(&m.selection_accuracy),
            "{}: accuracy outside [0,1]",
            m.mode
        );
        assert_eq!(
            m.pass_mean_rel_error.len(),
            doc.passes as usize,
            "{}: one error mean per pass",
            m.mode
        );
        assert!(
            m.pass_mean_rel_error
                .iter()
                .all(|e| e.is_finite() && *e >= 0.0),
            "{}: bad pass errors",
            m.mode
        );
    }
    // The calibration contract: closing the loop must strictly shrink the
    // prediction error, and the recorded deltas must agree with the blocks.
    assert!(
        active.mean_rel_error < off.mean_rel_error,
        "active error {} not strictly below off error {}",
        active.mean_rel_error,
        off.mean_rel_error
    );
    assert!(
        (doc.error_shrink - (off.mean_rel_error - active.mean_rel_error)).abs() < 1e-12,
        "error_shrink inconsistent"
    );
    assert!(
        (doc.accuracy_gain - (active.selection_accuracy - off.selection_accuracy)).abs() < 1e-12,
        "accuracy_gain inconsistent"
    );
    println!(
        "[calib_ablation] valid: error {:.4} -> {:.4} ({} passes), accuracy {:.1}% -> {:.1}%",
        off.mean_rel_error,
        active.mean_rel_error,
        doc.passes,
        off.selection_accuracy * 100.0,
        active.selection_accuracy * 100.0
    );
}

fn main() {
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--validate" => validate = true,
            other => panic!("unknown argument {other:?} (options: --validate)"),
        }
    }
    let out_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/calib_ablation.json");
    if validate {
        validate_doc(&out_path);
        return;
    }

    let off = run_mode(CalibrationMode::Off);
    let active = run_mode(CalibrationMode::Active);
    println!(
        "[calib_ablation] off:    mean rel error {:.4}, accuracy {}/{}",
        off.mean_rel_error, off.correct, off.total
    );
    println!(
        "[calib_ablation] active: mean rel error {:.4}, accuracy {}/{}",
        active.mean_rel_error, active.correct, active.total
    );
    let doc = Doc {
        platform: Platform::power9_v100().name.to_string(),
        datasets: DATASETS.iter().map(|d| d.to_string()).collect(),
        passes: PASSES,
        error_shrink: off.mean_rel_error - active.mean_rel_error,
        accuracy_gain: active.selection_accuracy - off.selection_accuracy,
        modes: vec![off, active],
    };
    std::fs::create_dir_all(out_path.parent().unwrap()).expect("results dir");
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serializes"),
    )
    .expect("write calib_ablation.json");
    println!("[calib_ablation] wrote {}", out_path.display());
}
