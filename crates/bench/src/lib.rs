//! # hetsel-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation. Each artifact has a binary:
//!
//! | artifact | binary | paper reference |
//! |---|---|---|
//! | Table I   | `table1` | cross-generation offloading speedups |
//! | Tables II–III | `params` | model parameter sheets |
//! | Figure 6  | `fig6` | actual vs predicted speedup, `test`, 4 threads |
//! | Figure 7  | `fig7` | actual vs predicted speedup, `benchmark`, 4 threads |
//! | Figure 8  | `fig8` | always-offload vs model-driven, 160 threads |
//! | §IV.C     | `ipda_report` | symbolic stride census over the suite |
//! | ablations | `ablation` | trip-count & coalescing abstraction studies |
//!
//! Extension studies (beyond the paper): `generations` (K80→P100→V100
//! continuum), `hosts` (POWER9/NVLink vs Xeon/PCIe), `extended` (six more
//! Polybench programs), `split_study` (cooperative CPU+GPU fractions),
//! `program_study` (data-residency planning), `threads` (host-thread
//! sweep), `export_json` (the whole evaluation as JSON), and `analyze`
//! (the full diagnostic stack for one kernel).

use hetsel_core::{geomean, Device, Measured, Platform, Policy, Selector};
use hetsel_models::{CoalescingMode, TripMode};
use hetsel_polybench::{all_kernels, Dataset};

/// One kernel's full model-vs-actual record on one platform and dataset.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Owning benchmark (paper name).
    pub benchmark: &'static str,
    /// Region name.
    pub kernel: String,
    /// Dataset mode.
    pub dataset: Dataset,
    /// Simulated ground truth.
    pub measured: Measured,
    /// Model predictions, seconds.
    pub predicted_cpu_s: Option<f64>,
    /// Model predictions, seconds.
    pub predicted_gpu_s: Option<f64>,
    /// Model-driven device choice.
    pub decision: Device,
}

impl KernelResult {
    /// True (simulated) offloading speedup: host time / GPU time. The
    /// simulators always produce positive times for suite kernels; a
    /// degenerate measurement surfaces as NaN rather than a panic so table
    /// generation keeps going.
    pub fn actual_speedup(&self) -> f64 {
        self.measured.speedup().unwrap_or(f64::NAN)
    }

    /// Predicted offloading speedup.
    pub fn predicted_speedup(&self) -> Option<f64> {
        match (self.predicted_cpu_s, self.predicted_gpu_s) {
            (Some(c), Some(g)) if g > 0.0 => Some(c / g),
            _ => None,
        }
    }

    /// True iff the model's decision matches the oracle.
    pub fn decision_correct(&self) -> bool {
        self.decision == self.measured.best_device()
    }
}

/// Runs the entire suite on a platform and dataset under a selector
/// configuration, producing one record per kernel.
pub fn run_suite(platform: &Platform, ds: Dataset, selector: &Selector) -> Vec<KernelResult> {
    let mut out = Vec::new();
    for (bench, kernel, binding) in all_kernels() {
        let b = binding(ds);
        let decision = selector.decide(&kernel, &b);
        let measured = selector
            .measure(&kernel, &b)
            .unwrap_or_else(|| panic!("{}: simulators failed under {ds}", kernel.name));
        out.push(KernelResult {
            benchmark: bench,
            kernel: kernel.name.clone(),
            dataset: ds,
            measured,
            predicted_cpu_s: decision.predicted_cpu_s,
            predicted_gpu_s: decision.predicted_gpu_s,
            decision: decision.device_id.kind(),
        });
    }
    let _ = platform;
    out
}

/// Convenience: a model-driven selector with the paper's hybrid defaults.
pub fn paper_selector(platform: Platform) -> Selector {
    Selector::new(platform)
        .with_trip_mode(TripMode::Runtime)
        .with_coalescing(CoalescingMode::Ipda)
}

/// Suite-level aggregate for one policy (Figure 8's bars).
#[derive(Debug, Clone, Copy)]
pub struct PolicyOutcome {
    /// Geometric-mean speedup over always-host across the suite.
    pub geomean_speedup: f64,
    /// Kernels on which the policy matched the oracle.
    pub correct_decisions: usize,
    /// Total kernels.
    pub total: usize,
}

/// Evaluates a policy over suite results: speedup of each kernel relative
/// to host execution under the policy's device choices.
pub fn policy_outcome(results: &[KernelResult], policy: Policy) -> PolicyOutcome {
    let mut speedups = Vec::with_capacity(results.len());
    let mut correct = 0usize;
    for r in results {
        let chosen = match policy {
            Policy::AlwaysHost => Device::Host,
            Policy::AlwaysOffload => Device::Gpu,
            // `Policy` is non-exhaustive; any future policy scores the
            // model's own choice.
            _ => r.decision,
        };
        if chosen == r.measured.best_device() {
            correct += 1;
        }
        speedups.push(r.measured.cpu_s / r.measured.on(chosen));
    }
    PolicyOutcome {
        geomean_speedup: geomean(speedups),
        correct_decisions: correct,
        total: results.len(),
    }
}

/// Appends a tagged snapshot of the process-wide metrics registry to
/// `results/metrics.jsonl` (one JSON object per line: `{"tag", "metrics"}`),
/// creating the file on first use. Harness binaries call this on exit so a
/// run's counters — decisions per device, cache hit rates, fallback
/// reasons, model-evaluation latencies — land next to the artifact they
/// explain. The destination can be overridden with the
/// `HETSEL_METRICS_PATH` environment variable — an escape hatch for the
/// single-threaded binaries only; tests pass an explicit path to
/// [`metrics_dump_to`] instead. Returns the path written.
pub fn metrics_dump(tag: &str) -> std::io::Result<std::path::PathBuf> {
    let path = match std::env::var_os("HETSEL_METRICS_PATH") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/metrics.jsonl")
        }
    };
    metrics_dump_to(&path, tag)
}

/// As [`metrics_dump`] to an explicit destination, with no environment
/// consulted. Tests use this directly: mutating `HETSEL_METRICS_PATH` via
/// `std::env::set_var` races against Rust's parallel test threads (the
/// variable is process-global), so the env override is reserved for the
/// single-threaded harness binaries.
pub fn metrics_dump_to(
    path: impl AsRef<std::path::Path>,
    tag: &str,
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tag_json = serde_json::to_string(&tag.to_string())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let line = format!(
        "{{\"tag\":{tag_json},\"metrics\":{}}}\n",
        hetsel_obs::registry().snapshot().to_json()
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    Ok(path.to_path_buf())
}

/// Formats seconds compactly (µs/ms/s).
pub fn fmt_time(s: f64) -> String {
    if s < 1e-3 {
        format!("{:7.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:7.2}ms", s * 1e3)
    } else {
        format!("{:8.3}s", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_on_mini() {
        let platform = Platform::power9_v100();
        let sel = paper_selector(platform.clone());
        let results = run_suite(&platform, Dataset::Mini, &sel);
        assert_eq!(results.len(), 24);
        for r in &results {
            assert!(r.measured.cpu_s > 0.0);
            assert!(r.measured.gpu_s > 0.0);
        }
    }

    #[test]
    fn policy_outcomes_ordered() {
        let platform = Platform::power9_v100();
        let sel = paper_selector(platform.clone());
        let results = run_suite(&platform, Dataset::Mini, &sel);
        let host = policy_outcome(&results, Policy::AlwaysHost);
        assert!((host.geomean_speedup - 1.0).abs() < 1e-9);
        let model = policy_outcome(&results, Policy::ModelDriven);
        let offload = policy_outcome(&results, Policy::AlwaysOffload);
        // The oracle bound: no policy beats picking best everywhere.
        let oracle = geomean(
            results
                .iter()
                .map(|r| r.measured.cpu_s / r.measured.on(r.measured.best_device())),
        );
        assert!(model.geomean_speedup <= oracle + 1e-9);
        assert!(offload.geomean_speedup <= oracle + 1e-9);
    }

    #[test]
    fn metrics_dump_appends_parseable_lines() {
        // The explicit-path variant: no process-global environment mutation,
        // so this is safe under Rust's parallel test threads.
        let path =
            std::env::temp_dir().join(format!("hetsel-metrics-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        hetsel_obs::registry()
            .counter("hetsel.bench.test.dump")
            .inc();
        let p1 = metrics_dump_to(&path, "first").unwrap();
        let p2 = metrics_dump_to(&path, "second").unwrap();
        assert_eq!(p1, p2);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "one line per dump");
        assert!(lines[0].contains("\"tag\":\"first\""));
        assert!(lines[1].contains("\"tag\":\"second\""));
        assert!(lines[1].contains("hetsel.bench.test.dump"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fmt_time_ranges() {
        assert!(fmt_time(5e-6).contains("µs"));
        assert!(fmt_time(5e-3).contains("ms"));
        assert!(fmt_time(5.0).contains('s'));
    }
}
