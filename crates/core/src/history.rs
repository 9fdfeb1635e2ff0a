//! Profile feedback: letting observed runtimes refine future decisions.
//!
//! The paper's related-work discussion concedes that profiling "could
//! compliment our methodology by feeding the program attribute database
//! with more actionable data over time" (§V.A). This module implements
//! that complement: an [`AdaptiveSelector`] measures each (region, binding)
//! execution and feeds the outcome into the online [`Calibrator`] — the
//! corrected models then decide. Never-seen configurations have no
//! published correction (factor exactly 1.0), so the zero-profile
//! cold-start property of the paper's approach is preserved bit for bit.

use crate::calib::{CalibrationMode, Calibrator, CalibratorConfig};
use crate::selector::{Decision, Device, Selector};
use hetsel_ir::{Binding, Kernel};
use std::sync::Arc;

/// A selector that layers profile feedback over the analytical models: a
/// thin harness over the shared [`Calibrator`]. Measurements feed
/// per-`(region, device, binding-class)` corrections, and
/// [`AdaptiveSelector::select`] is simply the calibrated
/// [`Selector::decide`]. The greedy calibration profile trusts a single
/// observation fully, so one measurement corrects a misprediction, while
/// every decision stays on the one decision path — explainable, cacheable,
/// and observable like any other. Persist what was learned with
/// [`Calibrator::snapshot`] and restore it with [`Calibrator::absorb`].
#[derive(Debug)]
pub struct AdaptiveSelector {
    /// The underlying selector, in Active calibration mode with the
    /// greedy profile ([`CalibratorConfig::greedy`]).
    pub selector: Selector,
}

impl AdaptiveSelector {
    /// Wraps a selector with a fresh greedy calibrator in Active mode
    /// (replacing whatever calibration the selector carried): no sample
    /// gate, no clamp — after one measured run the corrected prediction
    /// *is* the observation.
    pub fn new(selector: Selector) -> AdaptiveSelector {
        AdaptiveSelector {
            selector: selector
                .with_calibration(CalibrationMode::Active)
                .with_calibrator(Arc::new(Calibrator::new(CalibratorConfig::greedy()))),
        }
    }

    /// Decides through the calibrated models: configurations that have
    /// been measured decide on their corrected (observation-equal, under
    /// the greedy profile) predictions; never-seen ones are bit-for-bit
    /// the uncalibrated model decision.
    pub fn select(&self, kernel: &Kernel, binding: &Binding) -> Decision {
        self.selector.decide(kernel, binding)
    }

    /// Executes (simulates) under the current decision and feeds the
    /// outcome back; returns the decision and what it cost.
    ///
    /// Two sinks learn from every measurement: the shared [`Calibrator`]
    /// folds one raw-prediction-vs-observed sample per device side the
    /// decision's [`CalibrationTag`](crate::CalibrationTag) carries (this
    /// is what future [`AdaptiveSelector::select`] calls decide on), and the
    /// process-wide accuracy observatory ([`hetsel_obs::accuracy()`])
    /// scores prediction quality, with the misprediction flip (decided
    /// side ≠ measured-fastest side) charged to the side the decision
    /// chose.
    pub fn run_and_learn(&self, kernel: &Kernel, binding: &Binding) -> Option<(Decision, f64)> {
        let d = self.select(kernel, binding);
        let m = self.selector.measure(kernel, binding)?;
        if let Some(tag) = d.calibration {
            let cal = self.selector.calibrator();
            let fleet = self.selector.fleet();
            if let Some(raw) = tag.raw_cpu_s {
                cal.observe(
                    &kernel.name,
                    fleet.host_label_arc(),
                    tag.class,
                    raw,
                    m.cpu_s,
                );
            }
            if let (Some(raw), Some(id)) = (tag.raw_gpu_s, fleet.primary_accelerator()) {
                cal.observe(
                    &kernel.name,
                    fleet.label_arc(id).expect("primary id resolves"),
                    tag.class,
                    raw,
                    m.gpu_s,
                );
            }
        }
        let observed_best = if m.cpu_s <= m.gpu_s {
            Device::Host
        } else {
            Device::Gpu
        };
        let flip = d.device != observed_best;
        let fleet = self.selector.fleet();
        if let Some(p) = d.predicted_cpu_s {
            hetsel_obs::accuracy().observe(
                &kernel.name,
                fleet.host_label_arc(),
                p,
                m.cpu_s,
                flip && d.device == Device::Host,
            );
        }
        if let (Some(p), Some(id)) = (d.predicted_gpu_s, fleet.primary_accelerator()) {
            hetsel_obs::accuracy().observe(
                &kernel.name,
                fleet.label_arc(id).expect("primary id resolves"),
                p,
                m.gpu_s,
                flip && d.device == Device::Gpu,
            );
        }
        Some((d.clone(), m.on(d.device)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hetsel_polybench::{find_kernel, Dataset};

    #[test]
    fn run_and_learn_feeds_the_accuracy_observatory() {
        let (kernel, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let adaptive = AdaptiveSelector::new(Selector::new(Platform::power9_v100()));
        adaptive.run_and_learn(&kernel, &b).unwrap();
        let obs = hetsel_obs::accuracy();
        let host = obs.lookup("gemm", "host").expect("host side scored");
        assert!(host.samples >= 1);
        let accel = obs.lookup("gemm", "gpu").expect("accelerator side scored");
        assert!(accel.samples >= 1);
    }

    /// One observation corrects the paper's convolution misprediction: the
    /// model keeps 3dconv on the host, the measurement flips it to the GPU
    /// for every subsequent launch.
    #[test]
    fn feedback_fixes_the_conv_misprediction() {
        let (kernel, binding) = find_kernel("3dconv").unwrap();
        let b = binding(Dataset::Benchmark);
        let adaptive = AdaptiveSelector::new(Selector::new(Platform::power9_v100()));

        let first = adaptive.select(&kernel, &b);
        assert_eq!(first.device, Device::Host, "cold start follows the model");

        adaptive.run_and_learn(&kernel, &b).unwrap();
        let second = adaptive.select(&kernel, &b);
        assert_eq!(second.device, Device::Gpu, "history corrects the model");
    }
}
