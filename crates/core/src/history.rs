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
use crate::fleet::DeviceId;
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
    /// outcome back; returns the decision and what it cost on the device
    /// it chose.
    ///
    /// Each raw prediction is scored against the device it was made for.
    /// The host's is measured on the host. The decision's accelerator-side
    /// evidence belongs to its representative accelerator: the chosen one
    /// when the decision offloads; on a one-accelerator fleet, that
    /// accelerator whatever the verdict. A host verdict on a larger fleet
    /// does not say which accelerator it beat, so that side is neither
    /// measured nor learned.
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
        let fleet = self.selector.fleet();
        let accel = if d.device_id.is_host() {
            fleet
                .primary_accelerator()
                .filter(|_| fleet.accelerator_count() == 1)
        } else {
            Some(d.device_id)
        };
        let host = fleet.host_label_arc();
        let cpu_s = self.selector.simulate_on(kernel, binding, DeviceId::HOST)?;
        let accel = match accel {
            Some(id) => Some((
                fleet.label_arc(id)?,
                self.selector.simulate_on(kernel, binding, id)?,
            )),
            None => None,
        };
        if let Some(tag) = d.calibration {
            let cal = self.selector.calibrator();
            if let Some(raw) = tag.raw_cpu_s {
                cal.observe(&kernel.name, host, tag.class, raw, cpu_s);
            }
            if let (Some(raw), Some((label, accel_s))) = (tag.raw_gpu_s, accel) {
                cal.observe(&kernel.name, label, tag.class, raw, accel_s);
            }
        }
        let observed_best = match accel {
            Some((_, accel_s)) if accel_s < cpu_s => Device::Gpu,
            _ => Device::Host,
        };
        let chosen = d.device_id.kind();
        let flip = chosen != observed_best;
        if let Some(p) = d.predicted_cpu_s {
            hetsel_obs::accuracy().observe(
                &kernel.name,
                host,
                p,
                cpu_s,
                flip && chosen == Device::Host,
            );
        }
        if let (Some(p), Some((label, accel_s))) = (d.predicted_gpu_s, accel) {
            hetsel_obs::accuracy().observe(
                &kernel.name,
                label,
                p,
                accel_s,
                flip && chosen == Device::Gpu,
            );
        }
        let cost = match (chosen, accel) {
            (Device::Gpu, Some((_, accel_s))) => accel_s,
            _ => cpu_s,
        };
        Some((d, cost))
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

    /// On a fleet of two accelerators whose primary (the K80) is not the
    /// one chosen, the chosen V100 is measured, learns, and is what the
    /// run cost; the K80 learns nothing from the V100's prediction.
    #[test]
    fn run_and_learn_scores_the_accelerator_the_decision_chose() {
        let (kernel, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let v100 = Platform::power9_v100();
        let fleet = crate::Fleet::host_only()
            .with_accelerator_from("k80", &Platform::power8_k80())
            .with_accelerator_from("v100", &v100);
        let adaptive = AdaptiveSelector::new(Selector::new(v100.clone()).with_fleet(fleet));
        let (decision, cost) = adaptive.run_and_learn(&kernel, &b).unwrap();
        assert_eq!(&*decision.device_name, "v100");
        let v100_s = hetsel_gpusim::simulate(&kernel, &b, &v100.gpu)
            .unwrap()
            .total_s();
        assert_eq!(
            cost.to_bits(),
            v100_s.to_bits(),
            "the run cost the V100's time"
        );

        let rows = adaptive.selector.calibrator().snapshot();
        let devices: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
        assert_eq!(devices, ["host", "v100"], "no k80 cell: {rows:?}");
        let raw = decision.calibration.unwrap().raw_gpu_s.unwrap();
        let learned = rows[1].factor;
        assert!(
            (learned - v100_s / raw).abs() <= 1e-9 * learned,
            "the v100 cell holds the V100's own ratio: {learned} vs {}",
            v100_s / raw
        );
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
        assert_eq!(
            first.device_id.kind(),
            Device::Host,
            "cold start follows the model"
        );

        adaptive.run_and_learn(&kernel, &b).unwrap();
        let second = adaptive.select(&kernel, &b);
        assert_eq!(
            second.device_id.kind(),
            Device::Gpu,
            "history corrects the model"
        );
    }
}
