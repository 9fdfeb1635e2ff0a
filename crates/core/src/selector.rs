//! The runtime target selector.
//!
//! The execution-time half of the framework (paper Figure 2 and Section
//! IV.D): on reaching a target region, the augmented OpenMP runtime pulls
//! the region's static attributes from the database, binds the runtime
//! values, evaluates both analytical models, and launches whichever version
//! — host or GPU — the models predict faster. "Because of the analytical
//! nature of the model, generating a prediction for either target is
//! equivalent to solving an equation, making decision time negligible."

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::attributes::{AttributeDatabase, RegionAttributes, RegionId};
use crate::calib::{BindingClass, CalibrationMode, CalibrationTag, Calibrator};
use crate::fleet::{DeviceId, Fleet};
use crate::platform::Platform;
use crate::wire::DecisionFields;
use hetsel_ir::{Binding, Kernel};
use hetsel_models::{CoalescingMode, CostModel, CpuCostModel, GpuCostModel, ModelError, TripMode};
use parking_lot::{Mutex, MutexGuard};
use rayon::prelude::*;

/// An execution target.
///
/// Marked `#[non_exhaustive]`: the splitting/multi-accelerator roadmap will
/// grow this enum, so downstream matches must carry a wildcard arm today
/// rather than break then.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The host CPU (fallback path).
    Host,
    /// The GPU accelerator.
    Gpu,
}

impl Device {
    /// Stable lowercase name (`"host"` / `"gpu"`), used in metric names and
    /// serialized documents.
    pub fn name(self) -> &'static str {
        match self {
            Device::Host => "host",
            Device::Gpu => "gpu",
        }
    }

    /// The failover target when this device is unavailable.
    pub fn other(self) -> Device {
        match self {
            Device::Host => Device::Gpu,
            Device::Gpu => Device::Host,
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A selection policy.
///
/// Marked `#[non_exhaustive]`: future policies (history-driven, split
/// execution) will be added without a breaking release, so downstream
/// matches must carry a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Never offload (OpenMP with offloading disabled).
    AlwaysHost,
    /// The compiler's default: always offload target regions.
    AlwaysOffload,
    /// The paper's contribution: offload iff the models predict a win.
    ModelDriven,
}

impl Policy {
    /// Stable snake_case name (`"model_driven"`, `"always_host"`,
    /// `"always_offload"`), the serialized form in explain documents and
    /// [`DecisionRequest`] JSON.
    pub fn name(self) -> &'static str {
        match self {
            Policy::AlwaysHost => "always_host",
            Policy::AlwaysOffload => "always_offload",
            Policy::ModelDriven => "model_driven",
        }
    }

    /// Inverse of [`Policy::name`].
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "always_host" => Some(Policy::AlwaysHost),
            "always_offload" => Some(Policy::AlwaysOffload),
            "model_driven" => Some(Policy::ModelDriven),
            _ => None,
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What [`choose_among`] picked: the host, or the accelerator at a given
/// position in the candidate slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceChoice {
    /// Run on the host.
    Host,
    /// Offload to the accelerator at this index of the candidate slice.
    Accelerator(usize),
}

/// The model-driven comparison generalized to an N-device fleet: the
/// fastest *usable* accelerator prediction is compared against the host
/// prediction, the host wins ties, and when no accelerator prediction is
/// usable the choice is the compiler default — offload to the primary
/// accelerator (index 0). An empty candidate slice (a host-only fleet) is
/// the terminal fallback: the host, unconditionally.
///
/// Centralising this is what keeps [`Selector::explain`] provably in
/// lock-step with [`Selector::decide`] — and what makes the comparison
/// NaN-safe: `NaN < x` is false for every `x`, so a naive `if g < c`
/// would silently choose the host for a non-finite accelerator
/// prediction, the opposite of the documented fallback. Ties between
/// accelerators go to the lower index, so candidate order (fleet
/// registration order) is part of the contract.
pub fn choose_among(host: Option<f64>, accels: &[Option<f64>]) -> DeviceChoice {
    if accels.is_empty() {
        return DeviceChoice::Host;
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, accel) in accels.iter().enumerate() {
        if let Some(t) = accel {
            if ModelError::usable_time(*t) && best.is_none_or(|(_, bt)| *t < bt) {
                best = Some((i, *t));
            }
        }
    }
    match (host.filter(|h| ModelError::usable_time(*h)), best) {
        (Some(h), Some((_, bt))) if h <= bt => DeviceChoice::Host,
        (_, Some((i, _))) => DeviceChoice::Accelerator(i),
        (_, None) => DeviceChoice::Accelerator(0), // compiler default when unresolvable
    }
}

/// The classic two-device spelling of [`choose_among`]: offload iff a
/// usable GPU prediction beats a usable CPU prediction, host iff the CPU
/// prediction is at least as fast, and the compiler default (offload)
/// whenever either side is missing or not a comparable number.
pub fn choose_device(cpu: Option<f64>, gpu: Option<f64>) -> Device {
    match choose_among(cpu, &[gpu]) {
        DeviceChoice::Host => Device::Host,
        DeviceChoice::Accelerator(_) => Device::Gpu,
    }
}

/// Splits a model outcome into the usable prediction and the recorded
/// failure: an `Ok` carrying NaN, an infinity or a negative time is a model
/// failure ([`ModelError::NonFinitePrediction`]), not a prediction.
fn sanitize_prediction(outcome: Result<f64, ModelError>) -> (Option<f64>, Option<ModelError>) {
    match outcome {
        Ok(s) if ModelError::usable_time(s) => (Some(s), None),
        Ok(s) => (None, Some(ModelError::non_finite(s))),
        Err(e) => (None, Some(e)),
    }
}

/// Per-decision calibration working set: the binding class plus the
/// correction factors for every candidate, resolved once (from the
/// selector's [`Calibrator`]) before composition so the comparison,
/// flip detection and the recorded [`CalibrationTag`] all agree.
pub(crate) struct CalibContext {
    pub(crate) mode: CalibrationMode,
    pub(crate) class: BindingClass,
    pub(crate) host_factor: f64,
    pub(crate) accel_factors: Vec<f64>,
}

impl CalibContext {
    /// The correction factor for fleet accelerator `idx`; indices beyond
    /// the registered fleet (wide outcome slices) get the cold-cell
    /// identity, 1.0.
    pub(crate) fn accel_factor(&self, idx: usize) -> f64 {
        self.accel_factors.get(idx).copied().unwrap_or(1.0)
    }
}

/// One offloading decision with the model evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Region name. Shared (`Arc`) so cloning a decision out of the
    /// decision cache copies a pointer, not a string.
    pub region: Arc<str>,
    /// Chosen target, kind-level: every accelerator reports `Device::Gpu`
    /// here; [`Decision::device_id`] / [`Decision::device_name`] identify
    /// *which* one.
    pub device: Device,
    /// Fleet id of the chosen device.
    pub device_id: DeviceId,
    /// Interned fleet label of the chosen device (`Arc` shared with the
    /// fleet registration, so cloning a cached decision copies a pointer
    /// and metric names can never drift from this spelling).
    pub device_name: Arc<str>,
    /// Policy that made the choice.
    pub policy: Policy,
    /// Predicted host time, seconds (None under `Always*` policies).
    pub predicted_cpu_s: Option<f64>,
    /// Predicted time on the decision's representative accelerator,
    /// seconds: the chosen accelerator when one was chosen, otherwise the
    /// fastest usable one the host beat. For the classic pair this is
    /// exactly "the GPU prediction".
    pub predicted_gpu_s: Option<f64>,
    /// Why the host model produced no prediction, when it didn't.
    pub cpu_error: Option<ModelError>,
    /// Why the representative accelerator's model produced no prediction,
    /// when it didn't — the recorded reason behind a fallback-to-offload
    /// decision.
    pub gpu_error: Option<ModelError>,
    /// The calibration evidence behind this decision: `Some` exactly when
    /// the verdict was taken with calibration in Shadow or Active mode
    /// under `ModelDriven` (the raw predictions, the correction factors
    /// consulted, and whether the corrected comparison flips the raw one).
    /// `None` in Off mode — an Off-mode decision is bit-for-bit the
    /// uncalibrated engine's — and on paths that carry no binding.
    pub calibration: Option<CalibrationTag>,
}

impl Decision {
    /// Predicted offloading speedup (host time / GPU time); `None` when a
    /// prediction is missing or the ratio would be degenerate (non-finite
    /// operands or a non-positive GPU time).
    pub fn predicted_speedup(&self) -> Option<f64> {
        match (self.predicted_cpu_s, self.predicted_gpu_s) {
            (Some(c), Some(g)) if g > 0.0 && c.is_finite() && g.is_finite() => Some(c / g),
            _ => None,
        }
    }
}

/// Ground-truth ("measured") times from the timing simulators.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Host execution time, seconds.
    pub cpu_s: f64,
    /// GPU execution time (kernel + transfers), seconds.
    pub gpu_s: f64,
}

impl Measured {
    /// True offloading speedup; `None` when the GPU time is non-positive or
    /// either time is non-finite (a degenerate measurement must not poison
    /// downstream aggregates).
    pub fn speedup(&self) -> Option<f64> {
        if self.gpu_s > 0.0 && self.cpu_s.is_finite() && self.gpu_s.is_finite() {
            Some(self.cpu_s / self.gpu_s)
        } else {
            None
        }
    }

    /// Time under a given device choice.
    pub fn on(&self, d: Device) -> f64 {
        match d {
            Device::Host => self.cpu_s,
            Device::Gpu => self.gpu_s,
        }
    }

    /// The oracle's choice.
    pub fn best_device(&self) -> Device {
        if self.cpu_s <= self.gpu_s {
            Device::Host
        } else {
            Device::Gpu
        }
    }
}

/// A decision together with its measured consequences.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The decision taken.
    pub decision: Decision,
    /// Simulated ground truth.
    pub measured: Measured,
}

impl Evaluation {
    /// Wall time actually obtained under the decision.
    pub fn achieved_s(&self) -> f64 {
        self.measured.on(self.decision.device)
    }

    /// Wall time the oracle would have obtained.
    pub fn oracle_s(&self) -> f64 {
        self.measured.on(self.measured.best_device())
    }

    /// True iff the decision matched the oracle.
    pub fn correct(&self) -> bool {
        self.decision.device == self.measured.best_device()
    }
}

/// The selector: a device fleet plus policy and model-abstraction knobs.
#[derive(Debug, Clone)]
pub struct Selector {
    /// The platform the decision is made for (host descriptor, host model
    /// parameters, and the default accelerator the pair fleet registers).
    pub platform: Platform,
    /// Selection policy.
    pub policy: Policy,
    /// Trip-count abstraction used by the models.
    pub trip_mode: TripMode,
    /// Coalescing analysis mode used by the GPU model.
    pub coal_mode: CoalescingMode,
    /// The registered device fleet. Private so the fleet and the compiled
    /// attribute databases cannot silently diverge; read with
    /// [`Selector::fleet`], replace with [`Selector::with_fleet`].
    pub(crate) fleet: Fleet,
    /// Whether (and how) online calibration participates in decisions.
    /// Private so the mode and the table move together; read with
    /// [`Selector::calibration`], set with [`Selector::with_calibration`].
    pub(crate) calibration: CalibrationMode,
    /// The correction table consulted in Shadow/Active mode and fed by the
    /// dispatcher and profile feedback. Behind an `Arc` so cloning the
    /// selector *shares* the table: an engine and the dispatcher wrapping
    /// it learn into — and read from — the same corrections.
    pub(crate) calibrator: Arc<Calibrator>,
}

impl Selector {
    /// A model-driven selector with the paper's hybrid configuration
    /// (runtime trip counts, IPDA coalescing) and the classic two-device
    /// fleet — the platform's host plus its accelerator under the label
    /// `"gpu"`.
    pub fn new(platform: Platform) -> Selector {
        let fleet = Fleet::pair(&platform);
        Selector {
            platform,
            policy: Policy::ModelDriven,
            trip_mode: TripMode::Runtime,
            coal_mode: CoalescingMode::Ipda,
            fleet,
            calibration: CalibrationMode::Off,
            calibrator: Arc::new(Calibrator::default()),
        }
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: Policy) -> Selector {
        self.policy = policy;
        self
    }

    /// Builder-style trip-mode override.
    pub fn with_trip_mode(mut self, mode: TripMode) -> Selector {
        self.trip_mode = mode;
        self
    }

    /// Builder-style coalescing-mode override.
    pub fn with_coalescing(mut self, mode: CoalescingMode) -> Selector {
        self.coal_mode = mode;
        self
    }

    /// Builder-style fleet override: decide among `fleet`'s devices instead
    /// of the default pair. Databases compiled *after* the override carry
    /// one compiled GPU model per registered accelerator.
    pub fn with_fleet(mut self, fleet: Fleet) -> Selector {
        self.fleet = fleet;
        self
    }

    /// Builder-style calibration-mode override. `Shadow` computes and
    /// records corrections on every decision without altering verdicts;
    /// `Active` blends them into the predictions. `Off` (the default) is
    /// bit-for-bit the uncalibrated engine.
    pub fn with_calibration(mut self, mode: CalibrationMode) -> Selector {
        self.calibration = mode;
        self
    }

    /// Builder-style calibrator override: consult (and let feeders fill)
    /// `calibrator` instead of the fresh table [`Selector::new`] creates —
    /// how a pre-seeded or cross-engine-shared table is installed.
    pub fn with_calibrator(mut self, calibrator: Arc<Calibrator>) -> Selector {
        self.calibrator = calibrator;
        self
    }

    /// The calibration mode decisions are taken under.
    pub fn calibration(&self) -> CalibrationMode {
        self.calibration
    }

    /// The correction table this selector consults. Feed it via
    /// [`Calibrator::observe`] with the raw predictions a decision's
    /// [`CalibrationTag`] carries.
    pub fn calibrator(&self) -> &Arc<Calibrator> {
        &self.calibrator
    }

    /// The device fleet this selector decides among.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The classic pair of model configurations this selector decides
    /// with: the host model plus the *primary* accelerator's model (the
    /// platform's own accelerator parameters when the fleet is host-only).
    pub fn cost_models(&self) -> (CpuCostModel, GpuCostModel) {
        let gpu_params = self
            .fleet
            .accelerators()
            .first()
            .map(|a| a.model.clone())
            .unwrap_or_else(|| self.platform.gpu_model.clone());
        (
            CpuCostModel {
                params: self.platform.cpu_model.clone(),
                threads: self.platform.host_threads,
                trip_mode: self.trip_mode,
            },
            GpuCostModel {
                params: gpu_params,
                trip_mode: self.trip_mode,
                coal_mode: self.coal_mode,
            },
        )
    }

    /// The full fleet of model configurations: the host model plus one GPU
    /// cost model per registered accelerator, in fleet id order.
    pub fn fleet_cost_models(&self) -> (CpuCostModel, Vec<GpuCostModel>) {
        let cpu = CpuCostModel {
            params: self.platform.cpu_model.clone(),
            threads: self.platform.host_threads,
            trip_mode: self.trip_mode,
        };
        let gpus = self
            .fleet
            .accelerators()
            .iter()
            .map(|a| GpuCostModel {
                params: a.model.clone(),
                trip_mode: self.trip_mode,
                coal_mode: self.coal_mode,
            })
            .collect();
        (cpu, gpus)
    }

    /// A fingerprint over every input that shapes what
    /// [`AttributeDatabase::compile`](crate::AttributeDatabase::compile)
    /// produces: the host model parameters and thread count, the trip and
    /// coalescing modes, the platform's fallback accelerator sheet, and
    /// each fleet accelerator's label and model parameters. Snapshots carry
    /// this value in their header; a snapshot whose fingerprint disagrees
    /// with the loading selector's is rejected with a typed error instead
    /// of silently answering with another fleet's models.
    pub fn model_fingerprint(&self) -> u64 {
        use hetsel_ir::Snap;
        let mut w = hetsel_ir::SnapWriter::new();
        self.platform.cpu_model.snap(&mut w);
        w.put_u32(self.platform.host_threads);
        self.trip_mode.snap(&mut w);
        self.coal_mode.snap(&mut w);
        self.platform.gpu_model.snap(&mut w);
        w.put_usize(self.fleet.accelerator_count());
        for a in self.fleet.accelerators() {
            w.put_str(a.label());
            a.model.snap(&mut w);
        }
        hetsel_ir::snap::checksum(w.bytes())
    }

    /// Evaluates both cost models for `source` under a runtime binding,
    /// with the typed failure reasons. One of the two canonical entry
    /// points (with [`Selector::decide`]): works on any [`ModelSource`] —
    /// a precompiled [`RegionAttributes`] (the hot runtime path, no
    /// symbolic work left) or a bare [`Kernel`] (compiles the models on
    /// the spot).
    pub fn predict<S: ModelSource + ?Sized>(
        &self,
        source: &S,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Result<f64, ModelError>) {
        source.model_outcomes(self, binding)
    }

    /// Makes the offloading decision for `source` under a runtime binding —
    /// the other canonical entry point. Under `ModelDriven`, every
    /// registered fleet device's model is evaluated and the argmin wins
    /// (host on ties); failed evaluations (unresolved bindings) fall back
    /// to the compiler default of offloading, and the decision records why
    /// in [`Decision::cpu_error`] / [`Decision::gpu_error`]; `Always*`
    /// policies never consult the models.
    pub fn decide<S: ModelSource + ?Sized>(&self, source: &S, binding: &Binding) -> Decision {
        self.decide_under(self.policy, source, binding)
    }

    /// As [`Selector::decide`] under an explicit policy, leaving the
    /// selector's own configuration untouched. This is how per-request
    /// policy overrides are honoured without cloning and reconfiguring a
    /// selector per call: the policy is an argument of the decision, not
    /// part of the machinery that evaluates the models.
    pub fn decide_under<S: ModelSource + ?Sized>(
        &self,
        policy: Policy,
        source: &S,
        binding: &Binding,
    ) -> Decision {
        let n = self.fleet.accelerator_count();
        match policy {
            Policy::ModelDriven => {
                let (host, accels) = source.fleet_outcomes(self, binding);
                let indexed: Vec<(usize, Option<Result<f64, ModelError>>)> = accels
                    .into_iter()
                    .take(n)
                    .enumerate()
                    .map(|(i, o)| (i, Some(o)))
                    .collect();
                let calib = self.calib_context(source.calib_class(binding), source.region_name());
                self.compose_indexed(
                    policy,
                    source.region_name(),
                    Some(host),
                    &indexed,
                    calib.as_ref(),
                )
            }
            _ => {
                // `Always*` policies never consult the models; the slice
                // still names the primary accelerator so the decision can
                // identify the offload target.
                let unconsulted: Vec<(usize, Option<Result<f64, ModelError>>)> =
                    if n == 0 { Vec::new() } else { vec![(0, None)] };
                self.compose_indexed(policy, source.region_name(), None, &unconsulted, None)
            }
        }
    }

    /// Composes a [`Decision`] from already-evaluated model outcomes, one
    /// slot per fleet accelerator in registration order (`None` = the
    /// policy did not consult that model). This is the composition step
    /// [`Selector::decide`] runs after evaluation, exposed for callers —
    /// property tests above all — that need to feed the decision rule
    /// arbitrary outcome combinations without building models.
    ///
    /// Calibration never participates here: outcome slices carry no
    /// binding, so no binding class can be resolved — the composed
    /// decision has `calibration: None` in every mode.
    pub fn decide_from_outcomes(
        &self,
        region: &str,
        host: Option<Result<f64, ModelError>>,
        accels: &[Option<Result<f64, ModelError>>],
    ) -> Decision {
        let indexed: Vec<(usize, Option<Result<f64, ModelError>>)> =
            accels.iter().cloned().enumerate().collect();
        self.compose_indexed(self.policy, region, host, &indexed, None)
    }

    /// Composes a [`Decision`] from model outcomes tagged with their fleet
    /// accelerator index (`None` outcome = the policy did not consult that
    /// model; the tag lets a restricted decision carry the true fleet
    /// identity of its one candidate). An `Ok` carrying a non-finite or
    /// negative time is demoted to [`ModelError::NonFinitePrediction`]
    /// before the comparison, so a NaN can never masquerade as a fast host
    /// — the decision falls back to the compiler default of offloading and
    /// records why, exactly like any other evaluation failure.
    fn compose_indexed(
        &self,
        policy: Policy,
        region: &str,
        host: Option<Result<f64, ModelError>>,
        accels: &[(usize, Option<Result<f64, ModelError>>)],
        calib: Option<&CalibContext>,
    ) -> Decision {
        let (raw_cpu_s, cpu_error) = match host {
            Some(outcome) => sanitize_prediction(outcome),
            None => (None, None),
        };
        let sanitized: Vec<(usize, Option<f64>, Option<ModelError>)> = accels
            .iter()
            .map(|(idx, outcome)| match outcome {
                Some(o) => {
                    let (p, e) = sanitize_prediction(o.clone());
                    (*idx, p, e)
                }
                None => (*idx, None, None),
            })
            .collect();
        let raw_accels: Vec<Option<f64>> = sanitized.iter().map(|(_, p, _)| *p).collect();
        // Online calibration: resolve the corrected candidate values and
        // detect verdict flips. A cold cell's factor is exactly 1.0 and
        // `x * 1.0` is bit-identical to `x`, so a zero-sample Shadow or
        // Active decision reproduces the raw comparison bit for bit. The
        // effective values — what the verdict, the representative slot and
        // the recorded predictions all use — are the corrected ones only
        // in Active mode.
        let mut flipped = false;
        let active = calib.is_some_and(|ctx| ctx.mode == CalibrationMode::Active);
        let (eff_cpu_s, eff_accels) = match calib {
            Some(ctx) => {
                let corrected_cpu = raw_cpu_s.map(|v| v * ctx.host_factor);
                let corrected_accels: Vec<Option<f64>> = sanitized
                    .iter()
                    .map(|(idx, p, _)| p.map(|v| v * ctx.accel_factor(*idx)))
                    .collect();
                if policy == Policy::ModelDriven {
                    let raw_choice = choose_among(raw_cpu_s, &raw_accels);
                    let corrected_choice = choose_among(corrected_cpu, &corrected_accels);
                    flipped = corrected_choice != raw_choice;
                    if flipped {
                        if active {
                            hetsel_obs::static_counter!("hetsel.core.calib.flip").inc();
                        } else {
                            hetsel_obs::static_counter!("hetsel.core.calib.shadow_flip").inc();
                        }
                    }
                }
                if active {
                    (corrected_cpu, corrected_accels)
                } else {
                    (raw_cpu_s, raw_accels.clone())
                }
            }
            None => (raw_cpu_s, raw_accels.clone()),
        };
        let choice = match policy {
            Policy::AlwaysHost => DeviceChoice::Host,
            Policy::AlwaysOffload => {
                if sanitized.is_empty() {
                    DeviceChoice::Host // host-only fleet: nowhere to offload
                } else {
                    DeviceChoice::Accelerator(0)
                }
            }
            Policy::ModelDriven => choose_among(eff_cpu_s, &eff_accels),
        };
        // The representative accelerator behind the decision's GPU-side
        // evidence: the chosen one when an accelerator was chosen,
        // otherwise the fastest usable one the host beat, otherwise the
        // primary candidate (whose recorded failure explains the
        // fallback). For a pair fleet this is always slot 0, which is what
        // keeps restricted decisions bit-identical to the classic pair.
        let rep_pos = match choice {
            DeviceChoice::Accelerator(pos) => Some(pos),
            DeviceChoice::Host => {
                let best_usable = eff_accels
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, p)| p.map(|t| (pos, t)))
                    .min_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(pos, _)| pos);
                best_usable.or(if sanitized.is_empty() { None } else { Some(0) })
            }
        };
        let predicted_cpu_s = eff_cpu_s;
        let (predicted_gpu_s, gpu_error) = match rep_pos {
            Some(pos) => (eff_accels[pos], sanitized[pos].2.clone()),
            None => (None, None),
        };
        let calibration = calib.map(|ctx| {
            let (raw_gpu_s, gpu_factor) = match rep_pos {
                Some(pos) => (sanitized[pos].1, ctx.accel_factor(sanitized[pos].0)),
                None => (None, 1.0),
            };
            CalibrationTag {
                class: ctx.class,
                raw_cpu_s,
                raw_gpu_s,
                cpu_factor: ctx.host_factor,
                gpu_factor,
                applied: active
                    && ((raw_cpu_s.is_some() && ctx.host_factor != 1.0)
                        || sanitized
                            .iter()
                            .any(|(idx, p, _)| p.is_some() && ctx.accel_factor(*idx) != 1.0)),
                flipped,
            }
        });
        let (device, device_id, device_name) = match choice {
            DeviceChoice::Host => (
                Device::Host,
                DeviceId::HOST,
                self.fleet.host_label_arc().clone(),
            ),
            DeviceChoice::Accelerator(pos) => {
                let fleet_idx = sanitized[pos].0;
                let (id, label) = self.accel_identity(fleet_idx);
                (Device::Gpu, id, label)
            }
        };
        match self.fleet.decisions_counter(device_id) {
            Some(decisions) => decisions.inc(),
            // The detached label of a wide outcome slice on a host-only
            // fleet.
            None => hetsel_obs::registry()
                .counter(&hetsel_obs::metrics::device_metric_name(
                    "hetsel.core.decisions",
                    &device_name,
                ))
                .inc(),
        }
        if policy == Policy::ModelDriven {
            // Count fallback reasons by variant: one tick per failed model
            // (host and every consulted accelerator), under
            // `hetsel.core.fallback.<metric_key>`.
            for err in std::iter::once(&cpu_error)
                .chain(sanitized.iter().map(|(_, _, e)| e))
                .flatten()
            {
                hetsel_obs::registry()
                    .counter(&format!("hetsel.core.fallback.{}", err.metric_key()))
                    .inc();
            }
        }
        Decision {
            region: Arc::from(region),
            device,
            device_id,
            device_name,
            policy,
            predicted_cpu_s,
            predicted_gpu_s,
            cpu_error,
            gpu_error,
            calibration,
        }
    }

    /// Resolves the calibration working set for one decision: `None` in
    /// Off mode (the zero-cost path — no lookup, no allocation), otherwise
    /// the binding class plus one correction factor per candidate (host
    /// and every fleet accelerator). Factors for cold cells resolve to
    /// exactly 1.0.
    pub(crate) fn calib_context(&self, class: BindingClass, region: &str) -> Option<CalibContext> {
        if self.calibration == CalibrationMode::Off {
            return None;
        }
        let host_factor = self
            .calibrator
            .factor(region, self.fleet.host_label_arc(), class);
        let accel_factors = (0..self.fleet.accelerator_count())
            .map(|i| {
                let (_, label) = self.accel_identity(i);
                self.calibrator.factor(region, &label, class)
            })
            .collect();
        Some(CalibContext {
            mode: self.calibration,
            class,
            host_factor,
            accel_factors,
        })
    }

    /// Resolves an accelerator's fleet index to its id and interned label,
    /// tolerating indices beyond the registered fleet (outcome slices fed
    /// to [`Selector::decide_from_outcomes`] may be wider): unregistered
    /// indices resolve to the primary accelerator's identity, or a
    /// detached `"gpu"` label when the fleet is host-only.
    fn accel_identity(&self, fleet_idx: usize) -> (DeviceId, Arc<str>) {
        match self
            .fleet
            .accel_id(fleet_idx)
            .or_else(|| self.fleet.primary_accelerator())
        {
            Some(id) => (
                id,
                self.fleet
                    .label_arc(id)
                    .expect("fleet id resolved above")
                    .clone(),
            ),
            None => (DeviceId(1), Arc::from(Device::Gpu.name())),
        }
    }

    /// Decides with the candidate set restricted to the host plus at most
    /// one accelerator (`None` = host only): the evaluation behind
    /// [`DecisionEngine::decide_for`]. The accelerator keeps its true
    /// fleet id and label in the decision, and with the fleet's primary
    /// accelerator as scope this is bit-identical to the full
    /// [`Selector::decide`] on a pair fleet.
    pub(crate) fn decide_restricted(
        &self,
        attrs: &RegionAttributes,
        binding: &Binding,
        scope: Option<usize>,
    ) -> Decision {
        let consult = self.policy == Policy::ModelDriven;
        let host = consult.then(|| attrs.cpu_model.evaluate(binding).map(|p| p.seconds));
        let accels: Vec<(usize, Option<Result<f64, ModelError>>)> = match scope {
            None => Vec::new(),
            Some(fleet_idx) => {
                let outcome = consult.then(|| {
                    let model = if fleet_idx == 0 {
                        &attrs.gpu_model
                    } else {
                        &attrs.extra_accel_models[fleet_idx - 1]
                    };
                    model.evaluate(binding).map(|p| p.seconds)
                });
                vec![(fleet_idx, outcome)]
            }
        };
        let calib = consult
            .then(|| self.calib_context(attrs.calib_class(binding), attrs.region_name()))
            .flatten();
        self.compose_indexed(
            self.policy,
            attrs.region_name(),
            host,
            &accels,
            calib.as_ref(),
        )
    }

    /// Runs the timing simulators for both targets ("measures" the region):
    /// the host, and the *primary* accelerator's own descriptor (the
    /// platform's accelerator when the fleet is host-only), the same
    /// accelerator whose model [`Selector::cost_models`] pairs with.
    pub fn measure(&self, kernel: &Kernel, binding: &Binding) -> Option<Measured> {
        let cpu_s = self.simulate_on(kernel, binding, DeviceId::HOST)?;
        let gpu_s = match self.fleet.primary_accelerator() {
            Some(id) => self.simulate_on(kernel, binding, id)?,
            None => hetsel_gpusim::simulate(kernel, binding, &self.platform.gpu)?.total_s(),
        };
        Some(Measured { cpu_s, gpu_s })
    }

    /// Simulates the region on one registered device, in seconds: the host,
    /// or an accelerator's own descriptor. `None` for an id the fleet does
    /// not register, or a region the simulator cannot run.
    pub(crate) fn simulate_on(
        &self,
        kernel: &Kernel,
        binding: &Binding,
        device: DeviceId,
    ) -> Option<f64> {
        if device.is_host() {
            let cpu = hetsel_cpusim::simulate(
                kernel,
                binding,
                &self.platform.cpu,
                self.platform.host_threads,
            )?;
            return Some(cpu.total_s());
        }
        let accel = self.fleet.accelerator(device)?;
        Some(hetsel_gpusim::simulate(kernel, binding, &accel.descriptor)?.total_s())
    }

    /// Decides and measures: the full model-vs-actual record for one region.
    pub fn evaluate(&self, kernel: &Kernel, binding: &Binding) -> Option<Evaluation> {
        let decision = self.decide(kernel, binding);
        let measured = self.measure(kernel, binding)?;
        Some(Evaluation { decision, measured })
    }
}

/// Anything the two canonical [`Selector`] entry points
/// ([`Selector::predict`] / [`Selector::decide`]) can evaluate the cost
/// models against.
///
/// Two implementations exist: a precompiled [`RegionAttributes`] (the
/// paper's runtime path — all symbolic work already happened when the
/// attribute database was compiled) and a bare [`Kernel`] (the cold path:
/// models are compiled on the spot). This trait is what collapsed the old
/// `predict` / `predict_detailed` / `select` / `select_kernel` / `decide`
/// sprawl into two entry points without losing either calling convention.
pub trait ModelSource {
    /// The region name decisions are recorded under.
    fn region_name(&self) -> &str;

    /// Evaluates the host model and the *primary* accelerator's model
    /// under `binding`, in `selector`'s configuration, returning
    /// `(cpu, gpu)` outcomes in seconds — the classic pair view.
    fn model_outcomes(
        &self,
        selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Result<f64, ModelError>);

    /// Evaluates the host model and every fleet accelerator's model under
    /// `binding`, returning the host outcome plus one outcome per
    /// accelerator in fleet registration order.
    fn fleet_outcomes(
        &self,
        selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Vec<Result<f64, ModelError>>);

    /// The [`BindingClass`] online calibration buckets this region's
    /// corrections under for `binding`. The default classifies over every
    /// bound symbol; sources that know their required parameters override
    /// it so irrelevant symbols cannot perturb the class — the same
    /// discipline the decision cache's key follows.
    fn calib_class(&self, binding: &Binding) -> BindingClass {
        BindingClass::of(binding)
    }
}

impl ModelSource for Kernel {
    fn region_name(&self) -> &str {
        &self.name
    }

    fn model_outcomes(
        &self,
        selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Result<f64, ModelError>) {
        let (cpu_cost, gpu_cost) = selector.cost_models();
        (
            cpu_cost.compile(self).evaluate(binding).map(|p| p.seconds),
            gpu_cost.compile(self).evaluate(binding).map(|p| p.seconds),
        )
    }

    fn fleet_outcomes(
        &self,
        selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Vec<Result<f64, ModelError>>) {
        let (cpu_cost, gpu_costs) = selector.fleet_cost_models();
        (
            cpu_cost.compile(self).evaluate(binding).map(|p| p.seconds),
            gpu_costs
                .into_iter()
                .map(|g| g.compile(self).evaluate(binding).map(|p| p.seconds))
                .collect(),
        )
    }

    fn calib_class(&self, binding: &Binding) -> BindingClass {
        let params = self.params();
        BindingClass::over(params.iter().map(String::as_str), binding)
    }
}

impl ModelSource for RegionAttributes {
    fn region_name(&self) -> &str {
        &self.kernel.name
    }

    fn model_outcomes(
        &self,
        _selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Result<f64, ModelError>) {
        (
            self.cpu_model.evaluate(binding).map(|p| p.seconds),
            self.gpu_model.evaluate(binding).map(|p| p.seconds),
        )
    }

    fn fleet_outcomes(
        &self,
        _selector: &Selector,
        binding: &Binding,
    ) -> (Result<f64, ModelError>, Vec<Result<f64, ModelError>>) {
        let mut accels = Vec::with_capacity(1 + self.extra_accel_models.len());
        accels.push(self.gpu_model.evaluate(binding).map(|p| p.seconds));
        for model in &self.extra_accel_models {
            accels.push(model.evaluate(binding).map(|p| p.seconds));
        }
        (self.cpu_model.evaluate(binding).map(|p| p.seconds), accels)
    }

    fn calib_class(&self, binding: &Binding) -> BindingClass {
        BindingClass::over(self.required_params.iter().map(String::as_str), binding)
    }
}

/// One decision (or dispatch) request: the redesigned request API that
/// replaced the positional `(&str, &Binding)` tuples.
///
/// A request names the region, carries the runtime binding, and optionally
/// overrides the engine's policy or bounds the decision with a deadline.
/// Build with [`DecisionRequest::new`] plus the `with_*` builders:
///
/// ```
/// use std::time::Duration;
/// use hetsel_core::{DecisionRequest, Policy};
/// use hetsel_ir::Binding;
///
/// let request = DecisionRequest::new("gemm", Binding::new().with("ni", 1024))
///     .with_policy(Policy::AlwaysHost)
///     .with_deadline(Duration::from_micros(50));
/// assert_eq!(request.region(), "gemm");
/// ```
///
/// Fields are private so invariants can be added without breaking callers;
/// every field has an accessor. Serialization (via the workspace `serde`)
/// writes `{"region", "binding", "policy_override", "deadline_ns"}` with
/// the policy as its [`Policy::name`] string and the deadline in integer
/// nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRequest {
    region: String,
    binding: Binding,
    policy_override: Option<Policy>,
    deadline: Option<Duration>,
}

impl DecisionRequest {
    /// A plain request: decide `region` under `binding` with the engine's
    /// own policy and no deadline.
    pub fn new(region: impl Into<String>, binding: Binding) -> DecisionRequest {
        DecisionRequest {
            region: region.into(),
            binding,
            policy_override: None,
            deadline: None,
        }
    }

    /// Builder: decide under `policy` instead of the engine's configured
    /// policy. Overridden decisions are cached in their own policy-tagged
    /// partition, so repeated overrides are as warm as plain decisions
    /// without ever cross-answering one.
    pub fn with_policy(mut self, policy: Policy) -> DecisionRequest {
        self.policy_override = Some(policy);
        self
    }

    /// Builder: strip any per-request policy override, restoring the
    /// engine's configured policy — the mirror of
    /// [`DecisionRequest::without_deadline`], so a front-end can reuse a
    /// template request without rebuilding it.
    pub fn without_policy(mut self) -> DecisionRequest {
        self.policy_override = None;
        self
    }

    /// Builder: bound the decision by `deadline`. A decision that misses
    /// its deadline degrades to the compiler default (offload) with
    /// [`ModelError::DeadlineExceeded`] recorded on both sides; a zero
    /// deadline skips model evaluation entirely.
    pub fn with_deadline(mut self, deadline: Duration) -> DecisionRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: strip any deadline from the request. A front-end that
    /// enforces deadlines with real timers (`hetsel-serve`) uses this so
    /// the engine never second-guesses the timer with its own post-hoc
    /// elapsed check.
    pub fn without_deadline(mut self) -> DecisionRequest {
        self.deadline = None;
        self
    }

    /// The region the request names.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// The runtime binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The policy override, if any.
    pub fn policy_override(&self) -> Option<Policy> {
        self.policy_override
    }

    /// The decision deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

impl From<(&str, &Binding)> for DecisionRequest {
    /// Upgrades a legacy positional pair into a plain request.
    fn from((region, binding): (&str, &Binding)) -> DecisionRequest {
        DecisionRequest::new(region, binding.clone())
    }
}

impl serde::Serialize for DecisionRequest {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let binding = Value::Object(
            self.binding
                .iter()
                .map(|(name, value)| (name.to_string(), Value::Int(value)))
                .collect(),
        );
        let policy = match self.policy_override {
            Some(p) => Value::Str(p.name().to_string()),
            None => Value::Null,
        };
        let deadline = match self.deadline {
            // Saturate rather than wrap: u64 nanoseconds covers ~584 years.
            Some(d) => Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            None => Value::Null,
        };
        Value::Object(vec![
            ("region".to_string(), Value::Str(self.region.clone())),
            ("binding".to_string(), binding),
            ("policy_override".to_string(), policy),
            ("deadline_ns".to_string(), deadline),
        ])
    }
}

impl serde::Deserialize for DecisionRequest {
    fn from_value(v: &serde::Value) -> Result<DecisionRequest, serde::Error> {
        use serde::Value;
        let region = match v.get("region") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(serde::Error::msg(format!("bad region: {other:?}"))),
        };
        let mut binding = Binding::new();
        match v.get("binding") {
            Some(Value::Object(fields)) => {
                for (name, value) in fields {
                    match value {
                        Value::Int(n) => binding.set(name.as_str(), *n),
                        Value::UInt(n) => binding.set(
                            name.as_str(),
                            i64::try_from(*n).map_err(|_| {
                                serde::Error::msg(format!("binding {name} out of range: {n}"))
                            })?,
                        ),
                        other => {
                            return Err(serde::Error::msg(format!(
                                "binding {name} is not an integer: {other:?}"
                            )))
                        }
                    }
                }
            }
            other => return Err(serde::Error::msg(format!("bad binding: {other:?}"))),
        }
        let policy_override = match v.get("policy_override") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(
                Policy::parse(s)
                    .ok_or_else(|| serde::Error::msg(format!("unknown policy {s:?}")))?,
            ),
            other => return Err(serde::Error::msg(format!("bad policy_override: {other:?}"))),
        };
        let deadline = match v.get("deadline_ns") {
            None | Some(Value::Null) => None,
            Some(ns) => Some(Duration::from_nanos(
                <u64 as serde::Deserialize>::from_value(ns)?,
            )),
        };
        let mut request = DecisionRequest::new(region, binding);
        request.policy_override = policy_override;
        request.deadline = deadline;
        Ok(request)
    }
}

/// Geometric mean of the positive, finite values in a sequence.
///
/// Non-positive and non-finite values are skipped rather than asserted on:
/// one degenerate sample (a zero simulated time, an unresolved speedup
/// propagated as NaN) must not turn a whole aggregate into NaN. An input
/// with no usable values yields `1.0`, the neutral speedup.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 && v.is_finite() {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Hit/miss statistics and occupancy of a [`DecisionEngine`]'s cache,
/// aggregated over every shard. Counters are shard-local atomics summed at
/// read time — taking a snapshot never stops the world; each shard's lock
/// is taken briefly and one at a time only for `len` and `evictions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache.
    pub hits: u64,
    /// Decisions computed by model evaluation.
    pub misses: u64,
    /// Entries currently cached, summed over shards.
    pub len: usize,
    /// Maximum entries the cache holds in total. Sharding never inflates
    /// the memory bound: per-shard capacities sum to exactly this value.
    pub capacity: usize,
    /// Entries evicted to make room since the engine was built.
    pub evictions: u64,
    /// Number of lock-striped shards the cache is split into.
    pub shards: usize,
}

/// Number of parameter slots a [`CacheKey`] stores inline. Polybench
/// regions need at most three; eight covers any realistic region without
/// touching the heap.
const INLINE_KEY_SLOTS: usize = 8;

/// The engine's own configured policy — the default [`CacheKey`]
/// partition every plain `decide`/`decide_for` call lives in.
const OWN_POLICY: u8 = 0;

/// Stable non-zero partition tag for a per-request policy override.
/// Distinct from [`OWN_POLICY`] even when the override names the policy
/// the engine is already configured with: the cheap constant tag keeps
/// the plain path free of a comparison, at the cost of (at most) one
/// duplicate cache entry per key for redundant overrides.
fn policy_code(policy: Policy) -> u8 {
    match policy {
        Policy::AlwaysHost => 1,
        Policy::AlwaysOffload => 2,
        Policy::ModelDriven => 3,
    }
}

/// Key of a cached decision: the region's dense [`RegionId`], the
/// [`DeviceId`] scope the decision was taken under ([`DeviceId::FLEET`]
/// for the default whole-fleet `decide`, a concrete device id for
/// `decide_for`), a policy-partition tag (0 for the engine's configured
/// policy, a [`policy_code`] for per-request overrides), plus the
/// resolved values of exactly the parameters that region requires, in
/// declaration order, with the hash precomputed at construction. Bindings that differ only in irrelevant symbols share an
/// entry; an unbound required parameter is part of the key too (`None`),
/// so fallback decisions are cached with the same fidelity as successful
/// ones.
///
/// Keys with at most [`INLINE_KEY_SLOTS`] parameters are built, hashed and
/// compared without a single heap allocation — this is what makes the
/// cache-hit `decide` path allocation-free. Longer parameter lists spill to
/// a boxed slice.
#[derive(Debug, Clone)]
struct CacheKey {
    region: RegionId,
    /// Decision scope: whole fleet or one device.
    scope: DeviceId,
    /// Policy partition: 0 for the engine's own configured policy, a
    /// [`policy_code`] for a per-request override. Overridden decisions
    /// are cached too, but in their own partition — they can never
    /// answer (or be answered by) a plain request.
    policy: u8,
    /// Calibration epoch the decision was taken under: the calibrator's
    /// epoch in Active mode, 0 otherwise. A published correction bumps
    /// the epoch, so every cached verdict that might depend on it is
    /// lazily invalidated (its key no longer matches) without touching
    /// the cache — and *only* then: per-sample churn never invalidates.
    epoch: u64,
    /// Number of inline slots in use (only meaningful when `spill` is
    /// `None`; always `<= INLINE_KEY_SLOTS`).
    len: u8,
    inline: [Option<i64>; INLINE_KEY_SLOTS],
    spill: Option<Box<[Option<i64>]>>,
    /// FNV-1a over the region id and slots, computed once at construction.
    /// `Hash` writes this value verbatim and shard selection masks it
    /// directly, so a key is hashed exactly once in its life.
    hash: u64,
}

impl CacheKey {
    /// The key of `region`'s decision under a binding given as a lookup:
    /// `binding` returns a parameter's value by name, so a key is built as
    /// well from a [`Binding`] as from a request line's borrowed entries.
    fn new(
        region: RegionId,
        scope: DeviceId,
        policy: u8,
        epoch: u64,
        attrs: &RegionAttributes,
        binding: impl Fn(&str) -> Option<i64>,
    ) -> CacheKey {
        let params = &attrs.required_params;
        let mut inline = [None; INLINE_KEY_SLOTS];
        let mut spill = None;
        if params.len() <= INLINE_KEY_SLOTS {
            for (slot, p) in inline.iter_mut().zip(params) {
                *slot = binding(p);
            }
        } else {
            spill = Some(params.iter().map(|p| binding(p)).collect());
        }
        let mut key = CacheKey {
            region,
            scope,
            policy,
            epoch,
            len: params.len().min(INLINE_KEY_SLOTS) as u8,
            inline,
            spill,
            hash: 0,
        };
        key.hash = key.compute_hash();
        key
    }

    /// The resolved parameter values, in the region's declaration order.
    fn slots(&self) -> &[Option<i64>] {
        match &self.spill {
            Some(slots) => slots,
            None => &self.inline[..self.len as usize],
        }
    }

    fn compute_hash(&self) -> u64 {
        // FNV-1a with the standard constants: cheap, allocation-free, and
        // deterministic within and across processes (shard placement and
        // therefore per-shard accounting are reproducible).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        mix(u64::from(self.region.0));
        mix(u64::from(self.scope.0));
        mix(u64::from(self.policy));
        // Folded only when nonzero so epoch-0 keys (Off/Shadow mode, or
        // Active before any publication) hash — and therefore shard —
        // exactly as they did before calibration existed. FNV-1a folds a
        // zero too (the multiply still runs), which would silently reshuffle
        // every cached entry's placement.
        if self.epoch != 0 {
            mix(self.epoch);
        }
        for slot in self.slots() {
            // Distinct tags keep `Some(0)` and `None` from colliding.
            match slot {
                Some(v) => {
                    mix(1);
                    mix(*v as u64);
                }
                None => mix(2),
            }
        }
        // MurmurHash3 finalizer: raw FNV concentrates its entropy in the
        // high bits, but shard selection masks the *low* bits — fmix64
        // gives them full avalanche.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash
            && self.region == other.region
            && self.scope == other.scope
            && self.policy == other.policy
            && self.epoch == other.epoch
            && self.slots() == other.slots()
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Pass-through hasher for [`CacheKey`]-keyed maps: the key's `hash` field
/// is already a well-mixed 64-bit value (fmix64-finalised FNV-1a), so
/// running it through SipHash again would only add latency to the hot
/// path. `CacheKey::hash` feeds exactly one `write_u64`.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("CacheKey hashes via write_u64 only");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PrehashedBuild = std::hash::BuildHasherDefault<Prehashed>;

/// Sentinel index for "no node" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct LruNode {
    key: CacheKey,
    decision: Decision,
    /// The decision's JSON object ([`DecisionFields::write_json`]), sized
    /// to fit: rendered on the entry's first [`CachedDecision::json`] and
    /// dropped with the decision it renders, when a refresh replaces it or
    /// the slot is reused for another key.
    json: Option<Box<[u8]>>,
    prev: u32,
    next: u32,
}

/// A bounded LRU map backed by an intrusive doubly linked list threaded
/// through a slab of nodes: a hit relinks two `u32` indices — no key
/// clone, no queue record, no allocation at all — and an insert at
/// capacity reuses the evicted node's slot, so a full cache stops
/// allocating entirely (each entry's rendering aside, made once per
/// entry). Eviction order is exact LRU.
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, u32, PrehashedBuild>,
    nodes: Vec<LruNode>,
    free: Vec<u32>,
    /// Most recently used node, or [`NIL`] when empty.
    head: u32,
    /// Least recently used node, or [`NIL`] when empty.
    tail: u32,
    evictions: u64,
}

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Finds `key`'s node and makes it the most recently used.
    fn touch(&mut self, key: &CacheKey) -> Option<u32> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(idx)
    }

    fn get(&mut self, key: &CacheKey) -> Option<Decision> {
        let idx = self.touch(key)?;
        Some(self.nodes[idx as usize].decision.clone())
    }

    fn insert(&mut self, key: CacheKey, decision: Decision) {
        if let Some(&idx) = self.map.get(&key) {
            // Same key: refresh the value in place and the recency.
            let n = &mut self.nodes[idx as usize];
            n.decision = decision;
            n.json = None;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        while self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty map must have a tail");
            if lru == NIL {
                break;
            }
            self.unlink(lru);
            self.map.remove(&self.nodes[lru as usize].key);
            self.free.push(lru);
            self.evictions += 1;
            hetsel_obs::static_counter!("hetsel.core.cache.eviction").inc();
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                n.key = key.clone();
                n.decision = decision;
                n.json = None;
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(LruNode {
                    key: key.clone(),
                    decision,
                    json: None,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }
}

/// Default decision-cache capacity: generous for a program with tens of
/// regions and a handful of binding regimes each.
pub const DEFAULT_DECISION_CACHE: usize = 1024;

/// Default shard count for the decision cache: a power of two sized for the
/// core counts this runtime targets (the build environment is offline, so
/// this is a constant rather than a `num_cpus` probe). Sixteen stripes keep
/// eight to sixteen deciding threads almost always on disjoint locks.
pub const DEFAULT_DECISION_SHARDS: usize = 16;

/// One lock stripe of the sharded cache: a bounded LRU behind its own
/// mutex, with the hit/miss tallies kept *outside* the lock so the
/// aggregated [`DecisionCacheStats`] never needs a stop-the-world pass.
#[derive(Debug)]
struct CacheShard {
    lru: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A sharded, lock-striped decision cache: `CacheKey`s are hashed onto a
/// power-of-two number of independent [`LruCache`]s so concurrent
/// `decide()` calls for different keys almost never contend on the same
/// mutex. The total memory bound is unchanged by sharding — per-shard
/// capacities are carved out of the requested capacity and sum to exactly
/// it.
#[derive(Debug)]
struct ShardedCache {
    shards: Box<[CacheShard]>,
    mask: usize,
}

impl ShardedCache {
    /// Builds `shards` stripes (rounded down to a power of two, clamped to
    /// `[1, capacity]` so every shard holds at least one entry and the
    /// stripes sum to exactly `capacity`).
    fn new(capacity: usize, shards: usize) -> ShardedCache {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        // Round down to a power of two so shard selection is a mask.
        let shards = 1usize << shards.ilog2();
        let base = capacity / shards;
        let extra = capacity % shards;
        let stripes: Vec<CacheShard> = (0..shards)
            .map(|i| CacheShard {
                lru: Mutex::new(LruCache::new(base + usize::from(i < extra))),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        ShardedCache {
            shards: stripes.into_boxed_slice(),
            mask: shards - 1,
        }
    }

    /// The shard a key lives in: a mask over the key's precomputed FNV-1a
    /// hash — no hasher runs here, so shard selection costs two
    /// instructions and placement is deterministic within and across
    /// processes.
    fn shard_index(&self, key: &CacheKey) -> usize {
        (key.hash as usize) & self.mask
    }

    fn shard(&self, key: &CacheKey) -> &CacheShard {
        &self.shards[self.shard_index(key)]
    }
}

/// Emits one flight-recorder event for an engine verdict. The disabled
/// path is a single relaxed atomic load inside
/// [`hetsel_obs::record_event`] — the closure (and therefore every field
/// read below) runs only while recording is on, and even then allocates
/// nothing: the event is a fixed-size stack value serialized into the
/// recorder's preallocated ring.
#[inline]
fn record_decide_event(decision: &Decision, binding_hash: u64, cache_hit: bool) {
    hetsel_obs::record_event(|| {
        let mut ev =
            hetsel_obs::DecisionEvent::new(hetsel_obs::EventKind::Decide, &decision.region);
        ev.binding_hash = binding_hash;
        ev.device = decision.device_id.0;
        ev.verdict_accel = decision.device == Device::Gpu;
        ev.cache_hit = cache_hit;
        ev.predicted_cpu_s = decision.predicted_cpu_s.unwrap_or(f64::NAN);
        ev.predicted_accel_s = decision.predicted_gpu_s.unwrap_or(f64::NAN);
        ev
    });
    // A calibration flip on a *freshly evaluated* verdict gets its own
    // event (cached copies of a flipped decision do not re-announce it):
    // `detail` 1 = the correction was applied (Active), 0 = a shadow-mode
    // would-flip; the predicted fields carry the raw predictions the flip
    // was measured against.
    if !cache_hit {
        if let Some(tag) = decision.calibration.filter(|t| t.flipped) {
            hetsel_obs::record_event(|| {
                let mut ev = hetsel_obs::DecisionEvent::new(
                    hetsel_obs::EventKind::CalibrationFlip,
                    &decision.region,
                );
                ev.binding_hash = binding_hash;
                ev.device = decision.device_id.0;
                ev.verdict_accel = decision.device == Device::Gpu;
                ev.detail = u8::from(tag.applied);
                ev.predicted_cpu_s = tag.raw_cpu_s.unwrap_or(f64::NAN);
                ev.predicted_accel_s = tag.raw_gpu_s.unwrap_or(f64::NAN);
                ev
            });
        }
    }
}

/// Counts and flight-records one cache hit served from `shard`. Every hit
/// site goes through here, so a hit is observable the same way whichever
/// path served it.
#[inline]
fn note_hit(shard: &CacheShard, decision: &Decision, key_hash: u64) {
    shard.hits.fetch_add(1, Ordering::Relaxed);
    hetsel_obs::static_counter!("hetsel.core.cache.hit").inc();
    record_decide_event(decision, key_hash, true);
}

/// A region [`DecisionEngine::resolve`] found by name: its dense id and
/// compiled attributes, so one name lookup serves a cache probe and, on a
/// miss, the decision.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedRegion<'e> {
    id: RegionId,
    attrs: &'e RegionAttributes,
}

/// What a [`DecisionEngine::lookup`] found.
#[derive(Debug)]
pub enum Lookup<'e> {
    /// The cache entry holding the decision.
    Hit(CachedDecision<'e>),
    /// Nothing cached under the probed key.
    Miss(CacheMiss<'e>),
}

/// The decision-cache entry a [`DecisionEngine::lookup`] hit, lent under
/// its shard's lock: drop it promptly, and probe or decide nothing else
/// through the engine while holding it.
pub struct CachedDecision<'e> {
    lru: MutexGuard<'e, LruCache>,
    idx: u32,
}

impl CachedDecision<'_> {
    /// The cached decision.
    pub fn decision(&self) -> &Decision {
        &self.lru.nodes[self.idx as usize].decision
    }

    /// The decision's JSON object, as [`DecisionFields::write_json`]
    /// writes it: rendered on the entry's first call and kept with the
    /// entry, so every later hit on it formats nothing.
    pub fn json(&mut self) -> &[u8] {
        let node = &mut self.lru.nodes[self.idx as usize];
        node.json.get_or_insert_with(|| {
            let mut json = Vec::with_capacity(256);
            DecisionFields::from(&node.decision).write_json(&mut json);
            json.into_boxed_slice()
        })
    }
}

impl std::fmt::Debug for CachedDecision<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CachedDecision")
            .field(self.decision())
            .finish()
    }
}

/// A [`DecisionEngine::lookup`] that missed: the key it probed and the
/// policy to decide under, for [`DecisionEngine::decide_miss`].
#[derive(Debug)]
pub struct CacheMiss<'e> {
    key: CacheKey,
    attrs: &'e RegionAttributes,
    policy: Policy,
}

/// The compile-once decision engine: a [`Selector`] bound to a precompiled
/// [`AttributeDatabase`] plus a bounded LRU cache of decisions.
///
/// This is the paper's runtime component in full: regions were compiled
/// once (models, IPDA, loadouts all precomputed); at execution time
/// [`DecisionEngine::decide`] binds the runtime values, and because a
/// program re-reaches the same region with the same extents over and over,
/// the decision itself is memoized on `(region, resolved parameter values)`.
/// Cached and freshly evaluated decisions are identical — the cache stores
/// the full [`Decision`], evidence and errors included.
#[derive(Debug)]
pub struct DecisionEngine {
    selector: Selector,
    database: AttributeDatabase,
    cache: ShardedCache,
}

impl DecisionEngine {
    /// Compiles `kernels` under `selector`'s configuration and wraps the
    /// result with a decision cache of [`DEFAULT_DECISION_CACHE`] entries
    /// striped over [`DEFAULT_DECISION_SHARDS`] shards.
    pub fn new(selector: Selector, kernels: &[Kernel]) -> DecisionEngine {
        DecisionEngine::with_capacity(selector, kernels, DEFAULT_DECISION_CACHE)
    }

    /// As [`DecisionEngine::new`] with an explicit cache capacity
    /// (minimum 1).
    pub fn with_capacity(
        selector: Selector,
        kernels: &[Kernel],
        capacity: usize,
    ) -> DecisionEngine {
        let database = AttributeDatabase::compile(kernels, &selector);
        DecisionEngine::from_database(selector, database, capacity)
    }

    /// Wraps an already-compiled database. The database must have been
    /// compiled with this selector's configuration for decisions to match
    /// cold [`Selector::decide`] calls on the bare kernels.
    pub fn from_database(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
    ) -> DecisionEngine {
        DecisionEngine::from_database_sharded(selector, database, capacity, DEFAULT_DECISION_SHARDS)
    }

    /// As [`DecisionEngine::from_database`] with an explicit shard count.
    /// `shards` is rounded down to a power of two and clamped to
    /// `[1, capacity]`; `shards == 1` reproduces the old single-mutex cache
    /// (the baseline the contention benchmark compares against).
    pub fn from_database_sharded(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
        shards: usize,
    ) -> DecisionEngine {
        DecisionEngine {
            selector,
            database,
            cache: ShardedCache::new(capacity, shards),
        }
    }

    /// The selector the engine decides with.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The compiled attribute database.
    pub fn database(&self) -> &AttributeDatabase {
        &self.database
    }

    /// The calibration epoch cache keys are stamped with: the calibrator's
    /// current epoch in Active mode (one relaxed atomic load), 0 in Off
    /// and Shadow modes — those verdicts never depend on corrections, so
    /// their cache entries must survive publications untouched.
    #[inline]
    fn calib_epoch(&self) -> u64 {
        match self.selector.calibration {
            CalibrationMode::Active => self.selector.calibrator.epoch(),
            _ => 0,
        }
    }

    /// Takes (or recalls) the offloading decision for `region` under
    /// `binding`. Returns `None` only for a region the database does not
    /// know. A cached decision is bit-identical to what evaluation would
    /// produce, because the models are deterministic in the key.
    pub fn decide(&self, region: &str, binding: &Binding) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        let (id, attrs) = self.database.region_entry(region)?;
        let key = CacheKey::new(
            id,
            DeviceId::FLEET,
            OWN_POLICY,
            self.calib_epoch(),
            attrs,
            |p| binding.get(p),
        );
        Some(self.decide_cached(key, || self.selector.decide(attrs, binding)))
    }

    /// The probe → evaluate → insert dance every cached single-decision
    /// path shares. Probes `key`'s shard, runs `eval` on a miss, then
    /// re-probes under the insert lock: another thread may have completed
    /// the same miss while this one was evaluating. The loser takes the
    /// cached copy (bit-identical — the models are deterministic in the
    /// key) and counts a late hit, so `misses == insertions` holds
    /// exactly even under concurrent duplicate misses. Hit/miss counters
    /// and the flight-recorder `Decide` event are emitted here, so every
    /// caller is observable by construction.
    fn decide_cached(&self, key: CacheKey, eval: impl FnOnce() -> Decision) -> Decision {
        if let Some(cached) = self.probe(&key) {
            return cached.decision().clone();
        }
        self.insert_miss(key, eval())
    }

    /// The second half of [`DecisionEngine::decide_cached`]: inserts the
    /// `decision` evaluated for a probe of `key` that missed, unless
    /// another thread inserted the key meanwhile (then its copy is
    /// returned and counted as a late hit).
    fn insert_miss(&self, key: CacheKey, decision: Decision) -> Decision {
        let shard = self.cache.shard(&key);
        let mut lru = shard.lru.lock();
        if let Some(cached) = lru.get(&key) {
            drop(lru);
            note_hit(shard, &cached, key.hash);
            return cached;
        }
        let binding_hash = key.hash;
        lru.insert(key, decision.clone());
        drop(lru);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        hetsel_obs::static_counter!("hetsel.core.cache.miss").inc();
        record_decide_event(&decision, binding_hash, false);
        decision
    }

    /// Looks `key` up without evaluating anything. A hit is counted and
    /// flight-recorded, and its entry lent under the shard lock; a miss
    /// leaves the cache and its statistics as they were.
    fn probe(&self, key: &CacheKey) -> Option<CachedDecision<'_>> {
        let shard = self.cache.shard(key);
        let mut lru = shard.lru.lock();
        let idx = lru.touch(key)?;
        note_hit(shard, &lru.nodes[idx as usize].decision, key.hash);
        Some(CachedDecision { lru, idx })
    }

    /// Answers `request` from the cache alone: the decision
    /// [`DecisionEngine::decide_request`] would return, when its key (the
    /// engine's own policy or the override's partition, under the current
    /// calibration epoch) is cached. A hit is counted and flight-recorded
    /// exactly as a hit of `decide_request`, and allocates nothing
    /// (`core/tests/zero_alloc.rs`). Otherwise it returns `None` having
    /// evaluated, inserted and counted nothing: on a miss, for an unknown
    /// region, and for a zero budget, which `decide_request` degrades
    /// without consulting the cache.
    pub fn cached(&self, request: &DecisionRequest) -> Option<Decision> {
        self.cached_parts(
            request.region(),
            |p| request.binding().get(p),
            request.policy_override(),
            request.deadline(),
        )
    }

    /// As [`DecisionEngine::cached`], over a request's parts instead of an
    /// owned [`DecisionRequest`]: `binding` returns a parameter's value by
    /// name. A caller that decoded a request in place — the decision
    /// service, from the bytes of a request line — probes with what it
    /// borrowed, and a hit allocates nothing (`core/tests/zero_alloc.rs`).
    pub fn cached_parts(
        &self,
        region: &str,
        binding: impl Fn(&str) -> Option<i64>,
        policy_override: Option<Policy>,
        deadline: Option<Duration>,
    ) -> Option<Decision> {
        if deadline.is_some_and(|d| d.is_zero()) {
            return None;
        }
        match self.lookup(self.resolve(region)?, binding, policy_override) {
            Lookup::Hit(cached) => Some(cached.decision().clone()),
            Lookup::Miss(_) => None,
        }
    }

    /// Looks `region` up by name, once: the handle serves
    /// [`DecisionEngine::lookup`] and, on a miss,
    /// [`DecisionEngine::decide_miss`] without a second name lookup.
    /// `None` for a region the database does not know.
    pub fn resolve(&self, region: &str) -> Option<ResolvedRegion<'_>> {
        let (id, attrs) = self.database.region_entry(region)?;
        Some(ResolvedRegion { id, attrs })
    }

    /// Probes the cache for a request to `region` with no deadline, keyed
    /// as [`DecisionEngine::decide_request`] keys it: `binding` returns a
    /// parameter's value by name, and `policy_override` picks the cache
    /// partition. A hit is counted and flight-recorded as a hit of
    /// `decide_request`, allocates nothing, and lends the caller the entry
    /// under its shard's lock ([`CachedDecision`]): a caller clones the
    /// decision only if it wants one. A miss evaluates, inserts and counts
    /// nothing; it hands back the key it probed, for
    /// [`DecisionEngine::decide_miss`].
    pub fn lookup<'e>(
        &'e self,
        region: ResolvedRegion<'e>,
        binding: impl Fn(&str) -> Option<i64>,
        policy_override: Option<Policy>,
    ) -> Lookup<'e> {
        let key = CacheKey::new(
            region.id,
            DeviceId::FLEET,
            policy_override.map_or(OWN_POLICY, policy_code),
            self.calib_epoch(),
            region.attrs,
            binding,
        );
        match self.probe(&key) {
            Some(cached) => Lookup::Hit(cached),
            None => Lookup::Miss(CacheMiss {
                key,
                attrs: region.attrs,
                policy: policy_override.unwrap_or(self.selector.policy),
            }),
        }
    }

    /// Decides the request whose [`DecisionEngine::lookup`] missed: the
    /// models evaluate `binding`, which must bind the values the probe's
    /// lookup returned, and the decision is cached under the probed key.
    /// Counted and flight-recorded as a miss of
    /// [`DecisionEngine::decide_request`] with no deadline (a late hit
    /// when another thread cached the key meanwhile).
    pub fn decide_miss(&self, miss: CacheMiss<'_>, binding: &Binding) -> Decision {
        let decision = self.selector.decide_under(miss.policy, miss.attrs, binding);
        self.insert_miss(miss.key, decision)
    }

    /// Takes (or recalls) the decision for `region` with the candidate set
    /// restricted to the host plus the one device `device` names
    /// ([`DeviceId::HOST`] restricts to the host alone). Returns `None`
    /// for an unknown region, a device id the fleet does not register, or
    /// an accelerator the database carries no compiled model for.
    ///
    /// Scoped decisions share the engine's cache under a
    /// `(RegionId, DeviceId, values)` key and are as allocation-free on a
    /// hit as [`DecisionEngine::decide`] (proven by
    /// `core/tests/zero_alloc.rs`). With the fleet's primary accelerator
    /// as scope the answer is bit-identical to `decide` on a pair fleet.
    pub fn decide_for(
        &self,
        region: &str,
        binding: &Binding,
        device: DeviceId,
    ) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        let (id, attrs) = self.database.region_entry(region)?;
        let scope = if device.is_host() {
            None
        } else {
            let fleet_idx = self.selector.fleet.accel_index(device)?;
            // The database must carry a compiled model for this
            // accelerator (index 0 is `gpu_model`, the rest are extras).
            if fleet_idx > attrs.extra_accel_models.len() {
                return None;
            }
            Some(fleet_idx)
        };
        let key = CacheKey::new(id, device, OWN_POLICY, self.calib_epoch(), attrs, |p| {
            binding.get(p)
        });
        Some(self.decide_cached(key, || {
            self.selector.decide_restricted(attrs, binding, scope)
        }))
    }

    /// Takes (or recalls) the decision for one [`DecisionRequest`],
    /// honouring its policy override and deadline. Returns `None` only for
    /// a region the database does not know.
    ///
    /// * No override, no deadline: exactly [`DecisionEngine::decide`]
    ///   (cache included) — a plain request adds nothing to the hot path.
    /// * Policy override: decided under the overridden policy in its own
    ///   policy-tagged cache partition — warm, recorded in the flight
    ///   recorder, and never cross-answering a plain request.
    /// * Deadline: a zero budget skips model evaluation entirely; a missed
    ///   budget degrades the reply to the compiler default (offload) with
    ///   [`ModelError::DeadlineExceeded`] recorded on both sides. The
    ///   degraded reply itself is never cached, but a late *computed*
    ///   answer already went into the cache before the budget check, so a
    ///   retry of the same key is a warm hit instead of a second blown
    ///   budget.
    pub fn decide_request(&self, request: &DecisionRequest) -> Option<Decision> {
        self.decide_request_inner(request).map(|(d, _)| d)
    }

    /// As [`DecisionEngine::decide_request`] with an explicit deadline,
    /// overriding any deadline the request already carries. The override is
    /// applied in place — the request is not cloned.
    pub fn decide_within(&self, request: &DecisionRequest, deadline: Duration) -> Option<Decision> {
        self.decide_request_bounded(request, Some(deadline))
            .map(|(d, _)| d)
    }

    /// Request path with the degrade flag exposed, for the dispatcher: the
    /// `bool` is true iff the decision was deadline-degraded.
    pub(crate) fn decide_request_inner(
        &self,
        request: &DecisionRequest,
    ) -> Option<(Decision, bool)> {
        self.decide_request_bounded(request, None)
    }

    /// Shared request path: `deadline_override`, when present, replaces the
    /// request's own deadline without materialising a modified request.
    pub(crate) fn decide_request_bounded(
        &self,
        request: &DecisionRequest,
        deadline_override: Option<Duration>,
    ) -> Option<(Decision, bool)> {
        let start = Instant::now();
        let deadline = deadline_override.or_else(|| request.deadline());
        if deadline.is_some_and(|d| d.is_zero()) {
            // No budget at all: don't even evaluate.
            return self.degraded(request.region()).map(|d| (d, true));
        }
        let decision = {
            let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
            let region = self.resolve(request.region())?;
            let binding = request.binding();
            match self.lookup(region, |p| binding.get(p), request.policy_override()) {
                Lookup::Hit(cached) => cached.decision().clone(),
                Lookup::Miss(miss) => self.decide_miss(miss, binding),
            }
        };
        // The computed decision is cached above, so a blown budget does
        // not waste the ~µs cold evaluation: the reply degrades, but a
        // retry of the same key is a warm hit.
        if deadline.is_some_and(|d| start.elapsed() > d) {
            return Some((self.deadline_degraded(request.region()), true));
        }
        Some((decision, false))
    }

    /// What a request for `region` decides with no budget at all: the
    /// deadline-degraded compiler default of
    /// [`DecisionEngine::decide_within`] with a zero deadline, taken from
    /// the region's name alone. `None` for an unknown region.
    pub fn degraded(&self, region: &str) -> Option<Decision> {
        self.database.region(region)?;
        Some(self.deadline_degraded(region))
    }

    /// The decision a deadline miss degrades to: the compiler default
    /// (offload to the primary accelerator; the host for a host-only
    /// fleet) with the reason recorded on both model sides — nothing was
    /// predicted, not because the models failed, but because the budget
    /// ran out before they could answer.
    fn deadline_degraded(&self, region: &str) -> Decision {
        hetsel_obs::static_counter!("hetsel.core.decide.deadline_exceeded").inc();
        let fleet = &self.selector.fleet;
        let (device, device_id, device_name) = match fleet.primary_accelerator() {
            Some(id) => (
                Device::Gpu,
                id,
                fleet.label_arc(id).expect("primary id resolves").clone(),
            ),
            None => (Device::Host, DeviceId::HOST, fleet.host_label_arc().clone()),
        };
        Decision {
            region: Arc::from(region),
            device,
            device_id,
            device_name,
            policy: Policy::AlwaysOffload,
            predicted_cpu_s: None,
            predicted_gpu_s: None,
            cpu_error: Some(ModelError::DeadlineExceeded),
            gpu_error: Some(ModelError::DeadlineExceeded),
            calibration: None,
        }
    }

    /// Takes (or recalls) the decisions for a whole batch of requests at
    /// once, returning one slot per request in request order (`None` for
    /// unknown regions, exactly as [`DecisionEngine::decide_request`]
    /// would).
    ///
    /// Plain requests are grouped by cache shard so each shard's lock is
    /// taken at most twice — once for all of the group's lookups, once for
    /// all of its inserts — instead of twice per request. Cold misses from
    /// *every* shard are then evaluated in a single data-parallel pass
    /// (rayon) with no lock held; the models are pure functions of
    /// `(region, binding)`, so the parallel pass is bit-for-bit identical
    /// to evaluating serially. Requests carrying a policy override or
    /// deadline take the individual [`DecisionEngine::decide_request`] path
    /// (overrides live in their own cache partition; deadlines need the
    /// per-request clock). Decisions and hit/miss accounting are identical
    /// to issuing the requests one by one.
    pub fn decide_batch(&self, requests: &[DecisionRequest]) -> Vec<Option<Decision>> {
        let mut results: Vec<Option<Decision>> = vec![None; requests.len()];
        // One epoch read covers the whole batch: every plain request in it
        // is keyed (and answered) under the same calibration epoch.
        let epoch = self.calib_epoch();
        // Resolve keys and group plain request indices by shard.
        let mut keyed: Vec<Option<(CacheKey, &RegionAttributes)>> =
            Vec::with_capacity(requests.len());
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.cache.shards.len()];
        for (i, request) in requests.iter().enumerate() {
            if request.policy_override().is_some() || request.deadline().is_some() {
                results[i] = self.decide_request(request);
                keyed.push(None);
                continue;
            }
            match self.database.region_entry(request.region()) {
                Some((id, attrs)) => {
                    let key = CacheKey::new(id, DeviceId::FLEET, OWN_POLICY, epoch, attrs, |p| {
                        request.binding().get(p)
                    });
                    by_shard[self.cache.shard_index(&key)].push(i);
                    keyed.push(Some((key, attrs)));
                }
                None => keyed.push(None),
            }
        }
        // Phase 1: one lock per shard for every lookup in its group. A
        // repeated key later in the batch is a hit against the earlier
        // request's (still pending) evaluation — the same accounting serial
        // decides would produce.
        /// Per-shard phase-1 outcome: which request slots missed and which
        /// are intra-batch duplicates of an earlier miss `(slot, source)`.
        struct ShardPlan {
            shard: usize,
            missed: Vec<usize>,
            duplicates: Vec<(usize, usize)>,
        }
        let mut plans: Vec<ShardPlan> = Vec::new();
        for (shard_idx, indices) in by_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let shard = &self.cache.shards[shard_idx];
            let mut missed: Vec<usize> = Vec::new();
            let mut duplicates: Vec<(usize, usize)> = Vec::new(); // (slot, source slot)
            let mut pending: HashMap<&CacheKey, usize> = HashMap::new();
            let mut lru = shard.lru.lock();
            for &i in indices {
                let (key, _) = keyed[i].as_ref().expect("grouped index was keyed");
                match lru.get(key) {
                    Some(cached) => {
                        note_hit(shard, &cached, key.hash);
                        results[i] = Some(cached);
                    }
                    None => match pending.get(key) {
                        Some(&first) => duplicates.push((i, first)),
                        None => {
                            pending.insert(key, i);
                            missed.push(i);
                        }
                    },
                }
            }
            drop(lru);
            if !missed.is_empty() {
                plans.push(ShardPlan {
                    shard: shard_idx,
                    missed,
                    duplicates,
                });
            }
        }
        // Phase 2: evaluate every cold miss across all shards in one
        // parallel pass, no lock held. Results come back tagged with their
        // request slot and are scattered in order, so the output is
        // independent of evaluation order.
        let all_missed: Vec<usize> = plans
            .iter()
            .flat_map(|plan| plan.missed.iter().copied())
            .collect();
        let evaluated: Vec<(usize, Decision)> = all_missed
            .into_par_iter()
            .map(|i| {
                let (_, attrs) = keyed[i].as_ref().expect("grouped index was keyed");
                (i, self.selector.decide(*attrs, requests[i].binding()))
            })
            .collect();
        for (i, decision) in evaluated {
            results[i] = Some(decision);
        }
        // Phase 3: duplicates copy their source slot as hits, then each
        // shard takes its lock once more for the inserts, re-probing each
        // key: a concurrent caller may have completed the same miss since
        // phase 1, and the loser counts a late hit (see `decide`) so
        // `misses == insertions` holds exactly.
        for plan in &plans {
            let shard = &self.cache.shards[plan.shard];
            for &(i, first) in &plan.duplicates {
                let decision = results[first].clone().expect("miss was evaluated");
                let (key, _) = keyed[i].as_ref().expect("grouped index was keyed");
                note_hit(shard, &decision, key.hash);
                results[i] = Some(decision);
            }
            let mut lru = shard.lru.lock();
            for &i in &plan.missed {
                let (key, _) = keyed[i].as_ref().expect("grouped index was keyed");
                if let Some(cached) = lru.get(key) {
                    note_hit(shard, &cached, key.hash);
                    results[i] = Some(cached);
                    continue;
                }
                let decision = results[i].as_ref().expect("miss was evaluated");
                lru.insert(key.clone(), decision.clone());
                shard.misses.fetch_add(1, Ordering::Relaxed);
                hetsel_obs::static_counter!("hetsel.core.cache.miss").inc();
                record_decide_event(decision, key.hash, false);
            }
        }
        results
    }

    /// Takes the decision and explains it in the same call: the
    /// explanation is the full evidence behind exactly that decision (see
    /// [`Explanation::describes`](crate::explain::Explanation::describes)).
    /// The decision goes through the cache as usual; the explanation is
    /// always freshly evaluated, with its `cached` flag reporting whether
    /// the decision key now sits in the cache.
    pub fn decide_explained(
        &self,
        region: &str,
        binding: &Binding,
    ) -> Option<(Decision, crate::explain::Explanation)> {
        let decision = self.decide(region, binding)?;
        let explanation = self.explain(region, binding)?;
        Some((decision, explanation))
    }

    /// Produces the full [`Explanation`](crate::explain::Explanation) for a
    /// known region under `binding`, without consulting or populating the
    /// decision cache (the `cached` field reports whether a decision for
    /// this key is currently cached). Returns `None` for an unknown region.
    pub fn explain(&self, region: &str, binding: &Binding) -> Option<crate::explain::Explanation> {
        let (id, attrs) = self.database.region_entry(region)?;
        let mut explanation = self.selector.explain(attrs, binding);
        let key = CacheKey::new(
            id,
            DeviceId::FLEET,
            OWN_POLICY,
            self.calib_epoch(),
            attrs,
            |p| binding.get(p),
        );
        explanation.cached = self.cache.shard(&key).lru.lock().contains(&key);
        Some(explanation)
    }

    /// Cache statistics so far, aggregated over every shard. Hit and miss
    /// tallies are shard-local atomics summed without taking any lock; each
    /// shard's mutex is held briefly, one at a time, only to read its
    /// occupancy and eviction count.
    pub fn stats(&self) -> DecisionCacheStats {
        let mut stats = DecisionCacheStats {
            hits: 0,
            misses: 0,
            len: 0,
            capacity: 0,
            evictions: 0,
            shards: self.cache.shards.len(),
        };
        for shard in self.cache.shards.iter() {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            let lru = shard.lru.lock();
            stats.len += lru.map.len();
            stats.capacity += lru.capacity;
            stats.evictions += lru.evictions;
        }
        stats
    }

    /// Publishes the current cache statistics as gauges in the process-wide
    /// metrics registry: the aggregates under
    /// `hetsel.core.cache.{hits,misses,len,capacity,evictions,shards}` plus
    /// per-shard occupancy under
    /// `hetsel.core.cache.shard.<i>.{hits,misses,len,evictions}`, so a
    /// metrics snapshot taken by a harness reflects this engine — shard
    /// balance included — without holding a reference to it. Counter values
    /// saturate at `i64::MAX` instead of wrapping negative.
    pub fn publish_stats(&self) -> DecisionCacheStats {
        let stats = self.stats();
        let registry = hetsel_obs::registry();
        registry
            .gauge("hetsel.core.cache.hits")
            .set(saturating_i64(stats.hits));
        registry
            .gauge("hetsel.core.cache.misses")
            .set(saturating_i64(stats.misses));
        registry
            .gauge("hetsel.core.cache.len")
            .set(saturating_i64(stats.len as u64));
        registry
            .gauge("hetsel.core.cache.capacity")
            .set(saturating_i64(stats.capacity as u64));
        registry
            .gauge("hetsel.core.cache.evictions")
            .set(saturating_i64(stats.evictions));
        registry
            .gauge("hetsel.core.cache.shards")
            .set(saturating_i64(stats.shards as u64));
        for (i, shard) in self.cache.shards.iter().enumerate() {
            let (len, evictions) = {
                let lru = shard.lru.lock();
                (lru.map.len() as u64, lru.evictions)
            };
            for (leaf, value) in [
                ("hits", shard.hits.load(Ordering::Relaxed)),
                ("misses", shard.misses.load(Ordering::Relaxed)),
                ("len", len),
                ("evictions", evictions),
            ] {
                registry
                    .gauge(&hetsel_obs::metrics::shard_metric_name(
                        "hetsel.core.cache.shard",
                        i,
                        leaf,
                    ))
                    .set(saturating_i64(value));
            }
        }
        stats
    }
}

/// Narrows a counter value into a gauge without wrapping: values above
/// `i64::MAX` clamp to `i64::MAX` instead of going negative.
fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_polybench::{find_kernel, Dataset};

    fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    #[test]
    fn always_policies_ignore_models() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let s = selector().with_policy(Policy::AlwaysHost);
        assert_eq!(s.decide(&k, &b).device, Device::Host);
        let s = selector().with_policy(Policy::AlwaysOffload);
        assert_eq!(s.decide(&k, &b).device, Device::Gpu);
    }

    #[test]
    fn model_driven_produces_predictions() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let d = selector().decide(&k, &binding(Dataset::Benchmark));
        assert!(d.predicted_cpu_s.unwrap() > 0.0);
        assert!(d.predicted_gpu_s.unwrap() > 0.0);
        assert!(d.predicted_speedup().unwrap() > 0.0);
    }

    #[test]
    fn unresolved_binding_falls_back_to_offload() {
        let (k, _) = find_kernel("gemm").unwrap();
        let d = selector().decide(&k, &Binding::new());
        assert_eq!(d.device, Device::Gpu);
        assert!(d.predicted_speedup().is_none());
    }

    #[test]
    fn evaluation_bookkeeping() {
        let (k, binding) = find_kernel("2dconv").unwrap();
        let e = selector().evaluate(&k, &binding(Dataset::Test)).unwrap();
        assert!(e.achieved_s() >= e.oracle_s());
        let m = e.measured;
        assert_eq!(m.on(m.best_device()), m.cpu_s.min(m.gpu_s));
    }

    /// `measure` simulates the accelerator the fleet registers, not the
    /// platform's: under the V100 platform with a host + K80 fleet, the
    /// accelerator side is the K80's simulated time. A host-only fleet
    /// falls back to the platform's accelerator.
    #[test]
    fn measure_simulates_the_fleets_primary_accelerator() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let k80 = Platform::power8_k80();
        let on_k80 = selector()
            .with_fleet(Fleet::host_only().with_accelerator_from("k80", &k80))
            .measure(&k, &b)
            .unwrap();
        let k80_s = hetsel_gpusim::simulate(&k, &b, &k80.gpu).unwrap().total_s();
        assert_eq!(on_k80.gpu_s.to_bits(), k80_s.to_bits());

        let v100_s = hetsel_gpusim::simulate(&k, &b, &Platform::power9_v100().gpu)
            .unwrap()
            .total_s();
        assert_ne!(k80_s, v100_s);
        let host_only = selector()
            .with_fleet(Fleet::host_only())
            .measure(&k, &b)
            .unwrap();
        assert_eq!(host_only.gpu_s.to_bits(), v100_s.to_bits());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
        assert!((geomean([8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn model_driven_never_worse_than_worst_policy_on_gemm() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let s = selector();
        let e = s.evaluate(&k, &b).unwrap();
        let worst = e.measured.cpu_s.max(e.measured.gpu_s);
        assert!(e.achieved_s() <= worst);
    }

    #[test]
    fn geomean_skips_degenerate_values() {
        assert!((geomean([4.0, 0.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([4.0, -3.0, f64::NAN, 1.0, f64::INFINITY]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([0.0, -1.0, f64::NAN]), 1.0);
    }

    #[test]
    fn errors_recorded_on_fallback() {
        let (k, _) = find_kernel("gemm").unwrap();
        let d = selector().decide(&k, &Binding::new());
        assert_eq!(d.device, Device::Gpu);
        assert!(matches!(
            d.cpu_error,
            Some(ModelError::UnboundSymbol { .. })
        ));
        assert!(matches!(
            d.gpu_error,
            Some(ModelError::UnboundSymbol { .. })
        ));
        // A resolvable binding records no errors.
        let (k, binding) = find_kernel("gemm").unwrap();
        let d = selector().decide(&k, &binding(Dataset::Test));
        assert_eq!(d.cpu_error, None);
        assert_eq!(d.gpu_error, None);
    }

    fn engine_with(kernels: &[Kernel], capacity: usize) -> DecisionEngine {
        DecisionEngine::with_capacity(selector(), kernels, capacity)
    }

    #[test]
    fn cached_decision_identical_to_uncached() {
        // Acceptance criterion: for every suite kernel, the engine's cached
        // answer equals both its own first (uncached) answer and what a cold
        // selector computes from scratch.
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let engine = DecisionEngine::new(selector(), &kernels);
        let s = selector();
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let b = (bench.binding)(ds);
                for k in &bench.kernels {
                    let first = engine.decide(&k.name, &b).unwrap();
                    let second = engine.decide(&k.name, &b).unwrap();
                    assert_eq!(first, second, "{} {:?} cache changed answer", k.name, ds);
                    let cold = s.decide(k, &b);
                    assert_eq!(first, cold, "{} {:?} engine != cold path", k.name, ds);
                }
            }
        }
        let stats = engine.stats();
        assert!(
            stats.hits >= stats.misses,
            "every miss was re-hit: {stats:?}"
        );
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (2, 1, 1));
        // Unknown regions neither decide nor touch the counters.
        assert!(engine.decide("missing", &b).is_none());
        assert_eq!(engine.stats().hits, 2);
    }

    #[test]
    fn distinct_bindings_get_distinct_entries() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d_small = engine.decide("gemm", &binding(Dataset::Mini)).unwrap();
        let d_large = engine.decide("gemm", &binding(Dataset::Benchmark)).unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_ne!(d_small.predicted_cpu_s, d_large.predicted_cpu_s);
        // Irrelevant extra symbols do not split the cache key.
        let mut padded = binding(Dataset::Mini);
        padded = padded.with("unrelated", 999);
        let d_padded = engine.decide("gemm", &padded).unwrap();
        assert_eq!(d_padded, d_small);
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn unresolved_bindings_cache_the_fallback() {
        let (k, _) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d1 = engine.decide("gemm", &Binding::new()).unwrap();
        let d2 = engine.decide("gemm", &Binding::new()).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.device, Device::Gpu);
        assert!(d1.cpu_error.is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_stays_bounded_and_evicts_lru() {
        // Recency ordering is a per-stripe guarantee, so this test pins the
        // engine to a single shard to observe it end to end.
        let (k, binding) = find_kernel("gemm").unwrap();
        let sel = selector();
        let db = AttributeDatabase::compile(std::slice::from_ref(&k), &sel);
        let engine = DecisionEngine::from_database_sharded(sel, db, 2, 1);
        let mini = binding(Dataset::Mini);
        let test = binding(Dataset::Test);
        let bench = binding(Dataset::Benchmark);
        engine.decide("gemm", &mini).unwrap();
        engine.decide("gemm", &test).unwrap();
        // Touch `mini` so `test` is the least recently used...
        engine.decide("gemm", &mini).unwrap();
        // ...then overflow: `test` must be the one evicted.
        engine.decide("gemm", &bench).unwrap();
        assert_eq!(engine.stats().len, 2);
        engine.decide("gemm", &mini).unwrap();
        assert_eq!(engine.stats().misses, 3, "mini survived eviction");
        engine.decide("gemm", &test).unwrap();
        assert_eq!(engine.stats().misses, 4, "test was evicted");
        assert!(engine.stats().len <= 2);
        assert!(
            engine.stats().evictions >= 2,
            "both overflows evicted a live entry: {:?}",
            engine.stats()
        );
    }

    #[test]
    fn stats_publish_to_the_metrics_registry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        engine.decide("gemm", &b).unwrap();
        engine.decide("gemm", &b).unwrap();
        let stats = engine.publish_stats();
        assert_eq!(stats.evictions, 0);
        let registry = hetsel_obs::registry();
        assert_eq!(
            registry.gauge("hetsel.core.cache.hits").get(),
            stats.hits as i64
        );
        assert_eq!(
            registry.gauge("hetsel.core.cache.misses").get(),
            stats.misses as i64
        );
        // (`hetsel.core.cache.len` is also written by concurrent tests'
        // engines, so only the single-writer gauges are asserted on.)
    }

    #[test]
    fn choose_device_is_nan_safe() {
        // Comparable predictions: strict win offloads, ties stay home.
        assert_eq!(choose_device(Some(2.0), Some(1.0)), Device::Gpu);
        assert_eq!(choose_device(Some(1.0), Some(2.0)), Device::Host);
        assert_eq!(choose_device(Some(1.0), Some(1.0)), Device::Host);
        // Any unusable side falls back to the compiler default (offload) —
        // including the NaN that `if g < c` used to send to the host.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert_eq!(choose_device(Some(bad), Some(1.0)), Device::Gpu, "{bad}");
            assert_eq!(choose_device(Some(1.0), Some(bad)), Device::Gpu, "{bad}");
            assert_eq!(choose_device(Some(bad), Some(bad)), Device::Gpu, "{bad}");
        }
        assert_eq!(choose_device(None, Some(1.0)), Device::Gpu);
        assert_eq!(choose_device(Some(1.0), None), Device::Gpu);
        assert_eq!(choose_device(None, None), Device::Gpu);
    }

    #[test]
    fn non_finite_predictions_are_recorded_model_failures() {
        let s = selector();
        // A NaN GPU prediction must not silently select the host: it is a
        // model failure, recorded, with the compiler-default fallback.
        let d = s.decide_from_outcomes("r", Some(Ok(1.0)), &[Some(Ok(f64::NAN))]);
        assert_eq!(d.device, Device::Gpu);
        assert_eq!(d.predicted_gpu_s, None);
        assert!(matches!(
            d.gpu_error,
            Some(ModelError::NonFinitePrediction { .. })
        ));
        assert_eq!(d.predicted_cpu_s, Some(1.0));
        // Same for an infinite or negative CPU prediction.
        for bad in [f64::INFINITY, -2.5] {
            let d = s.decide_from_outcomes("r", Some(Ok(bad)), &[Some(Ok(1.0))]);
            assert_eq!(d.device, Device::Gpu, "{bad}");
            assert!(
                matches!(d.cpu_error, Some(ModelError::NonFinitePrediction { .. })),
                "{bad}"
            );
            assert!(d.predicted_speedup().is_none());
        }
        // Both sides poisoned: still the fallback, both reasons recorded.
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[Some(Ok(f64::NEG_INFINITY))]);
        assert_eq!(d.device, Device::Gpu);
        assert!(d.cpu_error.is_some() && d.gpu_error.is_some());
    }

    #[test]
    fn choose_among_generalizes_the_pair_rule() {
        use DeviceChoice::{Accelerator, Host};
        // Host-only candidate set: the terminal fallback, unconditionally.
        assert_eq!(choose_among(Some(1.0), &[]), Host);
        assert_eq!(choose_among(None, &[]), Host);
        assert_eq!(choose_among(Some(f64::NAN), &[]), Host);
        // Argmin across accelerators, host wins ties against the best.
        assert_eq!(
            choose_among(Some(3.0), &[Some(2.0), Some(1.0)]),
            Accelerator(1)
        );
        assert_eq!(choose_among(Some(1.0), &[Some(2.0), Some(1.0)]), Host);
        assert_eq!(choose_among(Some(0.5), &[Some(2.0), Some(1.0)]), Host);
        // Accelerator ties go to the lower (registration-order) index.
        assert_eq!(
            choose_among(Some(3.0), &[Some(1.0), Some(1.0)]),
            Accelerator(0)
        );
        // Unusable candidates are skipped, not compared.
        assert_eq!(
            choose_among(Some(3.0), &[Some(f64::NAN), Some(2.0)]),
            Accelerator(1)
        );
        assert_eq!(choose_among(Some(1.0), &[None, Some(2.0), None]), Host);
        // A single finite accelerator beats an unusable host.
        for bad in [None, Some(f64::NAN), Some(-1.0)] {
            assert_eq!(choose_among(bad, &[None, Some(2.0)]), Accelerator(1));
        }
        // Nothing usable anywhere: compiler default, the primary candidate.
        assert_eq!(
            choose_among(Some(f64::NAN), &[None, Some(f64::INFINITY)]),
            Accelerator(0)
        );
    }

    #[test]
    fn decisions_carry_the_fleet_identity() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let s = selector();
        let d = s.decide(&k, &b);
        assert_eq!(d.device_name.as_ref(), d.device.name());
        assert_eq!(d.device_id, s.fleet().device_id_of(&d.device_name).unwrap());
        // The label is the fleet's interned allocation, not a copy.
        assert!(Arc::ptr_eq(
            s.fleet().label_arc(d.device_id).unwrap(),
            &d.device_name
        ));
    }

    #[test]
    fn multi_accelerator_fleet_picks_the_argmin() {
        let s = selector();
        let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "a")
            .with_accelerator_from("b", &Platform::power9_v100());
        let s = s.with_fleet(fleet);
        // `b` strictly fastest → chosen, with its id and label.
        let d = s.decide_from_outcomes("r", Some(Ok(3.0)), &[Some(Ok(2.0)), Some(Ok(1.0))]);
        assert_eq!(d.device, Device::Gpu);
        assert_eq!(d.device_id, DeviceId(2));
        assert_eq!(&*d.device_name, "b");
        assert_eq!(d.predicted_gpu_s, Some(1.0));
        // Host tie against the best accelerator → host; the representative
        // GPU evidence is the best accelerator it beat.
        let d = s.decide_from_outcomes("r", Some(Ok(1.0)), &[Some(Ok(2.0)), Some(Ok(1.0))]);
        assert_eq!((d.device, d.device_id), (Device::Host, DeviceId::HOST));
        assert_eq!(&*d.device_name, "host");
        assert_eq!(d.predicted_gpu_s, Some(1.0));
        // Nothing usable → compiler default: the primary accelerator, with
        // its failure recorded.
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[Some(Ok(f64::NAN)), None]);
        assert_eq!((d.device, d.device_id), (Device::Gpu, DeviceId(1)));
        assert_eq!(&*d.device_name, "a");
        assert!(d.gpu_error.is_some());
    }

    #[test]
    fn host_only_fleet_never_offloads() {
        let s = selector().with_fleet(Fleet::host_only());
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[]);
        assert_eq!((d.device, d.device_id), (Device::Host, DeviceId::HOST));
        assert!(d.predicted_gpu_s.is_none() && d.gpu_error.is_none());
        // Even under AlwaysOffload there is nowhere to offload to.
        let s = s.with_policy(Policy::AlwaysOffload);
        let (k, binding) = find_kernel("gemm").unwrap();
        let d = s.decide(&k, &binding(Dataset::Test));
        assert_eq!(d.device, Device::Host);
    }

    #[test]
    fn decide_for_restricts_the_candidate_set() {
        let kernels: Vec<Kernel> = vec![find_kernel("gemm").unwrap().0];
        let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "v100")
            .with_accelerator_from("k80", &Platform::power8_k80());
        let sel = Selector::new(Platform::power9_v100()).with_fleet(fleet);
        let engine = DecisionEngine::new(sel, &kernels);
        let (_, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let full = engine.decide("gemm", &b).unwrap();
        // Restricting to the primary accelerator is the classic pair.
        let primary = engine.decide_for("gemm", &b, DeviceId(1)).unwrap();
        assert_eq!(&*primary.device_name, full.device_name.as_ref());
        // A host-scoped decision cannot offload.
        let host = engine.decide_for("gemm", &b, DeviceId::HOST).unwrap();
        assert_eq!(host.device, Device::Host);
        assert!(host.predicted_cpu_s.is_some());
        // The k80 scope carries the true fleet identity.
        let k80 = engine.decide_for("gemm", &b, DeviceId(2)).unwrap();
        if k80.device == Device::Gpu {
            assert_eq!((&*k80.device_name, k80.device_id), ("k80", DeviceId(2)));
        }
        // Scoped and whole-fleet decisions are cached under distinct keys.
        let stats = engine.stats();
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(engine.decide_for("gemm", &b, DeviceId(2)).unwrap(), k80);
        assert_eq!(engine.stats().hits, 1);
        // Unregistered ids refuse rather than guess.
        assert!(engine.decide_for("gemm", &b, DeviceId(9)).is_none());
    }

    #[test]
    fn shard_capacities_sum_to_the_requested_capacity() {
        for capacity in [1, 2, 3, 7, 16, 100, 1000, 1024] {
            for shards in [1, 2, 3, 5, 8, 16, 64] {
                let cache = ShardedCache::new(capacity, shards);
                assert!(cache.shards.len().is_power_of_two());
                assert!(cache.shards.len() <= capacity.max(1));
                let total: usize = cache.shards.iter().map(|s| s.lru.lock().capacity).sum();
                assert_eq!(
                    total, capacity,
                    "capacity {capacity} over {shards} shards inflated to {total}"
                );
                assert!(cache.shards.iter().all(|s| s.lru.lock().capacity >= 1));
            }
        }
    }

    #[test]
    fn sharded_engine_reports_shard_count_and_stays_bounded() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 8);
        let stats = engine.stats();
        assert_eq!(stats.shards, 8, "8 entries cap the stripes at 8");
        assert_eq!(stats.capacity, 8);
        // Thrash with far more distinct bindings than capacity.
        let mut base = binding(Dataset::Mini);
        for n in 1..200 {
            base.set("n", n);
            engine.decide("gemm", &base).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.len <= stats.capacity, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 199, "{stats:?}");
    }

    #[test]
    fn decide_batch_matches_one_by_one_decides() {
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let batch_engine = DecisionEngine::new(selector(), &kernels);
        let solo_engine = DecisionEngine::new(selector(), &kernels);
        let mut requests: Vec<(String, Binding)> = Vec::new();
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Benchmark] {
                for k in &bench.kernels {
                    requests.push((k.name.clone(), (bench.binding)(ds)));
                }
            }
        }
        // Unknown regions produce `None` slots without disturbing others;
        // a duplicate of the first request exercises intra-batch reuse.
        requests.push(("no-such-region".to_string(), Binding::new()));
        requests.push(requests[0].clone());
        let built: Vec<DecisionRequest> = requests
            .iter()
            .map(|(r, b)| DecisionRequest::new(r.clone(), b.clone()))
            .collect();
        let batched = batch_engine.decide_batch(&built);
        assert_eq!(batched.len(), requests.len());
        for (i, (region, b)) in requests.iter().enumerate() {
            let solo = solo_engine.decide(region, b);
            assert_eq!(batched[i], solo, "slot {i} ({region}) diverged");
        }
        // Identical traffic, identical accounting.
        let (bs, ss) = (batch_engine.stats(), solo_engine.stats());
        assert_eq!((bs.hits, bs.misses), (ss.hits, ss.misses));
        let decided = batched.iter().filter(|d| d.is_some()).count() as u64;
        assert_eq!(bs.hits + bs.misses, decided);
        // A second identical batch is all hits.
        let again = batch_engine.decide_batch(&built);
        assert_eq!(again, batched);
        assert_eq!(batch_engine.stats().misses, bs.misses);
    }

    #[test]
    fn saturating_i64_clamps_instead_of_wrapping() {
        assert_eq!(saturating_i64(0), 0);
        assert_eq!(saturating_i64(42), 42);
        assert_eq!(saturating_i64(i64::MAX as u64), i64::MAX);
        assert_eq!(saturating_i64(i64::MAX as u64 + 1), i64::MAX);
        assert_eq!(saturating_i64(u64::MAX), i64::MAX);
    }

    #[test]
    fn cache_queue_compaction_keeps_hits_working() {
        // Hammer a single entry far past the compaction threshold; the
        // entry must remain a hit throughout and the cache stay bounded.
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 2);
        let b = binding(Dataset::Test);
        for _ in 0..500 {
            assert!(engine.decide("gemm", &b).is_some());
        }
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (499, 1, 1));
    }

    #[test]
    fn plain_requests_match_decide_exactly() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone());
        let via_request = engine.decide_request(&request).unwrap();
        let via_decide = engine.decide("gemm", &b).unwrap();
        assert_eq!(via_request, via_decide);
        // The plain request went through the cache like any decide call.
        assert_eq!(engine.stats().hits, 1);
        // Unknown regions refuse, deadline or not.
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b.clone()))
            .is_none());
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b).with_deadline(Duration::ZERO))
            .is_none());
    }

    #[test]
    fn policy_overrides_use_a_scoped_cache_partition() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone()).with_policy(Policy::AlwaysHost);
        let host = engine.decide_request(&request).unwrap();
        assert_eq!(
            (host.device, host.policy),
            (Device::Host, Policy::AlwaysHost)
        );
        // The override populated its own policy partition...
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 1));
        // ...which a repeat of the same override answers warm...
        let again = engine.decide_request(&request).unwrap();
        assert_eq!(again, host);
        assert_eq!(engine.stats().hits, 1);
        // ...while the engine's own policy still evaluates independently:
        // the foreign-policy entry can never answer a plain decide.
        let own = engine.decide("gemm", &b).unwrap();
        assert_eq!(own.policy, Policy::ModelDriven);
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.len), (2, 2));
    }

    #[test]
    fn deadline_missed_computation_is_cached_for_retry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        // One nanosecond is a budget no cold evaluation can meet, but —
        // unlike zero — it does not short-circuit evaluation, so the
        // computed decision exists by the time the deadline check fires.
        let tight = DecisionRequest::new("gemm", b.clone()).with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        // The blown budget did not waste the evaluation: the computed
        // decision went into the cache before the reply degraded, so the
        // retry (with or without a deadline) is a warm hit.
        assert_eq!((engine.stats().misses, engine.stats().len), (1, 1));
        let retried = engine
            .decide_request(&DecisionRequest::new("gemm", b.clone()))
            .unwrap();
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(retried.policy, Policy::ModelDriven);
        assert_eq!(retried.cpu_error, None);
        // Same story for the override branch: tight-deadline override
        // misses its budget, but warms its policy partition for the retry.
        let tight_host = DecisionRequest::new("gemm", b)
            .with_policy(Policy::AlwaysHost)
            .with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight_host).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!((engine.stats().misses, engine.stats().len), (2, 2));
        let retried = engine
            .decide_request(&tight_host.clone().with_deadline(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(retried.device, Device::Host);
        assert_eq!(retried.policy, Policy::AlwaysHost);
    }

    #[test]
    fn overridden_decisions_reach_the_flight_recorder() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        hetsel_obs::set_flight_recording(true);
        engine
            .decide_request(&DecisionRequest::new("gemm", b).with_policy(Policy::AlwaysOffload))
            .unwrap();
        hetsel_obs::set_flight_recording(false);
        // The override went through the recorded path: at least one
        // Decide event for this region sits in the (process-global) ring.
        // Other tests may be recording concurrently, so scan rather than
        // count.
        let seen = hetsel_obs::flight_recorder()
            .snapshot()
            .iter()
            .any(|ev| ev.kind == hetsel_obs::EventKind::Decide && ev.region_str() == "gemm");
        assert!(seen, "override emitted no flight-recorder Decide event");
    }

    /// A decision's JSON object, as the renderer writes it.
    fn rendered(decision: &Decision) -> Vec<u8> {
        let mut json = Vec::new();
        DecisionFields::from(decision).write_json(&mut json);
        json
    }

    /// The bytes a `lookup` hit on `region` under `binding` serves; they
    /// must render the entry's own decision.
    fn hit_json(engine: &DecisionEngine, region: &str, binding: &Binding) -> Vec<u8> {
        let region = engine.resolve(region).expect("known region");
        match engine.lookup(region, |p| binding.get(p), None) {
            Lookup::Hit(mut cached) => {
                let json = cached.json().to_vec();
                assert_eq!(json, rendered(cached.decision()));
                json
            }
            Lookup::Miss(_) => panic!("not cached"),
        }
    }

    #[test]
    fn a_refreshed_entry_serves_its_new_decisions_bytes() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let first = engine.decide("gemm", &b).unwrap();
        assert_eq!(hit_json(&engine, "gemm", &b), rendered(&first));
        // Insert another decision under the cached key: the entry's
        // decision is replaced in place, and its rendering with it.
        let mut replaced = first.clone();
        replaced.device = Device::Host;
        replaced.predicted_cpu_s = first.predicted_cpu_s.map(|s| s / 3.0);
        assert_ne!(rendered(&replaced), rendered(&first));
        let (id, attrs) = engine.database.region_entry("gemm").unwrap();
        let key = CacheKey::new(id, DeviceId::FLEET, OWN_POLICY, 0, attrs, |p| b.get(p));
        engine
            .cache
            .shard(&key)
            .lru
            .lock()
            .insert(key, replaced.clone());
        assert_eq!(engine.stats().len, 1);
        assert_eq!(hit_json(&engine, "gemm", &b), rendered(&replaced));
    }

    #[test]
    fn a_reused_slot_serves_its_new_entrys_bytes() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 1);
        let (mini, test) = (binding(Dataset::Mini), binding(Dataset::Test));
        let evicted = engine.decide("gemm", &mini).unwrap();
        assert_eq!(hit_json(&engine, "gemm", &mini), rendered(&evicted));
        // The one slot goes to the next key, and the rendering it held is
        // freed with the evicted entry.
        let next = engine.decide("gemm", &test).unwrap();
        assert_ne!(rendered(&next), rendered(&evicted));
        {
            let lru = engine.cache.shards[0].lru.lock();
            assert_eq!(lru.nodes.len(), 1, "the slot was reused");
            assert!(lru.nodes[0].json.is_none(), "the old rendering was kept");
        }
        assert_eq!(hit_json(&engine, "gemm", &test), rendered(&next));
        assert_eq!(engine.stats().evictions, 1);
    }

    #[test]
    fn an_active_epoch_bump_serves_the_new_verdicts_bytes() {
        let calibrator = Arc::new(Calibrator::new(crate::calib::CalibratorConfig {
            min_samples: 1,
            ..Default::default()
        }));
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::with_capacity(
            selector()
                .with_calibration(CalibrationMode::Active)
                .with_calibrator(Arc::clone(&calibrator)),
            std::slice::from_ref(&k),
            16,
        );
        let b = binding(Dataset::Benchmark);
        let cold = engine.decide("gemm", &b).unwrap();
        let stale = hit_json(&engine, "gemm", &b);
        assert_eq!(stale, rendered(&cold));
        let tag = cold.calibration.expect("active mode tags decisions");
        let raw = tag.raw_cpu_s.expect("fully-bound gemm predicts the host");
        calibrator.observe("gemm", "host", tag.class, raw, raw * 1.5);
        assert!(calibrator.epoch() > 0, "the correction published");
        let corrected = engine.decide("gemm", &b).unwrap();
        assert!(corrected.calibration.expect("tagged").applied);
        let fresh = hit_json(&engine, "gemm", &b);
        assert_ne!(fresh, stale);
        assert_eq!(fresh, rendered(&corrected));
    }

    #[test]
    fn zero_deadline_degrades_to_the_compiler_default() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b).with_deadline(Duration::ZERO);
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.device, Device::Gpu);
        assert_eq!(d.policy, Policy::AlwaysOffload);
        assert_eq!(d.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.gpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.predicted_speedup(), None);
        // Degraded decisions are not cached.
        assert_eq!(engine.stats().len, 0);
        // A generous deadline decides normally.
        let request = request.with_deadline(Duration::from_secs(3600));
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.policy, Policy::ModelDriven);
    }

    #[test]
    fn decision_request_serde_round_trips() {
        let request = DecisionRequest::new("gemm", Binding::new().with("ni", 1024).with("nj", 32))
            .with_policy(Policy::AlwaysHost)
            .with_deadline(Duration::from_nanos(1_234_567));
        let json = serde_json::to_string(&request).unwrap();
        let back: DecisionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        // Optional fields serialize as null and round-trip to None.
        let plain = DecisionRequest::new("atax", Binding::new());
        let json = serde_json::to_string(&plain).unwrap();
        assert!(json.contains("\"policy_override\":null"), "{json}");
        let back: DecisionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
        // Unknown policies are rejected, not silently dropped.
        let bad = json.replace("null", "\"turbo_mode\"");
        assert!(serde_json::from_str::<DecisionRequest>(&bad).is_err());
    }

    #[test]
    fn policy_and_device_names_round_trip() {
        for p in [
            Policy::AlwaysHost,
            Policy::AlwaysOffload,
            Policy::ModelDriven,
        ] {
            assert_eq!(Policy::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Policy::parse("nonsense"), None);
        assert_eq!(Device::Host.name(), "host");
        assert_eq!(Device::Gpu.name(), "gpu");
        assert_eq!(Device::Host.other(), Device::Gpu);
        assert_eq!(Device::Gpu.other(), Device::Host);
    }
}
