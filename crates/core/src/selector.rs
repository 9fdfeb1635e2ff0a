//! The runtime target selector.
//!
//! The execution-time half of the framework (paper Figure 2 and Section
//! IV.D): on reaching a target region, the augmented OpenMP runtime pulls
//! the region's static attributes from the database, binds the runtime
//! values, evaluates both analytical models, and launches whichever version
//! — host or GPU — the models predict faster. "Because of the analytical
//! nature of the model, generating a prediction for either target is
//! equivalent to solving an equation, making decision time negligible."

use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

use crate::attributes::RegionAttributes;
use crate::calib::{BindingClass, CalibrationMode, CalibrationTag, Calibrator};
use crate::fleet::{DeviceId, Fleet};
use crate::platform::Platform;
use hetsel_ir::{Binding, Kernel};
use hetsel_models::{CoalescingMode, CostModel, CpuCostModel, GpuCostModel, ModelError, TripMode};

/// The kind of an execution target: the host, or an accelerator. A fleet
/// device's kind is derived from its id by [`DeviceId::kind`]; the paper's
/// two-device studies ([`Measured`], the program planner) are written in
/// it, and wire replies and explain documents spell it `host` / `gpu`.
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
/// The one spelling of the rule: [`Selector::decide`] and
/// [`Selector::explain`] both compose their verdicts through it. It is
/// also what makes the comparison NaN-safe: `NaN < x` is false for every
/// `x`, so a naive `if g < c` would silently choose the host for a
/// non-finite accelerator prediction, the opposite of the documented
/// fallback. Ties between accelerators go to the lower index, so
/// candidate order (fleet registration order) is part of the contract.
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

/// Counts one failed model under `hetsel.core.fallback.<metric_key>`,
/// through one cached counter per variant: an unbound binding fails every
/// model of every decision, so no name is built or looked up here.
fn count_fallback(err: &ModelError) {
    match err {
        ModelError::UnboundSymbol { .. } => {
            hetsel_obs::static_counter!("hetsel.core.fallback.unbound_symbol")
        }
        ModelError::ZeroTrip => hetsel_obs::static_counter!("hetsel.core.fallback.zero_trip"),
        ModelError::ZeroThreads => hetsel_obs::static_counter!("hetsel.core.fallback.zero_threads"),
        ModelError::UnsupportedShape { .. } => {
            hetsel_obs::static_counter!("hetsel.core.fallback.unsupported_shape")
        }
        ModelError::NonFinitePrediction { .. } => {
            hetsel_obs::static_counter!("hetsel.core.fallback.non_finite_prediction")
        }
        ModelError::DeadlineExceeded => {
            hetsel_obs::static_counter!("hetsel.core.fallback.deadline_exceeded")
        }
        // `ModelError` is non-exhaustive: a later variant counts by name.
        other => {
            hetsel_obs::registry()
                .counter(&format!("hetsel.core.fallback.{}", other.metric_key()))
                .inc();
            return;
        }
    }
    .inc();
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

/// What [`Selector::compose`] resolved: the [`Decision`], plus what an
/// explanation reports beside it.
pub(crate) struct Composed {
    /// The decision.
    pub(crate) decision: Decision,
    /// Slot of the representative accelerator (the one behind the
    /// decision's GPU-side evidence) in the candidate slice, `None` when
    /// there is no candidate.
    pub(crate) rep: Option<usize>,
    /// Each candidate in slice order: its fleet accelerator index, its
    /// effective prediction (corrected in Active mode, raw otherwise) and
    /// why its model produced none, when it didn't.
    pub(crate) accels: Vec<(usize, Option<f64>, Option<ModelError>)>,
}

/// One offloading decision with the model evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Region name. Shared (`Arc`) so cloning a decision out of the
    /// decision cache copies a pointer, not a string.
    pub region: Arc<str>,
    /// Fleet id of the chosen device; [`DeviceId::kind`] gives its kind.
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
        self.measured.on(self.decision.device_id.kind())
    }

    /// Wall time the oracle would have obtained.
    pub fn oracle_s(&self) -> f64 {
        self.measured.on(self.measured.best_device())
    }

    /// True iff the decision matched the oracle.
    pub fn correct(&self) -> bool {
        self.decision.device_id.kind() == self.measured.best_device()
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
                self.compose_counted(
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
                self.compose_counted(policy, source.region_name(), None, &unconsulted, None)
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
        self.compose_counted(self.policy, region, host, &indexed, None)
    }

    /// [`Selector::compose`], counted: one tick on the chosen device's
    /// `hetsel.core.decisions.<label>`, one on `hetsel.core.calib.flip`
    /// (Active) or `hetsel.core.calib.shadow_flip` (Shadow) when the
    /// corrected verdict differs from the raw one, and under `ModelDriven`
    /// one per failed model under `hetsel.core.fallback.<metric_key>`.
    /// Every decision the selector takes goes through here; an explanation
    /// composes without it and so counts nothing.
    fn compose_counted(
        &self,
        policy: Policy,
        region: &str,
        host: Option<Result<f64, ModelError>>,
        outcomes: &[(usize, Option<Result<f64, ModelError>>)],
        calib: Option<&CalibContext>,
    ) -> Decision {
        let Composed {
            decision, accels, ..
        } = self.compose(policy, region, host, outcomes, calib);
        match self.fleet.decisions_counter(decision.device_id) {
            Some(decisions) => decisions.inc(),
            // The detached label of a wide outcome slice on a host-only
            // fleet.
            None => hetsel_obs::registry()
                .counter(&hetsel_obs::metrics::device_metric_name(
                    "hetsel.core.decisions",
                    &decision.device_name,
                ))
                .inc(),
        }
        if decision.calibration.is_some_and(|tag| tag.flipped) {
            if calib.is_some_and(|ctx| ctx.mode == CalibrationMode::Active) {
                hetsel_obs::static_counter!("hetsel.core.calib.flip").inc();
            } else {
                hetsel_obs::static_counter!("hetsel.core.calib.shadow_flip").inc();
            }
        }
        if policy == Policy::ModelDriven {
            for err in std::iter::once(&decision.cpu_error)
                .chain(accels.iter().map(|(_, _, e)| e))
                .flatten()
            {
                count_fallback(err);
            }
        }
        decision
    }

    /// The decision rule, uncounted: composes a [`Decision`] from model
    /// outcomes tagged with their fleet accelerator index (`None` outcome
    /// = the policy did not consult that model; the tag lets a restricted
    /// decision carry the true fleet identity of its one candidate). An
    /// `Ok` carrying a non-finite or negative time is demoted to
    /// [`ModelError::NonFinitePrediction`] before the comparison, so a NaN
    /// can never masquerade as a fast host — the decision falls back to
    /// the compiler default of offloading and records why, exactly like
    /// any other evaluation failure.
    pub(crate) fn compose(
        &self,
        policy: Policy,
        region: &str,
        host: Option<Result<f64, ModelError>>,
        outcomes: &[(usize, Option<Result<f64, ModelError>>)],
        calib: Option<&CalibContext>,
    ) -> Composed {
        let (raw_cpu_s, cpu_error) = host.map_or((None, None), sanitize_prediction);
        let mut accels: Vec<(usize, Option<f64>, Option<ModelError>)> = outcomes
            .iter()
            .map(|(idx, outcome)| {
                let (p, e) = outcome.clone().map_or((None, None), sanitize_prediction);
                (*idx, p, e)
            })
            .collect();
        let raw_accels: Vec<Option<f64>> = accels.iter().map(|(_, p, _)| *p).collect();
        // Online calibration: the corrected candidate values, and whether
        // they flip the verdict. A cold cell's factor is exactly 1.0 and
        // `x * 1.0` is bit-identical to `x`, so a zero-sample Shadow or
        // Active decision reproduces the raw comparison bit for bit. The
        // effective values — what the verdict, the representative slot and
        // the recorded predictions all use — are the corrected ones only
        // in Active mode.
        let active = calib.is_some_and(|ctx| ctx.mode == CalibrationMode::Active);
        let corrected = calib.map(|ctx| {
            let cpu = raw_cpu_s.map(|v| v * ctx.host_factor);
            let accels: Vec<Option<f64>> = accels
                .iter()
                .map(|(idx, p, _)| p.map(|v| v * ctx.accel_factor(*idx)))
                .collect();
            (cpu, accels)
        });
        let flipped = policy == Policy::ModelDriven
            && corrected.as_ref().is_some_and(|(cpu, accels)| {
                choose_among(*cpu, accels) != choose_among(raw_cpu_s, &raw_accels)
            });
        let (eff_cpu_s, eff_accels) = match &corrected {
            Some((cpu, accels)) if active => (*cpu, accels.as_slice()),
            _ => (raw_cpu_s, raw_accels.as_slice()),
        };
        let choice = match policy {
            Policy::AlwaysHost => DeviceChoice::Host,
            // A host-only fleet has nowhere to offload to.
            Policy::AlwaysOffload if accels.is_empty() => DeviceChoice::Host,
            Policy::AlwaysOffload => DeviceChoice::Accelerator(0),
            Policy::ModelDriven => choose_among(eff_cpu_s, eff_accels),
        };
        // The representative accelerator behind the decision's GPU-side
        // evidence: the chosen one when an accelerator was chosen,
        // otherwise the fastest usable one the host beat, otherwise the
        // primary candidate (whose recorded failure explains the
        // fallback). For a pair fleet this is always slot 0, which is what
        // keeps restricted decisions bit-identical to the classic pair.
        let rep = match choice {
            DeviceChoice::Accelerator(pos) => Some(pos),
            DeviceChoice::Host => eff_accels
                .iter()
                .enumerate()
                .filter_map(|(pos, p)| p.map(|t| (pos, t)))
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(pos, _)| pos)
                .or((!accels.is_empty()).then_some(0)),
        };
        let (predicted_gpu_s, gpu_error) = match rep {
            Some(pos) => (eff_accels[pos], accels[pos].2.clone()),
            None => (None, None),
        };
        let calibration = calib.map(|ctx| {
            let (raw_gpu_s, gpu_factor) = match rep {
                Some(pos) => (raw_accels[pos], ctx.accel_factor(accels[pos].0)),
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
                        || accels
                            .iter()
                            .any(|(idx, p, _)| p.is_some() && ctx.accel_factor(*idx) != 1.0)),
                flipped,
            }
        });
        let (device_id, device_name) = match choice {
            DeviceChoice::Host => (DeviceId::HOST, self.fleet.host_label_arc().clone()),
            DeviceChoice::Accelerator(pos) => self.accel_identity(accels[pos].0),
        };
        for (accel, p) in accels.iter_mut().zip(eff_accels) {
            accel.1 = *p;
        }
        Composed {
            decision: Decision {
                region: Arc::from(region),
                device_id,
                device_name,
                policy,
                predicted_cpu_s: eff_cpu_s,
                predicted_gpu_s,
                cpu_error,
                gpu_error,
                calibration,
            },
            rep,
            accels,
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
        self.compose_counted(
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hetsel_polybench::{find_kernel, Dataset};

    pub(crate) fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    #[test]
    fn always_policies_ignore_models() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let s = selector().with_policy(Policy::AlwaysHost);
        assert_eq!(s.decide(&k, &b).device_id.kind(), Device::Host);
        let s = selector().with_policy(Policy::AlwaysOffload);
        assert_eq!(s.decide(&k, &b).device_id.kind(), Device::Gpu);
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
        assert_eq!(d.device_id.kind(), Device::Gpu);
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
        assert_eq!(d.device_id.kind(), Device::Gpu);
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

    #[test]
    fn choose_among_is_nan_safe_with_one_accelerator() {
        use DeviceChoice::{Accelerator, Host};
        // Comparable predictions: strict win offloads, ties stay home.
        assert_eq!(choose_among(Some(2.0), &[Some(1.0)]), Accelerator(0));
        assert_eq!(choose_among(Some(1.0), &[Some(2.0)]), Host);
        assert_eq!(choose_among(Some(1.0), &[Some(1.0)]), Host);
        // Any unusable side falls back to the compiler default (offload) —
        // including the NaN that `if g < c` used to send to the host.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert_eq!(
                choose_among(Some(bad), &[Some(1.0)]),
                Accelerator(0),
                "{bad}"
            );
            assert_eq!(
                choose_among(Some(1.0), &[Some(bad)]),
                Accelerator(0),
                "{bad}"
            );
            assert_eq!(
                choose_among(Some(bad), &[Some(bad)]),
                Accelerator(0),
                "{bad}"
            );
        }
        assert_eq!(choose_among(None, &[Some(1.0)]), Accelerator(0));
        assert_eq!(choose_among(Some(1.0), &[None]), Accelerator(0));
        assert_eq!(choose_among(None, &[None]), Accelerator(0));
    }

    #[test]
    fn non_finite_predictions_are_recorded_model_failures() {
        let s = selector();
        // A NaN GPU prediction must not silently select the host: it is a
        // model failure, recorded, with the compiler-default fallback.
        let d = s.decide_from_outcomes("r", Some(Ok(1.0)), &[Some(Ok(f64::NAN))]);
        assert_eq!(d.device_id.kind(), Device::Gpu);
        assert_eq!(d.predicted_gpu_s, None);
        assert!(matches!(
            d.gpu_error,
            Some(ModelError::NonFinitePrediction { .. })
        ));
        assert_eq!(d.predicted_cpu_s, Some(1.0));
        // Same for an infinite or negative CPU prediction.
        for bad in [f64::INFINITY, -2.5] {
            let d = s.decide_from_outcomes("r", Some(Ok(bad)), &[Some(Ok(1.0))]);
            assert_eq!(d.device_id.kind(), Device::Gpu, "{bad}");
            assert!(
                matches!(d.cpu_error, Some(ModelError::NonFinitePrediction { .. })),
                "{bad}"
            );
            assert!(d.predicted_speedup().is_none());
        }
        // Both sides poisoned: still the fallback, both reasons recorded.
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[Some(Ok(f64::NEG_INFINITY))]);
        assert_eq!(d.device_id.kind(), Device::Gpu);
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
        assert_eq!(d.device_name.as_ref(), d.device_id.kind().name());
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
        assert_eq!(d.device_id, DeviceId(2));
        assert_eq!(&*d.device_name, "b");
        assert_eq!(d.predicted_gpu_s, Some(1.0));
        // Host tie against the best accelerator → host; the representative
        // GPU evidence is the best accelerator it beat.
        let d = s.decide_from_outcomes("r", Some(Ok(1.0)), &[Some(Ok(2.0)), Some(Ok(1.0))]);
        assert_eq!(d.device_id, DeviceId::HOST);
        assert_eq!(&*d.device_name, "host");
        assert_eq!(d.predicted_gpu_s, Some(1.0));
        // Nothing usable → compiler default: the primary accelerator, with
        // its failure recorded.
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[Some(Ok(f64::NAN)), None]);
        assert_eq!(d.device_id, DeviceId(1));
        assert_eq!(&*d.device_name, "a");
        assert!(d.gpu_error.is_some());
    }

    #[test]
    fn host_only_fleet_never_offloads() {
        let s = selector().with_fleet(Fleet::host_only());
        let d = s.decide_from_outcomes("r", Some(Ok(f64::NAN)), &[]);
        assert_eq!(d.device_id, DeviceId::HOST);
        assert!(d.predicted_gpu_s.is_none() && d.gpu_error.is_none());
        // Even under AlwaysOffload there is nowhere to offload to.
        let s = s.with_policy(Policy::AlwaysOffload);
        let (k, binding) = find_kernel("gemm").unwrap();
        let d = s.decide(&k, &binding(Dataset::Test));
        assert_eq!(d.device_id.kind(), Device::Host);
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
    }
}
