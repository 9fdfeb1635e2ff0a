//! The `explain` report: why a region went to the device it went to.
//!
//! [`Decision`] records the selector's verdict and its
//! headline evidence; an [`Explanation`] records *everything* behind it —
//! the resolved runtime bindings, both models' predicted times with the
//! dominant cost-model terms (MWP/CWP, coalesced vs. uncoalesced
//! instruction census, `#OMP_Rep`, fork/join and chunking overheads), the
//! winning margin, the typed fallback reason when a model could not
//! evaluate, and per-phase nanosecond timings. Explanations serialize to
//! JSON (schema documented in DESIGN.md §"Observability") and back, so the
//! `explain` binary has a machine mode and CI can validate the contract.

use std::time::Instant;

use crate::attributes::RegionAttributes;
use crate::selector::{
    choose_among, Composed, Decision, DeviceChoice, ModelSource, Policy, Selector,
};
use hetsel_ir::Binding;
use hetsel_models::{CpuPrediction, GpuPrediction, HongCase, ModelError};
use serde::{Deserialize, Serialize};

/// One resolved runtime parameter of the region (`value: None` = the
/// runtime never bound it — the classic fallback trigger).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundParam {
    /// Parameter name, e.g. `"n"`.
    pub name: String,
    /// Bound value, if any.
    pub value: Option<i64>,
}

/// The host model's term breakdown (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuTerms {
    /// Predicted host time, seconds.
    pub seconds: f64,
    /// Total predicted cycles (fork + schedule + chunk + join).
    pub cycles: f64,
    /// `Machine_cycles_per_iter` from the MCA analysis.
    pub machine_cycles_per_iter: f64,
    /// Static chunk size (iterations per thread).
    pub chunk: u64,
    /// OpenMP threads assumed.
    pub threads: u32,
    /// SIMD factor credited by the vectorisation assessment.
    pub vector_factor: f64,
    /// TLB cost per chunk, cycles (the model's only memory-system term).
    pub tlb_cache_cycles: f64,
    /// `Fork_c`: startup plus per-thread fork/join scaling.
    pub fork_cycles: f64,
    /// `Schedule_c` (static dispatch).
    pub schedule_cycles: f64,
    /// `Loop_chunk_c` (machine cycles + cache + loop overhead).
    pub loop_chunk_cycles: f64,
    /// `Join_c` (synchronisation barrier).
    pub join_cycles: f64,
}

impl CpuTerms {
    fn from_prediction(p: &CpuPrediction, threads: u32) -> CpuTerms {
        CpuTerms {
            seconds: p.seconds,
            cycles: p.cycles,
            machine_cycles_per_iter: p.machine_cycles_per_iter,
            chunk: p.chunk,
            threads,
            vector_factor: p.vector_factor,
            tlb_cache_cycles: p.cache_cost,
            fork_cycles: p.fork_cycles,
            schedule_cycles: p.schedule_cycles,
            loop_chunk_cycles: p.loop_chunk_cycles,
            join_cycles: p.join_cycles,
        }
    }
}

/// The device model's term breakdown (paper Figures 4–5 + `#OMP_Rep`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuTerms {
    /// Predicted device time (kernel + transfers + launch), seconds.
    pub seconds: f64,
    /// Kernel execution component, seconds.
    pub kernel_seconds: f64,
    /// Data-movement component (both directions), seconds.
    pub transfer_seconds: f64,
    /// `Exec_cycles` of Figure 4.
    pub exec_cycles: f64,
    /// Memory-warp parallelism.
    pub mwp: f64,
    /// Compute-warp parallelism.
    pub cwp: f64,
    /// Resident warps per SM (`N`).
    pub n_warps: f64,
    /// Which Figure 4 case fired: `balanced`, `memory_bound` or
    /// `compute_bound`.
    pub hong_case: String,
    /// `#Rep` (block waves).
    pub rep: f64,
    /// `#OMP_Rep` (the paper's extension).
    pub omp_rep: f64,
    /// Dynamic coalesced memory instructions per iteration (IPDA census).
    pub coal_mem_insts: f64,
    /// Dynamic uncoalesced memory instructions per iteration.
    pub uncoal_mem_insts: f64,
    /// Selected grid: blocks.
    pub blocks: u64,
    /// Selected grid: threads per block.
    pub threads_per_block: u32,
    /// Occupancy: warps per SM.
    pub warps_per_sm: u32,
    /// Occupancy: SMs with at least one block.
    pub active_sms: u32,
}

impl GpuTerms {
    fn from_prediction(p: &GpuPrediction) -> GpuTerms {
        GpuTerms {
            seconds: p.seconds,
            kernel_seconds: p.kernel_seconds,
            transfer_seconds: p.transfer_seconds,
            exec_cycles: p.exec_cycles,
            mwp: p.mwp,
            cwp: p.cwp,
            n_warps: p.n_warps,
            hong_case: match p.case {
                HongCase::Balanced => "balanced",
                HongCase::MemoryBound => "memory_bound",
                HongCase::ComputeBound => "compute_bound",
            }
            .to_string(),
            rep: p.rep,
            omp_rep: p.omp_rep,
            coal_mem_insts: p.coal_mem_insts,
            uncoal_mem_insts: p.uncoal_mem_insts,
            blocks: p.geometry.blocks,
            threads_per_block: p.geometry.threads_per_block,
            warps_per_sm: p.occupancy.warps_per_sm,
            active_sms: p.occupancy.active_sms,
        }
    }
}

/// One fleet candidate's verdict inside an [`Explanation`]: the device's
/// interned label, its kind, and either a usable predicted time or the
/// typed reason its model produced none. The pair-era `predicted_cpu_s` /
/// `predicted_gpu_s` headline fields are projections of this list (the
/// accelerator side through the representative-candidate rule); `devices`
/// is the authoritative per-candidate record for N-device fleets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePrediction {
    /// Fleet device label, e.g. `"host"`, `"gpu"`, `"v100"`.
    pub name: String,
    /// Device kind: `host` or `accelerator`.
    pub kind: String,
    /// Predicted time, seconds, when the device's model evaluated.
    pub predicted_s: Option<f64>,
    /// Why the model produced no prediction, when it didn't.
    pub error: Option<String>,
}

/// How the dispatch runtime actually ran the region — present only when
/// the explanation came from [`crate::Dispatcher::dispatch_explained`].
/// Everything here is deterministic under fixed fault seeds, matching
/// [`crate::DispatchOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchTerms {
    /// Fleet label of the device the request finally ran on (the host
    /// label or an accelerator label; may differ from the explanation's
    /// decided `device_name` after a fallback).
    pub device: String,
    /// Execution attempts across all devices (≥ 1).
    pub attempts: u32,
    /// Transient-fault retries among those attempts.
    pub retries: u32,
    /// First fallback reason (`deadline_exceeded`, `breaker_open`,
    /// `device_fault`, `capacity_exhausted`), when the request left the
    /// decided path.
    pub fallback: Option<String>,
    /// Simulated execution time, seconds (jitter and retry backoff
    /// included).
    pub simulated_s: f64,
    /// GPU breaker state after the dispatch: `closed`, `open`, `half_open`.
    pub gpu_breaker: String,
    /// Host breaker state after the dispatch.
    pub cpu_breaker: String,
}

/// Streaming prediction-accuracy statistics for the `(region, executed
/// device)` pair, copied out of the process-wide
/// [`hetsel_obs::AccuracyObservatory`] — present only when the explanation
/// came from [`crate::Dispatcher::dispatch_explained`] *and* the
/// observatory holds at least one sample for the pair. Errors are signed
/// relative errors `(predicted − observed) / observed`, so a negative mean
/// means the model is optimistic (under-predicts the runtime).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyBlock {
    /// Fleet label of the executed device the stats are scoped to.
    pub device: String,
    /// Samples accumulated for this `(region, device)` pair.
    pub samples: u64,
    /// Welford mean of the signed relative error.
    pub mean_rel_error: f64,
    /// Welford (sample) variance of the signed relative error.
    pub rel_error_variance: f64,
    /// Mean signed absolute bias, seconds (`predicted − observed`).
    pub mean_bias_s: f64,
    /// Misprediction flips: samples where the predicted CPU/accelerator
    /// ordering disagreed with the observed one.
    pub flips: u64,
}

impl AccuracyBlock {
    /// Copies an observatory row into the explain-JSON shape.
    pub fn from_row(row: &hetsel_obs::AccuracyRow) -> Self {
        AccuracyBlock {
            device: row.device.clone(),
            samples: row.samples,
            mean_rel_error: row.mean_rel_error,
            rel_error_variance: row.rel_error_variance,
            mean_bias_s: row.mean_bias_s,
            flips: row.flips,
        }
    }
}

/// How online calibration touched (or would touch) this decision —
/// present exactly when the selector runs in Shadow or Active calibration
/// mode. `raw_*` are the uncorrected analytical predictions; the
/// explanation's headline `predicted_*` fields carry the *effective*
/// numbers the verdict was taken over (corrected in Active mode, raw
/// otherwise), so `applied` implies `predicted ≈ raw × factor`. The term
/// breakdowns (`cpu` / `gpu`) always stay raw: calibration scales the
/// models' outputs, it does not re-derive their internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationBlock {
    /// Calibration mode the decision ran under: `shadow` or `active`
    /// (`off` never emits a block).
    pub mode: String,
    /// Binding class the corrections are scoped to (bit-length signature
    /// of the region's bound parameters).
    pub class: u8,
    /// Uncorrected host prediction, seconds.
    pub raw_cpu_s: Option<f64>,
    /// Uncorrected representative-accelerator prediction, seconds.
    pub raw_gpu_s: Option<f64>,
    /// Published host correction factor (1.0 = cold or unbiased).
    pub cpu_factor: f64,
    /// Published correction factor for the representative accelerator.
    pub gpu_factor: f64,
    /// Calibration samples behind the host cell.
    pub cpu_samples: u64,
    /// Calibration samples behind the representative accelerator's cell.
    pub gpu_samples: u64,
    /// True when corrected predictions decided the verdict (Active mode
    /// with at least one non-identity factor on a usable prediction).
    pub applied: bool,
    /// True when the corrected ordering disagrees with the raw ordering —
    /// in Shadow mode the flip that *would* have happened.
    pub flipped: bool,
}

/// Wall-clock cost of producing the explanation, by phase.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Attribute-database compile time for this region, when the caller
    /// measured one (`None` = the region was already compiled).
    pub compile_ns: Option<u64>,
    /// Host-model evaluation, nanoseconds.
    pub cpu_eval_ns: u64,
    /// Device-model evaluation, nanoseconds.
    pub gpu_eval_ns: u64,
    /// Whole explain call, nanoseconds (≥ the two evaluations).
    pub total_ns: u64,
}

/// The full, serializable record of one offloading decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Region name.
    pub region: String,
    /// Selection policy: `model_driven`, `always_host` or `always_offload`.
    pub policy: String,
    /// Chosen target kind: `host` or `gpu`.
    pub device: String,
    /// Fleet label of the chosen device (e.g. `host`, `gpu`, `v100`) —
    /// always one of the `devices[].name` entries.
    pub device_name: String,
    /// The region's required parameters with their resolved values.
    pub bindings: Vec<BoundParam>,
    /// Predicted host time, seconds.
    pub predicted_cpu_s: Option<f64>,
    /// Predicted device time, seconds.
    pub predicted_gpu_s: Option<f64>,
    /// Predicted offloading speedup (host / device) when both resolve.
    pub speedup: Option<f64>,
    /// Winning margin: `(slower − faster) / slower`, in `[0, 1)`.
    pub margin: Option<f64>,
    /// Why the host model produced no prediction, when it didn't.
    pub cpu_error: Option<String>,
    /// Why the device model produced no prediction — the recorded reason
    /// behind a fallback-to-offload decision.
    pub gpu_error: Option<String>,
    /// Host model term breakdown.
    pub cpu: Option<CpuTerms>,
    /// Device model term breakdown.
    pub gpu: Option<GpuTerms>,
    /// One verdict per fleet candidate, host first then accelerators in
    /// registration order.
    pub devices: Vec<DevicePrediction>,
    /// True when a decision for this exact key currently sits in the
    /// engine's decision cache.
    pub cached: bool,
    /// How the dispatch runtime ran the region, when one did (absent for
    /// pure decision explanations).
    pub dispatch: Option<DispatchTerms>,
    /// Prediction-accuracy stats for the executed device, when the
    /// accuracy observatory has samples for this region (absent for pure
    /// decision explanations).
    pub accuracy: Option<AccuracyBlock>,
    /// How online calibration touched this decision (present exactly in
    /// Shadow and Active calibration modes).
    pub calibration: Option<CalibrationBlock>,
    /// Per-phase timings.
    pub timings: PhaseTimings,
}

impl Explanation {
    /// True iff this explanation describes `decision` — same region, same
    /// device, same predictions and the same recorded errors.
    pub fn describes(&self, decision: &Decision) -> bool {
        self.region.as_str() == &*decision.region
            && self.device == decision.device_id.kind().name()
            && self.device_name.as_str() == &*decision.device_name
            && self.policy == decision.policy.name()
            && (decision.policy != Policy::ModelDriven
                || (self.predicted_cpu_s == decision.predicted_cpu_s
                    && self.predicted_gpu_s == decision.predicted_gpu_s
                    && self.cpu_error == decision.cpu_error.as_ref().map(|e| e.to_string())
                    && self.gpu_error == decision.gpu_error.as_ref().map(|e| e.to_string())))
    }

    /// Pretty multi-line report for terminals (the `explain` binary's
    /// default output).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let bindings = self
            .bindings
            .iter()
            .map(|b| match b.value {
                Some(v) => format!("{}={v}", b.name),
                None => format!("{}=?", b.name),
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "== {}  [{}]  →  {}\n",
            self.region,
            bindings,
            self.device_name.to_uppercase()
        ));
        if self.devices.len() > 2 {
            let rows = self
                .devices
                .iter()
                .map(|d| match d.predicted_s {
                    Some(s) => format!("{} {}", d.name, fmt_s(s)),
                    None => format!("{} —", d.name),
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("   candidates: {rows}\n"));
        }
        match (self.predicted_cpu_s, self.predicted_gpu_s) {
            (Some(c), Some(g)) => {
                out.push_str(&format!(
                    "   predicted: cpu {}  gpu {}  speedup {:.3}×  margin {:.1}%\n",
                    fmt_s(c),
                    fmt_s(g),
                    self.speedup.unwrap_or(f64::NAN),
                    self.margin.unwrap_or(f64::NAN) * 100.0
                ));
            }
            _ => {
                out.push_str("   predicted: (fallback — model could not evaluate)\n");
            }
        }
        if let Some(e) = &self.cpu_error {
            out.push_str(&format!("   cpu fallback reason: {e}\n"));
        }
        if let Some(e) = &self.gpu_error {
            out.push_str(&format!("   gpu fallback reason: {e}\n"));
        }
        if let Some(c) = &self.cpu {
            out.push_str(&format!(
                "   cpu terms: {:.1} cyc/iter × chunk {} on {} threads, vec ×{:.1}\n",
                c.machine_cycles_per_iter, c.chunk, c.threads, c.vector_factor
            ));
            out.push_str(&format!(
                "              fork {:.0} + sched {:.0} + chunk {:.0} (tlb {:.0}) + join {:.0} = {:.0} cycles\n",
                c.fork_cycles,
                c.schedule_cycles,
                c.loop_chunk_cycles,
                c.tlb_cache_cycles,
                c.join_cycles,
                c.cycles
            ));
        }
        if let Some(g) = &self.gpu {
            out.push_str(&format!(
                "   gpu terms: {} case, MWP {:.1} CWP {:.1} N {:.0}, rep {:.1} omp_rep {:.0}\n",
                g.hong_case, g.mwp, g.cwp, g.n_warps, g.rep, g.omp_rep
            ));
            out.push_str(&format!(
                "              mem insts: {:.1} coalesced / {:.1} uncoalesced; grid {}×{} ({} warps/SM, {} SMs)\n",
                g.coal_mem_insts,
                g.uncoal_mem_insts,
                g.blocks,
                g.threads_per_block,
                g.warps_per_sm,
                g.active_sms
            ));
            out.push_str(&format!(
                "              kernel {} + transfer {}\n",
                fmt_s(g.kernel_seconds),
                fmt_s(g.transfer_seconds)
            ));
        }
        if let Some(d) = &self.dispatch {
            let fallback = match &d.fallback {
                Some(reason) => format!("  fallback: {reason}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "   dispatch: ran on {} in {} ({} attempt{}, {} retr{}){fallback}\n",
                d.device.to_uppercase(),
                fmt_s(d.simulated_s),
                d.attempts,
                if d.attempts == 1 { "" } else { "s" },
                d.retries,
                if d.retries == 1 { "y" } else { "ies" },
            ));
            out.push_str(&format!(
                "              breakers: gpu {}  host {}\n",
                d.gpu_breaker, d.cpu_breaker
            ));
        }
        let t = &self.timings;
        let compile = match t.compile_ns {
            Some(ns) => format!("compile {} + ", fmt_ns(ns)),
            None => String::new(),
        };
        out.push_str(&format!(
            "   cost: {compile}cpu eval {} + gpu eval {} (total {}){}\n",
            fmt_ns(t.cpu_eval_ns),
            fmt_ns(t.gpu_eval_ns),
            fmt_ns(t.total_ns),
            if self.cached {
                "  [decision cached]"
            } else {
                ""
            }
        ));
        out
    }
}

fn fmt_s(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.3}s", s)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{:.1}ms", ns as f64 / 1e6)
    }
}

impl Selector {
    /// Produces the full [`Explanation`] for a region under a binding,
    /// evaluating the host model and every registered accelerator's
    /// *precompiled* model with their complete term breakdowns. The
    /// verdict, the predictions, the errors and the calibration evidence
    /// come from the rule [`Selector::decide`] applies, called on the same
    /// outcomes but counted nowhere; the explanation adds the term
    /// breakdowns of the host and the representative accelerator, one row
    /// per candidate, the calibration sample counts and the timings.
    pub fn explain(&self, attrs: &RegionAttributes, binding: &Binding) -> Explanation {
        let t_total = Instant::now();

        let t_cpu = Instant::now();
        let cpu: Result<CpuPrediction, ModelError> = attrs.cpu_model.evaluate(binding);
        let cpu_eval_ns = t_cpu.elapsed().as_nanos() as u64;

        let t_gpu = Instant::now();
        let gpus: Vec<Result<GpuPrediction, ModelError>> = std::iter::once(&attrs.gpu_model)
            .chain(&attrs.extra_accel_models)
            .take(self.fleet.accelerator_count())
            .map(|model| model.evaluate(binding))
            .collect();
        let gpu_eval_ns = t_gpu.elapsed().as_nanos() as u64;

        let outcomes: Vec<(usize, Option<Result<f64, ModelError>>)> = gpus
            .iter()
            .map(|r| r.as_ref().map(|p| p.seconds).map_err(Clone::clone))
            .enumerate()
            .map(|(i, r)| (i, Some(r)))
            .collect();
        let calib = self.calib_context(attrs.calib_class(binding), attrs.region_name());
        let Composed {
            decision,
            rep,
            accels,
        } = self.compose(
            self.policy,
            attrs.region_name(),
            Some(cpu.as_ref().map(|p| p.seconds).map_err(Clone::clone)),
            &outcomes,
            calib.as_ref(),
        );

        let error = |e: &Option<ModelError>| e.as_ref().map(|e| e.to_string());
        let (speedup, margin) = match (decision.predicted_cpu_s, decision.predicted_gpu_s) {
            (Some(c), Some(g)) if g > 0.0 && c.is_finite() && g.is_finite() => {
                let slower = c.max(g);
                let faster = c.min(g);
                (
                    Some(c / g),
                    (slower > 0.0).then(|| (slower - faster) / slower),
                )
            }
            _ => (None, None),
        };
        let mut devices = Vec::with_capacity(1 + accels.len());
        devices.push(DevicePrediction {
            name: self.fleet.host_label().to_string(),
            kind: "host".to_string(),
            predicted_s: decision.predicted_cpu_s,
            error: error(&decision.cpu_error),
        });
        for (idx, predicted_s, e) in &accels {
            devices.push(DevicePrediction {
                name: self.fleet.accelerators()[*idx].label().to_string(),
                kind: "accelerator".to_string(),
                predicted_s: *predicted_s,
                error: error(e),
            });
        }
        let region = attrs.region_name();
        let calibration = decision.calibration.map(|tag| {
            let samples = |device: &str| {
                self.calibrator()
                    .lookup(region, device, tag.class)
                    .map_or(0, |row| row.samples)
            };
            CalibrationBlock {
                mode: self.calibration.name().to_string(),
                class: tag.class.0,
                raw_cpu_s: tag.raw_cpu_s,
                raw_gpu_s: tag.raw_gpu_s,
                cpu_factor: tag.cpu_factor,
                gpu_factor: tag.gpu_factor,
                cpu_samples: samples(self.fleet.host_label()),
                gpu_samples: rep.map_or(0, |pos| {
                    samples(self.fleet.accelerators()[accels[pos].0].label())
                }),
                applied: tag.applied,
                flipped: tag.flipped,
            }
        });

        Explanation {
            region: region.to_string(),
            policy: decision.policy.name().to_string(),
            device: decision.device_id.kind().name().to_string(),
            device_name: decision.device_name.to_string(),
            bindings: attrs
                .required_params
                .iter()
                .map(|p| BoundParam {
                    name: p.clone(),
                    value: binding.get(p),
                })
                .collect(),
            predicted_cpu_s: decision.predicted_cpu_s,
            predicted_gpu_s: decision.predicted_gpu_s,
            speedup,
            margin,
            cpu_error: error(&decision.cpu_error),
            gpu_error: error(&decision.gpu_error),
            cpu: cpu
                .ok()
                .filter(|_| decision.cpu_error.is_none())
                .map(|p| CpuTerms::from_prediction(&p, self.platform.host_threads)),
            gpu: rep
                .filter(|_| decision.gpu_error.is_none())
                .and_then(|pos| gpus[pos].as_ref().ok())
                .map(GpuTerms::from_prediction),
            devices,
            cached: false,
            dispatch: None,
            accuracy: None,
            calibration,
            timings: PhaseTimings {
                compile_ns: None,
                cpu_eval_ns,
                gpu_eval_ns,
                total_ns: t_total.elapsed().as_nanos() as u64,
            },
        }
    }
}

/// A batch of explanations from one `explain` run — the `--json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Platform name the decisions were taken for.
    pub platform: String,
    /// Dataset mode the bindings came from.
    pub dataset: String,
    /// One record per region, in request order.
    pub explanations: Vec<Explanation>,
}

/// Validates an `explain --json` document against the schema contract
/// (parsability plus the structural invariants DESIGN.md documents).
/// Returns the parsed report, or a description of the first violation.
pub fn validate_report_json(json: &str) -> Result<ExplainReport, String> {
    let report: ExplainReport =
        serde_json::from_str(json).map_err(|e| format!("report does not parse: {e}"))?;
    if report.platform.is_empty() {
        return Err("platform is empty".into());
    }
    if report.explanations.is_empty() {
        return Err("no explanations in report".into());
    }
    for e in &report.explanations {
        let at = format!("explanation for `{}`", e.region);
        if e.region.is_empty() {
            return Err("explanation with empty region".into());
        }
        if !["host", "gpu"].contains(&e.device.as_str()) {
            return Err(format!("{at}: device `{}` not host|gpu", e.device));
        }
        if !["model_driven", "always_host", "always_offload"].contains(&e.policy.as_str()) {
            return Err(format!("{at}: unknown policy `{}`", e.policy));
        }
        if e.device_name.is_empty() {
            return Err(format!("{at}: empty device_name"));
        }
        if e.devices.is_empty() {
            return Err(format!("{at}: no candidate devices"));
        }
        let mut host_rows = 0usize;
        for d in &e.devices {
            if d.name.is_empty() {
                return Err(format!("{at}: candidate device with empty name"));
            }
            match d.kind.as_str() {
                "host" => host_rows += 1,
                "accelerator" => {}
                other => return Err(format!("{at}: unknown device kind `{other}`")),
            }
            if d.predicted_s.is_some() == d.error.is_some() {
                return Err(format!(
                    "{at}: candidate `{}` must carry a prediction xor an error",
                    d.name
                ));
            }
        }
        if host_rows != 1 {
            return Err(format!(
                "{at}: {host_rows} host rows among candidate devices (want exactly 1)"
            ));
        }
        let has_accel = e.devices.iter().any(|d| d.kind == "accelerator");
        match e.devices.iter().find(|d| d.name == e.device_name) {
            None => {
                return Err(format!(
                    "{at}: device_name `{}` not among candidate devices",
                    e.device_name
                ));
            }
            Some(named) => {
                let expected_kind = match e.device.as_str() {
                    "host" => "host",
                    _ => "accelerator",
                };
                if named.kind != expected_kind {
                    return Err(format!(
                        "{at}: device_name `{}` ({}) inconsistent with device `{}`",
                        e.device_name, named.kind, e.device
                    ));
                }
            }
        }
        if e.predicted_cpu_s.is_some() != e.cpu.is_some() {
            return Err(format!("{at}: cpu prediction and term breakdown disagree"));
        }
        if e.predicted_gpu_s.is_some() != e.gpu.is_some() {
            return Err(format!("{at}: gpu prediction and term breakdown disagree"));
        }
        if e.predicted_cpu_s.is_none() && e.cpu_error.is_none() {
            return Err(format!("{at}: no cpu prediction and no recorded reason"));
        }
        if has_accel && e.predicted_gpu_s.is_none() && e.gpu_error.is_none() {
            return Err(format!("{at}: no gpu prediction and no recorded reason"));
        }
        if let Some(s) = e.speedup {
            if s.is_nan() || s <= 0.0 {
                return Err(format!("{at}: non-positive speedup {s}"));
            }
        }
        if let Some(m) = e.margin {
            if !(0.0..1.0).contains(&m) {
                return Err(format!("{at}: margin {m} outside [0,1)"));
            }
        }
        if let Some(g) = &e.gpu {
            if !["balanced", "memory_bound", "compute_bound"].contains(&g.hong_case.as_str()) {
                return Err(format!("{at}: unknown hong_case `{}`", g.hong_case));
            }
        }
        if e.policy == "model_driven" {
            // The same NaN-safe comparison the live path uses; a document
            // whose device disagrees with `choose_among` over the headline
            // (representative) predictions is corrupt. A fleet with no
            // accelerator has no offload candidate, so host is the only
            // legal verdict.
            let accels: &[Option<f64>] = if has_accel { &[e.predicted_gpu_s] } else { &[] };
            let expected = match choose_among(e.predicted_cpu_s, accels) {
                DeviceChoice::Host => "host",
                DeviceChoice::Accelerator(_) => "gpu",
            };
            if e.device != expected {
                return Err(format!(
                    "{at}: device `{}` inconsistent with predictions (expected `{expected}`)",
                    e.device
                ));
            }
        }
        if e.timings.total_ns < e.timings.cpu_eval_ns.saturating_add(e.timings.gpu_eval_ns) {
            return Err(format!("{at}: total_ns smaller than its phases"));
        }
        if let Some(c) = &e.calibration {
            if !["shadow", "active"].contains(&c.mode.as_str()) {
                return Err(format!("{at}: unknown calibration mode `{}`", c.mode));
            }
            for (side, f) in [("cpu", c.cpu_factor), ("gpu", c.gpu_factor)] {
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!(
                        "{at}: {side} calibration factor {f} not finite > 0"
                    ));
                }
            }
            if c.applied && c.mode != "active" {
                return Err(format!("{at}: calibration applied under `{}` mode", c.mode));
            }
            if c.applied {
                // The headline predictions must be the raw model outputs
                // scaled by the published factors — nothing else may have
                // touched them between the models and the verdict.
                let consistent =
                    |raw: Option<f64>, factor: f64, headline: Option<f64>| match (raw, headline) {
                        (Some(r), Some(h)) => {
                            (h - r * factor).abs() <= 1e-12 * h.abs().max(r.abs())
                        }
                        (None, None) => true,
                        _ => false,
                    };
                if !consistent(c.raw_cpu_s, c.cpu_factor, e.predicted_cpu_s) {
                    return Err(format!("{at}: cpu headline is not raw × factor"));
                }
                if !consistent(c.raw_gpu_s, c.gpu_factor, e.predicted_gpu_s) {
                    return Err(format!("{at}: gpu headline is not raw × factor"));
                }
            }
        }
        if let Some(d) = &e.dispatch {
            if d.device.is_empty() {
                return Err(format!("{at}: dispatch with empty device label"));
            }
            if d.attempts == 0 {
                return Err(format!("{at}: dispatch with zero attempts"));
            }
            if d.retries >= d.attempts {
                return Err(format!(
                    "{at}: {} retries do not fit in {} attempts",
                    d.retries, d.attempts
                ));
            }
            if !(d.simulated_s.is_finite() && d.simulated_s >= 0.0) {
                return Err(format!("{at}: unusable simulated_s {}", d.simulated_s));
            }
            if let Some(reason) = &d.fallback {
                if ![
                    "deadline_exceeded",
                    "breaker_open",
                    "device_fault",
                    "capacity_exhausted",
                ]
                .contains(&reason.as_str())
                {
                    return Err(format!("{at}: unknown fallback reason `{reason}`"));
                }
            }
            for (label, state) in [("gpu", &d.gpu_breaker), ("cpu", &d.cpu_breaker)] {
                if !["closed", "open", "half_open"].contains(&state.as_str()) {
                    return Err(format!("{at}: unknown {label} breaker state `{state}`"));
                }
            }
        }
        if let Some(a) = &e.accuracy {
            if e.dispatch.is_none() {
                return Err(format!("{at}: accuracy block without dispatch terms"));
            }
            if a.device.is_empty() {
                return Err(format!("{at}: accuracy block with empty device label"));
            }
            if let Some(d) = &e.dispatch {
                if a.device != d.device {
                    return Err(format!(
                        "{at}: accuracy device `{}` is not the executed device `{}`",
                        a.device, d.device
                    ));
                }
            }
            if a.samples == 0 {
                return Err(format!("{at}: accuracy block with zero samples"));
            }
            if !a.mean_rel_error.is_finite() || !a.mean_bias_s.is_finite() {
                return Err(format!("{at}: non-finite accuracy means"));
            }
            if !(a.rel_error_variance.is_finite() && a.rel_error_variance >= 0.0) {
                return Err(format!(
                    "{at}: unusable rel_error_variance {}",
                    a.rel_error_variance
                ));
            }
            if a.flips > a.samples {
                return Err(format!(
                    "{at}: {} flips exceed {} samples",
                    a.flips, a.samples
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DecisionEngine;
    use crate::platform::Platform;
    use hetsel_ir::Kernel;
    use hetsel_polybench::{find_kernel, Dataset};

    fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    #[test]
    fn explanation_matches_decision_for_every_suite_kernel() {
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let engine = DecisionEngine::new(selector(), &kernels);
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let b = (bench.binding)(ds);
                for k in &bench.kernels {
                    let (decision, explanation) = engine.decide_explained(&k.name, &b).unwrap();
                    assert!(
                        explanation.describes(&decision),
                        "{} {ds}: explanation diverges from decision\n{explanation:?}\n{decision:?}",
                        k.name
                    );
                    assert!(explanation.cpu.is_some() && explanation.gpu.is_some());
                    assert!(!explanation.bindings.is_empty());
                }
            }
        }
    }

    #[test]
    fn explain_device_equals_decide_device_for_every_suite_kernel() {
        // Explain composes through the rule decide applies, which makes
        // divergence structurally impossible; this pins it for every
        // kernel, dataset and the unresolved-binding fallback.
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let engine = DecisionEngine::new(selector(), &kernels);
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let b = (bench.binding)(ds);
                for k in &bench.kernels {
                    let (decision, explanation) = engine.decide_explained(&k.name, &b).unwrap();
                    assert_eq!(
                        decision.device_id.kind().name(),
                        explanation.device,
                        "{} {ds}",
                        k.name
                    );
                }
            }
            for k in &bench.kernels {
                let (decision, explanation) =
                    engine.decide_explained(&k.name, &Binding::new()).unwrap();
                assert_eq!(
                    decision.device_id.kind().name(),
                    explanation.device,
                    "{}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn explanation_records_fallback_reason() {
        let (k, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let e = engine.explain("gemm", &Binding::new()).unwrap();
        assert_eq!(e.device, "gpu", "fallback offloads");
        assert!(e.cpu.is_none() && e.gpu.is_none());
        assert!(e.cpu_error.as_deref().unwrap().contains("not bound"));
        assert!(e.bindings.iter().all(|b| b.value.is_none()));
        assert_eq!(e.speedup, None);
    }

    #[test]
    fn explanation_round_trips_through_json() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let e = engine.explain("gemm", &binding(Dataset::Test)).unwrap();
        let json = serde_json::to_string_pretty(&e).unwrap();
        let back: Explanation = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn explain_marks_cached_decisions() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let b = binding(Dataset::Test);
        assert!(!engine.explain("gemm", &b).unwrap().cached);
        engine.decide("gemm", &b).unwrap();
        assert!(engine.explain("gemm", &b).unwrap().cached);
        assert!(engine.explain("missing", &b).is_none());
    }

    #[test]
    fn report_validation_accepts_real_reports_and_rejects_corrupt_ones() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let e = engine.explain("gemm", &binding(Dataset::Test)).unwrap();
        let report = ExplainReport {
            platform: "POWER9+V100".into(),
            dataset: "test".into(),
            explanations: vec![e.clone()],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        validate_report_json(&json).expect("real report validates");

        // Flip the device: the consistency check must catch it.
        let mut bad = report.clone();
        bad.explanations[0].device = match e.device.as_str() {
            "gpu" => "host".to_string(),
            _ => "gpu".to_string(),
        };
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");

        // Drop the term breakdown but keep the prediction.
        let mut bad = report.clone();
        bad.explanations[0].cpu = None;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("disagree"), "{err}");

        assert!(validate_report_json("not json").is_err());
    }

    #[test]
    fn margin_and_speedup_are_consistent() {
        let (k, binding) = find_kernel("atax.k1").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let e = engine
            .explain("atax.k1", &binding(Dataset::Benchmark))
            .unwrap();
        let (c, g) = (e.predicted_cpu_s.unwrap(), e.predicted_gpu_s.unwrap());
        assert!((e.speedup.unwrap() - c / g).abs() < 1e-12);
        let m = e.margin.unwrap();
        assert!((0.0..1.0).contains(&m));
        assert!((m - (c.max(g) - c.min(g)) / c.max(g)).abs() < 1e-12);
    }

    #[test]
    fn explanations_cover_every_fleet_candidate() {
        use crate::fleet::Fleet;
        let platform = Platform::power9_v100();
        let fleet = Fleet::pair_labeled(&platform, "v100")
            .with_accelerator_from("k80", &Platform::power8_k80());
        let selector = Selector::new(Platform::power9_v100()).with_fleet(fleet);
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector, std::slice::from_ref(&k));
        let b = binding(Dataset::Test);
        let (decision, e) = engine.decide_explained("gemm", &b).unwrap();
        assert!(e.describes(&decision), "{e:?}\n{decision:?}");
        assert_eq!(e.devices.len(), 3, "host + two accelerators");
        assert_eq!(e.devices[0].kind, "host");
        assert_eq!(e.devices[1].name, "v100");
        assert_eq!(e.devices[2].name, "k80");
        assert!(e
            .devices
            .iter()
            .all(|d| d.predicted_s.is_some() != d.error.is_some()));
        assert_eq!(e.device_name.as_str(), &*decision.device_name);
        assert!(e.devices.iter().any(|d| d.name == e.device_name));
        let report = ExplainReport {
            platform: "POWER9+V100+K80".into(),
            dataset: "test".into(),
            explanations: vec![e.clone()],
        };
        validate_report_json(&serde_json::to_string(&report).unwrap())
            .expect("fleet report validates");
        assert!(e.render_human().contains("candidates:"));
    }

    #[test]
    fn human_rendering_contains_the_story() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(selector(), std::slice::from_ref(&k));
        let e = engine.explain("gemm", &binding(Dataset::Test)).unwrap();
        let text = e.render_human();
        assert!(text.contains("gemm"));
        assert!(text.contains("MWP"));
        assert!(text.contains("cyc/iter"));
        assert!(text.contains("coalesced"));
        assert!(text.contains("cpu eval"));
    }
}
