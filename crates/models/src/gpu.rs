//! The analytical GPU model: Hong & Kim's MWP/CWP model (paper Figures 4–5)
//! adapted to the evaluated architectures, with two paper-specific
//! extensions:
//!
//! * **`#OMP_Rep`** — when the grid geometry selected by the OpenMP runtime
//!   covers fewer threads than parallel work items, each thread executes
//!   `#OMP_Rep` distinct loop iterations (highlighted factor in Figure 4);
//! * **IPDA-driven coalescing** — `#Coal_Mem_insts` / `#Uncoal_Mem_insts`
//!   come from the symbolic inter-thread stride analysis resolved with
//!   runtime values, instead of the trace/profile-driven estimates of prior
//!   work (paper Section IV.C).
//!
//! Like the original model, there is **no cache hierarchy**: every memory
//! instruction pays the full device-memory latency, which the paper calls
//! out when discussing the SYRK over-estimate.

use crate::error::ModelError;
use crate::trip::TripMode;
use hetsel_gpusim::{occupancy, select, Geometry, GpuDescriptor, Occupancy};
use hetsel_ipda::{analyze_cached, CompiledStride};
use hetsel_ir::{
    trips::TripCounts, Binding, BoundParams, CompiledExpr, CompiledKernel, CompiledTrips, Kernel,
    LoopVarId, SymbolTable,
};
use hetsel_mca::{compile_loadout, CompiledLoadout, OpKind};
use std::sync::Arc;

/// How memory accesses are classified when the model runs — `Ipda` is the
/// paper's contribution; the two `Assume*` modes exist for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalescingMode {
    /// Resolve IPDA symbolic strides with the runtime binding.
    Ipda,
    /// Prior-work pessimism: every access uncoalesced.
    AssumeUncoalesced,
    /// Naive optimism: every access coalesced.
    AssumeCoalesced,
}

/// GPU model parameters: the device sheet (paper Table III) plus the
/// Hong–Kim pipeline constants.
#[derive(Debug, Clone)]
pub struct GpuModelParams {
    /// The device (SM count, clock, bandwidth, bus — Table III).
    pub device: GpuDescriptor,
    /// Issue cycles per instruction per warp (`#Issue_cycles`).
    pub issue_cycles: f64,
    /// Departure delay of a coalesced memory instruction, cycles.
    pub departure_del_coal: f64,
    /// Departure delay per transaction of an uncoalesced instruction.
    pub departure_del_uncoal: f64,
}

/// Table III parameters for the Tesla V100 (latencies after Jia et al.).
pub fn v100_params() -> GpuModelParams {
    GpuModelParams {
        device: hetsel_gpusim::tesla_v100(),
        issue_cycles: 1.0,
        departure_del_coal: 2.0,
        departure_del_uncoal: 8.0,
    }
}

/// Parameters for the Tesla P100 (Pascal, between the paper's two
/// generations).
pub fn p100_params() -> GpuModelParams {
    GpuModelParams {
        device: hetsel_gpusim::tesla_p100(),
        issue_cycles: 1.25,
        departure_del_coal: 2.5,
        departure_del_uncoal: 10.0,
    }
}

/// Parameters for the Tesla K80 (Kepler pipeline constants closer to the
/// original Hong–Kim values).
pub fn k80_params() -> GpuModelParams {
    GpuModelParams {
        device: hetsel_gpusim::tesla_k80(),
        issue_cycles: 2.0,
        departure_del_coal: 4.0,
        departure_del_uncoal: 20.0,
    }
}

/// A GPU-side prediction with the model's intermediate quantities exposed
/// (useful for the worked examples and the parameter table binary).
#[derive(Debug, Clone)]
pub struct GpuPrediction {
    /// Predicted region time (kernel + transfers), seconds.
    pub seconds: f64,
    /// Predicted kernel execution time, seconds.
    pub kernel_seconds: f64,
    /// Predicted transfer time (both directions), seconds.
    pub transfer_seconds: f64,
    /// Exec_cycles of Figure 4.
    pub exec_cycles: f64,
    /// Memory-warp parallelism.
    pub mwp: f64,
    /// Compute-warp parallelism.
    pub cwp: f64,
    /// Resident warps per SM (`N`).
    pub n_warps: f64,
    /// Which Figure 4 case fired.
    pub case: HongCase,
    /// `#Rep` (block waves).
    pub rep: f64,
    /// `#OMP_Rep` (paper's extension).
    pub omp_rep: f64,
    /// Dynamic coalesced memory instructions per iteration.
    pub coal_mem_insts: f64,
    /// Dynamic uncoalesced memory instructions per iteration.
    pub uncoal_mem_insts: f64,
    /// Selected geometry.
    pub geometry: Geometry,
    /// Occupancy.
    pub occupancy: Occupancy,
}

/// The three cases of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HongCase {
    /// `MWP == N == CWP`: enough warps, perfectly balanced.
    Balanced,
    /// `CWP > MWP`: memory-bound.
    MemoryBound,
    /// `MWP >= CWP`: compute-bound.
    ComputeBound,
}

/// Aggregated memory census of a kernel's accesses under a coalescing mode:
/// dynamic `#Coal` / `#Uncoal` counts, mean uncoalesced transactions, the
/// weighted static L2-hit estimate, and mean DRAM bytes per warp-access.
struct MemCensus {
    coal: f64,
    uncoal: f64,
    uncoal_txns: f64,
    /// Weighted probability a transaction is served by L2 (the "Access on
    /// L2 Hit" row of Table III in action): static estimate from whether
    /// the accessed array fits in the device's L2.
    l2_hit: f64,
    /// Mean transactions per warp access across all accesses.
    avg_txns: f64,
}

/// One access's precompiled census inputs: sequential loop weights, the
/// thread-dimension stride as bytecode, and the parallel-dimension affine
/// coefficients as bytecode (for the static L2 estimate).
#[derive(Debug, Clone)]
struct CensusAccess {
    /// Non-parallel enclosing loop variables, in nesting order.
    sequential_vars: Vec<LoopVarId>,
    thread_stride: CompiledStride,
    elem_bytes: u32,
    /// Declaration index of the accessed array.
    array: usize,
    /// Per parallel loop (outermost first), the access's affine coefficient
    /// on that loop's variable; `None` when the access is not affine.
    ploop_coeffs: Option<Vec<CompiledExpr>>,
}

/// Predicts the GPU execution time of a kernel (Figures 4–5 with the
/// `#OMP_Rep` extension, coalescing per `coal_mode`).
///
/// ```
/// use hetsel_ir::{cexpr, Binding, KernelBuilder, Transfer};
/// use hetsel_models::{gpu, v100_params, CoalescingMode, TripMode};
///
/// let mut kb = KernelBuilder::new("sum");
/// let x = kb.array("x", 4, &["n".into()], Transfer::In);
/// let y = kb.array("y", 4, &["n".into()], Transfer::Out);
/// let i = kb.parallel_loop(0, "n");
/// let ld = kb.load(x, &[i.into()]);
/// kb.store(y, &[i.into()], ld);
/// kb.end_loop();
/// let kernel = kb.finish();
///
/// let g = gpu::predict(&kernel, &Binding::new().with("n", 30_000_000),
///                      &v100_params(), TripMode::Runtime, CoalescingMode::Ipda).unwrap();
/// assert!(g.seconds > 0.0);
/// assert!(g.omp_rep > 1.0);            // 30M iterations exceed resident threads
/// assert_eq!(g.uncoal_mem_insts, 0.0); // both accesses are unit-stride
/// ```
pub fn predict(
    kernel: &Kernel,
    binding: &Binding,
    params: &GpuModelParams,
    trip_mode: TripMode,
    coal_mode: CoalescingMode,
) -> Option<GpuPrediction> {
    compile(kernel, params, trip_mode, coal_mode)
        .evaluate(binding)
        .ok()
}

/// The compile-time half of the GPU model: IPDA and the instruction-loadout
/// lowering both run once, here; [`CompiledGpuModel::evaluate`] then only
/// binds trip counts and replays precomputed arithmetic.
pub fn compile(
    kernel: &Kernel,
    params: &GpuModelParams,
    trip_mode: TripMode,
    coal_mode: CoalescingMode,
) -> CompiledGpuModel {
    let _timer = hetsel_obs::static_histogram!("hetsel.models.gpu.compile.ns").start_timer();
    let info = analyze_cached(kernel);
    let mut symbols = SymbolTable::new();
    let facts = CompiledKernel::compile(kernel, &mut symbols);
    let ctrips = CompiledTrips::compile(kernel, &mut symbols);
    let ploops = kernel.parallel_loops();
    let ploop_vars: Vec<LoopVarId> = ploops.iter().map(|l| l.var).collect();
    let accesses = info
        .accesses
        .iter()
        .map(|a| CensusAccess {
            sequential_vars: a
                .enclosing
                .iter()
                .filter(|(_, parallel)| !*parallel)
                .map(|(v, _)| *v)
                .collect(),
            thread_stride: a.thread_stride.compile(&mut symbols),
            elem_bytes: a.elem_bytes,
            array: a.array.0,
            ploop_coeffs: a.affine.as_ref().map(|aff| {
                ploops
                    .iter()
                    .map(|l| CompiledExpr::compile_poly(&aff.coeff(l.var), &mut symbols))
                    .collect()
            }),
        })
        .collect();
    CompiledGpuModel {
        loadout: compile_loadout(kernel),
        kernel: Arc::new(kernel.clone()),
        params: params.clone(),
        trip_mode,
        coal_mode,
        symbols,
        facts,
        ctrips,
        ploop_vars,
        accesses,
    }
}

/// A kernel's GPU model after the compile phase: the attribute-database
/// entry of the paper's architecture. Holds the partially evaluated
/// instruction loadout plus every IPDA-derived quantity lowered to
/// slot-resolved bytecode; evaluation against a [`Binding`] interns the
/// binding once, resolves strides and trip counts, and composes
/// Figures 4–5 — no string lookups, no `Expr` tree walks.
#[derive(Debug, Clone)]
pub struct CompiledGpuModel {
    /// Shared with the attribute-database record and the region's other
    /// compiled models: one decoded kernel serves them all.
    kernel: Arc<Kernel>,
    params: GpuModelParams,
    trip_mode: TripMode,
    coal_mode: CoalescingMode,
    loadout: CompiledLoadout,
    /// The interner every compiled expression below resolves slots against.
    symbols: SymbolTable,
    /// Parallel-iteration, array-footprint and transfer-volume bytecode.
    facts: CompiledKernel,
    /// Loop-nest trip resolution bytecode.
    ctrips: CompiledTrips,
    /// Parallel loop variables, outermost first.
    ploop_vars: Vec<LoopVarId>,
    /// Per-access census inputs, in access order.
    accesses: Vec<CensusAccess>,
}

impl CompiledGpuModel {
    /// The kernel this model was compiled from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The runtime half of the model: produces exactly the arithmetic — bit
    /// for bit — of the one-shot [`predict`].
    pub fn evaluate(&self, binding: &Binding) -> Result<GpuPrediction, ModelError> {
        let _timer = hetsel_obs::static_histogram!("hetsel.models.gpu.evaluate.ns").start_timer();
        let params = &self.params;
        let dev = &params.device;
        // Resolve every parameter to its dense slot once; everything below
        // replays bytecode against this view — no name lookups.
        let bound = self.symbols.bind(binding);
        let p_iters = self
            .facts
            .parallel_iterations(&bound)
            .ok_or_else(|| ModelError::unresolved(&self.kernel, binding))?;
        if p_iters == 0 {
            return Err(ModelError::ZeroTrip);
        }
        let geometry = select(dev, p_iters);
        let occ = occupancy(dev, &geometry);
        let n = f64::from(occ.warps_per_sm).max(1.0);

        let tc = self.ctrips.resolve(&bound);
        let slots = self.trip_mode.slots(&tc, self.ctrips.n_vars());
        let lo = self.loadout.evaluate_slots(&slots);

        // Instruction loadout: compute vs I/O categories (Section IV.B).
        let mut total_insts = 0.0;
        for k in hetsel_mca::ALL_KINDS {
            let cost = match k {
                OpKind::FDiv | OpKind::FSqrt => 8.0,
                _ => 1.0,
            };
            total_insts += lo.count(k) * cost;
        }
        let mem_insts = lo.mem_insts().max(1.0);

        let resident = (geometry.total_threads() as f64).min(p_iters as f64);
        let c = self.census(&bound, &tc, resident);
        let (coal, uncoal, uncoal_txns) = (c.coal, c.uncoal, c.uncoal_txns);

        // Figure 5 quantities, with the Volta adaptation's L2 blend: a
        // transaction served by L2 has L2 latency and departs at the LSU rate
        // instead of paying the DRAM departure delay.
        let base_l = c.l2_hit * dev.l2_latency_cycles + (1.0 - c.l2_hit) * dev.mem_latency_cycles;
        let txn_departure = c.l2_hit * (1.0 / dev.lsu_txns_per_cycle)
            + (1.0 - c.l2_hit) * params.departure_del_uncoal;
        let mem_l_coal = base_l;
        let mem_l_uncoal = base_l + (uncoal_txns - 1.0) * txn_departure;
        let mem_frac_uncoal = uncoal / (coal + uncoal).max(1.0);
        let mem_l = mem_l_uncoal * mem_frac_uncoal + mem_l_coal * (1.0 - mem_frac_uncoal);
        let departure_delay = txn_departure * uncoal_txns * mem_frac_uncoal
            + params.departure_del_coal * (1.0 - mem_frac_uncoal);
        let mwp_without_bw = (mem_l / departure_delay.max(1.0)).round().max(1.0);

        // Bandwidth-limited MWP: only L2 misses consume DRAM bandwidth.
        let load_bytes_per_warp =
            f64::from(dev.segment_bytes) * c.avg_txns * (1.0 - c.l2_hit).max(0.05);
        let bw_per_warp = dev.clock_ghz * load_bytes_per_warp / mem_l; // GB/s
        let mwp_peak_bw =
            dev.mem_bandwidth_gbs / (bw_per_warp * f64::from(occ.active_sms).max(1.0));
        let mwp = mwp_without_bw.min(mwp_peak_bw).min(n).max(1.0);

        let comp_cycles = params.issue_cycles * total_insts;
        let mem_cycles = mem_l_uncoal * uncoal + mem_l_coal * coal;
        let cwp_full = if comp_cycles > 0.0 {
            (mem_cycles + comp_cycles) / comp_cycles
        } else {
            n
        };
        let cwp = cwp_full.min(n).max(1.0);

        let rep = (geometry.blocks as f64
            / (f64::from(occ.blocks_per_sm).max(1.0) * f64::from(occ.active_sms).max(1.0)))
        .max(1.0);
        let omp_rep = geometry.omp_rep as f64;

        // Figure 4, with the highlighted × #Rep × #OMP_Rep factor.
        let (case, per_rep_cycles) = if (mwp - n).abs() < 1e-9 && (cwp - n).abs() < 1e-9 {
            (
                HongCase::Balanced,
                mem_cycles + comp_cycles + (comp_cycles / mem_insts) * (mwp - 1.0),
            )
        } else if cwp >= mwp {
            (
                HongCase::MemoryBound,
                mem_cycles * n / mwp + (comp_cycles / mem_insts) * (mwp - 1.0),
            )
        } else {
            (HongCase::ComputeBound, mem_l + comp_cycles * n)
        };
        let exec_cycles = per_rep_cycles * rep * omp_rep;
        let kernel_seconds = exec_cycles / (dev.clock_ghz * 1e9);

        let bytes_in =
            self.facts
                .bytes_to_device(&bound)
                .ok_or_else(|| ModelError::unresolved(&self.kernel, binding))? as f64;
        let bytes_out =
            self.facts
                .bytes_from_device(&bound)
                .ok_or_else(|| ModelError::unresolved(&self.kernel, binding))? as f64;
        let transfer = |b: f64| {
            if b <= 0.0 {
                0.0
            } else {
                dev.bus.latency_us * 1e-6 + b / (dev.bus.bandwidth_gbs * 1e9)
            }
        };
        let transfer_seconds = transfer(bytes_in) + transfer(bytes_out);

        Ok(GpuPrediction {
            seconds: kernel_seconds + transfer_seconds + dev.launch_overhead_us * 1e-6,
            kernel_seconds,
            transfer_seconds,
            exec_cycles,
            mwp,
            cwp,
            n_warps: n,
            case,
            rep,
            omp_rep,
            coal_mem_insts: coal,
            uncoal_mem_insts: uncoal,
            geometry,
            occupancy: occ,
        })
    }

    /// Aggregated memory census under the configured coalescing mode, from
    /// the precompiled per-access inputs.
    fn census(&self, bound: &BoundParams, tc: &TripCounts, resident_threads: f64) -> MemCensus {
        let seg = self.params.device.segment_bytes;
        let mut coal = 0.0;
        let mut uncoal = 0.0;
        let mut uncoal_txn_sum = 0.0;
        let mut hit_sum = 0.0;
        let mut txn_sum = 0.0;
        let mut total = 0.0;
        for a in &self.accesses {
            let mut weight = 1.0;
            for v in &a.sequential_vars {
                weight *= match self.trip_mode {
                    TripMode::Assume128 => 128.0,
                    TripMode::Runtime => tc.get(*v).max(0.0),
                };
            }
            if weight == 0.0 {
                continue;
            }
            let (is_coal, txns) = match self.coal_mode {
                CoalescingMode::AssumeCoalesced => (true, 1.0),
                CoalescingMode::AssumeUncoalesced => (false, 32.0),
                CoalescingMode::Ipda => match a.thread_stride.resolve(bound) {
                    Some(s) => (
                        hetsel_ipda::is_coalesced(s, a.elem_bytes, seg),
                        f64::from(hetsel_ipda::transactions_per_warp(s, a.elem_bytes, seg)),
                    ),
                    None => (false, 32.0),
                },
            };
            let hit = self.static_l2_hit(a, bound, tc, resident_threads);
            if is_coal {
                coal += weight;
            } else {
                uncoal += weight;
                uncoal_txn_sum += weight * txns;
            }
            hit_sum += weight * hit;
            txn_sum += weight * txns;
            total += weight;
        }
        MemCensus {
            coal,
            uncoal,
            uncoal_txns: if uncoal > 0.0 {
                uncoal_txn_sum / uncoal
            } else {
                32.0
            },
            l2_hit: if total > 0.0 { hit_sum / total } else { 0.0 },
            avg_txns: if total > 0.0 { txn_sum / total } else { 1.0 },
        }
    }

    /// Static L2-hit estimate for one access — the paper's stated
    /// future-work direction ("improved representation of the memory
    /// hierarchy impacts is a sure way to improve prediction efficacy"),
    /// realised with the same symbolic machinery IPDA already provides: from
    /// the access's coefficients on the parallel dimensions and the resident
    /// thread population, compute the distinct bytes the device touches per
    /// lockstep step; if that concurrent footprint fits in L2, repeated
    /// touches hit.
    fn static_l2_hit(
        &self,
        a: &CensusAccess,
        bound: &BoundParams,
        tc: &TripCounts,
        resident_threads: f64,
    ) -> f64 {
        let dev = &self.params.device;
        let l2 = dev.l2_bytes as f64;
        let array_bytes = self.facts.array_bytes(a.array, bound).unwrap_or(u64::MAX) as f64;
        if array_bytes <= l2 {
            return 0.95;
        }
        let Some(coeffs) = &a.ploop_coeffs else {
            return 0.0;
        };
        // Coverage of each parallel dimension by the resident threads
        // (innermost dimension fills first, matching the thread-id mapping).
        let n_dims = coeffs.len();
        let mut remaining = resident_threads;
        let mut distinct = 1.0;
        let mut innermost_unit = true;
        for idx in (0..n_dims).rev() {
            let t = tc.get(self.ploop_vars[idx]).max(1.0);
            let cover = remaining.min(t).max(1.0);
            remaining = (remaining / t).ceil().max(1.0);
            let coeff = coeffs[idx].eval_closed(bound).unwrap_or(1);
            if coeff != 0 {
                distinct *= cover;
            }
            if idx == n_dims - 1 {
                innermost_unit = coeff.abs() <= 1;
            }
        }
        let granule = if innermost_unit {
            f64::from(a.elem_bytes)
        } else {
            f64::from(dev.segment_bytes)
        };
        let footprint = distinct * granule;
        if footprint * 2.0 <= l2 {
            // Comfortably resident: essentially every repeat touch hits.
            0.95
        } else {
            (0.45 * l2 / footprint).min(0.85)
        }
    }
}

hetsel_ir::snap_unit_enum!(CoalescingMode {
    0 => Ipda,
    1 => AssumeUncoalesced,
    2 => AssumeCoalesced,
});

// `GpuDescriptor` / `BusDescriptor` live in hetsel-gpusim, which has no
// hetsel-ir dependency, so the orphan rule forbids implementing `Snap` there
// or here for them directly. Both are all-pub parameter sheets; serialize
// them field by field inside the `GpuModelParams` impl instead.
impl hetsel_ir::Snap for GpuModelParams {
    fn snap(&self, w: &mut hetsel_ir::SnapWriter) {
        let d = &self.device;
        d.name.snap(w);
        w.put_u32(d.num_sms);
        w.put_u32(d.cores_per_sm);
        w.put_u32(d.schedulers_per_sm);
        w.put_f64(d.clock_ghz);
        w.put_f64(d.mem_bandwidth_gbs);
        w.put_f64(d.mem_latency_cycles);
        w.put_u64(d.l2_bytes);
        w.put_f64(d.l2_latency_cycles);
        w.put_u32(d.segment_bytes);
        w.put_f64(d.lsu_txns_per_cycle);
        w.put_u32(d.max_warps_per_sm);
        w.put_u32(d.max_blocks_per_sm);
        w.put_f64(d.issue_rate);
        w.put_f64(d.div_issue_slots);
        w.put_f64(d.launch_overhead_us);
        d.bus.name.snap(w);
        w.put_f64(d.bus.latency_us);
        w.put_f64(d.bus.bandwidth_gbs);
        w.put_f64(self.issue_cycles);
        w.put_f64(self.departure_del_coal);
        w.put_f64(self.departure_del_uncoal);
    }

    fn unsnap(r: &mut hetsel_ir::SnapReader<'_>) -> Result<Self, hetsel_ir::SnapError> {
        let device = hetsel_gpusim::GpuDescriptor {
            name: <&'static str>::unsnap(r)?,
            num_sms: r.get_u32()?,
            cores_per_sm: r.get_u32()?,
            schedulers_per_sm: r.get_u32()?,
            clock_ghz: r.get_f64()?,
            mem_bandwidth_gbs: r.get_f64()?,
            mem_latency_cycles: r.get_f64()?,
            l2_bytes: r.get_u64()?,
            l2_latency_cycles: r.get_f64()?,
            segment_bytes: r.get_u32()?,
            lsu_txns_per_cycle: r.get_f64()?,
            max_warps_per_sm: r.get_u32()?,
            max_blocks_per_sm: r.get_u32()?,
            issue_rate: r.get_f64()?,
            div_issue_slots: r.get_f64()?,
            launch_overhead_us: r.get_f64()?,
            bus: hetsel_gpusim::BusDescriptor {
                name: <&'static str>::unsnap(r)?,
                latency_us: r.get_f64()?,
                bandwidth_gbs: r.get_f64()?,
            },
        };
        Ok(GpuModelParams {
            device,
            issue_cycles: r.get_f64()?,
            departure_del_coal: r.get_f64()?,
            departure_del_uncoal: r.get_f64()?,
        })
    }
}

hetsel_ir::snap_struct!(CensusAccess {
    sequential_vars,
    thread_stride,
    elem_bytes,
    array,
    ploop_coeffs,
});

impl CompiledGpuModel {
    /// Serializes everything *except* the kernel. The snapshot container
    /// stores one kernel per region and shares it across that region's
    /// compiled models (this matters most for multi-accelerator fleets,
    /// which carry one `CompiledGpuModel` per device);
    /// [`CompiledGpuModel::unsnap_body`] reattaches the region's shared
    /// copy.
    pub fn snap_body(&self, w: &mut hetsel_ir::SnapWriter) {
        use hetsel_ir::Snap;
        self.params.snap(w);
        self.trip_mode.snap(w);
        self.coal_mode.snap(w);
        self.loadout.snap(w);
        self.symbols.snap(w);
        self.facts.snap(w);
        self.ctrips.snap(w);
        self.ploop_vars.snap(w);
        self.accesses.snap(w);
    }

    /// Decodes a [`CompiledGpuModel::snap_body`] encoding, adopting `kernel`
    /// as the model's (shared) kernel.
    pub fn unsnap_body(
        kernel: Arc<Kernel>,
        r: &mut hetsel_ir::SnapReader<'_>,
    ) -> Result<CompiledGpuModel, hetsel_ir::SnapError> {
        use hetsel_ir::Snap;
        Ok(CompiledGpuModel {
            kernel,
            params: GpuModelParams::unsnap(r)?,
            trip_mode: TripMode::unsnap(r)?,
            coal_mode: CoalescingMode::unsnap(r)?,
            loadout: CompiledLoadout::unsnap(r)?,
            symbols: SymbolTable::unsnap(r)?,
            facts: CompiledKernel::unsnap(r)?,
            ctrips: CompiledTrips::unsnap(r)?,
            ploop_vars: Vec::<LoopVarId>::unsnap(r)?,
            accesses: Vec::<CensusAccess>::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_polybench::{find_kernel, Dataset};

    fn pred(name: &str, ds: Dataset, p: &GpuModelParams) -> GpuPrediction {
        let (k, binding) = find_kernel(name).unwrap();
        predict(&k, &binding(ds), p, TripMode::Runtime, CoalescingMode::Ipda).unwrap()
    }

    #[test]
    fn mwp_cwp_within_bounds() {
        for name in ["gemm", "2dconv", "3dconv", "atax.k1", "syrk", "corr.corr"] {
            for ds in [Dataset::Test, Dataset::Benchmark] {
                let g = pred(name, ds, &v100_params());
                assert!(g.mwp >= 1.0 && g.mwp <= g.n_warps, "{name}: mwp {}", g.mwp);
                assert!(g.cwp >= 1.0 && g.cwp <= g.n_warps, "{name}: cwp {}", g.cwp);
                assert!(g.exec_cycles > 0.0);
            }
        }
    }

    #[test]
    fn paper_omp_rep_in_play_for_large_grids() {
        let g = pred("gemm", Dataset::Benchmark, &v100_params());
        assert!(g.omp_rep > 1.0);
        let t = pred("gemm", Dataset::Test, &v100_params());
        assert!(t.omp_rep >= 1.0);
        assert!(g.omp_rep > t.omp_rep);
    }

    #[test]
    fn ipda_separates_coalesced_from_uncoalesced() {
        // atax.k1: A row-walk is uncoalesced; atax.k2: coalesced.
        let k1 = pred("atax.k1", Dataset::Test, &v100_params());
        let k2 = pred("atax.k2", Dataset::Test, &v100_params());
        assert!(k1.uncoal_mem_insts > 0.0);
        assert!(k2.uncoal_mem_insts < k1.uncoal_mem_insts);
        assert!(k1.seconds > k2.seconds);
    }

    #[test]
    fn coalescing_ablation_ordering() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let p = v100_params();
        let ipda = predict(&k, &b, &p, TripMode::Runtime, CoalescingMode::Ipda).unwrap();
        let unc = predict(
            &k,
            &b,
            &p,
            TripMode::Runtime,
            CoalescingMode::AssumeUncoalesced,
        )
        .unwrap();
        let co = predict(
            &k,
            &b,
            &p,
            TripMode::Runtime,
            CoalescingMode::AssumeCoalesced,
        )
        .unwrap();
        assert!(co.kernel_seconds <= ipda.kernel_seconds + 1e-12);
        assert!(ipda.kernel_seconds <= unc.kernel_seconds + 1e-12);
    }

    #[test]
    fn memory_bound_kernel_classified() {
        let g = pred("2dconv", Dataset::Benchmark, &v100_params());
        assert!(
            matches!(g.case, HongCase::MemoryBound | HongCase::Balanced),
            "{:?}",
            g.case
        );
    }

    #[test]
    fn v100_predicts_faster_than_k80() {
        for name in ["gemm", "2dconv", "atax.k2"] {
            let v = pred(name, Dataset::Benchmark, &v100_params());
            let k = pred(name, Dataset::Benchmark, &k80_params());
            assert!(
                v.seconds < k.seconds,
                "{name}: v100 {} k80 {}",
                v.seconds,
                k.seconds
            );
        }
    }

    #[test]
    fn transfer_included_and_positive() {
        let g = pred("gemm", Dataset::Test, &v100_params());
        assert!(g.transfer_seconds > 0.0);
        assert!(g.seconds > g.kernel_seconds);
    }

    #[test]
    fn assume128_mode_shrinks_inner_loop_work() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let p = v100_params();
        let m128 = predict(&k, &b, &p, TripMode::Assume128, CoalescingMode::Ipda).unwrap();
        let mrt = predict(&k, &b, &p, TripMode::Runtime, CoalescingMode::Ipda).unwrap();
        assert!(mrt.kernel_seconds > m128.kernel_seconds * 10.0);
    }

    #[test]
    fn unresolved_binding_is_none() {
        let (k, _) = find_kernel("gemm").unwrap();
        assert!(predict(
            &k,
            &Binding::new(),
            &v100_params(),
            TripMode::Runtime,
            CoalescingMode::Ipda
        )
        .is_none());
    }
}
