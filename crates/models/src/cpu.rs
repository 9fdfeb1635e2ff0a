//! The analytical CPU model: Liao & Chapman's compile-time OpenMP cost
//! model (paper Figure 3) with `Machine_cycles_per_iter` supplied by the
//! MCA engine (paper Section IV.A.1).
//!
//! ```text
//! Parallel_region = Fork + Σ_j max_i(Thread_exe_ij) + Join
//! Parallel_for    = Schedule_times × (Schedule + Loop_chunk)
//! Loop_chunk      = Machine_cycles_per_iter × Chunk_size
//!                   + Cache_cost + Loop_overhead
//! ```
//!
//! Like the original, the model has **no cache hierarchy**: loads cost the
//! flat L1 latency inside the MCA analysis, and the only memory-system term
//! is the TLB estimate (Table II: 1024 entries, 14-cycle penalty). This is
//! the limitation the paper calls "a primary future work direction", and it
//! is the main source of CPU-side prediction error against the simulator.

use crate::error::ModelError;
use crate::trip::TripMode;
use hetsel_ipda::{analyze_cached, CompiledAssess, CompiledStride};
use hetsel_ir::{
    Binding, BoundParams, CompiledKernel, CompiledTrips, Kernel, LoopVarId, SymbolTable, TripSlots,
};
use hetsel_mca::{compile_parallel_iter_cycles, CompiledCycles, CoreDescriptor};
use std::sync::Arc;

/// CPU model parameters (paper Table II).
#[derive(Debug, Clone)]
pub struct CpuModelParams {
    /// Host name.
    pub name: &'static str,
    /// CPU frequency, GHz (Table II: 3 GHz).
    pub freq_ghz: f64,
    /// TLB entries (Table II: 1024).
    pub tlb_entries: u32,
    /// TLB miss penalty, cycles (Table II: 14).
    pub tlb_miss_penalty: f64,
    /// Page size, bytes.
    pub page_bytes: u64,
    /// `Loop_overhead_per_iter`, cycles (Table II: 4).
    pub loop_overhead_per_iter: f64,
    /// `Par_Schedule_Overhead_static`, cycles (Table II: 10154).
    pub schedule_overhead_static: f64,
    /// `Synchronization_Overhead`, cycles (Table II: 4000).
    pub synchronization_overhead: f64,
    /// `Par_Startup` (fork), cycles (Table II: 3000).
    pub par_startup: f64,
    /// Fork/join scaling with thread count, cycles per thread (EPCC-style
    /// measurement on the simulated host; complements Table II's flat
    /// constants, which were measured at a fixed thread count).
    pub fork_per_thread: f64,
    /// Physical cores (for the model's crude SMT abstraction).
    pub cores: u32,
    /// The model's SMT abstraction: threads beyond `cores × smt_benefit`
    /// add nothing (the real machine's curve is richer — model error).
    pub smt_benefit: f64,
    /// Compiler unroll factor assumed when analysing the loop schedule.
    pub unroll: f64,
    /// MCA core descriptor the machine-code analysis runs against.
    pub core: CoreDescriptor,
    /// Whether the model credits outer-loop vectorisation (POWER9).
    pub outer_loop_vectorization: bool,
}

/// Table II parameters for the POWER9 host.
pub fn power9_params() -> CpuModelParams {
    CpuModelParams {
        name: "POWER9",
        freq_ghz: 3.0,
        tlb_entries: 1024,
        tlb_miss_penalty: 14.0,
        page_bytes: 64 * 1024,
        loop_overhead_per_iter: 4.0,
        schedule_overhead_static: 10154.0,
        synchronization_overhead: 4000.0,
        par_startup: 3000.0,
        fork_per_thread: 24_000.0,
        cores: 20,
        smt_benefit: 2.0,
        unroll: 4.0,
        core: hetsel_mca::power9(),
        outer_loop_vectorization: true,
    }
}

/// Table II-style parameters for the POWER8 host.
pub fn power8_params() -> CpuModelParams {
    CpuModelParams {
        name: "POWER8",
        freq_ghz: 3.0,
        tlb_entries: 1024,
        tlb_miss_penalty: 14.0,
        page_bytes: 64 * 1024,
        loop_overhead_per_iter: 4.0,
        schedule_overhead_static: 10154.0,
        synchronization_overhead: 4000.0,
        par_startup: 3000.0,
        fork_per_thread: 24_000.0,
        cores: 20,
        smt_benefit: 2.0,
        unroll: 4.0,
        core: hetsel_mca::power8(),
        outer_loop_vectorization: false,
    }
}

/// A CPU-side runtime prediction with its intermediate quantities — the
/// terms of Figure 3, exposed so the composition is auditable.
#[derive(Debug, Clone)]
pub struct CpuPrediction {
    /// Predicted region time, seconds.
    pub seconds: f64,
    /// Predicted region cycles (one thread's critical path + overheads).
    pub cycles: f64,
    /// `Machine_cycles_per_iter` from the MCA analysis (post-schedule).
    pub machine_cycles_per_iter: f64,
    /// Static chunk size (iterations per thread).
    pub chunk: u64,
    /// TLB cost per chunk, cycles.
    pub cache_cost: f64,
    /// SIMD factor the model credited.
    pub vector_factor: f64,
    /// Figure 3 `Fork_c`: startup plus per-thread fork/join scaling.
    pub fork_cycles: f64,
    /// Figure 3 `Schedule_c` (static dispatch).
    pub schedule_cycles: f64,
    /// Figure 3 `Loop_chunk_c` (machine cycles + cache + loop overhead,
    /// SMT-stretched).
    pub loop_chunk_cycles: f64,
    /// Figure 3 `Join_c` (synchronisation).
    pub join_cycles: f64,
}

impl CpuPrediction {
    /// Checks the Figure 3 composition:
    /// `Parallel_region = Fork + Schedule + Loop_chunk + Join`.
    pub fn composition_residual(&self) -> f64 {
        (self.cycles
            - (self.fork_cycles + self.schedule_cycles + self.loop_chunk_cycles + self.join_cycles))
            .abs()
    }
}

/// One access's precompiled TLB inputs: the sequential loop variables whose
/// trips weight the access, and the bytecode for its innermost stride.
#[derive(Debug, Clone)]
struct TlbAccess {
    sequential_vars: Vec<LoopVarId>,
    stride: CompiledStride,
    elem_bytes: u32,
}

/// The binding-independent half of the vector-schedule credit, extracted at
/// compile time: lane budget, the hottest loop, and the hot accesses' thread
/// strides as bytecode.
#[derive(Debug, Clone, Default)]
struct CompiledVectorFactor {
    lanes: f64,
    inner: Option<(LoopVarId, bool)>,
    hot_thread_strides: Vec<CompiledStride>,
}

/// Predicts the host execution time of a kernel with `threads` OpenMP
/// threads (paper Figure 3 + Table II).
///
/// ```
/// use hetsel_ir::{cexpr, Binding, KernelBuilder, Transfer};
/// use hetsel_models::{cpu, power9_params, TripMode};
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
/// let p = cpu::predict(&kernel, &Binding::new().with("n", 1 << 20),
///                      &power9_params(), 160, TripMode::Runtime).unwrap();
/// assert!(p.seconds > 0.0);
/// assert_eq!(p.chunk, (1 << 20) / 160 + 1); // static schedule
/// ```
pub fn predict(
    kernel: &Kernel,
    binding: &Binding,
    params: &CpuModelParams,
    threads: u32,
    mode: TripMode,
) -> Option<CpuPrediction> {
    compile(kernel, params, threads, mode)
        .evaluate(binding)
        .ok()
}

/// The compile-time half of the CPU model: the MCA scheduling analysis and
/// IPDA both run once, here; [`CompiledCpuModel::evaluate`] then only binds
/// trip counts and replays precomputed arithmetic.
pub fn compile(
    kernel: &Kernel,
    params: &CpuModelParams,
    threads: u32,
    mode: TripMode,
) -> CompiledCpuModel {
    let _timer = hetsel_obs::static_histogram!("hetsel.models.cpu.compile.ns").start_timer();
    let info = analyze_cached(kernel);
    let mut symbols = SymbolTable::new();
    let facts = CompiledKernel::compile(kernel, &mut symbols);
    let ctrips = CompiledTrips::compile(kernel, &mut symbols);
    let assess = CompiledAssess::compile(kernel, &info, &mut symbols);
    let tlb = info
        .accesses
        .iter()
        .map(|a| TlbAccess {
            sequential_vars: a
                .enclosing
                .iter()
                .filter(|(_, parallel)| !*parallel)
                .map(|(v, _)| *v)
                .collect(),
            stride: a.innermost_stride.compile(&mut symbols),
            elem_bytes: a.elem_bytes,
        })
        .collect();
    let elem = kernel
        .arrays
        .iter()
        .map(|a| a.elem_bytes)
        .max()
        .unwrap_or(4);
    let max_depth = info
        .accesses
        .iter()
        .map(|a| a.enclosing.len())
        .max()
        .unwrap_or(0);
    let hot: Vec<_> = info
        .accesses
        .iter()
        .filter(|a| a.enclosing.len() == max_depth)
        .collect();
    let vector = CompiledVectorFactor {
        lanes: (f64::from(params.core.vector_lanes_f64) * 8.0 / f64::from(elem)).max(1.0),
        inner: hot.first().and_then(|a| a.enclosing.last().copied()),
        hot_thread_strides: hot
            .iter()
            .map(|a| a.thread_stride.compile(&mut symbols))
            .collect(),
    };
    CompiledCpuModel {
        cycles_serial: compile_parallel_iter_cycles(kernel, &params.core, None, true),
        cycles_tput: compile_parallel_iter_cycles(kernel, &params.core, None, false),
        kernel: Arc::new(kernel.clone()),
        params: params.clone(),
        threads,
        mode,
        symbols,
        facts,
        ctrips,
        assess,
        tlb,
        vector,
    }
}

/// A kernel's CPU model after the compile phase: the attribute-database
/// entry of the paper's architecture. Holds the partially evaluated MCA
/// analyses (both accumulator-chain settings, for the unroll credit) plus
/// every IPDA-derived quantity lowered to slot-resolved bytecode; evaluation
/// against a [`Binding`] interns the binding once and is pure arithmetic —
/// no string lookups, no `Expr` tree walks.
#[derive(Debug, Clone)]
pub struct CompiledCpuModel {
    /// Shared with the attribute-database record and the region's other
    /// compiled models: one decoded kernel serves them all.
    kernel: Arc<Kernel>,
    params: CpuModelParams,
    threads: u32,
    mode: TripMode,
    /// MCA replay with carried accumulator chains (serial upper bound).
    cycles_serial: CompiledCycles,
    /// MCA replay without carried chains (throughput bound).
    cycles_tput: CompiledCycles,
    /// The interner every compiled expression below resolves slots against.
    symbols: SymbolTable,
    /// Parallel-iteration and array-footprint bytecode.
    facts: CompiledKernel,
    /// Loop-nest trip resolution bytecode.
    ctrips: CompiledTrips,
    /// SIMD legality replay (stride checks + body flags).
    assess: CompiledAssess,
    /// Per-access TLB inputs, in access order.
    tlb: Vec<TlbAccess>,
    /// Vector-schedule credit statics.
    vector: CompiledVectorFactor,
}

impl CompiledCpuModel {
    /// The kernel this model was compiled from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The runtime half of the model: binds trip counts, replays the
    /// compiled MCA analyses and composes Figure 3. Produces exactly the
    /// arithmetic — bit for bit — of the one-shot [`predict`].
    pub fn evaluate(&self, binding: &Binding) -> Result<CpuPrediction, ModelError> {
        let _timer = hetsel_obs::static_histogram!("hetsel.models.cpu.evaluate.ns").start_timer();
        let params = &self.params;
        let threads = self.threads;
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
        if threads == 0 {
            return Err(ModelError::ZeroThreads);
        }
        let tc = self.ctrips.resolve(&bound);
        let slots = self.mode.slots(&tc, self.ctrips.n_vars());

        // Machine_cycles_per_iter: MCA over the generated schedule (unrolled,
        // vectorised), flat L1 load latency — no cache model.
        let cpi_serial = self.cycles_serial.evaluate_slots(&slots);
        let cpi_tput = self.cycles_tput.evaluate_slots(&slots);
        let vf = self.vector_factor(&bound);
        let machine_cycles_per_iter = cpi_tput.max(cpi_serial / params.unroll) / vf;

        // The model's thread abstraction: SMT beyond `smt_benefit` threads per
        // core contributes nothing.
        let effective_threads =
            u64::from(threads).min((f64::from(params.cores) * params.smt_benefit) as u64);
        let chunk = p_iters.div_ceil(u64::from(threads).min(p_iters).max(1));
        let smt_stretch =
            u64::from(threads).min(p_iters) as f64 / effective_threads.min(p_iters).max(1) as f64;

        let cache_cost =
            self.tlb_misses_per_iter(&bound, &slots) * params.tlb_miss_penalty * chunk as f64;
        let loop_overhead = params.loop_overhead_per_iter * chunk as f64;

        // Figure 3: Parallel_region = Fork + max_i(Thread_exe) + Join, with the
        // max over threads realised as the chunk cost, stretched when SMT
        // threads share a core (everything a thread executes shares the core).
        let loop_chunk =
            (machine_cycles_per_iter * chunk as f64 + cache_cost + loop_overhead) * smt_stretch;
        let schedule = params.schedule_overhead_static;
        let fork =
            params.par_startup + params.fork_per_thread * u64::from(threads).min(p_iters) as f64;
        let join = params.synchronization_overhead;
        let cycles = fork + schedule + loop_chunk + join;

        Ok(CpuPrediction {
            seconds: cycles / (params.freq_ghz * 1e9),
            cycles,
            machine_cycles_per_iter,
            chunk,
            cache_cost,
            vector_factor: vf,
            fork_cycles: fork,
            schedule_cycles: schedule,
            loop_chunk_cycles: loop_chunk,
            join_cycles: join,
        })
    }

    /// Static TLB-miss estimate: for each access, the probability that one
    /// dynamic execution crosses into a new page, assuming the footprint
    /// exceeds the TLB reach (the libhugetlbfs-style estimate of the paper).
    fn tlb_misses_per_iter(&self, bound: &BoundParams, slots: &TripSlots) -> f64 {
        let p = &self.params;
        // TLB reach: if every mapped byte fits under the TLB, no misses.
        let total_bytes = self.facts.resolved_bytes_total(bound);
        if total_bytes <= u64::from(p.tlb_entries) * p.page_bytes {
            return 0.0;
        }
        let mut misses = 0.0;
        for a in &self.tlb {
            // Dynamic executions per parallel iteration under the trip mode:
            // resolved average trips for Runtime, 128 for the abstraction.
            let mut weight = 1.0;
            for v in &a.sequential_vars {
                weight *= slots.get(*v).max(0.0);
            }
            let stride_bytes = match a.stride.resolve(bound) {
                Some(s) => s.unsigned_abs() as f64 * f64::from(a.elem_bytes),
                None => p.page_bytes as f64, // irregular: assume a new page each time
            };
            let per_exec = (stride_bytes / p.page_bytes as f64).min(1.0);
            misses += weight * per_exec;
        }
        misses
    }

    /// The model's vector-schedule credit: same legality reasoning as the
    /// compiler applies, without any cache knowledge.
    fn vector_factor(&self, bound: &BoundParams) -> f64 {
        let p = &self.params;
        let vec_info = self.assess.evaluate(bound);
        let lanes = self.vector.lanes;
        let Some((inner_var, inner_parallel)) = self.vector.inner else {
            return 1.0;
        };
        if !inner_parallel {
            if let Some(vi) = vec_info.get(&inner_var) {
                if vi.legal {
                    let mut f = lanes * p.core.vector_efficiency;
                    if vi.has_reduction {
                        f *= p.core.vector_reduction_efficiency;
                    }
                    return f.max(1.0);
                }
            }
        }
        let thread_ok = self
            .vector
            .hot_thread_strides
            .iter()
            .all(|s| matches!(s.resolve(bound), Some(0) | Some(1) | Some(-1)));
        if thread_ok {
            if inner_parallel {
                return (lanes * p.core.vector_efficiency).max(1.0);
            }
            if p.outer_loop_vectorization {
                return (lanes * p.core.vector_efficiency * 0.8).max(1.0);
            }
        }
        1.0
    }
}

hetsel_ir::snap_struct!(CpuModelParams {
    name,
    freq_ghz,
    tlb_entries,
    tlb_miss_penalty,
    page_bytes,
    loop_overhead_per_iter,
    schedule_overhead_static,
    synchronization_overhead,
    par_startup,
    fork_per_thread,
    cores,
    smt_benefit,
    unroll,
    core,
    outer_loop_vectorization,
});

hetsel_ir::snap_struct!(TlbAccess {
    sequential_vars,
    stride,
    elem_bytes,
});

hetsel_ir::snap_struct!(CompiledVectorFactor {
    lanes,
    inner,
    hot_thread_strides,
});

impl CompiledCpuModel {
    /// Serializes everything *except* the kernel. The snapshot container
    /// stores one kernel per region and shares it across that region's
    /// compiled models, so the models' wire format deliberately has no
    /// kernel field; [`CompiledCpuModel::unsnap_body`] reattaches the
    /// region's shared copy.
    pub fn snap_body(&self, w: &mut hetsel_ir::SnapWriter) {
        use hetsel_ir::Snap;
        self.params.snap(w);
        w.put_u32(self.threads);
        self.mode.snap(w);
        self.cycles_serial.snap(w);
        self.cycles_tput.snap(w);
        self.symbols.snap(w);
        self.facts.snap(w);
        self.ctrips.snap(w);
        self.assess.snap(w);
        self.tlb.snap(w);
        self.vector.snap(w);
    }

    /// Decodes a [`CompiledCpuModel::snap_body`] encoding, adopting `kernel`
    /// as the model's (shared) kernel.
    pub fn unsnap_body(
        kernel: Arc<Kernel>,
        r: &mut hetsel_ir::SnapReader<'_>,
    ) -> Result<CompiledCpuModel, hetsel_ir::SnapError> {
        use hetsel_ir::Snap;
        Ok(CompiledCpuModel {
            kernel,
            params: CpuModelParams::unsnap(r)?,
            threads: r.get_u32()?,
            mode: TripMode::unsnap(r)?,
            cycles_serial: hetsel_mca::CompiledCycles::unsnap(r)?,
            cycles_tput: hetsel_mca::CompiledCycles::unsnap(r)?,
            symbols: SymbolTable::unsnap(r)?,
            facts: CompiledKernel::unsnap(r)?,
            ctrips: CompiledTrips::unsnap(r)?,
            assess: CompiledAssess::unsnap(r)?,
            tlb: Vec::<TlbAccess>::unsnap(r)?,
            vector: CompiledVectorFactor::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_polybench::{find_kernel, Dataset};

    fn predict_kernel(name: &str, ds: Dataset, threads: u32, mode: TripMode) -> CpuPrediction {
        let (k, binding) = find_kernel(name).unwrap();
        predict(&k, &binding(ds), &power9_params(), threads, mode).unwrap()
    }

    #[test]
    fn more_threads_predicts_faster() {
        let p4 = predict_kernel("gemm", Dataset::Test, 4, TripMode::Runtime);
        let p40 = predict_kernel("gemm", Dataset::Test, 40, TripMode::Runtime);
        assert!(p40.seconds < p4.seconds);
    }

    #[test]
    fn smt_abstraction_saturates() {
        // Beyond 40 threads (20 cores x2) the model adds nothing.
        let p40 = predict_kernel("gemm", Dataset::Benchmark, 40, TripMode::Runtime);
        let p160 = predict_kernel("gemm", Dataset::Benchmark, 160, TripMode::Runtime);
        assert!((p160.seconds - p40.seconds).abs() / p40.seconds < 0.05);
    }

    #[test]
    fn assume128_underestimates_benchmark_inner_loops() {
        let m128 = predict_kernel("gemm", Dataset::Benchmark, 160, TripMode::Assume128);
        let mrt = predict_kernel("gemm", Dataset::Benchmark, 160, TripMode::Runtime);
        // Real inner loop: 9600 iterations; the abstraction sees 128.
        assert!(mrt.seconds > m128.seconds * 20.0);
    }

    #[test]
    fn overheads_present_in_tiny_kernels() {
        // A kernel with 64 iterations is dominated by Table II overheads.
        let (k, binding) = find_kernel("2dconv").unwrap();
        let p = predict(
            &k,
            &binding(Dataset::Mini),
            &power9_params(),
            160,
            TripMode::Runtime,
        )
        .unwrap();
        let overhead = 3000.0 + 10154.0 + 4000.0 + 160.0 * 24_000.0;
        assert!(p.cycles >= overhead);
        assert!(p.cycles < overhead * 1.5);
    }

    #[test]
    fn tlb_cost_grows_with_dataset() {
        let t = predict_kernel("bicg.k1", Dataset::Test, 160, TripMode::Runtime);
        let b = predict_kernel("bicg.k1", Dataset::Benchmark, 160, TripMode::Runtime);
        // Column walk over a 368 MB matrix must show TLB cost; over a 4.8 MB
        // one the reach covers everything.
        assert_eq!(t.cache_cost, 0.0, "test-mode A fits TLB reach");
        assert!(b.cache_cost > 0.0);
    }

    #[test]
    fn p9_credits_outer_vectorization_p8_does_not() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Test);
        let p9 = predict(&k, &b, &power9_params(), 160, TripMode::Runtime).unwrap();
        let p8 = predict(&k, &b, &power8_params(), 160, TripMode::Runtime).unwrap();
        assert!(p9.vector_factor > 1.0);
        assert_eq!(p8.vector_factor, 1.0);
    }

    #[test]
    fn figure3_composition_is_exact() {
        for name in ["gemm", "2dconv", "corr.corr"] {
            let p = predict_kernel(name, Dataset::Test, 160, TripMode::Runtime);
            assert!(
                p.composition_residual() < 1e-9,
                "{name}: {}",
                p.composition_residual()
            );
            assert!(p.fork_cycles >= 3000.0);
            assert_eq!(p.schedule_cycles, 10154.0);
            assert_eq!(p.join_cycles, 4000.0);
            assert!(p.loop_chunk_cycles > 0.0);
        }
    }

    #[test]
    fn unresolved_binding_is_none() {
        let (k, _) = find_kernel("gemm").unwrap();
        assert!(predict(&k, &Binding::new(), &power9_params(), 4, TripMode::Runtime).is_none());
    }
}
