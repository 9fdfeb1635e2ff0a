//! # hetsel — hybrid analytical CPU/GPU execution-target selection
//!
//! Umbrella crate re-exporting the public API of the `hetsel` workspace: a
//! reproduction of *"Toward an Analytical Performance Model to Select between
//! GPU and CPU Execution"* (Chikin, Amaral, Ali, Tiotto — IPPS 2019).
//!
//! The workspace implements, from scratch:
//!
//! * [`ir`] — a loop-nest IR for OpenMP-style target regions;
//! * [`ipda`] — the Iteration Point Difference Analysis: symbolic
//!   inter-thread stride analysis for memory-coalescing detection;
//! * [`mca`] — an LLVM-MCA-style machine-code throughput analyzer;
//! * [`polybench`] — the 25 Polybench OpenMP kernels used in the evaluation;
//! * [`cpusim`] / [`gpusim`] — timing simulators standing in for the paper's
//!   POWER8/POWER9 hosts and K80/V100 accelerators;
//! * [`models`] — the Liao/Chapman CPU cost model and the Hong–Kim GPU
//!   MWP/CWP model (with the paper's `#OMP_Rep` extension);
//! * [`obs`] — a dependency-free metrics registry, flight recorder and
//!   accuracy observatory instrumenting the whole decision pipeline;
//! * [`core`] — the program attribute database and the runtime selector.
//!
//! ## Quickstart
//!
//! ```
//! use hetsel::prelude::*;
//!
//! // An OpenMP kernel: #pragma omp target teams distribute parallel for
//! //                   for (i = 0; i < n; i++) y[i] = a*x[i] + y[i];
//! let mut kb = KernelBuilder::new("axpy");
//! let x = kb.array("x", 8, &["n".into()], Transfer::In);
//! let y = kb.array("y", 8, &["n".into()], Transfer::InOut);
//! let i = kb.parallel_loop(0, "n");
//! let rhs = cexpr::add(cexpr::mul(cexpr::scalar("a"), kb.load(x, &[i.into()])),
//!                      kb.load(y, &[i.into()]));
//! kb.store(y, &[i.into()], rhs);
//! kb.end_loop();
//! let kernel = kb.finish();
//!
//! // Compile-time half: static features, IPDA strides, and both cost
//! // models land in the attribute database, fully compiled.
//! let selector = Selector::new(Platform::power9_v100());
//! let db = AttributeDatabase::compile(&[kernel], &selector);
//!
//! // Runtime half: bind the runtime values; the engine evaluates the
//! // precompiled models and memoizes the decision per (region, values).
//! let engine = DecisionEngine::from_database(selector, db, 1024);
//! let binding = Binding::new().with("n", 1 << 20);
//! let decision = engine.decide("axpy", &binding).unwrap();
//! println!(
//!     "run axpy on {}: predicted offload speedup {:.2}x",
//!     decision.device,
//!     decision.predicted_speedup().unwrap()
//! );
//!
//! // Fault-tolerant half: the dispatcher wraps the engine and actually
//! // runs the region on the decided device's simulator, with per-device
//! // circuit breakers, bounded transient retry, and host fallback. With no
//! // fault plan installed this is exactly `decide` plus one clean run.
//! let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
//! let outcome = dispatcher.dispatch(&DecisionRequest::new("axpy", binding)).unwrap();
//! assert_eq!(outcome.decision, decision);
//! assert!(outcome.clean() && outcome.simulated_s > 0.0);
//! ```

pub use hetsel_core as core;
pub use hetsel_cpusim as cpusim;
pub use hetsel_fault as fault;
pub use hetsel_gpusim as gpusim;
pub use hetsel_ipda as ipda;
pub use hetsel_ir as ir;
pub use hetsel_mca as mca;
pub use hetsel_models as models;
pub use hetsel_obs as obs;
pub use hetsel_polybench as polybench;

/// Commonly used items for working with the framework.
pub mod prelude {
    pub use hetsel_core::{
        AttributeDatabase, BreakerState, CalibrationMode, Calibrator, Decision, DecisionEngine,
        DecisionRequest, Device, DeviceId, DeviceKind, DispatchError, DispatchOutcome, Dispatcher,
        DispatcherConfig, Explanation, FallbackReason, Fleet, Platform, Policy, Selector,
    };
    pub use hetsel_fault::{FaultKind, FaultPlan};
    pub use hetsel_ir::{cexpr, Binding, Expr, Kernel, KernelBuilder, Transfer};
    pub use hetsel_models::{CompiledModel, CostModel, ModelError, Prediction};
}
