//! Partial evaluation of the MCA analyses: compile once, evaluate per binding.
//!
//! The paper's central architectural claim is that *everything expensive
//! happens at compile time*: the scheduling analysis, the lowering, the
//! symbolic algebra are all run once per kernel, and the runtime merely
//! substitutes loop trip counts before taking the decision (Section III:
//! "the runtime overhead introduced by the model evaluation is negligible").
//!
//! The recursive analyses in [`lower`](crate::lower) and
//! [`loadout`](crate::loadout()) mix the two phases: every call re-lowers the
//! kernel and re-runs [`simulate`], even though those steps depend only on
//! the kernel *structure* and the [`CoreDescriptor`] — never on the trip
//! counts. Trip counts enter the result exclusively as multiplicative
//! weights on precomputable per-block constants.
//!
//! This module splits the phases. [`compile_parallel_iter_cycles`] and
//! [`compile_loadout`] run every simulation and lowering up front and record
//! a small replay tree; evaluating the tree against a [`TripFn`] performs
//! the *identical* floating-point operations in the *identical* order as the
//! direct analyses, so results are equal bit for bit (asserted by tests here
//! and by property tests at the workspace root).

use crate::descriptor::CoreDescriptor;
use crate::isa::{OpKind, ALL_KINDS};
use crate::loadout::Loadout;
use crate::lower::{lower_assigns, lower_assigns_opts, TripFn};
use crate::sched::{simulate, SimOptions};
use hetsel_ir::{Assign, Kernel, Loop, Stmt, TripSlots};

/// Partially evaluated [`parallel_iter_cycles_opts`]
/// (`Machine_cycles_per_iter` of the Liao/Chapman model).
///
/// [`parallel_iter_cycles_opts`]: crate::lower::parallel_iter_cycles_opts
#[derive(Debug, Clone)]
pub enum CompiledCycles {
    /// Straight-line parallel body: the steady-state cycles-per-iteration is
    /// a constant, independent of any trip count.
    StraightLine(f64),
    /// A loop nest, replayed against runtime trip counts.
    Nest(CompiledNest),
}

impl CompiledCycles {
    /// Evaluates the compiled analysis under `trip`, reproducing
    /// `parallel_iter_cycles_opts(kernel, core, trip, ...)` exactly.
    pub fn evaluate(&self, trip: &TripFn) -> f64 {
        match self {
            CompiledCycles::StraightLine(cycles) => *cycles,
            // Parallel loop's own per-iteration overhead, as in the direct
            // analysis.
            CompiledCycles::Nest(nest) => nest.evaluate(trip) + 1.0,
        }
    }

    /// [`CompiledCycles::evaluate`] against a dense [`TripSlots`] view: the
    /// hot-path form — integer-indexed trip lookups, no boxed closure. The
    /// arithmetic (and thus the result, bit for bit) is identical to the
    /// closure path when `trips.of(l)` agrees with `trip(l)`.
    pub fn evaluate_slots(&self, trips: &TripSlots) -> f64 {
        match self {
            CompiledCycles::StraightLine(cycles) => *cycles,
            CompiledCycles::Nest(nest) => nest.evaluate_slots(trips) + 1.0,
        }
    }
}

/// Replay tree for one statement list: the partially evaluated form of
/// [`nest_cycles_opts`](crate::lower::nest_cycles_opts).
#[derive(Debug, Clone)]
pub struct CompiledNest {
    terms: Vec<NestTerm>,
}

#[derive(Debug, Clone)]
enum NestTerm {
    /// A flushed straight-line assignment run: its one-pass block latency.
    Block(f64),
    /// A sequential loop. The header is kept so the [`TripFn`] can be asked
    /// for its trip count at evaluation time.
    Loop {
        header: Loop,
        throughput: Throughput,
        startup: f64,
    },
}

#[derive(Debug, Clone)]
enum Throughput {
    /// Innermost loop: precomputed steady-state cycles per iteration.
    Const(f64),
    /// Mixed body: per-iteration cost is the nested replay plus the fixed
    /// non-overlap penalty, evaluated lazily because it depends on trips of
    /// inner loops.
    Nested(CompiledNest),
}

impl CompiledNest {
    fn evaluate(&self, trip: &TripFn) -> f64 {
        let mut total = 0.0;
        for term in &self.terms {
            match term {
                NestTerm::Block(cycles) => total += cycles,
                NestTerm::Loop {
                    header,
                    throughput,
                    startup,
                } => {
                    let trips = trip(header).max(0.0);
                    let per_iter = match throughput {
                        Throughput::Const(c) => *c,
                        Throughput::Nested(inner) => inner.evaluate(trip) + 3.0,
                    };
                    total += trips * per_iter + startup;
                }
            }
        }
        total
    }

    fn evaluate_slots(&self, slots: &TripSlots) -> f64 {
        let mut total = 0.0;
        for term in &self.terms {
            match term {
                NestTerm::Block(cycles) => total += cycles,
                NestTerm::Loop {
                    header,
                    throughput,
                    startup,
                } => {
                    let trips = slots.of(header).max(0.0);
                    let per_iter = match throughput {
                        Throughput::Const(c) => *c,
                        Throughput::Nested(inner) => inner.evaluate_slots(slots) + 3.0,
                    };
                    total += trips * per_iter + startup;
                }
            }
        }
        total
    }
}

/// Compiles the `Machine_cycles_per_iter` analysis of `kernel` on `core`:
/// runs every lowering and scheduling simulation now, so that
/// [`CompiledCycles::evaluate`] needs only trip-count arithmetic.
pub fn compile_parallel_iter_cycles(
    kernel: &Kernel,
    core: &CoreDescriptor,
    load_latency: Option<f64>,
    carry: bool,
) -> CompiledCycles {
    let _timer = hetsel_obs::static_histogram!("hetsel.mca.compile.cycles.ns").start_timer();
    let body = kernel.parallel_body();
    if body.iter().all(|s| matches!(s, Stmt::Assign(_))) {
        let assigns: Vec<&Assign> = body
            .iter()
            .map(|s| match s {
                Stmt::Assign(a) => a,
                _ => unreachable!(),
            })
            .collect();
        let lowered = lower_assigns_opts(&assigns, true, carry);
        let r = simulate(
            &lowered,
            core,
            SimOptions {
                iterations: 16,
                load_latency,
            },
        );
        return CompiledCycles::StraightLine(r.cycles_per_iter);
    }
    CompiledCycles::Nest(compile_nest(body, core, load_latency, carry))
}

fn compile_nest(
    stmts: &[Stmt],
    core: &CoreDescriptor,
    load_latency: Option<f64>,
    carry: bool,
) -> CompiledNest {
    let mut terms = Vec::new();
    let mut run: Vec<&Assign> = Vec::new();
    let flush = |run: &mut Vec<&Assign>, terms: &mut Vec<NestTerm>| {
        if run.is_empty() {
            return;
        }
        let body = lower_assigns_opts(run, false, carry);
        let r = simulate(
            &body,
            core,
            SimOptions {
                iterations: 1,
                load_latency,
            },
        );
        terms.push(NestTerm::Block(r.total_cycles));
        run.clear();
    };
    for s in stmts {
        match s {
            Stmt::Assign(a) => run.push(a),
            Stmt::For(l, body) => {
                flush(&mut run, &mut terms);
                let has_inner_loop = body.iter().any(|s| matches!(s, Stmt::For(..)));
                let (throughput, startup) = if has_inner_loop {
                    (
                        Throughput::Nested(compile_nest(body, core, load_latency, carry)),
                        0.0,
                    )
                } else {
                    let all_assigns: Vec<&Assign> = body
                        .iter()
                        .filter_map(|s| match s {
                            Stmt::Assign(a) => Some(a),
                            Stmt::For(..) => None,
                        })
                        .collect();
                    let lowered = lower_assigns_opts(&all_assigns, true, carry);
                    let r = simulate(
                        &lowered,
                        core,
                        SimOptions {
                            iterations: 16,
                            load_latency,
                        },
                    );
                    (Throughput::Const(r.cycles_per_iter), r.total_cycles / 16.0)
                };
                terms.push(NestTerm::Loop {
                    header: l.clone(),
                    throughput,
                    startup,
                });
            }
        }
    }
    flush(&mut run, &mut terms);
    CompiledNest { terms }
}

/// Partially evaluated [`loadout`](crate::loadout::loadout): dynamic
/// instruction counts with trip counts left symbolic.
#[derive(Debug, Clone)]
pub struct CompiledLoadout {
    terms: Vec<LoadTerm>,
}

#[derive(Debug, Clone)]
enum LoadTerm {
    /// Per-execution instruction counts of a straight-line assignment run.
    Block(Loadout),
    /// A sequential loop and the compiled counts of its body.
    Loop { header: Loop, body: CompiledLoadout },
}

impl CompiledLoadout {
    /// Evaluates the compiled counts under `trip`, reproducing
    /// `loadout(kernel, trip)` exactly.
    pub fn evaluate(&self, trip: &TripFn) -> Loadout {
        let mut out = Loadout::default();
        self.accumulate(trip, 1.0, &mut out);
        out
    }

    /// [`CompiledLoadout::evaluate`] against a dense [`TripSlots`] view;
    /// bit-for-bit identical when `trips.of(l)` agrees with `trip(l)`.
    pub fn evaluate_slots(&self, trips: &TripSlots) -> Loadout {
        let mut out = Loadout::default();
        self.accumulate_slots(trips, 1.0, &mut out);
        out
    }

    fn accumulate_slots(&self, slots: &TripSlots, weight: f64, out: &mut Loadout) {
        for term in &self.terms {
            match term {
                LoadTerm::Block(block) => out.add_scaled(block, weight),
                LoadTerm::Loop { header, body } => {
                    let trips = slots.of(header).max(0.0);
                    out.counts[OpKind::IntAlu.index()] += 2.0 * trips * weight;
                    out.counts[OpKind::Branch.index()] += trips * weight;
                    body.accumulate_slots(slots, weight * trips, out);
                }
            }
        }
    }

    fn accumulate(&self, trip: &TripFn, weight: f64, out: &mut Loadout) {
        for term in &self.terms {
            match term {
                LoadTerm::Block(block) => out.add_scaled(block, weight),
                LoadTerm::Loop { header, body } => {
                    let trips = trip(header).max(0.0);
                    // Per-iteration loop overhead, as in the direct count.
                    out.counts[OpKind::IntAlu.index()] += 2.0 * trips * weight;
                    out.counts[OpKind::Branch.index()] += trips * weight;
                    body.accumulate(trip, weight * trips, out);
                }
            }
        }
    }
}

/// Compiles the instruction-loadout analysis of `kernel`: all lowering
/// happens now, [`CompiledLoadout::evaluate`] is pure arithmetic.
pub fn compile_loadout(kernel: &Kernel) -> CompiledLoadout {
    let _timer = hetsel_obs::static_histogram!("hetsel.mca.compile.loadout.ns").start_timer();
    compile_counts(kernel.parallel_body())
}

fn compile_counts(stmts: &[Stmt]) -> CompiledLoadout {
    let mut terms = Vec::new();
    let mut run: Vec<&Assign> = Vec::new();
    let flush = |run: &mut Vec<&Assign>, terms: &mut Vec<LoadTerm>| {
        if run.is_empty() {
            return;
        }
        let body = lower_assigns(run, false);
        let mut block = Loadout::default();
        for k in ALL_KINDS {
            block.counts[k.index()] = body.count(k) as f64;
        }
        terms.push(LoadTerm::Block(block));
        run.clear();
    };
    for s in stmts {
        match s {
            Stmt::Assign(a) => run.push(a),
            Stmt::For(l, body) => {
                flush(&mut run, &mut terms);
                terms.push(LoadTerm::Loop {
                    header: l.clone(),
                    body: compile_counts(body),
                });
            }
        }
    }
    flush(&mut run, &mut terms);
    CompiledLoadout { terms }
}

impl hetsel_ir::Snap for CompiledCycles {
    fn snap(&self, w: &mut hetsel_ir::SnapWriter) {
        match self {
            CompiledCycles::StraightLine(c) => {
                w.put_u8(0);
                w.put_f64(*c);
            }
            CompiledCycles::Nest(n) => {
                w.put_u8(1);
                n.snap(w);
            }
        }
    }
    fn unsnap(r: &mut hetsel_ir::SnapReader<'_>) -> Result<Self, hetsel_ir::SnapError> {
        Ok(match r.get_u8()? {
            0 => CompiledCycles::StraightLine(r.get_f64()?),
            1 => CompiledCycles::Nest(CompiledNest::unsnap(r)?),
            _ => return Err(hetsel_ir::SnapError::Malformed("bad CompiledCycles tag")),
        })
    }
}

impl hetsel_ir::Snap for Throughput {
    fn snap(&self, w: &mut hetsel_ir::SnapWriter) {
        match self {
            Throughput::Const(c) => {
                w.put_u8(0);
                w.put_f64(*c);
            }
            Throughput::Nested(n) => {
                w.put_u8(1);
                n.snap(w);
            }
        }
    }
    fn unsnap(r: &mut hetsel_ir::SnapReader<'_>) -> Result<Self, hetsel_ir::SnapError> {
        Ok(match r.get_u8()? {
            0 => Throughput::Const(r.get_f64()?),
            1 => Throughput::Nested(CompiledNest::unsnap(r)?),
            _ => return Err(hetsel_ir::SnapError::Malformed("bad Throughput tag")),
        })
    }
}

impl hetsel_ir::Snap for NestTerm {
    fn snap(&self, w: &mut hetsel_ir::SnapWriter) {
        match self {
            NestTerm::Block(c) => {
                w.put_u8(0);
                w.put_f64(*c);
            }
            NestTerm::Loop {
                header,
                throughput,
                startup,
            } => {
                w.put_u8(1);
                header.snap(w);
                throughput.snap(w);
                w.put_f64(*startup);
            }
        }
    }
    fn unsnap(r: &mut hetsel_ir::SnapReader<'_>) -> Result<Self, hetsel_ir::SnapError> {
        Ok(match r.get_u8()? {
            0 => NestTerm::Block(r.get_f64()?),
            1 => NestTerm::Loop {
                header: Loop::unsnap(r)?,
                throughput: Throughput::unsnap(r)?,
                startup: r.get_f64()?,
            },
            _ => return Err(hetsel_ir::SnapError::Malformed("bad NestTerm tag")),
        })
    }
}

hetsel_ir::snap_struct!(CompiledNest { terms });

impl hetsel_ir::Snap for LoadTerm {
    fn snap(&self, w: &mut hetsel_ir::SnapWriter) {
        match self {
            LoadTerm::Block(l) => {
                w.put_u8(0);
                l.snap(w);
            }
            LoadTerm::Loop { header, body } => {
                w.put_u8(1);
                header.snap(w);
                body.snap(w);
            }
        }
    }
    fn unsnap(r: &mut hetsel_ir::SnapReader<'_>) -> Result<Self, hetsel_ir::SnapError> {
        Ok(match r.get_u8()? {
            0 => LoadTerm::Block(Loadout::unsnap(r)?),
            1 => LoadTerm::Loop {
                header: Loop::unsnap(r)?,
                body: CompiledLoadout::unsnap(r)?,
            },
            _ => return Err(hetsel_ir::SnapError::Malformed("bad LoadTerm tag")),
        })
    }
}

hetsel_ir::snap_struct!(CompiledLoadout { terms });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::power9;
    use crate::loadout::{assume_128, loadout};
    use crate::lower::parallel_iter_cycles_opts;
    use hetsel_polybench::suite;

    /// Every kernel in the Polybench suite, both carry settings, several
    /// trip-count regimes: the compiled replay must match the direct
    /// analysis bit for bit.
    #[test]
    fn compiled_cycles_match_direct_bit_for_bit() {
        let core = power9();
        for bench in suite() {
            for kernel in &bench.kernels {
                for carry in [false, true] {
                    let compiled = compile_parallel_iter_cycles(kernel, &core, None, carry);
                    for trips in [0.0, 1.0, 7.0, 128.0, 4000.0] {
                        let trip = move |_: &Loop| trips;
                        let direct = parallel_iter_cycles_opts(kernel, &core, &trip, None, carry);
                        let replayed = compiled.evaluate(&trip);
                        assert_eq!(
                            direct.to_bits(),
                            replayed.to_bits(),
                            "{} carry={carry} trips={trips}: direct {direct} != compiled {replayed}",
                            kernel.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_loadout_matches_direct_bit_for_bit() {
        for bench in suite() {
            for kernel in &bench.kernels {
                let compiled = compile_loadout(kernel);
                let direct = loadout(kernel, &assume_128);
                let replayed = compiled.evaluate(&assume_128);
                assert_eq!(direct, replayed, "{}", kernel.name);
                for (d, r) in direct.counts.iter().zip(replayed.counts.iter()) {
                    assert_eq!(d.to_bits(), r.to_bits(), "{}", kernel.name);
                }
            }
        }
    }

    /// The dense-slot evaluation path must agree bit-for-bit with the
    /// closure path whenever the slots report the same per-loop trips.
    #[test]
    fn slot_evaluation_matches_closure_evaluation() {
        let core = power9();
        for bench in suite() {
            for kernel in &bench.kernels {
                let mut table = hetsel_ir::SymbolTable::new();
                let ct = hetsel_ir::CompiledTrips::compile(kernel, &mut table);
                let n_vars = ct.n_vars();
                let compiled = compile_parallel_iter_cycles(kernel, &core, None, true);
                let counts = compile_loadout(kernel);
                // Uniform regime (the paper's assume-128 abstraction).
                let uniform = TripSlots::uniform(n_vars, 128.0);
                let trip128 = |_: &Loop| 128.0;
                assert_eq!(
                    compiled.evaluate(&trip128).to_bits(),
                    compiled.evaluate_slots(&uniform).to_bits(),
                    "{}",
                    kernel.name
                );
                assert_eq!(
                    counts.evaluate(&trip128),
                    counts.evaluate_slots(&uniform),
                    "{}",
                    kernel.name
                );
                // Per-variable regime.
                let tc = hetsel_ir::trips::resolve(
                    kernel,
                    &hetsel_ir::Binding::new().with("n", 37).with("m", 12),
                );
                let slots = tc.dense(n_vars);
                let trip = |l: &Loop| tc.of(l);
                assert_eq!(
                    compiled.evaluate(&trip).to_bits(),
                    compiled.evaluate_slots(&slots).to_bits(),
                    "{}",
                    kernel.name
                );
                assert_eq!(
                    counts.evaluate(&trip),
                    counts.evaluate_slots(&slots),
                    "{}",
                    kernel.name
                );
            }
        }
    }

    /// Trip counts that vary per loop variable (triangular regimes) must
    /// also replay exactly — the header clone, not just a global constant,
    /// is what the evaluator consults.
    #[test]
    fn compiled_cycles_respect_per_loop_trips() {
        let core = power9();
        for bench in suite() {
            for kernel in &bench.kernels {
                let compiled = compile_parallel_iter_cycles(kernel, &core, None, true);
                let trip = |l: &Loop| (l.var.0 as f64) * 17.0 + 3.0;
                let direct = parallel_iter_cycles_opts(kernel, &core, &trip, None, true);
                assert_eq!(
                    direct.to_bits(),
                    compiled.evaluate(&trip).to_bits(),
                    "{}",
                    kernel.name
                );
            }
        }
    }
}
