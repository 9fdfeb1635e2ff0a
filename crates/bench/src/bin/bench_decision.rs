//! Micro-benchmark of the decision hot path, exported as machine-readable
//! JSON so a harness (or CI) can track regressions between builds:
//!
//! * `cold_compile_predict` — compile both models from the bare kernel and
//!   predict (no attribute database);
//! * `warm_evaluate` — evaluate the precompiled attribute-database entry;
//! * `cache_hit` — replay a memoized decision (the allocation-free path);
//! * `cache_miss` — evaluate + insert, every call a fresh key;
//! * `cold_start_compile` / `cold_start_snapshot` — process-fresh start to
//!   first decision over the full 24-region suite: compile every model
//!   from IR vs restore the compiled-model snapshot from disk.
//!
//! ```text
//! cargo run --release -p hetsel-bench --bin bench_decision
//! # → results/bench_decision.json
//! cargo run --release -p hetsel-bench --bin bench_decision -- --validate
//! # → checks the written results (snapshot cold start ≥ 10× faster)
//! ```

use hetsel_core::{AttributeDatabase, DecisionEngine, Platform, Selector, DEFAULT_DECISION_CACHE};
use hetsel_ir::Kernel;
use hetsel_polybench::{find_kernel, Dataset};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct BenchRow {
    name: String,
    iters: u64,
    total_ns: u64,
    ns_per_op: f64,
}

#[derive(Serialize)]
struct Doc {
    generator: &'static str,
    platform: String,
    results: Vec<BenchRow>,
}

/// Times `iters` calls of `f` after a short warmup; `ns_per_op` is the
/// wall-clock mean.
fn time(name: &str, iters: u64, mut f: impl FnMut()) -> BenchRow {
    for _ in 0..iters.min(1_000) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total_ns = start.elapsed().as_nanos() as u64;
    let row = BenchRow {
        name: name.to_string(),
        iters,
        total_ns,
        ns_per_op: total_ns as f64 / iters as f64,
    };
    println!(
        "{:<24} {:>12.1} ns/op  ({} iters)",
        row.name, row.ns_per_op, row.iters
    );
    row
}

/// Required cold-start improvement of the snapshot path over the compile
/// path (`--validate`).
const COLD_START_MIN_SPEEDUP: f64 = 10.0;

fn results_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_decision.json")
}

/// `--validate`: re-reads the written results and fails loudly if the
/// snapshot cold start is not at least [`COLD_START_MIN_SPEEDUP`]× faster
/// than the compile cold start — the enforceable form of the snapshot
/// subsystem's reason to exist.
fn validate() -> ! {
    let path = results_path();
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); run bench_decision first",
            path.display()
        )
    });
    let doc: serde::Value = serde_json::from_str(&json).expect("results parse");
    let ns_per_op = |name: &str| -> f64 {
        let rows = match doc.get("results") {
            Some(serde::Value::Array(rows)) => rows,
            other => panic!("results array missing: {other:?}"),
        };
        let row = rows
            .iter()
            .find(|r| matches!(r.get("name"), Some(serde::Value::Str(s)) if s == name))
            .unwrap_or_else(|| panic!("row {name:?} missing from {}", path.display()));
        match row.get("ns_per_op") {
            Some(serde::Value::Float(v)) => *v,
            Some(serde::Value::Int(v)) => *v as f64,
            Some(serde::Value::UInt(v)) => *v as f64,
            other => panic!("ns_per_op missing for {name:?}: {other:?}"),
        }
    };
    let compile = ns_per_op("cold_start_compile");
    let snapshot = ns_per_op("cold_start_snapshot");
    let speedup = compile / snapshot;
    println!(
        "[bench_decision --validate] cold start: compile {compile:.0} ns, snapshot {snapshot:.0} ns → {speedup:.1}× (need ≥ {COLD_START_MIN_SPEEDUP}×)"
    );
    if speedup < COLD_START_MIN_SPEEDUP {
        eprintln!("[bench_decision --validate] FAIL: snapshot cold start too slow");
        std::process::exit(1);
    }
    println!("[bench_decision --validate] OK");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--validate") {
        validate();
    }
    let platform = Platform::power9_v100();
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let b = binding(Dataset::Benchmark);
    let sel = Selector::new(platform.clone());
    let mut results = Vec::new();

    results.push(time("cold_compile_predict", 2_000, || {
        black_box(sel.decide(black_box(&kernel), black_box(&b)));
    }));

    let engine = DecisionEngine::new(
        Selector::new(platform.clone()),
        std::slice::from_ref(&kernel),
    );
    let warm_attrs = engine.database().region("gemm").unwrap();
    results.push(time("warm_evaluate", 20_000, || {
        black_box(sel.decide(black_box(warm_attrs), black_box(&b)));
    }));

    engine.decide("gemm", &b);
    results.push(time("cache_hit", 200_000, || {
        black_box(engine.decide(black_box("gemm"), black_box(&b)));
    }));

    let miss_engine = DecisionEngine::with_capacity(
        Selector::new(platform.clone()),
        std::slice::from_ref(&kernel),
        64,
    );
    let mut mb = b.clone();
    let mut n = 0i64;
    results.push(time("cache_miss", 20_000, || {
        n += 1;
        mb.set("n", 1024 + (n % 1_000_000));
        black_box(miss_engine.decide(black_box("gemm"), black_box(&mb)));
    }));

    // Cold start over the full suite: everything a fresh process does
    // before it can answer its first request. The compile path runs the
    // static analyses for all 24 regions; the snapshot path reads and
    // validates the container from disk. Same selector configuration, same
    // first decision, so the rows are directly comparable.
    let suite: Vec<Kernel> = hetsel_polybench::all_kernels()
        .into_iter()
        .map(|(_, k, _)| k)
        .collect();
    let snap_path =
        std::env::temp_dir().join(format!("bench-decision-{}.hsnp", std::process::id()));
    {
        let sel = Selector::new(platform.clone());
        let db = AttributeDatabase::compile(&suite, &sel);
        let mut bytes = Vec::new();
        db.dump(&sel, &mut bytes).expect("snapshot dumps");
        std::fs::write(&snap_path, &bytes).expect("snapshot is writable");
    }
    // Both closures clear the process-global IPDA memo first: it is what a
    // fresh process starts with, and leaving it warm would let the second
    // "cold" compile silently reuse the first one's analyses. The compile
    // path also rebuilds the kernel IR inside the timed region — a fresh
    // process has to construct what it compiles, while the snapshot path
    // needs no IR at all.
    results.push(time("cold_start_compile", 10, || {
        hetsel_ipda::clear_analysis_memo();
        let suite: Vec<Kernel> = hetsel_polybench::all_kernels()
            .into_iter()
            .map(|(_, k, _)| k)
            .collect();
        let sel = Selector::new(platform.clone());
        let db = AttributeDatabase::compile(&suite, &sel);
        let engine = DecisionEngine::from_database(sel, db, DEFAULT_DECISION_CACHE);
        black_box(engine.decide(black_box("gemm"), black_box(&b)));
    }));
    results.push(time("cold_start_snapshot", 10, || {
        hetsel_ipda::clear_analysis_memo();
        let sel = Selector::new(platform.clone());
        let bytes = std::fs::read(&snap_path).expect("snapshot readable");
        let db = AttributeDatabase::from_snapshot_bytes(&sel, &bytes).expect("snapshot loads");
        let engine = DecisionEngine::from_database(sel, db, DEFAULT_DECISION_CACHE);
        black_box(engine.decide(black_box("gemm"), black_box(&b)));
    }));
    let _ = std::fs::remove_file(&snap_path);

    let doc = Doc {
        generator: "hetsel-bench bench_decision",
        platform: platform.name.to_string(),
        results,
    };
    let path = results_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results/ is creatable");
    }
    let json = serde_json::to_string_pretty(&doc).expect("doc serializes");
    std::fs::write(&path, json).expect("results/bench_decision.json is writable");
    println!("\n[bench_decision] wrote {}", path.display());
}
