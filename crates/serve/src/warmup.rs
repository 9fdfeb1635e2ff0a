//! Snapshot-backed engine warm-up.
//!
//! A serve process must not shed (or slow-walk) its first real request
//! because it is still compiling models. This module builds the
//! [`DecisionEngine`] *before* any transport starts accepting traffic,
//! preferring a compiled-model snapshot (`--snapshot PATH` on the binary)
//! over the full static-analysis cold path, and reports how long the whole
//! warm-up took through the `hetsel.serve.warmup_ns` gauge.

use hetsel_core::{
    AttributeDatabase, DecisionEngine, Selector, SnapshotError, DEFAULT_DECISION_CACHE,
};
use hetsel_ir::Kernel;
use std::path::Path;
use std::time::Instant;

/// Where the warmed engine's database came from.
#[derive(Debug, Clone, PartialEq)]
pub enum WarmupSource {
    /// Restored from a valid snapshot — no compilation ran.
    Snapshot,
    /// No snapshot path was given; compiled from IR.
    Compiled,
    /// A snapshot path was given but unusable (the typed reason is
    /// attached); compiled from IR and, best-effort, a fresh snapshot was
    /// written back to the path for the next process.
    Fallback(SnapshotError),
}

/// What [`warm_engine`] did, for the startup log line and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupReport {
    /// End-to-end warm-up time (database + engine construction), ns.
    pub warmup_ns: u64,
    /// How the database was obtained.
    pub source: WarmupSource,
    /// Regions the engine can decide for.
    pub regions: usize,
}

/// Builds a ready-to-serve [`DecisionEngine`], from `snapshot` when one is
/// given and valid for `selector`'s configuration, from a full compile
/// otherwise. Sets the `hetsel.serve.warmup_ns` gauge to the elapsed
/// warm-up time either way, so operators can see exactly what the cold
/// path cost this process.
pub fn warm_engine(
    selector: Selector,
    kernels: &[Kernel],
    snapshot: Option<&Path>,
) -> (DecisionEngine, WarmupReport) {
    let start = Instant::now();
    let (database, source) = match snapshot {
        Some(path) => {
            let (db, fallback) = AttributeDatabase::load_or_compile(path, kernels, &selector);
            let source = match fallback {
                None => WarmupSource::Snapshot,
                Some(err) => WarmupSource::Fallback(err),
            };
            (db, source)
        }
        None => (
            AttributeDatabase::compile(kernels, &selector),
            WarmupSource::Compiled,
        ),
    };
    let regions = database.len();
    let engine = DecisionEngine::from_database(selector, database, DEFAULT_DECISION_CACHE);
    let warmup_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hetsel_obs::static_gauge!("hetsel.serve.warmup_ns").set(warmup_ns.min(i64::MAX as u64) as i64);
    (
        engine,
        WarmupReport {
            warmup_ns,
            source,
            regions,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_core::Platform;
    use hetsel_ir::Binding;

    fn kernels() -> Vec<Kernel> {
        hetsel_polybench::atax::kernels()
    }

    fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    #[test]
    fn warm_without_snapshot_compiles() {
        let (engine, report) = warm_engine(selector(), &kernels(), None);
        assert_eq!(report.source, WarmupSource::Compiled);
        assert_eq!(report.regions, 2);
        assert!(report.warmup_ns > 0);
        assert!(hetsel_obs::static_gauge!("hetsel.serve.warmup_ns").get() > 0);
        let d = engine
            .decide("atax.k1", &Binding::new().with("n", 4000))
            .unwrap();
        assert!(d.predicted_cpu_s.unwrap() > 0.0);
    }

    #[test]
    fn warm_from_snapshot_answers_first_request_identically() {
        let dir = std::env::temp_dir().join(format!("hetsel-warmup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atax.hsnp");
        let _ = std::fs::remove_file(&path);

        // First warm-up: path missing → typed fallback, snapshot written.
        let (cold_engine, cold) = warm_engine(selector(), &kernels(), Some(&path));
        assert!(matches!(
            cold.source,
            WarmupSource::Fallback(SnapshotError::Io(_))
        ));
        assert!(path.exists());

        // Second warm-up: snapshot path — no compile, same decisions.
        let (snap_engine, warm) = warm_engine(selector(), &kernels(), Some(&path));
        assert_eq!(warm.source, WarmupSource::Snapshot);
        assert_eq!(warm.regions, cold.regions);
        let binding = Binding::new().with("n", 4000);
        let a = cold_engine.decide("atax.k1", &binding).unwrap();
        let b = snap_engine.decide("atax.k1", &binding).unwrap();
        assert_eq!(a.device_id, b.device_id);
        assert_eq!(
            a.predicted_cpu_s.unwrap().to_bits(),
            b.predicted_cpu_s.unwrap().to_bits()
        );
        assert_eq!(
            a.predicted_gpu_s.unwrap().to_bits(),
            b.predicted_gpu_s.unwrap().to_bits()
        );

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
