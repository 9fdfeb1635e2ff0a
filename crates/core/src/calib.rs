//! Online calibration of the analytical models: streaming bias
//! corrections fitted from observed runtimes and blended back into
//! predictions.
//!
//! The paper's MWP/CWP-style models are static, but the runtime has ground
//! truth flowing through it — every dispatch completion and every
//! [`AdaptiveSelector`](crate::AdaptiveSelector) measurement compares a
//! prediction against what the device actually did. This module closes
//! that loop analytically (the cross-machine black-box calibration idea of
//! Stevens & Klöckner, without the ML stack): a [`Calibrator`] keeps one
//! streaming cell per `(region, device, binding-class)` accumulating the
//! **log-ratio** `ln(observed / predicted)` with Welford's algorithm, and
//! predictions are corrected multiplicatively as
//!
//! ```text
//! corrected = raw * exp(bias)        bias = published mean log-ratio
//! ```
//!
//! Three properties make the correction safe to leave on:
//!
//! * **Cold regions are untouched, bit for bit.** Until a cell has
//!   [`CalibratorConfig::min_samples`] observations *and* its mean moves
//!   past [`CalibratorConfig::epoch_threshold`], nothing is published:
//!   the correction factor is exactly `exp(0) = 1.0` and `raw * 1.0`
//!   is bit-identical to `raw`.
//! * **Corrections are clamped.** A published bias never exceeds
//!   [`CalibratorConfig::max_abs_log`] in magnitude, so one wild
//!   observation cannot swing verdicts by orders of magnitude.
//! * **Cache invalidation is epoch-based.** Decisions are memoized; the
//!   calibrator bumps a global [`Calibrator::epoch`] only when a cell
//!   *publishes* a moved bias, not on every sample, so cached verdicts are
//!   invalidated exactly when a correction that could change them appears.
//!
//! The correction is applied (or merely shadowed) according to
//! [`CalibrationMode`] on the [`Selector`](crate::Selector); the feeding
//! happens in [`Dispatcher`](crate::Dispatcher) completions and
//! [`AdaptiveSelector::run_and_learn`](crate::AdaptiveSelector::run_and_learn).
//! Locks follow the observatory's poison-tolerance idiom: a panicked
//! holder can leave at worst a stale value behind, never a torn one, and
//! calibration keeps answering after an observer thread dies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hetsel_ir::{Binding, Snap};

/// Whether and how calibration participates in decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CalibrationMode {
    /// Calibration is disconnected: no corrections are computed, decisions
    /// carry no calibration tag, and the engine is bit-for-bit the
    /// uncalibrated engine. The default.
    #[default]
    Off,
    /// Corrections are computed and recorded on every decision (tag,
    /// metrics, would-flip flags) but **never alter the verdict or the
    /// predictions** — the dry-run mode for building confidence in the
    /// corrections before trusting them.
    Shadow,
    /// Corrections are blended into the predictions before the comparison:
    /// `corrected = raw * exp(bias)`, confidence-gated and clamped.
    Active,
}

impl CalibrationMode {
    /// Stable lowercase name (`"off"` / `"shadow"` / `"active"`), the
    /// spelling used in explain JSON.
    pub fn name(self) -> &'static str {
        match self {
            CalibrationMode::Off => "off",
            CalibrationMode::Shadow => "shadow",
            CalibrationMode::Active => "active",
        }
    }

    /// Inverse of [`CalibrationMode::name`].
    pub fn parse(s: &str) -> Option<CalibrationMode> {
        match s {
            "off" => Some(CalibrationMode::Off),
            "shadow" => Some(CalibrationMode::Shadow),
            "active" => Some(CalibrationMode::Active),
            _ => None,
        }
    }
}

impl std::fmt::Display for CalibrationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs of a [`Calibrator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratorConfig {
    /// Observations a cell needs before its bias may publish (the
    /// confidence gate). Below this, the correction factor is exactly 1.0.
    pub min_samples: u64,
    /// Clamp on the published bias magnitude, in log space: the correction
    /// factor stays within `[exp(-max_abs_log), exp(max_abs_log)]`.
    pub max_abs_log: f64,
    /// A cell republishes (and bumps the global epoch) only when its mean
    /// log-ratio has moved more than this far from the published value —
    /// epoch-based invalidation instead of per-sample churn.
    pub epoch_threshold: f64,
    /// Bound on the number of cells; the least-recently-touched cell is
    /// spilled to make room.
    pub capacity: usize,
}

impl Default for CalibratorConfig {
    /// Conservative production defaults: three samples before any
    /// correction, corrections clamped to a factor of 4 either way, and
    /// republish when the bias moves by more than 0.1 in log space
    /// (~10.5%).
    fn default() -> CalibratorConfig {
        CalibratorConfig {
            min_samples: 3,
            max_abs_log: 4.0f64.ln(),
            epoch_threshold: 0.1,
            capacity: 4096,
        }
    }
}

impl CalibratorConfig {
    /// The greedy configuration profile feedback uses
    /// ([`AdaptiveSelector`](crate::AdaptiveSelector)): trust a single
    /// observation fully — no sample gate, no clamp, publish on any
    /// movement. After one measurement the corrected prediction *is* the
    /// observation, which reproduces (and generalises) the old
    /// history-beats-model behaviour.
    pub fn greedy() -> CalibratorConfig {
        CalibratorConfig {
            min_samples: 1,
            max_abs_log: f64::INFINITY,
            epoch_threshold: 0.0,
            capacity: 4096,
        }
    }
}

/// A coarse equivalence class of runtime bindings, so corrections learned
/// in one problem-size regime do not leak into a very different one.
///
/// The class is the saturating sum of the bit lengths of the region's
/// *required* parameter values (an unbound required parameter contributes
/// a large sentinel), capped at `u8::MAX`. Bindings that agree on every
/// required parameter always share a class; doubling a problem size moves
/// the class by one per doubled parameter, so each class spans roughly one
/// binary order of magnitude per parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BindingClass(pub u8);

impl BindingClass {
    /// Contribution of an unbound required parameter: large enough that a
    /// fully-unbound binding never shares a class with a small bound one.
    const UNBOUND_BITS: u32 = 63;

    /// The class of `binding` over an explicit parameter list (the
    /// region's required parameters — symbols outside the list cannot
    /// perturb the class, mirroring the decision cache's key discipline).
    pub fn over<'a>(params: impl IntoIterator<Item = &'a str>, binding: &Binding) -> BindingClass {
        let mut bits: u32 = 0;
        for p in params {
            bits = bits.saturating_add(match binding.get(p) {
                Some(v) => 64 - v.unsigned_abs().max(1).leading_zeros(),
                None => BindingClass::UNBOUND_BITS,
            });
        }
        BindingClass(bits.min(u32::from(u8::MAX)) as u8)
    }

    /// The class over every symbol the binding carries — the fallback for
    /// callers without a parameter list.
    pub fn of(binding: &Binding) -> BindingClass {
        BindingClass::over(binding.iter().map(|(name, _)| name), binding)
    }
}

impl std::fmt::Display for BindingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The calibration evidence a [`Decision`](crate::Decision) carries when
/// it was taken with calibration in Shadow or Active mode (`None` in Off
/// mode — an Off-mode decision is bit-identical to the uncalibrated
/// engine's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationTag {
    /// Binding class the corrections were looked up under.
    pub class: BindingClass,
    /// The host model's raw (uncorrected) prediction, seconds.
    pub raw_cpu_s: Option<f64>,
    /// The representative accelerator's raw prediction, seconds.
    pub raw_gpu_s: Option<f64>,
    /// Multiplicative correction applied (Active) or that would apply
    /// (Shadow) to the host prediction; exactly 1.0 while the cell is cold.
    pub cpu_factor: f64,
    /// Correction for the representative accelerator's prediction.
    pub gpu_factor: f64,
    /// True iff the mode was Active and at least one consulted correction
    /// differed from 1.0 — i.e. the decision's predictions really are
    /// corrected values. The serve wire protocol echoes this as
    /// `calibrated`.
    pub applied: bool,
    /// True iff the corrected comparison picks a different device than the
    /// raw one would (in Shadow mode: *would* pick — the verdict itself is
    /// still the raw one).
    pub flipped: bool,
}

/// Welford accumulator over the log-ratio, plus the published bias and the
/// LRU touch stamp, for one cell.
#[derive(Debug, Default, Clone, Copy)]
struct CalibCell {
    count: u64,
    mean: f64,
    m2: f64,
    /// The bias currently blended into predictions (0.0 = none). Updated
    /// only when the confidence gate passes *and* the mean has moved past
    /// the epoch threshold, in the same step that bumps the global epoch —
    /// so a cached decision keyed on an epoch always replays the factor
    /// that was live when it was computed.
    published: f64,
    /// Monotonic touch stamp for LRU spill.
    last_used: u64,
}

/// A point-in-time reading of one calibration cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibRow {
    /// Region (kernel) name.
    pub region: String,
    /// Device label (the fleet's interned spelling).
    pub device: String,
    /// Binding class.
    pub class: BindingClass,
    /// Observations folded in.
    pub samples: u64,
    /// Welford mean of `ln(observed / predicted)`.
    pub mean_log_ratio: f64,
    /// Sample variance of the log-ratio (0 while `samples < 2`).
    pub log_ratio_variance: f64,
    /// The bias currently published into predictions (0 = none yet).
    pub published_log: f64,
    /// The multiplicative factor live predictions are corrected by:
    /// `exp(clamp(published_log))`.
    pub factor: f64,
}

impl serde::Serialize for CalibRow {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("region".to_string(), Value::Str(self.region.clone())),
            ("device".to_string(), Value::Str(self.device.clone())),
            ("class".to_string(), Value::UInt(u64::from(self.class.0))),
            ("samples".to_string(), Value::UInt(self.samples)),
            (
                "mean_log_ratio".to_string(),
                Value::Float(self.mean_log_ratio),
            ),
            (
                "log_ratio_variance".to_string(),
                Value::Float(self.log_ratio_variance),
            ),
            (
                "published_log".to_string(),
                Value::Float(self.published_log),
            ),
            ("factor".to_string(), Value::Float(self.factor)),
        ])
    }
}

impl serde::Deserialize for CalibRow {
    fn from_value(v: &serde::Value) -> Result<CalibRow, serde::Error> {
        use serde::Value;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("missing field {name}")))
        };
        let text = |name: &str| match field(name)? {
            Value::Str(s) => Ok(s.clone()),
            other => Err(serde::Error::msg(format!("bad {name}: {other:?}"))),
        };
        let class = match field("class")? {
            Value::UInt(n) if *n <= u64::from(u8::MAX) => BindingClass(*n as u8),
            Value::Int(n) if (0..=i64::from(u8::MAX)).contains(n) => BindingClass(*n as u8),
            other => return Err(serde::Error::msg(format!("bad class: {other:?}"))),
        };
        Ok(CalibRow {
            region: text("region")?,
            device: text("device")?,
            class,
            samples: <u64 as serde::Deserialize>::from_value(field("samples")?)?,
            mean_log_ratio: <f64 as serde::Deserialize>::from_value(field("mean_log_ratio")?)?,
            log_ratio_variance: <f64 as serde::Deserialize>::from_value(field(
                "log_ratio_variance",
            )?)?,
            published_log: <f64 as serde::Deserialize>::from_value(field("published_log")?)?,
            factor: <f64 as serde::Deserialize>::from_value(field("factor")?)?,
        })
    }
}

/// `(region, device-label, class)` — the calibrator's cell key.
type CellKey = (String, String, BindingClass);

/// The streaming per-`(region, device, binding-class)` correction table.
///
/// See the module docs for the model. Thread-safe; all locks recover from
/// poisoning.
#[derive(Debug)]
pub struct Calibrator {
    config: CalibratorConfig,
    /// Bumped exactly when a cell publishes a moved bias. Cache keys mix
    /// this in (Active mode), so a bump lazily invalidates every cached
    /// decision without touching the cache.
    epoch: AtomicU64,
    /// Monotonic clock for LRU touch stamps.
    tick: AtomicU64,
    cells: RwLock<HashMap<CellKey, Arc<Mutex<CalibCell>>>>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new(CalibratorConfig::default())
    }
}

impl Calibrator {
    /// A calibrator with the given configuration and no cells.
    pub fn new(config: CalibratorConfig) -> Calibrator {
        Calibrator {
            config: CalibratorConfig {
                capacity: config.capacity.max(1),
                ..config
            },
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            cells: RwLock::new(HashMap::new()),
        }
    }

    /// The configuration this calibrator runs with.
    pub fn config(&self) -> &CalibratorConfig {
        &self.config
    }

    /// The current calibration epoch: incremented exactly when some cell
    /// publishes a moved bias. One relaxed atomic load — cheap enough for
    /// the cache-hit decide path.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Finds or creates a cell, spilling the least-recently-touched one
    /// when the table is full.
    fn cell(&self, region: &str, device: &str, class: BindingClass) -> Arc<Mutex<CalibCell>> {
        let key = (region.to_string(), device.to_string(), class);
        if let Some(found) = self
            .cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(found);
        }
        let mut w = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        if !w.contains_key(&key) && w.len() >= self.config.capacity {
            // LRU spill: evict the least-recently-touched cell. An O(n)
            // scan, but only on insert-at-capacity, never on the decide
            // path.
            let victim = w
                .iter()
                .min_by_key(|(_, cell)| {
                    cell.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .last_used
                })
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                w.remove(&victim);
                hetsel_obs::static_counter!("hetsel.core.calib.evicted").inc();
            }
        }
        Arc::clone(w.entry(key).or_default())
    }

    /// Folds one observation in: the *raw* (uncorrected) runtime the model
    /// predicted for `device` on `region` in this binding class, against
    /// what was actually observed. Degenerate samples (non-finite or
    /// non-positive on either side) are rejected. Publishes the cell's
    /// bias — and bumps the global epoch — when the confidence gate passes
    /// and the mean has moved past the epoch threshold.
    pub fn observe(
        &self,
        region: &str,
        device: &str,
        class: BindingClass,
        predicted_s: f64,
        observed_s: f64,
    ) {
        if !(predicted_s.is_finite() && observed_s.is_finite())
            || predicted_s <= 0.0
            || observed_s <= 0.0
        {
            hetsel_obs::static_counter!("hetsel.core.calib.rejected").inc();
            return;
        }
        hetsel_obs::static_counter!("hetsel.core.calib.observe").inc();
        let tick = self.next_tick();
        let cell = self.cell(region, device, class);
        let mut c = cell.lock().unwrap_or_else(PoisonError::into_inner);
        let x = (observed_s / predicted_s).ln();
        c.count += 1;
        let delta = x - c.mean;
        c.mean += delta / c.count as f64;
        c.m2 += delta * (x - c.mean);
        c.last_used = tick;
        if c.count >= self.config.min_samples
            && (c.mean - c.published).abs() > self.config.epoch_threshold
        {
            c.published = c.mean;
            drop(c);
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            hetsel_obs::static_counter!("hetsel.core.calib.publish").inc();
            hetsel_obs::static_gauge!("hetsel.core.calib.epoch")
                .set(i64::try_from(epoch).unwrap_or(i64::MAX));
        }
    }

    /// The multiplicative correction factor for a cell:
    /// `exp(clamp(published_bias))`, or **exactly** `1.0` while nothing is
    /// published (cold cell, gated cell, or no cell at all) — the
    /// bit-for-bit identity guarantee for cold regions.
    pub fn factor(&self, region: &str, device: &str, class: BindingClass) -> f64 {
        let cell = {
            let cells = self.cells.read().unwrap_or_else(PoisonError::into_inner);
            match cells.get(&(region.to_string(), device.to_string(), class)) {
                Some(cell) => Arc::clone(cell),
                None => return 1.0,
            }
        };
        let tick = self.next_tick();
        let mut c = cell.lock().unwrap_or_else(PoisonError::into_inner);
        c.last_used = tick;
        if c.published == 0.0 {
            return 1.0;
        }
        c.published
            .clamp(-self.config.max_abs_log, self.config.max_abs_log)
            .exp()
    }

    /// The current reading for one cell, if it has any samples.
    pub fn lookup(&self, region: &str, device: &str, class: BindingClass) -> Option<CalibRow> {
        let cell = {
            let cells = self.cells.read().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cells.get(&(region.to_string(), device.to_string(), class))?)
        };
        let c = *cell.lock().unwrap_or_else(PoisonError::into_inner);
        (c.count > 0).then(|| self.row(region, device, class, &c))
    }

    /// Every non-empty cell, sorted by `(region, device, class)`.
    pub fn snapshot(&self) -> Vec<CalibRow> {
        let cells = self.cells.read().unwrap_or_else(PoisonError::into_inner);
        let mut rows: Vec<CalibRow> = cells
            .iter()
            .filter_map(|((region, device, class), cell)| {
                let c = *cell.lock().unwrap_or_else(PoisonError::into_inner);
                (c.count > 0).then(|| self.row(region, device, *class, &c))
            })
            .collect();
        drop(cells);
        rows.sort_by(|a, b| (&a.region, &a.device, a.class).cmp(&(&b.region, &b.device, b.class)));
        rows
    }

    fn row(&self, region: &str, device: &str, class: BindingClass, c: &CalibCell) -> CalibRow {
        CalibRow {
            region: region.to_string(),
            device: device.to_string(),
            class,
            samples: c.count,
            mean_log_ratio: c.mean,
            log_ratio_variance: if c.count > 1 {
                c.m2 / (c.count - 1) as f64
            } else {
                0.0
            },
            published_log: c.published,
            factor: if c.published == 0.0 {
                1.0
            } else {
                c.published
                    .clamp(-self.config.max_abs_log, self.config.max_abs_log)
                    .exp()
            },
        }
    }

    /// Number of cells with at least one sample.
    pub fn len(&self) -> usize {
        self.cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner).count > 0)
            .count()
    }

    /// True when no cell has samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restores previously snapshotted cells — the persistence path. Each
    /// row (typically from [`Calibrator::snapshot`], possibly serialized in
    /// between) is reconstructed as a full Welford cell (count, mean,
    /// variance, published bias), replacing any existing cell under the
    /// same key; rows without samples are skipped. If any absorbed row
    /// carries a published bias the global epoch is bumped once, so every
    /// cached verdict that predates the restore is lazily invalidated.
    pub fn absorb(&self, rows: &[CalibRow]) {
        let mut published_any = false;
        for row in rows {
            if row.samples == 0 {
                continue;
            }
            let tick = self.next_tick();
            let cell = self.cell(&row.region, &row.device, row.class);
            let mut c = cell.lock().unwrap_or_else(PoisonError::into_inner);
            c.count = row.samples;
            c.mean = row.mean_log_ratio;
            c.m2 = row.log_ratio_variance * (row.samples.saturating_sub(1)) as f64;
            c.published = row.published_log;
            c.last_used = tick;
            published_any |= row.published_log != 0.0;
        }
        if published_any {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every cell and rewinds nothing else: the epoch keeps
    /// monotonically increasing, so cached decisions from before the reset
    /// stay valid exactly until a new publication occurs.
    pub fn reset(&self) {
        self.cells
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Serializes the current correction table into the same versioned
    /// container the attribute-database snapshots use (payload kind 2, no
    /// fleet fingerprint — corrections are portable across fleets; the
    /// region/device keys simply fail to match foreign cells).
    pub fn dump<W: std::io::Write>(&self, w: &mut W) -> Result<(), crate::snapshot::SnapshotError> {
        let rows = self.snapshot();
        let mut sw = hetsel_ir::SnapWriter::new();
        rows.snap(&mut sw);
        let container = hetsel_ir::snap::seal(hetsel_ir::snap::PAYLOAD_CALIBRATION, 0, sw.bytes());
        w.write_all(&container)?;
        Ok(())
    }

    /// Decodes the rows of a container written by [`Calibrator::dump`],
    /// without touching any table.
    pub fn load_rows<R: std::io::Read>(
        r: &mut R,
    ) -> Result<Vec<CalibRow>, crate::snapshot::SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let payload = hetsel_ir::snap::open(&bytes, hetsel_ir::snap::PAYLOAD_CALIBRATION, None)?;
        let mut rd = hetsel_ir::SnapReader::new(payload);
        let rows = Vec::<CalibRow>::unsnap(&mut rd)?;
        rd.finish()?;
        Ok(rows)
    }

    /// [`Calibrator::load_rows`] followed by [`Calibrator::absorb`]: the
    /// one-call restore path. Returns how many rows were absorbed.
    pub fn restore<R: std::io::Read>(
        &self,
        r: &mut R,
    ) -> Result<usize, crate::snapshot::SnapshotError> {
        let rows = Calibrator::load_rows(r)?;
        self.absorb(&rows);
        Ok(rows.len())
    }
}

hetsel_ir::snap_newtype!(BindingClass);

hetsel_ir::snap_struct!(CalibRow {
    region,
    device,
    class,
    samples,
    mean_log_ratio,
    log_ratio_variance,
    published_log,
    factor,
});

#[cfg(test)]
mod tests {
    use super::*;

    const CLASS: BindingClass = BindingClass(7);

    #[test]
    fn cold_cells_are_exactly_identity() {
        let cal = Calibrator::default();
        assert_eq!(cal.factor("gemm", "gpu", CLASS), 1.0);
        // Below the sample gate: still exactly 1.0, and no epoch bump.
        cal.observe("gemm", "gpu", CLASS, 1.0, 2.0);
        cal.observe("gemm", "gpu", CLASS, 1.0, 2.0);
        assert_eq!(cal.factor("gemm", "gpu", CLASS), 1.0);
        assert_eq!(cal.epoch(), 0);
        let raw = 3.25e-4f64;
        assert_eq!(raw * cal.factor("gemm", "gpu", CLASS), raw, "bit-for-bit");
    }

    #[test]
    fn constant_bias_converges_and_publishes_once() {
        let cal = Calibrator::default();
        // The model under-predicts by exactly 2x, every time.
        for _ in 0..8 {
            cal.observe("conv", "gpu", CLASS, 0.5, 1.0);
        }
        assert_eq!(cal.epoch(), 1, "constant bias republishes exactly once");
        let f = cal.factor("conv", "gpu", CLASS);
        assert!((f - 2.0).abs() < 1e-12, "factor converges to 2.0, got {f}");
        let row = cal.lookup("conv", "gpu", CLASS).unwrap();
        assert_eq!(row.samples, 8);
        assert!((row.mean_log_ratio - 2.0f64.ln()).abs() < 1e-12);
        assert!(row.log_ratio_variance.abs() < 1e-18, "constant series");
    }

    #[test]
    fn corrections_are_clamped() {
        let cal = Calibrator::new(CalibratorConfig {
            min_samples: 1,
            max_abs_log: 2.0f64.ln(),
            epoch_threshold: 0.0,
            capacity: 16,
        });
        // A 1000x surprise publishes, but the factor is clamped to 2x.
        cal.observe("r", "d", CLASS, 1e-3, 1.0);
        let f = cal.factor("r", "d", CLASS);
        assert!((f - 2.0).abs() < 1e-12, "clamped to 2.0, got {f}");
        cal.observe("r2", "d", CLASS, 1.0, 1e-3);
        let f2 = cal.factor("r2", "d", CLASS);
        assert!((f2 - 0.5).abs() < 1e-12, "clamped to 0.5, got {f2}");
    }

    #[test]
    fn degenerate_observations_are_rejected() {
        let cal = Calibrator::new(CalibratorConfig::greedy());
        cal.observe("r", "d", CLASS, f64::NAN, 1.0);
        cal.observe("r", "d", CLASS, 1.0, f64::INFINITY);
        cal.observe("r", "d", CLASS, 0.0, 1.0);
        cal.observe("r", "d", CLASS, 1.0, -1.0);
        assert!(cal.is_empty());
        assert_eq!(cal.epoch(), 0);
        assert_eq!(cal.factor("r", "d", CLASS), 1.0);
    }

    #[test]
    fn epoch_bumps_only_past_the_threshold() {
        let cal = Calibrator::new(CalibratorConfig {
            min_samples: 1,
            max_abs_log: 10.0,
            epoch_threshold: 0.1,
            capacity: 16,
        });
        // ln(1.05) ≈ 0.049 < 0.1: gate passes but the move is too small.
        cal.observe("r", "d", CLASS, 1.0, 1.05);
        assert_eq!(cal.epoch(), 0);
        assert_eq!(cal.factor("r", "d", CLASS), 1.0);
        // A second, larger surprise pushes the mean past the threshold.
        cal.observe("r", "d", CLASS, 1.0, 2.0);
        assert_eq!(cal.epoch(), 1);
        assert!(cal.factor("r", "d", CLASS) > 1.0);
        // More identical samples drift the mean but not past 0.1 again.
        let f = cal.factor("r", "d", CLASS);
        cal.observe("r", "d", CLASS, 1.0, (f * 1.0f64).max(1e-12));
        assert_eq!(cal.epoch(), 1, "no republish within the threshold");
    }

    #[test]
    fn capacity_spills_the_least_recently_touched_cell() {
        let cal = Calibrator::new(CalibratorConfig {
            min_samples: 1,
            max_abs_log: 10.0,
            epoch_threshold: 0.0,
            capacity: 2,
        });
        cal.observe("a", "d", CLASS, 1.0, 2.0);
        cal.observe("b", "d", CLASS, 1.0, 2.0);
        // Touch `a` so `b` is the LRU victim.
        assert!((cal.factor("a", "d", CLASS) - 2.0).abs() < 1e-12);
        cal.observe("c", "d", CLASS, 1.0, 2.0);
        assert!(cal.lookup("a", "d", CLASS).is_some(), "recently touched");
        assert!(cal.lookup("b", "d", CLASS).is_none(), "LRU spilled");
        assert!(cal.lookup("c", "d", CLASS).is_some(), "new cell");
    }

    #[test]
    fn classes_partition_the_corrections() {
        let cal = Calibrator::new(CalibratorConfig::greedy());
        cal.observe("r", "d", BindingClass(10), 1.0, 4.0);
        assert!((cal.factor("r", "d", BindingClass(10)) - 4.0).abs() < 1e-12);
        assert_eq!(
            cal.factor("r", "d", BindingClass(20)),
            1.0,
            "other class cold"
        );
    }

    #[test]
    fn binding_class_tracks_problem_size_and_ignores_irrelevant_symbols() {
        let small = Binding::new().with("n", 64).with("m", 64);
        let big = Binding::new().with("n", 4096).with("m", 4096);
        let params = ["n", "m"];
        let cs = BindingClass::over(params.iter().copied(), &small);
        let cb = BindingClass::over(params.iter().copied(), &big);
        assert_ne!(cs, cb, "orders of magnitude separate classes");
        // Irrelevant symbols cannot perturb the class.
        let padded = small.clone().with("other", 1 << 40);
        assert_eq!(cs, BindingClass::over(params.iter().copied(), &padded));
        // Neighbouring sizes share a class (regime, not exact size).
        let near = Binding::new().with("n", 65).with("m", 64);
        assert_eq!(cs, BindingClass::over(params.iter().copied(), &near));
        // Unbound required parameters are their own regime.
        let unbound = Binding::new().with("n", 64);
        assert_ne!(cs, BindingClass::over(params.iter().copied(), &unbound));
    }

    #[test]
    fn poisoned_calibrator_still_observes_and_answers() {
        let cal = Calibrator::new(CalibratorConfig::greedy());
        cal.observe("gemm", "gpu", CLASS, 1.0, 2.0);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cell = cal.cell("gemm", "gpu", CLASS);
            let _guard = cell.lock().unwrap();
            panic!("holder dies");
        }));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cal.cells.write().unwrap();
            panic!("holder dies");
        }));
        assert!(cal.cells.is_poisoned());
        cal.observe("gemm", "gpu", CLASS, 1.0, 2.0);
        assert_eq!(cal.lookup("gemm", "gpu", CLASS).unwrap().samples, 2);
        assert!((cal.factor("gemm", "gpu", CLASS) - 2.0).abs() < 1e-12);
        cal.reset();
        assert!(cal.is_empty());
    }

    #[test]
    fn snapshot_absorbs_back_into_a_fresh_calibrator() {
        let cal = Calibrator::default();
        for _ in 0..5 {
            cal.observe("conv", "gpu", CLASS, 0.5, 1.0);
            cal.observe("conv", "host", CLASS, 1.0, 0.25);
        }
        let json = serde_json::to_string(&cal.snapshot()).unwrap();
        let rows: Vec<CalibRow> = serde_json::from_str(&json).unwrap();
        let restored = Calibrator::default();
        restored.absorb(&rows);
        assert!(restored.epoch() > 0, "published rows invalidate caches");
        for (device, expect) in [("gpu", 2.0), ("host", 0.25)] {
            let f = restored.factor("conv", device, CLASS);
            assert!(
                (f - expect).abs() < 1e-9,
                "{device}: restored factor {f}, want {expect}"
            );
            assert_eq!(restored.lookup("conv", device, CLASS).unwrap().samples, 5);
        }
    }

    #[test]
    fn snapshot_sorts_and_reports_factors() {
        let cal = Calibrator::new(CalibratorConfig::greedy());
        cal.observe("mvt", "host", BindingClass(3), 2.0, 1.0);
        cal.observe("atax", "v100", BindingClass(5), 1.0, 2.0);
        let rows = cal.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].region, "atax");
        assert!(rows[0].factor > 1.0, "under-prediction corrects upward");
        assert!(rows[1].factor < 1.0, "over-prediction corrects downward");
        assert_eq!(cal.len(), 2);
    }
}
