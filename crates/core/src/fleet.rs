//! The device fleet: the N-device generalization of the host/GPU pair.
//!
//! The paper frames selection as a binary CPU-vs-GPU choice, but its own
//! two machines (POWER8 + K80 over PCIe 3.0, POWER9 + V100 over NVLink 2.0)
//! already show that "the GPU" is a *family* of accelerators with different
//! transfer links and occupancy limits. A [`Fleet`] registers one host and
//! any number of accelerators, each carrying its own simulator descriptor
//! and analytical model parameters, under an **interned label** — the single
//! source every metric name, decision, and explain document derives the
//! device's name from, so a renamed device can never desynchronize metrics
//! from reports.
//!
//! Identity is a dense [`DeviceId`]: the host is always id 0 and the i-th
//! registered accelerator is id `i + 1`. The decision cache keys on
//! `(RegionId, DeviceId, resolved params)`; the dispatcher keeps one
//! circuit breaker, one fault plan and one capacity gate per id.
//!
//! The safety net of the whole refactor is the **restriction equivalence**:
//! a fleet restricted to exactly one accelerator ([`Fleet::restrict`])
//! reproduces the classic two-device pair bit for bit (property-tested in
//! `crates/core/tests/fleet_equivalence.rs`).

use std::sync::{Arc, OnceLock};

use crate::platform::Platform;
use crate::selector::Device;
use hetsel_gpusim::GpuDescriptor;
use hetsel_models::GpuModelParams;
use hetsel_obs::Counter;

/// Dense identifier of one device in a [`Fleet`]: the host is always
/// [`DeviceId::HOST`] (0) and the i-th registered accelerator is `i + 1`.
/// The decision cache keys on this `u16` (alongside the region id and the
/// resolved parameter values), so a per-device cache probe neither hashes
/// nor clones a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl DeviceId {
    /// The host's id in every fleet.
    pub const HOST: DeviceId = DeviceId(0);

    /// Cache-scope sentinel for decisions taken against the *whole* fleet
    /// (the default `decide` path), distinguishing them from per-device
    /// scoped decisions (`decide_for`) in the shared cache.
    pub(crate) const FLEET: DeviceId = DeviceId(u16::MAX);

    /// True iff this id names the host.
    pub fn is_host(self) -> bool {
        self == DeviceId::HOST
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What class of device a [`DeviceId`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The host CPU — present in every fleet, the terminal fallback.
    Host,
    /// An offload accelerator.
    Accelerator,
}

impl DeviceKind {
    /// Stable lowercase name (`"host"` / `"accelerator"`), the `kind`
    /// string in explain documents.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Host => "host",
            DeviceKind::Accelerator => "accelerator",
        }
    }

    /// The kind-level [`Device`] view (every accelerator is `Device::Gpu`).
    pub fn device(self) -> Device {
        match self {
            DeviceKind::Host => Device::Host,
            DeviceKind::Accelerator => Device::Gpu,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One registered accelerator: the interned label plus everything the
/// framework needs to model and simulate it.
#[derive(Debug, Clone)]
pub struct AcceleratorDevice {
    /// Interned device label (`Arc` so decisions, metrics and reports share
    /// one allocation — and one spelling).
    label: Arc<str>,
    decisions: DecisionCounter,
    /// Hardware model for the timing simulator (ground truth).
    pub descriptor: GpuDescriptor,
    /// Analytical GPU model parameters (paper Table III) for this device.
    pub model: GpuModelParams,
    /// Dispatch capacity: how many requests may be in flight on this device
    /// at once before admission spills to a peer. `u32::MAX` = unbounded.
    pub capacity: u32,
}

impl AcceleratorDevice {
    /// The interned label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The shared label allocation (what decisions clone).
    pub fn label_arc(&self) -> &Arc<str> {
        &self.label
    }
}

/// A device's `hetsel.core.decisions.<label>` counter, taken from the
/// registry on the first decision for the device and kept beside its
/// label, so a decision counts itself without building the name or
/// searching the registry.
#[derive(Debug, Clone, Default)]
struct DecisionCounter(OnceLock<Arc<Counter>>);

impl DecisionCounter {
    fn get(&self, label: &str) -> &Counter {
        self.0.get_or_init(|| {
            hetsel_obs::registry().counter(&hetsel_obs::metrics::device_metric_name(
                "hetsel.core.decisions",
                label,
            ))
        })
    }
}

/// A registered set of execution targets: one host plus zero or more
/// accelerators, each under a unique interned label.
///
/// Build the classic two-device pair from a [`Platform`] with
/// [`Fleet::pair`], or grow a multi-accelerator fleet with
/// [`Fleet::with_accelerator_from`]:
///
/// ```
/// use hetsel_core::{Fleet, Platform};
///
/// let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "v100")
///     .with_accelerator_from("k80", &Platform::power8_k80());
/// assert_eq!(fleet.len(), 3); // host + v100 + k80
/// assert_eq!(fleet.restrict("k80").unwrap().accelerator_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    host_label: Arc<str>,
    host_decisions: DecisionCounter,
    host_capacity: u32,
    accelerators: Vec<AcceleratorDevice>,
}

impl Fleet {
    /// A fleet with only the host registered.
    pub fn host_only() -> Fleet {
        Fleet {
            host_label: Arc::from("host"),
            host_decisions: DecisionCounter::default(),
            host_capacity: u32::MAX,
            accelerators: Vec::new(),
        }
    }

    /// The classic pair: the platform's host plus its accelerator under the
    /// label `"gpu"` — the fleet [`crate::Selector::new`] installs, which
    /// reproduces every historical metric name and document byte for byte.
    pub fn pair(platform: &Platform) -> Fleet {
        Fleet::pair_labeled(platform, "gpu")
    }

    /// As [`Fleet::pair`] with an explicit accelerator label.
    pub fn pair_labeled(platform: &Platform, label: &str) -> Fleet {
        Fleet::host_only().with_accelerator(label, platform.gpu.clone(), platform.gpu_model.clone())
    }

    /// Builder: registers one more accelerator. Labels are the fleet's
    /// identity and must be unique; re-registering a label panics.
    pub fn with_accelerator(
        mut self,
        label: &str,
        descriptor: GpuDescriptor,
        model: GpuModelParams,
    ) -> Fleet {
        assert!(
            self.device_id_of(label).is_none(),
            "device label `{label}` is already registered in this fleet"
        );
        assert!(
            self.accelerators.len() < usize::from(u16::MAX - 1),
            "fleet is full"
        );
        self.accelerators.push(AcceleratorDevice {
            label: Arc::from(label),
            decisions: DecisionCounter::default(),
            descriptor,
            model,
            capacity: u32::MAX,
        });
        self
    }

    /// Builder: registers `platform`'s accelerator (descriptor and model
    /// parameters) under `label`.
    pub fn with_accelerator_from(self, label: &str, platform: &Platform) -> Fleet {
        self.with_accelerator(label, platform.gpu.clone(), platform.gpu_model.clone())
    }

    /// Builder: sets the dispatch capacity of the device labelled `label`.
    /// Panics on an unknown label (a capacity on a device that does not
    /// exist is a configuration bug, not a runtime condition).
    pub fn with_capacity(mut self, label: &str, capacity: u32) -> Fleet {
        if &*self.host_label == label {
            self.host_capacity = capacity;
            return self;
        }
        match self.accelerators.iter_mut().find(|a| &*a.label == label) {
            Some(accel) => accel.capacity = capacity,
            None => panic!("device label `{label}` is not registered in this fleet"),
        }
        self
    }

    /// The restriction safety net: the same host plus exactly the one
    /// accelerator labelled `label` (id renumbered to 1), or `None` for an
    /// unknown label. A restricted fleet is the classic pair again and
    /// reproduces single-pair decisions bit for bit.
    pub fn restrict(&self, label: &str) -> Option<Fleet> {
        let accel = self.accelerators.iter().find(|a| &*a.label == label)?;
        Some(Fleet {
            host_label: self.host_label.clone(),
            host_decisions: self.host_decisions.clone(),
            host_capacity: self.host_capacity,
            accelerators: vec![accel.clone()],
        })
    }

    /// Total registered devices (host included), always ≥ 1.
    pub fn len(&self) -> usize {
        1 + self.accelerators.len()
    }

    /// False — every fleet has at least the host. (Provided because `len`
    /// exists.)
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of registered accelerators.
    pub fn accelerator_count(&self) -> usize {
        self.accelerators.len()
    }

    /// The registered accelerators, in id order (accelerator `i` is device
    /// id `i + 1`).
    pub fn accelerators(&self) -> &[AcceleratorDevice] {
        &self.accelerators
    }

    /// The host's interned label.
    pub fn host_label(&self) -> &str {
        &self.host_label
    }

    /// The host's shared label allocation.
    pub fn host_label_arc(&self) -> &Arc<str> {
        &self.host_label
    }

    /// The host's dispatch capacity.
    pub fn host_capacity(&self) -> u32 {
        self.host_capacity
    }

    /// The accelerator registered under `id`, if `id` names one.
    pub fn accelerator(&self, id: DeviceId) -> Option<&AcceleratorDevice> {
        self.accel_index(id).map(|i| &self.accelerators[i])
    }

    /// The zero-based accelerator index behind `id`, if `id` names one.
    pub fn accel_index(&self, id: DeviceId) -> Option<usize> {
        let idx = (id.0 as usize).checked_sub(1)?;
        (idx < self.accelerators.len()).then_some(idx)
    }

    /// The device id of accelerator index `index`.
    pub fn accel_id(&self, index: usize) -> Option<DeviceId> {
        (index < self.accelerators.len()).then(|| DeviceId((index + 1) as u16))
    }

    /// The primary accelerator (id 1) — the compiler-default offload
    /// target — or `None` for a host-only fleet.
    pub fn primary_accelerator(&self) -> Option<DeviceId> {
        self.accel_id(0)
    }

    /// What kind of device `id` names, or `None` for an unregistered id.
    pub fn kind(&self, id: DeviceId) -> Option<DeviceKind> {
        if id.is_host() {
            Some(DeviceKind::Host)
        } else {
            self.accel_index(id).map(|_| DeviceKind::Accelerator)
        }
    }

    /// The interned label of `id`, or `None` for an unregistered id.
    pub fn label(&self, id: DeviceId) -> Option<&str> {
        self.label_arc(id).map(|l| &**l)
    }

    /// The shared label allocation of `id`.
    pub fn label_arc(&self, id: DeviceId) -> Option<&Arc<str>> {
        if id.is_host() {
            Some(&self.host_label)
        } else {
            self.accelerator(id).map(|a| &a.label)
        }
    }

    /// The counter of `id`'s decisions, `hetsel.core.decisions.<label>`,
    /// or `None` for an unregistered id.
    pub(crate) fn decisions_counter(&self, id: DeviceId) -> Option<&Counter> {
        if id.is_host() {
            Some(self.host_decisions.get(&self.host_label))
        } else {
            self.accelerator(id).map(|a| a.decisions.get(&a.label))
        }
    }

    /// The dispatch capacity of `id`, or `None` for an unregistered id.
    pub fn capacity(&self, id: DeviceId) -> Option<u32> {
        if id.is_host() {
            Some(self.host_capacity)
        } else {
            self.accelerator(id).map(|a| a.capacity)
        }
    }

    /// Resolves a label back to its device id.
    pub fn device_id_of(&self, label: &str) -> Option<DeviceId> {
        if &*self.host_label == label {
            return Some(DeviceId::HOST);
        }
        self.accelerators
            .iter()
            .position(|a| &*a.label == label)
            .and_then(|i| self.accel_id(i))
    }

    /// Every registered device id, host first then accelerators in id
    /// order.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.len()).map(|i| DeviceId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gpu_fleet() -> Fleet {
        Fleet::pair_labeled(&Platform::power8_k80(), "k80")
            .with_accelerator_from("v100", &Platform::power9_v100())
    }

    #[test]
    fn ids_are_dense_host_first() {
        let fleet = two_gpu_fleet();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.accelerator_count(), 2);
        assert_eq!(fleet.device_id_of("host"), Some(DeviceId::HOST));
        assert_eq!(fleet.device_id_of("k80"), Some(DeviceId(1)));
        assert_eq!(fleet.device_id_of("v100"), Some(DeviceId(2)));
        assert_eq!(fleet.device_id_of("missing"), None);
        assert_eq!(fleet.primary_accelerator(), Some(DeviceId(1)));
        let ids: Vec<DeviceId> = fleet.device_ids().collect();
        assert_eq!(ids, vec![DeviceId(0), DeviceId(1), DeviceId(2)]);
        assert_eq!(fleet.kind(DeviceId(0)), Some(DeviceKind::Host));
        assert_eq!(fleet.kind(DeviceId(2)), Some(DeviceKind::Accelerator));
        assert_eq!(fleet.kind(DeviceId(3)), None);
    }

    #[test]
    fn labels_are_interned_and_unique() {
        let fleet = two_gpu_fleet();
        // The label returned by lookup IS the registered allocation.
        let by_id = fleet.label_arc(DeviceId(2)).unwrap();
        let by_accel = fleet.accelerators()[1].label_arc();
        assert!(Arc::ptr_eq(by_id, by_accel));
        assert_eq!(fleet.label(DeviceId(1)), Some("k80"));
        assert_eq!(fleet.label(DeviceId::HOST), Some("host"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_labels_are_rejected() {
        let _ = two_gpu_fleet().with_accelerator_from("k80", &Platform::power8_k80());
    }

    #[test]
    fn restriction_keeps_one_accelerator() {
        let fleet = two_gpu_fleet().with_capacity("v100", 7);
        let restricted = fleet.restrict("v100").unwrap();
        assert_eq!(restricted.accelerator_count(), 1);
        assert_eq!(restricted.device_id_of("v100"), Some(DeviceId(1)));
        assert_eq!(restricted.capacity(DeviceId(1)), Some(7));
        assert_eq!(restricted.device_id_of("k80"), None);
        assert!(fleet.restrict("missing").is_none());
        // Restriction preserves the interned label allocation.
        assert!(Arc::ptr_eq(
            restricted.label_arc(DeviceId(1)).unwrap(),
            fleet.label_arc(DeviceId(2)).unwrap()
        ));
    }

    #[test]
    fn capacities_default_unbounded() {
        let fleet = two_gpu_fleet()
            .with_capacity("k80", 2)
            .with_capacity("host", 9);
        assert_eq!(fleet.capacity(DeviceId(1)), Some(2));
        assert_eq!(fleet.capacity(DeviceId(2)), Some(u32::MAX));
        assert_eq!(fleet.capacity(DeviceId::HOST), Some(9));
        assert_eq!(fleet.capacity(DeviceId(9)), None);
    }

    #[test]
    fn kind_maps_to_the_legacy_device_enum() {
        assert_eq!(DeviceKind::Host.device(), Device::Host);
        assert_eq!(DeviceKind::Accelerator.device(), Device::Gpu);
        assert_eq!(DeviceKind::Host.name(), "host");
        assert_eq!(DeviceKind::Accelerator.name(), "accelerator");
        assert!(DeviceId::HOST.is_host());
        assert!(!DeviceId(1).is_host());
    }
}
