//! Tentpole acceptance for the fleet generalization: a multi-accelerator
//! fleet restricted to one accelerator reproduces the classic single-pair
//! decisions **bit-for-bit**, across every Polybench kernel, every dataset,
//! and the unresolved-binding edge case.
//!
//! Three comparisons triangulate the guarantee:
//!
//! 1. `Fleet::restrict(label)` vs `Fleet::pair_labeled` on a platform
//!    carrying that accelerator — `Decision`s equal on every field, and
//!    `Explanation`s equal after stripping wall-clock timings.
//! 2. Scoped `DecisionEngine::decide_for(.., id)` on the *full* fleet vs
//!    the pair decision — equal on every field except `device_id`, which
//!    carries the true fleet identity instead of the pair's slot 1.
//! 3. The primary slot of a labeled fleet vs the classic
//!    `Selector::new(platform)` pair — same verdicts and predictions, only
//!    the label spelling differs.

use hetsel_core::{
    AttributeDatabase, Decision, DecisionEngine, Device, DeviceId, Explanation, Fleet,
    PhaseTimings, Platform, Selector,
};
use hetsel_ir::Binding;
use hetsel_polybench::{all_kernels, Dataset};

/// POWER9 host carrying both of the paper's accelerator generations.
fn two_gpu_fleet() -> (Platform, Fleet) {
    let platform = Platform::power9_v100();
    let fleet = Fleet::pair_labeled(&platform, "v100")
        .with_accelerator_from("k80", &Platform::power8_k80());
    (platform, fleet)
}

/// The pair comparator for `label`: the same POWER9 host with that
/// accelerator grafted in as the platform's only GPU.
fn pair_platform(label: &str) -> Platform {
    let mut p = Platform::power9_v100();
    if label == "k80" {
        let donor = Platform::power8_k80();
        p.gpu = donor.gpu;
        p.gpu_model = donor.gpu_model;
    } else {
        assert_eq!(label, "v100", "unknown comparator label");
    }
    p
}

fn engine_for(selector: Selector) -> DecisionEngine {
    let kernels: Vec<_> = all_kernels().into_iter().map(|(_, k, _)| k).collect();
    let db = AttributeDatabase::compile(&kernels, &selector);
    DecisionEngine::from_database(selector, db, 4096)
}

/// Every (region, binding) pair the equivalence must hold for: all suite
/// kernels under all three datasets, plus an empty binding (every model
/// fails with `UnboundSymbol`, exercising the fallback path).
fn all_cases() -> Vec<(String, Binding)> {
    let mut cases = Vec::new();
    for (_, kernel, binding) in all_kernels() {
        for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
            cases.push((kernel.name.clone(), binding(ds)));
        }
        cases.push((kernel.name.clone(), Binding::new()));
    }
    cases
}

/// An explanation with the fields that legitimately differ between two
/// equivalent runs (wall-clock phase timings, cache temperature) blanked.
fn normalized_explanation(engine: &DecisionEngine, region: &str, b: &Binding) -> Explanation {
    let mut e = engine.explain(region, b).expect("region is known");
    e.timings = PhaseTimings::default();
    e.cached = false;
    e
}

#[test]
fn a_restricted_fleet_reproduces_the_pair_bit_for_bit() {
    for label in ["v100", "k80"] {
        let (platform, fleet) = two_gpu_fleet();
        let restricted = fleet.restrict(label).expect("label is registered");
        let eng_restricted = engine_for(Selector::new(platform).with_fleet(restricted));
        let pp = pair_platform(label);
        let pair = Fleet::pair_labeled(&pp, label);
        let eng_pair = engine_for(Selector::new(pp).with_fleet(pair));
        for (region, b) in all_cases() {
            let restricted: Decision = eng_restricted.decide(&region, &b).expect("known region");
            let pair: Decision = eng_pair.decide(&region, &b).expect("known region");
            assert_eq!(
                restricted, pair,
                "restricted[{label}] != pair[{label}] for {region}"
            );
            assert_eq!(
                normalized_explanation(&eng_restricted, &region, &b),
                normalized_explanation(&eng_pair, &region, &b),
                "explanations diverge for {region} on {label}"
            );
        }
    }
}

#[test]
fn a_scoped_decision_on_the_full_fleet_matches_the_pair() {
    let (platform, fleet) = two_gpu_fleet();
    let eng_fleet = engine_for(Selector::new(platform).with_fleet(fleet.clone()));
    for label in ["v100", "k80"] {
        let id = fleet.device_id_of(label).expect("label is registered");
        let pp = pair_platform(label);
        let pair = Fleet::pair_labeled(&pp, label);
        let eng_pair = engine_for(Selector::new(pp).with_fleet(pair));
        for (region, b) in all_cases() {
            let scoped = eng_fleet.decide_for(&region, &b, id).expect("known scope");
            let pair = eng_pair.decide(&region, &b).expect("known region");
            // The scoped decision names the device by its true fleet id;
            // the restriction renumbers it to the pair's slot 1.
            if scoped.device_id.kind() == Device::Host {
                assert!(scoped.device_id.is_host());
            } else {
                assert_eq!(scoped.device_id, id, "{region} chose a foreign device");
            }
            let mut renumbered = scoped.clone();
            renumbered.device_id = pair.device_id;
            assert_eq!(renumbered, pair, "scoped[{label}] != pair for {region}");
        }
    }
}

#[test]
fn the_primary_slot_matches_the_classic_pair_selector() {
    // `Selector::new` is the classic pair under the label "gpu". A labeled
    // two-accelerator fleet restricted to its primary must agree with it
    // on everything but the spelling of the label.
    let (platform, fleet) = two_gpu_fleet();
    let eng_classic = engine_for(Selector::new(platform.clone()));
    let eng_fleet = engine_for(Selector::new(platform).with_fleet(fleet));
    let primary = DeviceId(1);
    for (region, b) in all_cases() {
        let classic = eng_classic.decide(&region, &b).expect("known region");
        let scoped = eng_fleet
            .decide_for(&region, &b, primary)
            .expect("known scope");
        let mut relabeled = scoped.clone();
        relabeled.device_name = classic.device_name.clone();
        assert_eq!(relabeled, classic, "primary slot diverged for {region}");
        if scoped.device_id.kind() == Device::Gpu {
            assert_eq!(&*scoped.device_name, "v100");
        }
    }
}
