//! Property tests for the decision composer's fallback semantics, over
//! fleets of one host and up to three accelerators.
//!
//! The invariant under `Policy::ModelDriven`: **no combination of model
//! outcomes ever yields `Device::Host` unless a finite, non-negative CPU
//! prediction beats (ties included) every usable accelerator
//! prediction.** Everything else — an evaluation error on any side, a
//! NaN, an infinity, a negative time, a missing outcome — must keep the
//! compiler default of offloading (to the primary accelerator) and record
//! why. The single exception is a fleet with no accelerator at all, whose
//! terminal fallback is the host unconditionally.

use hetsel_core::{
    choose_among, Device, DeviceChoice, DeviceId, Fleet, Platform, Policy, Selector,
};
use hetsel_models::ModelError;
use proptest::prelude::*;

type Outcome = Option<Result<f64, ModelError>>;

/// Every shape a model outcome can take: consulted or not, failed with a
/// typed error, or "successful" with a usable, degenerate or poisonous
/// value.
fn outcome() -> BoxedStrategy<Outcome> {
    prop_oneof![
        Just(None),
        Just(Some(Err(ModelError::ZeroTrip))),
        Just(Some(Err(ModelError::ZeroThreads))),
        Just(Some(Err(ModelError::UnboundSymbol { name: "n".into() }))),
        Just(Some(Err(ModelError::UnsupportedShape {
            reason: "prop".into(),
        }))),
        Just(Some(Ok(f64::NAN))),
        Just(Some(Ok(f64::INFINITY))),
        Just(Some(Ok(f64::NEG_INFINITY))),
        Just(Some(Ok(0.0))),
        (1i64..2_000_000).prop_map(|v| Some(Ok(-(v as f64) * 1e-6))),
        (0i64..2_000_000).prop_map(|v| Some(Ok(v as f64 * 1e-6))),
    ]
    .boxed()
}

/// Only outcomes that can never yield a usable prediction.
fn bad_outcome() -> BoxedStrategy<Outcome> {
    prop_oneof![
        Just(None),
        Just(Some(Err(ModelError::ZeroTrip))),
        Just(Some(Err(ModelError::UnboundSymbol { name: "n".into() }))),
        Just(Some(Ok(f64::NAN))),
        Just(Some(Ok(f64::INFINITY))),
        Just(Some(Ok(f64::NEG_INFINITY))),
        (1i64..2_000_000).prop_map(|v| Some(Ok(-(v as f64) * 1e-6))),
    ]
    .boxed()
}

fn usable(o: &Outcome) -> Option<f64> {
    match o {
        Some(Ok(s)) if ModelError::usable_time(*s) => Some(*s),
        _ => None,
    }
}

/// A three-accelerator fleet under labels `a` / `b` / `c` (ids 1 / 2 / 3).
fn fleet_selector() -> Selector {
    let platform = Platform::power9_v100();
    let fleet = Fleet::pair_labeled(&platform, "a")
        .with_accelerator_from("b", &Platform::power8_k80())
        .with_accelerator_from("c", &Platform::power8_p100());
    Selector::new(platform).with_fleet(fleet)
}

const LABELS: [&str; 3] = ["a", "b", "c"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn host_requires_a_finite_cpu_win(cpu in outcome(), a in outcome(), b in outcome(), c in outcome()) {
        let s = fleet_selector();
        prop_assert_eq!(s.policy, Policy::ModelDriven);
        let accels = [a.clone(), b.clone(), c.clone()];
        let d = s.decide_from_outcomes("prop-region", cpu.clone(), &accels);
        if d.device_id.kind() == Device::Host {
            let h = usable(&cpu);
            let best = accels.iter().filter_map(usable).fold(f64::INFINITY, f64::min);
            prop_assert!(
                h.is_some() && best.is_finite() && h.unwrap() <= best,
                "Host chosen without a finite CPU win: cpu={cpu:?} accels={accels:?}"
            );
        }
    }

    #[test]
    fn decision_agrees_with_choose_among(cpu in outcome(), a in outcome(), b in outcome(), c in outcome()) {
        let s = fleet_selector();
        let accels = [a, b, c];
        let d = s.decide_from_outcomes("prop-region", cpu.clone(), &accels);
        // The recorded host prediction is exactly the usable value...
        prop_assert_eq!(d.predicted_cpu_s, usable(&cpu));
        // ...and the chosen device is the shared N-way comparison, which
        // carries the true fleet identity of the winning candidate.
        let times: Vec<Option<f64>> = accels.iter().map(usable).collect();
        match choose_among(usable(&cpu), &times) {
            DeviceChoice::Host => {
                prop_assert_eq!(d.device_id.kind(), Device::Host);
                prop_assert_eq!(&*d.device_name, "host");
                prop_assert!(d.device_id.is_host());
            }
            DeviceChoice::Accelerator(i) => {
                prop_assert_eq!(d.device_id.kind(), Device::Gpu);
                prop_assert_eq!(&*d.device_name, LABELS[i]);
                prop_assert_eq!(d.predicted_gpu_s, times[i]);
            }
        }
        // An outcome that produced no prediction left a recorded reason
        // (when the model was consulted at all).
        prop_assert_eq!(d.cpu_error.is_some(), cpu.is_some() && usable(&cpu).is_none());
    }

    #[test]
    fn decision_agrees_with_the_pair_comparison_when_restricted(cpu in outcome(), gpu in outcome()) {
        // One accelerator: the N-way rule IS the classic pair rule.
        let s = Selector::new(Platform::power9_v100());
        let d = s.decide_from_outcomes("prop-region", cpu.clone(), std::slice::from_ref(&gpu));
        prop_assert_eq!(d.predicted_cpu_s, usable(&cpu));
        prop_assert_eq!(d.predicted_gpu_s, usable(&gpu));
        let expected = match choose_among(d.predicted_cpu_s, &[d.predicted_gpu_s]) {
            DeviceChoice::Host => DeviceId::HOST,
            DeviceChoice::Accelerator(_) => DeviceId(1),
        };
        prop_assert_eq!(d.device_id, expected);
        prop_assert_eq!(d.gpu_error.is_some(), gpu.is_some() && usable(&gpu).is_none());
    }

    #[test]
    fn single_finite_accelerator_wins(k in 0usize..3, t in 1i64..2_000_000) {
        // Host unusable, exactly one accelerator finite: that accelerator
        // must win regardless of its slot.
        let s = fleet_selector();
        let mut accels: [Outcome; 3] = [Some(Ok(f64::NAN)), None, Some(Err(ModelError::ZeroTrip))];
        accels[k] = Some(Ok(t as f64 * 1e-6));
        let d = s.decide_from_outcomes("prop-region", Some(Ok(f64::NAN)), &accels);
        prop_assert_eq!(d.device_id.kind(), Device::Gpu);
        prop_assert_eq!(&*d.device_name, LABELS[k]);
    }

    #[test]
    fn ties_go_to_the_host(t in 0i64..2_000_000, a in bad_outcome(), slack in 1i64..1_000) {
        // The best accelerator exactly ties the host: the host wins. The
        // other slots are unusable or strictly slower, so they can never
        // steal the verdict.
        let s = fleet_selector();
        let tied = t as f64 * 1e-6;
        let slower = Some(Ok(tied + slack as f64 * 1e-6));
        let d = s.decide_from_outcomes(
            "prop-region",
            Some(Ok(tied)),
            &[a, slower, Some(Ok(tied))],
        );
        prop_assert_eq!(d.device_id.kind(), Device::Host);
        prop_assert_eq!(&*d.device_name, "host");
    }

    #[test]
    fn all_unusable_outcomes_offload_to_the_primary(cpu in bad_outcome(), a in bad_outcome(), b in bad_outcome(), c in bad_outcome()) {
        // The pair-era compiler default, generalized: when nothing is
        // usable the request offloads to the primary accelerator. A
        // host-only fleet has no such candidate, so its terminal fallback
        // is the host.
        let accels = [a, b, c];
        let d = fleet_selector().decide_from_outcomes("prop-region", cpu.clone(), &accels);
        prop_assert_eq!(d.device_id.kind(), Device::Gpu);
        prop_assert_eq!(&*d.device_name, "a");
        let host_only = Selector::new(Platform::power9_v100()).with_fleet(Fleet::host_only());
        let d = host_only.decide_from_outcomes("prop-region", cpu, &[]);
        prop_assert_eq!(d.device_id.kind(), Device::Host);
        prop_assert!(d.device_id.is_host());
    }

    #[test]
    fn always_policies_never_consult_outcomes(cpu in outcome(), a in outcome(), b in outcome(), c in outcome()) {
        let accels = [a, b, c];
        let host = fleet_selector().with_policy(Policy::AlwaysHost);
        let d = host.decide_from_outcomes("prop-region", cpu.clone(), &accels);
        prop_assert_eq!(d.device_id.kind(), Device::Host);
        prop_assert_eq!(&*d.device_name, "host");
        let off = fleet_selector().with_policy(Policy::AlwaysOffload);
        let d = off.decide_from_outcomes("prop-region", cpu, &accels);
        prop_assert_eq!(d.device_id.kind(), Device::Gpu);
        prop_assert_eq!(&*d.device_name, "a", "compiler default offloads to the primary");
    }
}
