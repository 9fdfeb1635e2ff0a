//! `ServeReply::write_json` renders replies without the `Value` tree; the
//! wire must not notice. Over random replies of all three statuses its
//! bytes equal `serde_json::to_string`'s: ids from none to `u64::MAX`,
//! floats including `-0.0`, subnormals, NaN and ±∞ (both write `null`),
//! and strings holding quotes, backslashes, control bytes and multi-byte
//! UTF-8. `ServeReply::write_ok_json`, which renders a decided request's
//! reply straight from the engine's `Decision`, is held to the same bytes
//! as the `ok` reply built from that decision, and so is
//! `ServeReply::write_ok_json_rendered` around the decision's stored JSON
//! object, the bytes a decision-cache entry keeps (`DecisionFields`).

use std::sync::Arc;

use hetsel_core::wire::DecisionFields;
use hetsel_core::{BindingClass, CalibrationTag, Decision, Device, DeviceId, Policy};
use hetsel_serve::{ReplyDecision, ReplyDispatch, ServeReply, ShedReason};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

fn flag() -> BoxedStrategy<bool> {
    (0u8..2).prop_map(|b| b == 1).boxed()
}

fn id() -> BoxedStrategy<Option<u64>> {
    prop_oneof![
        Just(None),
        select(vec![
            0,
            1,
            9,
            10,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX
        ])
        .prop_map(Some),
        (0u64..u64::MAX).prop_map(Some),
    ]
    .boxed()
}

fn float() -> BoxedStrategy<f64> {
    prop_oneof![
        select(vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e21,
            1e-7,
            0.1 + 0.2,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
        // Every bit pattern: normals, subnormals, NaN payloads, ±∞.
        (0u64..u64::MAX).prop_map(f64::from_bits),
        -1e4f64..1e4,
    ]
    .boxed()
}

fn opt_float() -> BoxedStrategy<Option<f64>> {
    prop_oneof![Just(None), float().prop_map(Some)].boxed()
}

fn text() -> BoxedStrategy<String> {
    let ch = prop_oneof![
        select(vec![
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{7f}', 'é', 'π', '€', '😀',
            '\u{2028}', '\u{fffd}',
        ]),
        // Every control byte, each spelled out in the JSON.
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("a control byte is a char")),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII is a char")),
    ];
    vec(ch, 0..24)
        .prop_map(|chars| chars.into_iter().collect())
        .boxed()
}

fn decision() -> BoxedStrategy<ReplyDecision> {
    (
        (text(), text()),
        (text(), text()),
        (opt_float(), opt_float()),
        flag(),
    )
        .prop_map(
            |((region, device), (device_name, policy), (cpu, gpu), calibrated)| ReplyDecision {
                region,
                device,
                device_name,
                policy,
                predicted_cpu_s: cpu,
                predicted_gpu_s: gpu,
                calibrated,
            },
        )
        .boxed()
}

/// An engine decision: every device kind and policy, any names and
/// predictions, with and without calibration evidence.
fn engine_decision() -> BoxedStrategy<Decision> {
    let calibration = prop_oneof![
        Just(None),
        (flag(), flag()).prop_map(|(applied, flipped)| Some(CalibrationTag {
            class: BindingClass(0),
            raw_cpu_s: None,
            raw_gpu_s: None,
            cpu_factor: 1.0,
            gpu_factor: 1.0,
            applied,
            flipped,
        })),
    ];
    (
        (text(), text()),
        (flag(), 0u8..3),
        (opt_float(), opt_float()),
        calibration,
    )
        .prop_map(
            |((region, device_name), (gpu, policy), (cpu_s, gpu_s), calibration)| Decision {
                region: Arc::from(region),
                device: if gpu { Device::Gpu } else { Device::Host },
                device_id: DeviceId(u16::from(gpu)),
                device_name: Arc::from(device_name),
                policy: [
                    Policy::AlwaysHost,
                    Policy::AlwaysOffload,
                    Policy::ModelDriven,
                ][usize::from(policy)],
                predicted_cpu_s: cpu_s,
                predicted_gpu_s: gpu_s,
                cpu_error: None,
                gpu_error: None,
                calibration,
            },
        )
        .boxed()
}

fn dispatch() -> BoxedStrategy<ReplyDispatch> {
    (
        text(),
        select(vec![0, 1, 7, u32::MAX]),
        prop_oneof![Just(None), text().prop_map(Some)],
        float(),
    )
        .prop_map(
            |(device_name, attempts, fallback, simulated_s)| ReplyDispatch {
                device_name,
                attempts,
                fallback,
                simulated_s,
            },
        )
        .boxed()
}

fn reply() -> BoxedStrategy<ServeReply> {
    let dispatched = prop_oneof![Just(None), dispatch().prop_map(Some)];
    let ok =
        (id(), decision(), flag(), dispatched).prop_map(|(id, decision, degraded, dispatched)| {
            ServeReply::Ok {
                id,
                decision,
                degraded,
                dispatched,
            }
        });
    let reason = select(vec![
        ShedReason::QueueFull,
        ShedReason::DeadlineExpired,
        ShedReason::ShuttingDown,
    ]);
    let shed = (id(), reason, decision()).prop_map(|(id, reason, decision)| ServeReply::Shed {
        id,
        reason,
        decision,
    });
    let error = (id(), text()).prop_map(|(id, message)| ServeReply::Error { id, message });
    prop_oneof![ok, shed, error].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn write_json_is_byte_identical_to_serde_json(reply in reply(), prefix in text()) {
        let expected = serde_json::to_string(&reply).expect("replies always serialize");
        // write_json appends: whatever the buffer held stays in front.
        let mut out = prefix.clone().into_bytes();
        reply.write_json(&mut out);
        prop_assert_eq!(&out[..prefix.len()], prefix.as_bytes());
        prop_assert_eq!(
            std::str::from_utf8(&out[prefix.len()..]).expect("JSON text is UTF-8"),
            expected.as_str()
        );
    }

    #[test]
    fn write_ok_json_is_byte_identical_to_the_built_reply(
        id in id(),
        decision in engine_decision(),
        prefix in text(),
    ) {
        let built = ServeReply::ok(id, &decision, false, None);
        let expected = serde_json::to_string(&built).expect("replies always serialize");
        let mut out = prefix.clone().into_bytes();
        ServeReply::write_ok_json(&mut out, id, &decision);
        prop_assert_eq!(&out[..prefix.len()], prefix.as_bytes());
        prop_assert_eq!(
            std::str::from_utf8(&out[prefix.len()..]).expect("JSON text is UTF-8"),
            expected.as_str()
        );
    }

    #[test]
    fn an_ok_reply_around_stored_bytes_is_byte_identical_to_the_built_reply(
        id in id(),
        decision in engine_decision(),
        prefix in text(),
    ) {
        let built = ServeReply::ok(id, &decision, false, None);
        let expected = serde_json::to_string(&built).expect("replies always serialize");
        let mut rendered = prefix.clone().into_bytes();
        ServeReply::write_ok_json(&mut rendered, id, &decision);
        // What a cache entry stores for the decision, and the reply the
        // transport wraps around it.
        let mut stored = Vec::new();
        DecisionFields::from(&decision).write_json(&mut stored);
        let mut out = prefix.clone().into_bytes();
        ServeReply::write_ok_json_rendered(&mut out, id, &stored);
        prop_assert_eq!(&out, &rendered);
        prop_assert_eq!(&out[..prefix.len()], prefix.as_bytes());
        prop_assert_eq!(
            std::str::from_utf8(&out[prefix.len()..]).expect("JSON text is UTF-8"),
            expected.as_str()
        );
    }
}
