//! `ServeReply::write_json` renders replies without the `Value` tree; the
//! wire must not notice. Over random replies of all three statuses its
//! bytes equal `serde_json::to_string`'s: ids from none to `u64::MAX`,
//! floats including `-0.0`, subnormals, NaN and ±∞ (both write `null`),
//! and strings holding quotes, backslashes, control bytes and multi-byte
//! UTF-8.

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
}
