//! Differential test of the request decoder: `decode_request_line`
//! decodes a line in one pass into a borrowed request, `parse_request_line`
//! owns what it decoded, and `serde_json::from_str::<ServeRequest>` (the
//! `Value`-tree `Deserialize` impl) is the oracle of both.
//!
//! For every generated line, and for byte-level mutations of it:
//! - a line the oracle accepts decodes to an equal `ServeRequest`, and
//!   its borrowed decode reads the same id, region, policy, deadline and
//!   dispatch flag, and the oracle's value for every binding name — the
//!   last entry of a repeated name;
//! - a line the oracle rejects is rejected too, by both, with a `bad
//!   request:` error reply whose id is the oracle's recovered id — the
//!   first top-level `"id"`, and only when the whole line is valid JSON.

use std::borrow::Cow;

use hetsel_core::{DecisionRequest, Policy};
use hetsel_ir::Binding;
use hetsel_serve::{
    decode_request_line, parse_request_line, BorrowedRequest, ServeReply, ServeRequest,
};
use proptest::prelude::*;
use proptest::TestRng;
use serde::Value;

/// What the oracle says about `line`: the request, or the id an error
/// reply must echo.
fn oracle(line: &str) -> Result<ServeRequest, Option<u64>> {
    serde_json::from_str::<ServeRequest>(line).map_err(|_| {
        serde_json::from_str::<Value>(line)
            .ok()
            .and_then(|v| match v.get("id") {
                Some(Value::UInt(n)) => Some(*n),
                Some(Value::Int(n)) => u64::try_from(*n).ok(),
                _ => None,
            })
    })
}

/// Checks a borrowed decode field by field against the oracle's request.
fn borrowed_agrees(borrowed: &BorrowedRequest<'_>, expected: &ServeRequest, line: &str) {
    let request = &expected.request;
    assert_eq!(borrowed.id, expected.id, "id: {line:?}");
    assert_eq!(borrowed.region, request.region(), "region: {line:?}");
    assert_eq!(
        borrowed.policy_override,
        request.policy_override(),
        "policy: {line:?}"
    );
    assert_eq!(borrowed.deadline, request.deadline(), "deadline: {line:?}");
    assert_eq!(borrowed.dispatch, expected.dispatch, "dispatch: {line:?}");
    for (name, value) in request.binding().iter() {
        assert_eq!(
            borrowed.binding.get(name),
            Some(value),
            "binding {name:?}: {line:?}"
        );
    }
    for (name, _) in borrowed.binding.entries() {
        assert_eq!(
            borrowed.binding.get(name),
            request.binding().get(name),
            "binding {name:?}: {line:?}"
        );
    }
}

/// Checks the decoder against the oracle on `line`; returns whether the
/// line was accepted.
fn agree(line: &str) -> bool {
    let borrowed = decode_request_line(line);
    match (oracle(line), parse_request_line(line)) {
        (Ok(expected), Ok(decoded)) => {
            assert_eq!(decoded, expected, "decoded differently: {line:?}");
            borrowed_agrees(&borrowed.expect("parsed, so decoded"), &expected, line);
            true
        }
        (Err(expected_id), Err(reply)) => {
            assert_eq!(
                borrowed.expect_err("refused, so not decoded"),
                reply,
                "both refuse alike: {line:?}"
            );
            match &*reply {
                ServeReply::Error { id, message } => {
                    assert_eq!(*id, expected_id, "recovered id differs: {line:?}");
                    assert!(message.starts_with("bad request: "), "{message:?}");
                }
                other => panic!("a refused line got {other:?}: {line:?}"),
            }
            false
        }
        (Ok(expected), Err(reply)) => {
            panic!("refused a line the oracle reads as {expected:?}: {line:?}: {reply:?}")
        }
        (Err(_), Ok(decoded)) => {
            panic!("accepted a line the oracle refuses, as {decoded:?}: {line:?}")
        }
    }
}

fn pick<'s>(rng: &mut TestRng, options: &[&'s str]) -> &'s str {
    options[rng.below(options.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// Whitespace between tokens, usually none.
fn ws(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", "", "", " ", "\t", "\r\n ", "  "])
}

/// A key, sometimes spelled with a `\u` escape.
fn key(rng: &mut TestRng, name: &str) -> String {
    match name.chars().next() {
        Some(first) if first.is_ascii() && chance(rng, 15) => {
            format!("\"\\u{:04x}{}\"", u32::from(first), &name[1..])
        }
        _ => format!("\"{name}\""),
    }
}

/// Number spellings: mostly plain, then the edge cases the oracle
/// still reads, now and then one it cannot read.
fn number(rng: &mut TestRng) -> String {
    match rng.below(20) {
        0..=11 => rng.below(1_000_000).to_string(),
        12..=18 => pick(
            rng,
            &[
                "0",
                "-0",
                "01",
                "-01",
                "00",
                "1e3",
                "1E3",
                "1.0",
                "-1",
                "0.5",
                "1e-3",
                "1.",
                "-.5",
                "18446744073709551615",
                "9223372036854775807",
                "9223372036854775808",
                "-9223372036854775808",
            ],
        )
        .to_string(),
        _ => pick(
            rng,
            &[
                "18446744073709551616",
                "-9223372036854775809",
                "1-2",
                "-",
                "1e",
                "1e+",
            ],
        )
        .to_string(),
    }
}

/// A string literal, with escapes now and then, and now and then one the
/// oracle cannot read (a lone surrogate, an unknown escape).
fn string(rng: &mut TestRng) -> String {
    if chance(rng, 5) {
        return pick(
            rng,
            &["\"\\ud800\"", "\"\\ud83d\\ude00\"", "\"\\x\"", "\"\\u12\""],
        )
        .to_string();
    }
    pick(
        rng,
        &[
            "\"gemm\"",
            "\"\"",
            "\"x\\ny\"",
            "\"\\u00e9t\\u00E9\"",
            "\"π区🦀\"",
            "\"tab\there\"",
            "\"q\\\"uote\\\\\"",
            "\"\\u+041\"",
            "\"\\/\\b\\f\\r\\t\"",
        ],
    )
    .to_string()
}

/// Any JSON value, nested at most `depth` deep.
fn value(rng: &mut TestRng, depth: u32) -> String {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => number(rng),
        1 => string(rng),
        2 => pick(rng, &["null", "true", "false"]).to_string(),
        3 => pick(rng, &["[]", "{}", "[ ]", "{ }"]).to_string(),
        4 => {
            let items: Vec<String> = (0..rng.below(4)).map(|_| value(rng, depth - 1)).collect();
            format!("[{}]", items.join(&format!("{},{}", ws(rng), ws(rng))))
        }
        _ => {
            let members: Vec<(String, String)> = (0..rng.below(4))
                .map(|_| {
                    let name = pick(rng, &["a", "id", "request", "b\\\"c", ""]);
                    (key(rng, name), value(rng, depth - 1))
                })
                .collect();
            object(rng, members)
        }
    }
}

/// An object from `(key, value)` members, in the given order.
fn object(rng: &mut TestRng, members: Vec<(String, String)>) -> String {
    let mut out = String::from("{");
    out.push_str(ws(rng));
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(ws(rng));
            out.push(',');
            out.push_str(ws(rng));
        }
        out.push_str(&k);
        out.push_str(ws(rng));
        out.push(':');
        out.push_str(ws(rng));
        out.push_str(&v);
    }
    out.push_str(ws(rng));
    out.push('}');
    out
}

/// Shuffles `members`, adds unknown members with nested values, and
/// sometimes repeats a member with a fresh value from `respell`.
fn arrange(
    rng: &mut TestRng,
    mut members: Vec<(String, String)>,
    respell: &mut dyn FnMut(&mut TestRng, &str) -> Option<String>,
) -> Vec<(String, String)> {
    for _ in 0..rng.below(3) {
        let name = pick(rng, &["extra", "note", "Id", "id ", "requests"]);
        members.push((key(rng, name), value(rng, 2)));
    }
    if !members.is_empty() && chance(rng, 35) {
        let i = rng.below(members.len() as u64) as usize;
        let k = members[i].0.clone();
        let name = k.trim_matches('"').to_string();
        let v = respell(rng, &name).unwrap_or_else(|| value(rng, 2));
        members.push((k, v));
    }
    for i in (1..members.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        members.swap(i, j);
    }
    members
}

fn binding(rng: &mut TestRng) -> String {
    if chance(rng, 5) {
        return pick(rng, &["null", "[]", "5", "\"n\""]).to_string();
    }
    // Now and then more entries than a borrowed binding holds inline.
    let entries = if chance(rng, 10) {
        9 + rng.below(4)
    } else {
        rng.below(5)
    };
    let members: Vec<(String, String)> = (0..entries)
        .map(|_| {
            let name = pick(rng, &["n", "ni", "nj", "nk", "m", "é", "tsteps"]);
            let v = if chance(rng, 85) {
                number(rng)
            } else {
                value(rng, 1)
            };
            (key(rng, name), v)
        })
        .collect();
    object(rng, members)
}

fn request_value(rng: &mut TestRng, name: &str) -> Option<String> {
    Some(match name {
        "region" => {
            if chance(rng, 85) {
                pick(
                    rng,
                    &[
                        "\"gemm\"",
                        "\"atax\"",
                        "\"g\\u0065mm\"",
                        "\"no_such\"",
                        "\"\"",
                    ],
                )
                .to_string()
            } else {
                value(rng, 1)
            }
        }
        "binding" => binding(rng),
        "policy_override" => {
            if chance(rng, 85) {
                pick(
                    rng,
                    &[
                        "null",
                        "\"always_host\"",
                        "\"always_offload\"",
                        "\"model_driven\"",
                        "\"model\\u005fdriven\"",
                        "\"Model_Driven\"",
                        "\"turbo\"",
                        "\"\"",
                    ],
                )
                .to_string()
            } else {
                value(rng, 1)
            }
        }
        "deadline_ns" => match rng.below(10) {
            0 => "null".to_string(),
            1 => value(rng, 1),
            _ => number(rng),
        },
        _ => return None,
    })
}

fn request(rng: &mut TestRng) -> String {
    if chance(rng, 4) {
        return value(rng, 1);
    }
    let mut members = Vec::new();
    for name in ["region", "binding", "policy_override", "deadline_ns"] {
        let present = match name {
            "region" | "binding" => 97,
            _ => 40,
        };
        if chance(rng, present) {
            let v = request_value(rng, name).expect("a request member");
            members.push((key(rng, name), v));
        }
    }
    let members = arrange(rng, members, &mut request_value);
    object(rng, members)
}

fn envelope_value(rng: &mut TestRng, name: &str) -> Option<String> {
    Some(match name {
        "id" => match rng.below(10) {
            0 => "null".to_string(),
            1 => value(rng, 1),
            _ => number(rng),
        },
        "request" => request(rng),
        "dispatch" => {
            if chance(rng, 85) {
                pick(rng, &["true", "false", "null"]).to_string()
            } else {
                value(rng, 1)
            }
        }
        _ => return None,
    })
}

/// A request line: mostly well-formed, with the edge cases of every
/// member mixed in.
fn request_line(rng: &mut TestRng) -> String {
    if chance(rng, 3) {
        return value(rng, 2);
    }
    let mut members = Vec::new();
    for (name, present) in [("id", 80), ("request", 96), ("dispatch", 40)] {
        if chance(rng, present) {
            let v = envelope_value(rng, name).expect("an envelope member");
            members.push((key(rng, name), v));
        }
    }
    let members = arrange(rng, members, &mut envelope_value);
    let mut line = ws(rng).to_string();
    line.push_str(&object(rng, members));
    line.push_str(ws(rng));
    if chance(rng, 4) {
        line.push_str(pick(rng, &["x", "}", " {}", "0", "\"", ","]));
    }
    line
}

/// Bytes a mutation inserts: JSON's structural and numeric characters.
const SPLICE: &[u8] = b"\"\\{}[],:-+.eE019 ntfu\t";

/// One to three byte-level edits of `line`; `None` when they leave it
/// invalid UTF-8.
fn mutate(rng: &mut TestRng, line: &str) -> Option<String> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let splice = SPLICE[rng.below(SPLICE.len() as u64) as usize];
        match rng.below(5) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, splice),
            2 if at < bytes.len() => bytes[at] = splice,
            3 => bytes.truncate(at),
            _ => {
                // Copy a span elsewhere: repeats keys and values.
                let from = rng.below(bytes.len() as u64 + 1) as usize;
                let len = rng.below(24) as usize;
                let span: Vec<u8> = bytes[from..(from + len).min(bytes.len())].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Generated lines and ten mutations of each agree with the oracle.
    #[test]
    fn decoder_agrees_with_the_value_tree_oracle(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(&seed.to_string());
        let line = request_line(&mut rng);
        agree(&line);
        for _ in 0..10 {
            if let Some(mutated) = mutate(&mut rng, &line) {
                agree(&mutated);
            }
        }
    }
}

/// The generators reach both sides of the oracle, and error replies with
/// and without a recovered id: a differential test that only ever saw
/// rejections would prove little.
#[test]
fn the_generated_lines_cover_both_verdicts() {
    let mut rng = TestRng::seeded("coverage");
    let (mut accepted, mut with_id, mut without_id, mut dup_envelope) = (0, 0, 0, 0);
    for _ in 0..2000 {
        let line = request_line(&mut rng);
        if line.matches("\"id\"").count() > 1 {
            dup_envelope += 1;
        }
        match oracle(&line) {
            Ok(_) => accepted += 1,
            Err(Some(_)) => with_id += 1,
            Err(None) => without_id += 1,
        }
    }
    assert!(accepted > 200, "{accepted} accepted of 2000");
    assert!(with_id > 100, "{with_id} refused with an id of 2000");
    assert!(
        without_id > 100,
        "{without_id} refused without an id of 2000"
    );
    assert!(dup_envelope > 50, "{dup_envelope} lines repeat \"id\"");
}

fn gemm(binding: Binding) -> DecisionRequest {
    DecisionRequest::new("gemm", binding)
}

/// The cases the decoder is most likely to get wrong, each with the
/// verdict it must reach; every one is also checked against the oracle.
#[test]
fn listed_edge_cases_decode_as_the_oracle_does() {
    let n = |v| Binding::new().with("n", v);
    let ok = |line: &str, id: Option<u64>, request: DecisionRequest, dispatch: bool| {
        assert!(agree(line), "must be accepted: {line:?}");
        let expected = ServeRequest {
            id,
            request,
            dispatch,
        };
        assert_eq!(
            parse_request_line(line).expect("accepted"),
            expected,
            "{line:?}"
        );
    };
    let refused = |line: &str, id: Option<u64>| {
        assert!(!agree(line), "must be refused: {line:?}");
        assert_eq!(
            parse_request_line(line).expect_err("refused").id(),
            id,
            "{line:?}"
        );
    };

    // Key order, whitespace, unknown members with nested values.
    ok(
        " { \"dispatch\" : true ,\t\"x\":{\"a\":[1,{\"b\":null}],\"c\":\"}\"},\r\n\"request\":{\"binding\":{\"n\":5},\"region\":\"gemm\"}, \"id\" : 3 } ",
        Some(3),
        gemm(n(5)),
        true,
    );
    // Duplicates: the first copy wins in the envelope and in `request`,
    // the last inside `binding`.
    ok(
        r#"{"id":1,"id":2,"request":{"region":"gemm","region":7,"binding":{"n":1,"n":2}},"request":5,"dispatch":false,"dispatch":"x"}"#,
        Some(1),
        gemm(n(2)),
        false,
    );
    refused(
        r#"{"id":"x","id":2,"request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    // Escaped keys and values, `\u` included.
    ok(
        r#"{"\u0069d":4,"request":{"region":"g\u0065mm","binding":{"\u006e":1},"policy_override":"model\u005fdriven"}}"#,
        Some(4),
        gemm(n(1)).with_policy(Policy::ModelDriven),
        false,
    );
    // Lone surrogates are not JSON to the oracle: no id.
    refused(
        r#"{"id":5,"request":{"region":"\ud800","binding":{}}}"#,
        None,
    );
    refused(
        r#"{"id":5,"x":"\udc00","request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    // Number spellings the oracle reads leniently.
    ok(
        r#"{"id":-0,"request":{"region":"gemm","binding":{"n":01}}}"#,
        Some(0),
        gemm(n(1)),
        false,
    );
    refused(
        r#"{"id":1e3,"request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    refused(
        r#"{"id":1.0,"request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    refused(
        r#"{"id":7,"request":{"region":"gemm","binding":{"n":1e3}}}"#,
        Some(7),
    );
    ok(
        r#"{"id":18446744073709551615,"request":{"region":"gemm","binding":{}}}"#,
        Some(u64::MAX),
        gemm(Binding::new()),
        false,
    );
    // u64::MAX + 1 is not a number the oracle can read: no id.
    refused(
        r#"{"id":18446744073709551616,"request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    refused(
        r#"{"id":8,"x":18446744073709551616,"request":{"region":"gemm","binding":{}}}"#,
        None,
    );
    // A binding value past i64 is JSON, but not a request.
    refused(
        r#"{"id":9,"request":{"region":"gemm","binding":{"n":9223372036854775808}}}"#,
        Some(9),
    );
    ok(
        r#"{"request":{"region":"gemm","binding":{"n":-9223372036854775808}}}"#,
        None,
        gemm(n(i64::MIN)),
        false,
    );
    // `null` in each optional member.
    ok(
        r#"{"id":null,"request":{"region":"gemm","binding":{},"policy_override":null,"deadline_ns":null},"dispatch":null}"#,
        None,
        gemm(Binding::new()),
        false,
    );
    ok(
        r#"{"request":{"region":"gemm","binding":{},"policy_override":"always_host","deadline_ns":-0}}"#,
        None,
        gemm(Binding::new())
            .with_policy(Policy::AlwaysHost)
            .with_deadline(std::time::Duration::ZERO),
        false,
    );
    refused(
        r#"{"id":2,"request":{"region":"gemm","binding":{},"policy_override":"Model_Driven"}}"#,
        Some(2),
    );
    refused(
        r#"{"id":2,"request":{"region":"gemm","binding":{},"policy_override":1}}"#,
        Some(2),
    );
    refused(
        r#"{"id":2,"request":{"region":"gemm","binding":null}}"#,
        Some(2),
    );
    refused(r#"{"id":2,"request":{"binding":{}}}"#, Some(2));
    refused(r#"{"id":2}"#, Some(2));
    // Trailing bytes, and a top level that is not an object.
    refused(
        r#"{"id":3,"request":{"region":"gemm","binding":{}}}x"#,
        None,
    );
    refused(
        r#"{"id":3,"request":{"region":"gemm","binding":{}}} {}"#,
        None,
    );
    for line in [
        "",
        " ",
        "[1,2]",
        "\"id\"",
        "3",
        "null",
        "{",
        "}",
        "{\"id\":3,}",
        "[{\"id\":3}]",
    ] {
        refused(line, None);
    }
}

/// The borrowed decode keeps what the line spells plainly in the line,
/// decodes an escaped name into a string of its own, and reads a repeated
/// binding name as its last entry, inline or spilled.
#[test]
fn the_borrowed_decode_borrows_plain_names_and_keeps_every_entry() {
    let line = r#"{"id":3,"request":{"region":"gemm","binding":{"n":1,"m":2}}}"#;
    let request = decode_request_line(line).expect("a request");
    assert!(matches!(request.region, Cow::Borrowed("gemm")));
    let entries: Vec<(&str, i64)> = request.binding.entries().collect();
    assert_eq!(entries, [("n", 1), ("m", 2)]);

    let line = r#"{"request":{"region":"ge\u006dm","binding":{"\u006e":4}}}"#;
    let request = decode_request_line(line).expect("a request");
    assert!(matches!(&request.region, Cow::Owned(region) if region == "gemm"));
    assert_eq!(request.binding.get("n"), Some(4));

    // Ten entries, `n` three times: the second copy sits inline, the last
    // one spilled past the eighth entry.
    let line = r#"{"request":{"region":"gemm","binding":{"a":1,"n":2,"b":3,"c":4,"d":5,"e":6,"f":7,"g":8,"n":9,"h":10}}}"#;
    let request = decode_request_line(line).expect("a request");
    assert_eq!(request.binding.entries().count(), 10);
    assert_eq!(request.binding.get("n"), Some(9));
    assert_eq!(request.binding.get("h"), Some(10));
    assert_eq!(request.binding.get("a"), Some(1));
    assert_eq!(request.binding.get("z"), None);
    let owned = request.into_owned();
    assert_eq!(owned.request.binding().len(), 9);
    assert_eq!(owned.request.binding().get("n"), Some(9));
    assert!(agree(line));
}

/// Nesting in an unknown member costs the decoder no call stack: a line
/// nested deeper than any recursive descent could follow is still
/// answered, with its id.
#[test]
fn deep_nesting_in_an_unknown_member_is_stepped_over() {
    let depth = 200_000;
    let line = format!(
        r#"{{"id":6,"x":{}{},"request":{{"region":"gemm","binding":{{}}}}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let request = parse_request_line(&line).expect("deeply nested, but a request");
    assert_eq!(request.id, Some(6));
    let unbalanced = format!(r#"{{"id":6,"x":{}}}"#, "[{\"a\":".repeat(depth));
    assert_eq!(
        parse_request_line(&unbalanced).expect_err("not JSON").id(),
        None
    );
}
