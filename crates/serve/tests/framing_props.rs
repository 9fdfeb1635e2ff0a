//! Property tests for the transport framing contract: **one reply line
//! per request line, in order, whatever the line contains**. A malformed
//! line — not JSON, not UTF-8, or longer than the line cap — must produce
//! a typed `"status":"error"` reply — never a panic, never a dropped
//! connection, never a skipped slot that would desync the client's reply
//! correlation — however the input is split across reads. Its reply
//! also comes in time linear in the line's length.

use std::io::{BufReader, Cursor};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hetsel_core::{
    DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform, Selector,
};
use hetsel_polybench::{find_kernel, Dataset};
use hetsel_serve::{
    parse_request_line, serve_lines, DecisionServer, ServeConfig, ServeReply, ServeRequest,
    ServerHandle, ShedReason, MAX_LINE_BYTES,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// One server shared by every proptest case: starting threads per case
/// would dominate the test, and the framing contract is per-line, not
/// per-server. The server is leaked so its worker threads survive the
/// whole test binary.
fn handle() -> &'static ServerHandle {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let (kernel, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        );
        let server = DecisionServer::start(
            Dispatcher::new(engine, DispatcherConfig::default()),
            ServeConfig::default(),
        );
        let handle = server.handle();
        std::mem::forget(server);
        handle
    })
}

/// A line of the session script and the reply it must produce.
#[derive(Debug, Clone)]
enum Line {
    /// Well-formed request; expects `"ok"` echoing the id.
    Valid { id: u64 },
    /// Well-formed request with a zero deadline, which has expired by
    /// admission; expects `"shed"` (`deadline_expired`) echoing the id.
    ZeroDeadline { id: u64 },
    /// Not a request; expects `"error"`.
    Garbage(String),
    /// Bytes that are not UTF-8; expects `"error"`.
    InvalidUtf8(Vec<u8>),
    /// `excess` bytes past the line cap; expects a `line_too_long` error.
    TooLong { excess: usize },
    /// Whitespace only; the transport skips it without a reply.
    Blank(String),
}

fn garbage() -> BoxedStrategy<String> {
    let corpus = select(
        vec![
            "not json",
            "{",
            "}",
            "{}",
            "[1,2,3]",
            "nulltrue",
            "{\"id\":}",
            "{\"id\":3}",
            "{\"request\":42}",
            "{\"id\":\"seven\",\"request\":{\"region\":\"gemm\",\"binding\":{}}}",
            "{\"request\":{\"region\":7,\"binding\":{}}}",
            "{\"request\":{\"region\":\"gemm\",\"binding\":{\"n\":\"x\"}}}",
            "{\"request\":{\"region\":\"gemm\",\"binding\":{},\"policy_override\":\"turbo\"}}",
            "{\"id\":1,\"request\":{\"region\":\"gemm\",\"binding\":{\"n\":1}}",
            "\u{1}\u{2}\u{3}",
            "🦀🦀🦀",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
    );
    prop_oneof![
        corpus.boxed(),
        // A bare JSON number: parses as a value, but not as a request.
        (0u64..u64::MAX).prop_map(|n| n.to_string()).boxed(),
    ]
    .boxed()
}

/// A line with at least one byte that can never appear in UTF-8, set
/// among arbitrary non-newline bytes.
fn invalid_utf8() -> BoxedStrategy<Vec<u8>> {
    (vec(0u8..255, 0..24), select(vec![0xc0u8, 0xc1, 0xf5, 0xff]))
        .prop_map(|(mut bytes, bad)| {
            bytes.retain(|&b| b != b'\n');
            let at = bytes.len() / 2;
            bytes.insert(at, bad);
            bytes
        })
        .boxed()
}

fn line() -> BoxedStrategy<Line> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|id| Line::Valid { id }).boxed(),
        (0u64..1_000_000)
            .prop_map(|id| Line::ZeroDeadline { id })
            .boxed(),
        garbage().prop_map(Line::Garbage).boxed(),
        invalid_utf8().prop_map(Line::InvalidUtf8).boxed(),
        (1usize..5000)
            .prop_map(|excess| Line::TooLong { excess })
            .boxed(),
        select(
            vec!["", "   ", "\t"]
                .into_iter()
                .map(String::from)
                .collect()
        )
        .prop_map(Line::Blank)
        .boxed(),
    ]
    .boxed()
}

fn render(line: &Line) -> Vec<u8> {
    let (_, binding) = find_kernel("gemm").unwrap();
    match line {
        Line::Valid { id } => {
            let req = ServeRequest::new(DecisionRequest::new("gemm", binding(Dataset::Benchmark)))
                .with_id(*id);
            serde_json::to_string(&req).unwrap().into_bytes()
        }
        Line::ZeroDeadline { id } => {
            let req = ServeRequest::new(
                DecisionRequest::new("gemm", binding(Dataset::Benchmark))
                    .with_deadline(Duration::ZERO),
            )
            .with_id(*id);
            serde_json::to_string(&req).unwrap().into_bytes()
        }
        Line::Garbage(s) | Line::Blank(s) => s.clone().into_bytes(),
        Line::InvalidUtf8(bytes) => bytes.clone(),
        Line::TooLong { excess } => vec![b'{'; MAX_LINE_BYTES + excess],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_single_line_parses_or_yields_a_typed_error(line in garbage()) {
        // The parser must never panic; when it refuses a line, the refusal
        // is a typed error reply a transport can write back.
        match parse_request_line(&line) {
            Ok(_) => {}
            Err(reply) => prop_assert_eq!(reply.status(), "error"),
        }
    }

    #[test]
    fn every_session_gets_one_reply_per_line_in_order(
        script in vec(line(), 0..12),
        read_size in 1usize..9000,
    ) {
        let input: Vec<u8> = script
            .iter()
            .flat_map(|l| {
                let mut bytes = render(l);
                bytes.push(b'\n');
                bytes
            })
            .collect();
        // The read size splits lines across reads at arbitrary points.
        let reader = BufReader::with_capacity(read_size, Cursor::new(input));
        let mut out = Vec::new();
        let stats = serve_lines(handle(), reader, &mut out)
            .expect("in-memory transport cannot fail");

        let expected: Vec<&Line> = script
            .iter()
            .filter(|l| !matches!(l, Line::Blank(_)))
            .collect();
        prop_assert_eq!(stats.lines, expected.len() as u64);
        prop_assert_eq!(stats.replies, expected.len() as u64, "a line was dropped");

        let replies: Vec<ServeReply> = std::str::from_utf8(&out)
            .expect("replies are UTF-8")
            .lines()
            .map(|l| serde_json::from_str::<ServeReply>(l).expect("reply line parses"))
            .collect();
        prop_assert_eq!(replies.len(), expected.len());
        for (line, reply) in expected.iter().zip(&replies) {
            match line {
                Line::Valid { id } => {
                    prop_assert_eq!(reply.status(), "ok", "{:?} → {:?}", line, reply);
                    prop_assert_eq!(reply.id(), Some(*id));
                }
                Line::ZeroDeadline { id } => {
                    prop_assert!(
                        matches!(
                            reply,
                            ServeReply::Shed { reason: ShedReason::DeadlineExpired, .. }
                        ),
                        "{:?} → {:?}",
                        line,
                        reply
                    );
                    prop_assert_eq!(reply.id(), Some(*id));
                }
                Line::Garbage(_) | Line::InvalidUtf8(_) => {
                    prop_assert_eq!(reply.status(), "error", "{:?} → {:?}", line, reply);
                }
                Line::TooLong { .. } => {
                    prop_assert!(
                        matches!(
                            reply,
                            ServeReply::Error { message, .. } if message.starts_with("line_too_long")
                        ),
                        "{:?}",
                        reply
                    );
                }
                Line::Blank(_) => unreachable!("blanks were filtered"),
            }
        }
    }
}

/// The time of one session of `line` alone, which must get one error
/// reply.
fn time_error_reply(line: &str) -> Duration {
    let mut out = Vec::new();
    let start = Instant::now();
    let stats = serve_lines(handle(), Cursor::new(format!("{line}\n")), &mut out)
        .expect("in-memory transport cannot fail");
    let took = start.elapsed();
    assert_eq!((stats.lines, stats.replies, stats.errors), (1, 1, 1));
    took
}

/// A long line costs time linear in its length, however hostile: a
/// 64 KiB region string costs less than 64 times a 4 KiB one, whether the
/// region is unknown or the line is cut short of its closing brace.
/// Linear growth gives about 16 times; a parser that rescans the rest of
/// the line for every character of a string gives hundreds.
#[test]
fn a_long_line_costs_time_linear_in_its_length() {
    let long = MAX_LINE_BYTES - 64;
    let short = long / 16;
    let unknown_region = |len: usize| {
        format!(
            r#"{{"id":1,"request":{{"region":"{}","binding":{{}}}}}}"#,
            "x".repeat(len)
        )
    };
    let cut_short = |len: usize| {
        let mut line = unknown_region(len);
        line.pop();
        line
    };
    for (shape, line) in [
        (
            "unknown region",
            &unknown_region as &dyn Fn(usize) -> String,
        ),
        ("cut short", &cut_short),
    ] {
        let (long, short) = (line(long), line(short));
        // The fastest of five timings each, taken in turn, so a slow spell
        // of the machine cannot fall on one length only.
        let (mut fastest_long, mut fastest_short) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            fastest_long = fastest_long.min(time_error_reply(&long));
            fastest_short = fastest_short.min(time_error_reply(&short));
        }
        let ratio = fastest_long.as_secs_f64() / fastest_short.as_secs_f64();
        assert!(
            ratio < 64.0,
            "{shape}: a 16x longer line cost {ratio:.0}x the time"
        );
    }
}
