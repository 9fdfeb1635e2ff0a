//! Golden wire session: the real `hetsel-serve` binary, driven over its
//! stdin/stdout, must answer a fixed session with exactly the bytes in
//! `tests/golden/wire_session.jsonl`.
//!
//! The session is sent twice. First one line at a time, each reply read
//! before the next line is written, so a repeated line is answered from
//! the decision cache at admission. Then all of it again in one write, so
//! hits, misses, refusals and a dispatch share one burst. Every decision
//! is deterministic in its request, so the reply bytes are too; any
//! difference (a float spelling, a field order, an escape, a changed
//! verdict) fails the test.
//!
//! Regenerate after an intentional change to the wire with:
//!
//! ```text
//! HETSEL_UPDATE_GOLDEN=1 cargo test -p hetsel-serve --test wire_golden
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The session, one request line each.
const SESSION: &[&str] = &[
    // A 1-parameter request: a cache miss, decided at admission on the
    // transport thread.
    r#"{"id":1,"request":{"region":"gemm","binding":{"n":1024}}}"#,
    // A 2-parameter request, also a miss.
    r#"{"id":2,"request":{"region":"covar.covar","binding":{"n":1000,"m":1200}}}"#,
    // The same two lines again: 1- and 2-parameter cache hits.
    r#"{"id":1,"request":{"region":"gemm","binding":{"n":1024}}}"#,
    r#"{"id":2,"request":{"region":"covar.covar","binding":{"n":1000,"m":1200}}}"#,
    // A policy override, decided in its own cache partition.
    r#"{"id":5,"request":{"region":"gemm","binding":{"n":1024},"policy_override":"always_host"}}"#,
    // A zero deadline: shed at admission with the degraded default.
    r#"{"id":6,"request":{"region":"gemm","binding":{"n":1024},"deadline_ns":0}}"#,
    // An unknown region: a typed error.
    r#"{"id":7,"request":{"region":"no_such_region","binding":{"n":1024}}}"#,
    // An escaped region name: `gemm`, a hit.
    r#"{"id":8,"request":{"region":"ge\u006dm","binding":{"n":1024}}}"#,
    // A duplicated binding key: the last value wins, a hit.
    r#"{"id":9,"request":{"region":"gemm","binding":{"n":7,"n":1024}}}"#,
    // Ten binding entries, eight of them unused by the region: a hit.
    r#"{"id":10,"request":{"region":"covar.covar","binding":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"m":1200,"h":8,"n":1000}}}"#,
    // Not JSON: an error with no id.
    "GARBAGE",
    // A dispatch that runs on the accelerator.
    r#"{"id":12,"request":{"region":"gemm","binding":{"n":1024}},"dispatch":true}"#,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_session.jsonl")
}

/// Runs the session through the binary and returns everything it wrote
/// to stdout.
fn run_session() -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hetsel-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hetsel-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut out = Vec::new();
    for line in SESSION {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let before = out.len();
        stdout.read_until(b'\n', &mut out).unwrap();
        assert!(out.len() > before, "no reply to {line}");
    }
    let burst: String = SESSION.iter().map(|line| format!("{line}\n")).collect();
    stdin.write_all(burst.as_bytes()).unwrap();
    drop(stdin);
    stdout.read_to_end(&mut out).unwrap();
    assert!(child.wait().expect("hetsel-serve exits").success());
    out
}

#[test]
fn the_binary_answers_the_session_with_the_golden_bytes() {
    let replies = run_session();
    let path = golden_path();
    if std::env::var_os("HETSEL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &replies).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with HETSEL_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        String::from_utf8_lossy(&replies),
        String::from_utf8_lossy(&golden),
        "the wire session drifted from the golden file"
    );
    assert_eq!(replies, golden, "the reply bytes differ");
}
