//! Burst framing end to end: a client that pipelines gets every reply, in
//! order, one write per burst. Its decide-only lines, cache misses and
//! hits alike, are decided at admission without a batch; its dispatch
//! lines reach the executor a burst at a time.
//!
//! This is its own test binary on purpose: it reads the process-wide
//! `hetsel.serve.window.batch` histogram, which no other test here feeds.

use std::io::{self, Cursor, Write};

use hetsel_core::{
    DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform, Selector,
};
use hetsel_polybench::{find_kernel, Dataset};
use hetsel_serve::{
    serve_lines, DecisionServer, ServeConfig, ServeReply, ServeRequest, MAX_IN_FLIGHT,
};

/// Counts how many times the transport flushed: one per burst.
struct CountingWriter {
    bytes: Vec<u8>,
    flushes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// Serves `input` as one pipelined session; returns the replies' ids (all
/// of them `ok`), the flush count, and how many batches the executor ran.
fn serve_burst(server: &DecisionServer, input: &str) -> (Vec<Option<u64>>, usize, u64) {
    let batches = hetsel_obs::registry().histogram("hetsel.serve.window.batch");
    let before = batches.count();
    let mut out = CountingWriter {
        bytes: Vec::new(),
        flushes: 0,
    };
    let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
    let batched = batches.count() - before;
    assert_eq!((stats.lines, stats.replies, stats.errors), (64, 64, 0));
    let ids = std::str::from_utf8(&out.bytes)
        .unwrap()
        .lines()
        .map(|l| {
            let reply: ServeReply = serde_json::from_str(l).unwrap();
            assert_eq!(reply.status(), "ok");
            reply.id()
        })
        .collect();
    (ids, out.flushes, batched)
}

#[test]
fn sixty_four_pipelined_lines_get_in_order_replies_in_few_batches() {
    let (kernel, binding) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );
    let server = DecisionServer::start(
        Dispatcher::new(engine, DispatcherConfig::default()),
        ServeConfig::default(),
    );
    // Distinct `n` per line from `first_n` on: every line is a cache miss
    // the first time.
    let lines = |first_n: i64, dispatch: bool| -> String {
        (0..64u64)
            .map(|id| {
                let request = DecisionRequest::new(
                    "gemm",
                    binding(Dataset::Benchmark).with("n", first_n + id as i64),
                );
                let mut serve = ServeRequest::new(request).with_id(id);
                if dispatch {
                    serve = serve.with_dispatch();
                }
                format!("{}\n", serde_json::to_string(&serve).unwrap())
            })
            .collect()
    };
    let in_order: Vec<Option<u64>> = (0..64).map(Some).collect();
    // One burst, and so one write, per MAX_IN_FLIGHT lines.
    let bursts = 64 / MAX_IN_FLIGHT;

    // Decide-only misses are decided at admission, on the session's
    // thread: the executor never runs. (One test function on purpose: the
    // batch histogram is process-wide.)
    let misses = lines(64, false);
    let (ids, flushes, batched) = serve_burst(&server, &misses);
    assert_eq!(ids, in_order);
    assert_eq!(flushes, bursts);
    assert_eq!(batched, 0, "{batched} batches for 64 misses");

    // The same lines again are all cached: answered at admission too.
    let (ids, flushes, batched) = serve_burst(&server, &misses);
    assert_eq!(ids, in_order);
    assert_eq!(flushes, bursts);
    assert_eq!(batched, 0, "{batched} batches for 64 cached lines");

    // Dispatch lines: each burst's dispatches are queued under one queue
    // lock, so the executor takes them as one batch.
    let (ids, flushes, batched) = serve_burst(&server, &lines(1024, true));
    server.shutdown();
    assert_eq!(ids, in_order);
    assert_eq!(flushes, bursts);
    assert_eq!(
        batched, bursts as u64,
        "{batched} batches for 64 dispatches"
    );
}
