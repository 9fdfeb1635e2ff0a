//! The allocation budget of a cached request on the serve path: a
//! decide-only line whose decision is cached costs no heap allocation in
//! `serve_lines`, from the bytes read to the reply written — decoding,
//! admission, the cache probe and the reply around the entry's stored
//! bytes — whether it arrives alone or in a pipelined burst.
//!
//! A counting global allocator tallies allocations per thread, as in
//! `hetsel-core`'s `zero_alloc.rs`: a cached decide-only request is
//! answered on the transport thread, so the count on this thread is the
//! whole cost of the line. This is its own test binary because the
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufRead, Read};

use hetsel_core::{DecisionEngine, Dispatcher, DispatcherConfig, Platform, Selector};
use hetsel_polybench::find_kernel;
use hetsel_serve::{serve_lines, DecisionServer, ServeConfig, ServeReply, MAX_IN_FLIGHT};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Hands out up to `per_read` lines per `fill_buf`: one, as a client with
/// one request in flight delivers them, or a burst, as a pipelining client
/// does.
struct LinesPerRead {
    bytes: Vec<u8>,
    pos: usize,
    per_read: usize,
}

impl Read for LinesPerRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LinesPerRead {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let rest = &self.bytes[self.pos..];
        let end = rest
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(self.per_read - 1)
            .map_or(rest.len(), |(i, _)| i + 1);
        Ok(&rest[..end])
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

/// A decide-only request line: `request` is the JSON of its `request`
/// member.
fn line(id: u64, request: &str) -> String {
    format!("{{\"id\":{id},\"request\":{request}}}\n")
}

/// Serves `lines` copies of `request`, `per_read` lines per read, in one
/// session; returns the allocations this thread made inside
/// `serve_lines`.
fn allocs_for(server: &DecisionServer, request: &str, lines: u64, per_read: usize) -> u64 {
    let handle = server.handle();
    let bytes = (0..lines)
        .map(|id| line(id, request))
        .collect::<String>()
        .into_bytes();
    let input = LinesPerRead {
        bytes,
        pos: 0,
        per_read,
    };
    let mut out = Vec::with_capacity(1 << 20);
    let before = allocs_on_this_thread();
    let stats = serve_lines(&handle, input, &mut out).expect("in-memory transport cannot fail");
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        (stats.lines, stats.replies, stats.errors),
        (lines, lines, 0)
    );
    for reply in std::str::from_utf8(&out).unwrap().lines() {
        let reply: ServeReply = serde_json::from_str(reply).unwrap();
        assert_eq!(reply.status(), "ok");
    }
    allocs
}

/// Allocations per cached line: the difference of two session lengths
/// cancels the session's own buffers, which it reuses from burst to burst.
fn allocs_per_line(request: &str, per_read: usize) -> f64 {
    let kernels: Vec<_> = ["gemm", "covar.covar"]
        .map(|name| find_kernel(name).unwrap().0)
        .into();
    let engine = DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels);
    let server = DecisionServer::start(
        Dispatcher::new(engine, DispatcherConfig::default()),
        ServeConfig::default(),
    );
    // Prime: the first line misses and is decided at admission, on the
    // transport thread; the second, the entry's first hit, also renders
    // the entry's reply bytes once; the rest are hits, which also create
    // every lazily registered metric.
    allocs_for(&server, request, 8, 1);
    allocs_for(&server, request, 2 * per_read as u64, per_read);
    let (short, long) = (10 * per_read as u64, 30 * per_read as u64);
    let per_line = (allocs_for(&server, request, long, per_read)
        - allocs_for(&server, request, short, per_read)) as f64
        / (long - short) as f64;
    server.shutdown();
    per_line
}

#[test]
fn a_cached_line_allocates_nothing() {
    let per_line = allocs_per_line(r#"{"region":"gemm","binding":{"n":1024}}"#, 1);
    assert_eq!(
        per_line, 0.0,
        "a cached line took {per_line:.2} allocations"
    );
}

#[test]
fn a_cached_burst_allocates_nothing() {
    let per_line = allocs_per_line(
        r#"{"region":"covar.covar","binding":{"n":1000,"m":1200}}"#,
        MAX_IN_FLIGHT,
    );
    assert_eq!(
        per_line, 0.0,
        "a line of a cached {MAX_IN_FLIGHT}-line burst took {per_line:.2} allocations"
    );
}
