//! The allocation budget of a cached request on the serve path: a
//! one-parameter `gemm` line whose decision is cached costs at most
//! [`BUDGET`] heap allocations in `serve_lines`, from the bytes read to
//! the reply written — decoding, admission, the reply and its rendering.
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
use hetsel_serve::{serve_lines, DecisionServer, ServeConfig, ServeReply};

/// Allocations one cached line may take.
const BUDGET: u64 = 12;

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

/// Hands out one line per `fill_buf`, as a client with one request in
/// flight delivers them.
struct LinePerRead {
    bytes: Vec<u8>,
    pos: usize,
}

impl Read for LinePerRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LinePerRead {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let rest = &self.bytes[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        Ok(&rest[..end])
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

fn session(lines: u64) -> LinePerRead {
    let bytes = (0..lines)
        .map(|id| {
            format!(
                "{{\"id\":{id},\"request\":{{\"region\":\"gemm\",\"binding\":{{\"n\":1024}}}}}}\n"
            )
        })
        .collect::<String>()
        .into_bytes();
    LinePerRead { bytes, pos: 0 }
}

/// Serves `lines` cached lines in one session; returns the allocations
/// this thread made inside `serve_lines`.
fn allocs_for(server: &DecisionServer, lines: u64) -> u64 {
    let handle = server.handle();
    let input = session(lines);
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

#[test]
fn a_cached_line_stays_within_its_allocation_budget() {
    let (kernel, _) = find_kernel("gemm").unwrap();
    let engine = DecisionEngine::new(
        Selector::new(Platform::power9_v100()),
        std::slice::from_ref(&kernel),
    );
    let server = DecisionServer::start(
        Dispatcher::new(engine, DispatcherConfig::default()),
        ServeConfig::default(),
    );
    // Prime: the first line misses and is decided by the batcher; the
    // rest are hits, which also create every lazily registered metric.
    allocs_for(&server, 8);
    // The difference of two session lengths cancels the session's own
    // buffers, which it reuses from line to line.
    let (short, long) = (100, 300);
    let per_line =
        (allocs_for(&server, long) - allocs_for(&server, short)) as f64 / (long - short) as f64;
    assert!(
        per_line <= BUDGET as f64,
        "a cached line took {per_line:.2} allocations, over the budget of {BUDGET}"
    );
    server.shutdown();
}
