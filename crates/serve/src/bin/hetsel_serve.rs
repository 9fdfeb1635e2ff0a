//! The `hetsel-serve` binary: the decision service over the full
//! Polybench attribute database.
//!
//! ```text
//! # stdin/stdout, one JSON request per line, one JSON reply per line:
//! echo '{"id":1,"request":{"region":"gemm","binding":{"n":1024}}}' \
//!     | cargo run --release -p hetsel-serve
//!
//! # TCP front-end:
//! cargo run --release -p hetsel-serve -- --tcp 127.0.0.1:7878
//! ```
//!
//! Options: `--tcp ADDR` (default: stdin/stdout), `--queue N` (admission
//! queue capacity, in dispatches), `--batch N` (most queued dispatches
//! taken at once), `--snapshot PATH` (warm the engine from a
//! compiled-model snapshot — written back on first run, reused for
//! near-zero-cost reload after).
//!
//! Replies go out as soon as they are decided. A decide-only request is
//! decided at admission, on the connection's thread, and never waits
//! behind a dispatch: a cached decision straight from the line's own
//! bytes — decoded in place, probed, and answered with the reply bytes
//! its cache entry stores, without a heap allocation — and a cache miss
//! by evaluating the models there. Only
//! `"dispatch":true` requests go to the executor thread. A client may
//! have up to 16 lines in flight per connection, and the lines it wrote
//! together leave as one write. Over TCP, at most 256 connections are
//! served at once, and a client that stops reading is disconnected after
//! 10 s.

use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;

use hetsel_core::{Dispatcher, DispatcherConfig, Platform, Selector};
use hetsel_ir::Kernel;
use hetsel_serve::{
    serve_lines, serve_tcp, warm_engine, DecisionServer, ServeConfig, WarmupSource,
};

fn main() {
    let mut tcp: Option<String> = None;
    let mut snapshot: Option<PathBuf> = None;
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(value("--tcp")),
            "--snapshot" => snapshot = Some(PathBuf::from(value("--snapshot"))),
            "--queue" => {
                config.queue_capacity = value("--queue").parse().expect("--queue takes a count")
            }
            "--batch" => {
                config.max_batch = value("--batch").parse().expect("--batch takes a count")
            }
            other => {
                eprintln!("unknown argument {other:?} (options: --tcp ADDR, --snapshot PATH, --queue N, --batch N)");
                std::process::exit(2);
            }
        }
    }

    let kernels: Vec<Kernel> = hetsel_polybench::all_kernels()
        .into_iter()
        .map(|(_, kernel, _)| kernel)
        .collect();
    // Warm the engine fully — snapshot restore or compile — before any
    // transport accepts a request, so the first caller is never shed or
    // slowed by model compilation.
    let (engine, warmup) = warm_engine(
        Selector::new(Platform::power9_v100()),
        &kernels,
        snapshot.as_deref(),
    );
    match &warmup.source {
        WarmupSource::Snapshot => eprintln!(
            "[hetsel-serve] warmed from snapshot in {:.2} ms ({} regions)",
            warmup.warmup_ns as f64 / 1e6,
            warmup.regions
        ),
        WarmupSource::Compiled => eprintln!(
            "[hetsel-serve] compiled models in {:.2} ms ({} regions)",
            warmup.warmup_ns as f64 / 1e6,
            warmup.regions
        ),
        WarmupSource::Fallback(err) => eprintln!(
            "[hetsel-serve] snapshot unusable ({err}); compiled models in {:.2} ms and refreshed the snapshot",
            warmup.warmup_ns as f64 / 1e6
        ),
    }
    let dispatcher = Dispatcher::new(engine, DispatcherConfig::default());
    let server = DecisionServer::start(dispatcher, config);
    let handle = server.handle();

    match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(&addr).expect("bind --tcp address");
            eprintln!(
                "[hetsel-serve] listening on {} ({} regions)",
                listener.local_addr().expect("bound address"),
                kernels.len()
            );
            serve_tcp(listener, handle)
        }
        None => {
            let stdin = io::stdin();
            let stdout = io::stdout();
            let stats = serve_lines(&handle, BufReader::new(stdin.lock()), stdout.lock())
                .expect("stdio transport");
            let mut err = io::stderr();
            let _ = writeln!(
                err,
                "[hetsel-serve] served {} requests ({} errors)",
                stats.replies, stats.errors
            );
        }
    }
    server.shutdown();
}
