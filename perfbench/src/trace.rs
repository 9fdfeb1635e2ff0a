//! The traced run (`--trace 1`): per-layer metrics.
//!
//! It makes two short wire runs of the workload, one untraced and one with
//! client-side spans, then replays the same generated inputs in-process and
//! times calls into each layer's public functions as spans:
//!
//! | span                    | call timed                                          |
//! |-------------------------|-----------------------------------------------------|
//! | `transport.serve_lines` | `serve_lines` over an in-memory line and buffer     |
//! | `transport.line`        | parent of the next three, on a second server        |
//! | `transport.decode`      | `parse_request_line`                                |
//! | `server.call`           | `ServerHandle::call`                                |
//! | `transport.encode`      | `serde_json::to_string(&ServeReply)`                |
//! | `engine.decide`         | `DecisionEngine::decide_request`                    |
//! | `engine.hit/miss`       | the same, on a probe engine, split by cache outcome |
//! | `models.*`              | `Selector::predict`, `cpu_model/gpu_model.evaluate` |
//! | `dispatch.*`            | `Dispatcher::dispatch`, cpusim/gpusim `simulate`    |
//! | `obs.accuracy_observe`  | `hetsel_obs::accuracy().observe`                    |
//! | `setup.*`               | `AttributeDatabase::compile`, `from_snapshot_bytes` |
//!
//! Each replay phase runs on its own fresh server or engine and sees every
//! request once, in the wire run's order, so the cache hits and misses of
//! one phase line up with the others request by request. The spans are kept
//! in memory, written as JSONL when the run ends, and every per-layer
//! metric is derived from them.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::{Cursor, Write};
use std::time::{Duration, Instant};

use hetsel_core::{
    AttributeDatabase, DecisionEngine, Dispatcher, DispatcherConfig, Platform, Selector,
};
use hetsel_ir::Kernel;
use hetsel_serve::{parse_request_line, serve_lines, DecisionServer, ServeConfig, ServeReply};

use crate::gen::{GenRequest, Loop, Traffic, Workload};
use crate::wire::{Exchange, LADDER_RPS};
use crate::{check, max_rate_under_slo, stats, wire_checked, Args, Report};

/// Most requests one replay phase times.
const REPLAY_MAX: usize = 3000;
/// Share of `--seconds` the first replay phase may take; it fixes how many
/// requests every later phase replays.
const REPLAY_BUDGET_SHARE: f64 = 0.08;
/// Share of `--seconds` each of the two wire runs takes.
const WIRE_SHARE: f64 = 0.35;
/// Repeats of each set-up step.
const SETUP_REPEATS: usize = 7;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// The request id the span served, if any.
    pub req: Option<u64>,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }

    fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            self.id,
            self.name,
            self.start_ns,
            self.end_ns,
            opt(self.parent),
            opt(self.req)
        )
    }
}

/// An in-memory span sink. Each thread gets its own, with a disjoint id range.
struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(epoch: Instant, id_base: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: id_base,
            spans: Vec::with_capacity(4 * REPLAY_MAX),
        }
    }

    fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: Option<u64>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        let id = self.reserve();
        self.record_as(id, name, start, end, None, req);
    }

    /// Runs `f` as a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, req);
        out
    }
}

fn kernels() -> Vec<Kernel> {
    hetsel_polybench::all_kernels()
        .into_iter()
        .map(|(_, kernel, _)| kernel)
        .collect()
}

fn fresh_server() -> DecisionServer {
    DecisionServer::start(
        Dispatcher::new(check::reference_engine(), DispatcherConfig::default()),
        ServeConfig::default(),
    )
}

/// The wire run's inputs, regenerated from the seed: its warm-up, then up
/// to `REPLAY_MAX` requests in the order the wire client sent them.
fn replay_inputs(
    workload: &Workload,
    seed: u64,
    wire_secs: f64,
) -> (Vec<GenRequest>, Vec<GenRequest>) {
    let mut traffic = Traffic::new(workload, seed);
    let warmup = traffic.warmup();
    let mut measured = Vec::with_capacity(REPLAY_MAX);
    if let Loop::OpenLadder { .. } = workload.drive {
        let rung_secs = wire_secs / LADDER_RPS.len() as f64;
        for rate in LADDER_RPS {
            measured.extend(
                traffic
                    .arrivals(rate, rung_secs)
                    .into_iter()
                    .map(|(_, r)| r),
            );
            if measured.len() >= REPLAY_MAX {
                break;
            }
        }
        measured.truncate(REPLAY_MAX);
    }
    while measured.len() < REPLAY_MAX {
        measured.push(traffic.next());
    }
    (warmup, measured)
}

/// Runs `session` once per client session in its own thread, each over its
/// round-robin share of `requests` (as the wire client spreads them over
/// connections), and returns every session's spans.
fn sessions<F>(
    sessions: usize,
    requests: &[GenRequest],
    epoch: Instant,
    phase: u64,
    session: F,
) -> Vec<Span>
where
    F: Fn(&mut Recorder, Vec<&GenRequest>) + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|k| {
                let share: Vec<&GenRequest> = requests.iter().skip(k).step_by(sessions).collect();
                let session = &session;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, (phase << 40) | ((k as u64) << 32));
                    session(&mut rec, share);
                    rec.spans
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay session panicked"))
            .collect()
    })
}

/// Counters the replay keeps beside its spans.
#[derive(Default)]
struct Counts {
    replayed: usize,
    /// Ids of the replayed requests sent with `"dispatch":true`.
    dispatched: HashSet<u64>,
    windows: u64,
    batch_sum: u64,
    shed: u64,
    engine_hits: u64,
    engine_misses: u64,
    dispatches: u64,
    attempts: u64,
    fallbacks: u64,
}

/// The in-process replay: every layer timed over the same requests.
fn replay(args: &Args, wire_secs: f64, epoch: Instant) -> Result<(Vec<Span>, Counts), String> {
    let names = Traffic::new(&args.workload, args.seed).region_names();
    let (warmup, candidates) = replay_inputs(&args.workload, args.seed, wire_secs);
    let n_sessions = args.workload.sessions();
    let mut spans = Vec::new();
    let mut counts = Counts::default();

    // serve_lines per line. Its time budget fixes the replayed set.
    let server = fresh_server();
    let handle = server.handle();
    for r in &warmup {
        handle.call(r.serve_request(&names));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * REPLAY_BUDGET_SHARE);
    let p1 = sessions(n_sessions, &candidates, epoch, 1, |rec, share| {
        for r in share {
            if Instant::now() >= deadline {
                break;
            }
            let line = format!("{}\n", r.line(&names));
            let mut out = Vec::with_capacity(512);
            rec.time("transport.serve_lines", None, Some(r.id), || {
                serve_lines(&handle, Cursor::new(line.as_bytes()), &mut out)
            })
            .expect("in-memory transport never fails");
        }
    });
    server.shutdown();
    let done: HashSet<u64> = p1.iter().filter_map(|s| s.req).collect();
    let requests: Vec<GenRequest> = candidates
        .into_iter()
        .filter(|r| done.contains(&r.id))
        .collect();
    spans.extend(p1);
    counts.replayed = requests.len();
    counts.dispatched = requests
        .iter()
        .filter(|r| r.dispatch)
        .map(|r| r.id)
        .collect();

    // decode → call → encode, with the coalescing-window histogram read
    // around the phase.
    let server = fresh_server();
    let handle = server.handle();
    for r in &warmup {
        handle.call(r.serve_request(&names));
    }
    let batches = hetsel_obs::registry().histogram("hetsel.serve.window.batch");
    let (count0, sum0) = (batches.count(), batches.sum());
    let shed = std::sync::atomic::AtomicU64::new(0);
    spans.extend(sessions(n_sessions, &requests, epoch, 2, |rec, share| {
        for r in share {
            let line = r.line(&names);
            let id = Some(r.id);
            let root = rec.reserve();
            let start = Instant::now();
            let request = rec
                .time("transport.decode", Some(root), id, || {
                    parse_request_line(&line)
                })
                .expect("generated lines always parse");
            let reply = rec.time("server.call", Some(root), id, || handle.call(request));
            if matches!(reply, ServeReply::Shed { .. }) {
                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            let rendered = rec.time("transport.encode", Some(root), id, || {
                serde_json::to_string(&reply).expect("replies always serialize")
            });
            black_box(rendered);
            rec.record_as(root, "transport.line", start, Instant::now(), None, id);
        }
    }));
    counts.windows = batches.count() - count0;
    counts.batch_sum = batches.sum() - sum0;
    counts.shed = shed.into_inner();
    server.shutdown();

    let mut rec = Recorder::new(epoch, 3 << 40);
    let selector = Selector::new(Platform::power9_v100());
    let kernels = kernels();

    // The engine alone, warmed as the server was.
    let engine = check::reference_engine();
    for r in &warmup {
        engine.decide_request(&r.decision_request(&names));
    }
    let before = engine.stats();
    for r in &requests {
        let request = r.decision_request(&names);
        rec.time("engine.decide", None, Some(r.id), || {
            engine.decide_request(&request)
        });
    }
    let after = engine.stats();
    counts.engine_hits = after.hits - before.hits;
    counts.engine_misses = after.misses - before.misses;

    // Hit and miss cost on a probe engine large enough to keep every key:
    // the first pass misses on each new key, the second hits on all.
    let probe = DecisionEngine::with_capacity(selector.clone(), &kernels, 1 << 17);
    for pass in 0..2 {
        for r in &requests {
            let request = r.decision_request(&names);
            let misses = probe.stats().misses;
            let start = Instant::now();
            black_box(probe.decide_request(&request));
            let end = Instant::now();
            let missed = pass == 0 && probe.stats().misses > misses;
            rec.record(
                if missed { "engine.miss" } else { "engine.hit" },
                start,
                end,
                Some(r.id),
            );
        }
    }

    // The models, called directly on the compiled region attributes.
    for r in &requests {
        let attrs = engine
            .database()
            .region(&names[r.region])
            .expect("generated regions exist");
        let id = Some(r.id);
        let _ = rec.time("models.predict", None, id, || {
            black_box(engine.selector().predict(attrs, &r.binding))
        });
        let _ = rec.time("models.cpu_evaluate", None, id, || {
            black_box(attrs.cpu_model.evaluate(&r.binding))
        });
        let _ = rec.time("models.gpu_evaluate", None, id, || {
            black_box(attrs.gpu_model.evaluate(&r.binding))
        });
    }

    // Dispatch: decide first (the server's batch decide), then dispatch,
    // whose own decide is then a warm hit, as in the server. Then the
    // simulator of the device the request ran on, and the accuracy fold the
    // completion feeds. A host run simulates for tens of milliseconds, so
    // this phase has its own time budget.
    let dispatcher = Dispatcher::new(check::reference_engine(), DispatcherConfig::default());
    for r in &warmup {
        dispatcher
            .engine()
            .decide_request(&r.decision_request(&names));
    }
    let platform = &dispatcher.engine().selector().platform;
    let accel = &dispatcher.engine().selector().fleet().accelerators()[0].descriptor;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * REPLAY_BUDGET_SHARE);
    for r in requests.iter().take_while(|_| Instant::now() < deadline) {
        let request = r.decision_request(&names);
        let id = Some(r.id);
        rec.time("dispatch.decide", None, id, || {
            dispatcher.engine().decide_request(&request)
        });
        let outcome = rec
            .time("dispatch.call", None, id, || dispatcher.dispatch(&request))
            .map_err(|e| format!("in-process dispatch of request {} failed: {e}", r.id))?;
        counts.dispatches += 1;
        counts.attempts += u64::from(outcome.attempts);
        counts.fallbacks += u64::from(outcome.fallback.is_some());
        let attrs = dispatcher
            .engine()
            .database()
            .region(&names[r.region])
            .expect("generated regions exist");
        let decision = &outcome.decision;
        let predicted = if outcome.device_id.is_host() {
            rec.time("dispatch.cpusim", None, id, || {
                black_box(hetsel_cpusim::simulate(
                    &attrs.kernel,
                    &r.binding,
                    &platform.cpu,
                    platform.host_threads,
                ))
            });
            decision.predicted_cpu_s
        } else {
            rec.time("dispatch.gpusim", None, id, || {
                black_box(hetsel_gpusim::simulate(&attrs.kernel, &r.binding, accel))
            });
            decision.predicted_gpu_s
        }
        .unwrap_or(outcome.simulated_s);
        rec.time("obs.accuracy_observe", None, id, || {
            hetsel_obs::accuracy().observe(
                &names[r.region],
                &outcome.device_name,
                predicted,
                outcome.simulated_s,
                false,
            )
        });
    }

    // Set-up: compile the 24 regions, and restore them from a snapshot.
    let mut snapshot = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let db = rec.time("setup.compile", None, None, || {
            AttributeDatabase::compile(&kernels, &selector)
        });
        snapshot.clear();
        db.dump(&selector, &mut snapshot)
            .map_err(|e| format!("snapshot dump failed: {e}"))?;
    }
    for _ in 0..SETUP_REPEATS {
        rec.time("setup.snapshot_load", None, None, || {
            AttributeDatabase::from_snapshot_bytes(&selector, &snapshot)
        })
        .map_err(|e| format!("snapshot load failed: {e}"))?;
    }
    spans.extend(rec.spans);
    Ok((spans, counts))
}

/// Client-side spans of the traced wire run: each request from due time to
/// its reply, with the client's encode as a child.
fn client_spans(exchanges: &[Exchange], epoch: Instant) -> Vec<Span> {
    let mut rec = Recorder::new(epoch, 9 << 40);
    for ex in exchanges.iter().filter(|e| e.phase > 0) {
        let (Some(received), Some((enc0, enc1))) = (ex.received, ex.encode) else {
            continue;
        };
        let root = rec.reserve();
        rec.record_as(
            root,
            "client.request",
            ex.due,
            received,
            None,
            Some(ex.req.id),
        );
        let child = rec.reserve();
        rec.record_as(
            child,
            "client.encode",
            enc0,
            enc1,
            Some(root),
            Some(ex.req.id),
        );
    }
    rec.spans
}

fn write_jsonl(args: &Args, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for span in spans {
        writeln!(w, "{}", span.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

/// Span durations by name, and by name and request.
struct Durations<'a> {
    spans: &'a [Span],
}

impl Durations<'_> {
    fn all(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    fn median(&self, name: &str) -> f64 {
        stats::median(&self.all(name))
    }

    fn by_req(&self, name: &str) -> HashMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some((s.req?, s.ns())))
            .collect()
    }
}

/// The per-layer metrics of one traced run.
pub fn per_layer(args: &Args) -> Result<Report, String> {
    let wire_secs = args.seconds * WIRE_SHARE;
    let untraced = wire_checked(args, wire_secs, false)?;
    let traced = wire_checked(args, wire_secs, true)?;
    let epoch = Instant::now();
    let (mut spans, counts) = replay(args, wire_secs, epoch)?;
    spans.extend(client_spans(
        &traced.run.exchanges,
        traced.run.phases[0].start,
    ));
    write_jsonl(args, &spans)?;

    let d = Durations { spans: &spans };
    let serve_lines = d.by_req("transport.serve_lines");
    let call = d.by_req("server.call");
    let decide = d.by_req("engine.decide");
    let dispatch = d.by_req("dispatch.call");
    let paired = |f: &dyn Fn(u64, f64) -> Option<f64>| -> f64 {
        let diffs: Vec<f64> = call.iter().filter_map(|(&req, &c)| f(req, c)).collect();
        stats::median(&diffs)
    };
    let transport_self = paired(&|req, c| Some(serve_lines.get(&req)? - c));
    let wait = paired(&|req, c| {
        let own = if counts.dispatched.contains(&req) {
            *dispatch.get(&req)?
        } else {
            0.0
        };
        Some(c - decide.get(&req)? - own)
    });
    let hit_ns = d.median("engine.hit");
    let decide_ns = d.median("engine.decide");
    let dispatch_ns = d.median("dispatch.call");
    let wire_p50 = untraced.p50_ns();
    let replayed = counts.replayed.max(1) as f64;
    let dispatch_share = counts.dispatched.len() as f64 / replayed;
    let unattributed =
        wire_p50 - (transport_self + wait + decide_ns + dispatch_share * dispatch_ns);
    let decides = (counts.engine_hits + counts.engine_misses).max(1) as f64;
    eprintln!(
        "replayed {} requests per layer; wire p50 untraced {:.1} us, traced {:.1} us",
        counts.replayed,
        wire_p50 / 1e3,
        traced.p50_ns() / 1e3
    );
    Ok(Report {
        correct: untraced.correct() && traced.correct(),
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        metrics: vec![
            ("transport.self_ns", transport_self, "ns"),
            ("transport.decode_ns", d.median("transport.decode"), "ns"),
            ("transport.encode_ns", d.median("transport.encode"), "ns"),
            ("server.call_ns", d.median("server.call"), "ns"),
            ("server.wait_ns", wait, "ns"),
            (
                "server.batch_mean",
                counts.batch_sum as f64 / counts.windows.max(1) as f64,
                "count",
            ),
            ("server.windows", counts.windows as f64, "count"),
            ("server.shed_frac", counts.shed as f64 / replayed, "ratio"),
            ("engine.hit_ns", hit_ns, "ns"),
            ("engine.miss_ns", d.median("engine.miss"), "ns"),
            (
                "engine.hit_ratio",
                counts.engine_hits as f64 / decides,
                "ratio",
            ),
            (
                "models.cpu_evaluate_ns",
                d.median("models.cpu_evaluate"),
                "ns",
            ),
            (
                "models.gpu_evaluate_ns",
                d.median("models.gpu_evaluate"),
                "ns",
            ),
            ("models.predict_ns", d.median("models.predict"), "ns"),
            ("models.evaluations", counts.engine_misses as f64, "count"),
            ("dispatch.self_ns", dispatch_ns - hit_ns, "ns"),
            ("dispatch.cpusim_ns", d.median("dispatch.cpusim"), "ns"),
            ("dispatch.gpusim_ns", d.median("dispatch.gpusim"), "ns"),
            (
                "dispatch.attempts_per_req",
                counts.attempts as f64 / counts.dispatches.max(1) as f64,
                "count",
            ),
            ("dispatch.fallbacks", counts.fallbacks as f64, "count"),
            (
                "obs.accuracy_observe_ns",
                d.median("obs.accuracy_observe"),
                "ns",
            ),
            ("setup.compile_ns", d.median("setup.compile"), "ns"),
            (
                "setup.snapshot_load_ns",
                d.median("setup.snapshot_load"),
                "ns",
            ),
            ("unattributed_ns", unattributed, "ns"),
            ("wire.latency_p99_us", untraced.p99_ns() / 1e3, "us"),
            (
                "wire.max_rate_under_slo_rps",
                max_rate_under_slo(&untraced, args.workload.drive),
                "1/s",
            ),
            (
                "trace.overhead_us",
                (traced.p50_ns() - wire_p50) / 1e3,
                "us",
            ),
        ],
    })
}
