//! Drives the release `hetsel-serve` binary from outside: over its stdio
//! pipe (one request in flight, or a pipelined writer/reader pair) and over
//! loopback TCP (open-loop Poisson arrivals on a rate ladder).
//!
//! The clients only stamp times and keep raw reply lines; decoding and the
//! correctness check run after the measured phase, off the clock.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::gen::{GenRequest, Loop, Traffic, Workload};
use crate::stats;

/// Latency limit of the open-loop ladder, on each rung's p99.
pub const SLO_NS: f64 = 1_000_000.0;

/// Offered rates of the open-loop ladder, requests per second over all
/// connections.
pub const LADDER_RPS: [f64; 8] = [
    500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0, 64000.0,
];

/// The rung whose latency the open-loop workload reports. At lower rates
/// the machine idles between arrivals and wake-up stalls dominate the tail.
pub const REFERENCE_RPS: f64 = 4000.0;

/// Windows a closed-loop run's CPU and throughput are measured over (the
/// metrics report the median window).
pub const CPU_WINDOWS: u32 = 5;

/// `(when, utime+stime seconds)` of the server process.
pub type CpuSamples = Vec<(Instant, f64)>;

/// Samples a process's CPU time at a fixed period.
struct CpuClock {
    pid: u32,
    period: Duration,
    next: Instant,
    samples: CpuSamples,
}

impl CpuClock {
    fn start(pid: u32, period: Duration) -> CpuClock {
        let now = Instant::now();
        CpuClock {
            pid,
            period,
            next: now + period,
            samples: vec![(now, cpu_seconds(pid))],
        }
    }

    /// Takes a sample if a period has passed since the last one.
    fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.samples.push((now, cpu_seconds(self.pid)));
            self.next += self.period;
        }
    }

    /// The last sample, plus the server's peak RSS (kB). Called while the
    /// server is still running: a stdio server exits once its stdin closes.
    fn finish(mut self) -> (CpuSamples, u64) {
        self.samples.push((Instant::now(), cpu_seconds(self.pid)));
        (self.samples, peak_rss_kb(self.pid))
    }
}

/// One request and what came back for it.
#[derive(Debug)]
pub struct Exchange {
    pub req: GenRequest,
    /// Index into [`WireRun::phases`] (0 is the warm-up).
    pub phase: usize,
    /// When the request was due: its send time in a closed loop, its
    /// scheduled arrival in the open loop. Latency is timed from here.
    pub due: Instant,
    /// When its write started (lateness = `sent - due`).
    pub sent: Instant,
    /// When its reply line was read, if one was.
    pub received: Option<Instant>,
    pub reply: Option<String>,
    /// Client-side encode span, recorded only in traced runs.
    pub encode: Option<(Instant, Instant)>,
}

impl Exchange {
    pub fn latency_ns(&self) -> Option<f64> {
        self.received
            .map(|r| r.duration_since(self.due).as_nanos() as f64)
    }

    pub fn lag_ns(&self) -> f64 {
        self.sent.duration_since(self.due).as_nanos() as f64
    }
}

/// One phase of a run: the warm-up, a closed-loop run, or one ladder rung.
#[derive(Debug, Clone)]
pub struct Phase {
    pub label: String,
    /// Offered rate of an open-loop rung.
    pub rate: Option<f64>,
    pub start: Instant,
    pub end: Instant,
    /// Requests an open-loop rung sent (0 for other phases).
    pub sent: usize,
    /// Requests still unanswered when the phase's last request was sent.
    pub backlog_at_end: usize,
}

/// Everything one wire run produced.
pub struct WireRun {
    pub exchanges: Vec<Exchange>,
    pub phases: Vec<Phase>,
    /// Spawn-to-first-ok-reply of the measured server process, seconds.
    pub setup_s: f64,
    /// `(when, server utime+stime seconds)` from the start to the end of
    /// the measured phases: every `secs / CPU_WINDOWS` in a closed loop,
    /// at the two ends in the open loop.
    pub cpu_samples: CpuSamples,
    pub server_peak_rss_kb: u64,
    /// TCP reply lines that arrived with no request waiting for them.
    pub unsolicited: usize,
}

/// A running `hetsel-serve` process, killed and reaped on drop.
struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stderr: Option<BufReader<ChildStderr>>,
    tcp: Option<SocketAddr>,
}

impl Server {
    fn spawn(bin: &Path, tcp: bool) -> std::io::Result<Server> {
        let mut cmd = Command::new(bin);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the async-signal-safe prctl call, which takes no pointers.
        unsafe {
            cmd.pre_exec(|| {
                kill_with_parent();
                Ok(())
            });
        }
        if tcp {
            cmd.args(["--tcp", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
        } else {
            cmd.stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null());
        }
        let mut child = cmd.spawn()?;
        if !tcp {
            return Ok(Server {
                child,
                _stderr: None,
                tcp: None,
            });
        }
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            _stderr: None,
            tcp: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("server exited before listening"));
            }
            // "[hetsel-serve] listening on 127.0.0.1:PORT (24 regions)"
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.tcp = Some(addr.parse().map_err(std::io::Error::other)?);
                server._stderr = Some(stderr);
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.tcp.expect("a tcp server"))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Stops the server and reaps it: a stdio server exits on stdin EOF, a
    /// TCP server (whose accept loop never returns) is killed.
    fn stop(mut self) -> std::io::Result<()> {
        drop(self.child.stdin.take());
        if self.tcp.is_some() {
            self.child.kill()?;
        }
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A stdio session's two pipe ends.
struct Pipe {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Pipe {
    fn take(server: &mut Server) -> Pipe {
        Pipe {
            stdin: server.child.stdin.take().expect("stdin is piped"),
            stdout: BufReader::new(server.child.stdout.take().expect("stdout is piped")),
        }
    }
}

/// utime+stime of `pid`, seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // After the parenthesised command name the fields start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a configuration value and takes no pointers.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Peak resident set (`VmHWM`) of `pid`, kB.
fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Asks the kernel to kill the calling process when the thread that
/// spawned it exits, so a benchmark killed from outside leaves no server
/// behind (a TCP server never exits on its own).
fn kill_with_parent() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: PR_SET_PDEATHSIG takes one signal number by value.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

/// Lowers this thread's timer slack to 1 ns, so a sleep to an arrival's
/// due time wakes on time instead of up to 50 µs late.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Acknowledges received data at once instead of on the delayed-ACK timer.
/// The server writes each reply as two segments (the JSON, then its
/// newline) on a socket with Nagle's algorithm on, so the newline waits for
/// the client's ACK of the JSON: a client on the delayed-ACK timer would
/// see its replies gated by its own next request or by that timer (up to
/// 40 ms), and the ladder would measure the client instead of the server.
/// Linux falls back to delayed ACKs on its own, so this is re-armed after
/// every read.
fn quick_ack(fd: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `on` outlives the call and `len` is its exact size.
    unsafe {
        setsockopt(
            fd,
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Blocks until one of `fds` is readable (or hung up) or `timeout_ms`
/// passes; returns one flag per fd.
fn poll_readable(fds: &[i32], timeout_ms: i32) -> Vec<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // structs with the C `struct pollfd` layout.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as u64, timeout_ms) };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    set.iter().map(|p| p.revents != 0).collect()
}

fn read_reply(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    Ok(Some(line.trim_end().to_string()))
}

fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// One request sent and answered with nothing else in flight. In a traced
/// run the client's encode is stamped as its own span.
fn closed_exchange(
    req: GenRequest,
    phase: usize,
    names: &[String],
    traced: bool,
    writer: &mut impl Write,
    reader: &mut impl BufRead,
) -> std::io::Result<Exchange> {
    let due = Instant::now();
    let line = req.line(names);
    let encode = traced.then(|| (due, Instant::now()));
    let sent = if traced { Instant::now() } else { due };
    write_line(writer, &line)?;
    let reply = read_reply(reader)?;
    Ok(Exchange {
        req,
        phase,
        due,
        sent,
        received: reply.is_some().then(Instant::now),
        reply,
        encode,
    })
}

/// Starts a server, sends `probe` and waits for its reply: spawn to first
/// ok reply is the set-up time. Returns the running server (with its stdio
/// pipe, if any) and the probe's exchange.
fn timed_start(
    bin: &Path,
    tcp: bool,
    probe: GenRequest,
    names: &[String],
) -> std::io::Result<(Server, Option<Pipe>, Exchange, f64)> {
    let t0 = Instant::now();
    let mut server = Server::spawn(bin, tcp)?;
    let (pipe, ex) = if tcp {
        let stream = server.connect()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let ex = closed_exchange(probe, 0, names, false, &mut writer, &mut reader)?;
        (None, ex)
    } else {
        let mut pipe = Pipe::take(&mut server);
        let ex = closed_exchange(probe, 0, names, false, &mut pipe.stdin, &mut pipe.stdout)?;
        (Some(pipe), ex)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    match &ex.reply {
        Some(r) if r.contains("\"status\":\"ok\"") => Ok((server, pipe, ex, setup_s)),
        other => Err(std::io::Error::other(format!(
            "first reply was not ok: {other:?}"
        ))),
    }
}

/// Spawn-to-first-ok-reply, seconds, of `n` throwaway server processes.
pub fn setup_samples(
    bin: &Path,
    workload: &Workload,
    seed: u64,
    n: usize,
) -> std::io::Result<Vec<f64>> {
    let mut traffic = Traffic::new(workload, seed);
    let names = traffic.region_names();
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let probe = traffic.warmup().swap_remove(0);
        let (server, pipe, _, s) = timed_start(bin, workload.tcp(), probe, &names)?;
        drop(pipe);
        server.stop()?;
        samples.push(s);
    }
    Ok(samples)
}

/// Runs one workload against a fresh server for about `secs` measured
/// seconds.
pub fn run(
    bin: &Path,
    workload: &Workload,
    traffic: &mut Traffic,
    secs: f64,
    traced: bool,
) -> std::io::Result<WireRun> {
    let names = traffic.region_names();
    let mut warmup = traffic.warmup().into_iter();
    let probe = warmup.next().expect("24 regions");
    let (server, pipe, first, setup_s) = timed_start(bin, workload.tcp(), probe, &names)?;
    let pid = server.pid();
    let epoch = first.due;
    let mut exchanges = vec![first];
    let mut phases = vec![Phase {
        label: "warmup".into(),
        rate: None,
        start: epoch,
        end: epoch,
        sent: 0,
        backlog_at_end: 0,
    }];
    let period = Duration::from_secs_f64(secs / f64::from(CPU_WINDOWS));
    let (cpu_samples, server_peak_rss_kb);
    let mut unsolicited = 0;
    match (workload.drive, pipe) {
        (Loop::OpenLadder { connections }, _) => {
            let conns: Vec<TcpStream> = (0..connections)
                .map(|_| server.connect())
                .collect::<std::io::Result<_>>()?;
            for (i, req) in warmup.enumerate() {
                let conn = &conns[i % conns.len()];
                let mut reader = BufReader::new(conn.try_clone()?);
                let mut writer = conn.try_clone()?;
                exchanges.push(closed_exchange(
                    req,
                    0,
                    &names,
                    false,
                    &mut writer,
                    &mut reader,
                )?);
            }
            phases[0].end = Instant::now();
            let before = (Instant::now(), cpu_seconds(pid));
            unsolicited = open_ladder(
                &conns,
                traffic,
                &names,
                secs,
                traced,
                &mut exchanges,
                &mut phases,
            )?;
            cpu_samples = vec![before, (Instant::now(), cpu_seconds(pid))];
            server_peak_rss_kb = peak_rss_kb(pid);
        }
        (Loop::ClosedSeq, Some(mut pipe)) => {
            for req in warmup {
                let ex = closed_exchange(req, 0, &names, false, &mut pipe.stdin, &mut pipe.stdout)?;
                exchanges.push(ex);
            }
            phases[0].end = Instant::now();
            let mut clock = CpuClock::start(pid, period);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < secs {
                clock.tick();
                let req = traffic.next();
                let ex =
                    closed_exchange(req, 1, &names, traced, &mut pipe.stdin, &mut pipe.stdout)?;
                exchanges.push(ex);
            }
            (cpu_samples, server_peak_rss_kb) = clock.finish();
            phases.push(Phase {
                label: "closed-seq".into(),
                rate: None,
                start,
                end: Instant::now(),
                sent: 0,
                backlog_at_end: 0,
            });
        }
        (Loop::ClosedPipe { depth }, Some(mut pipe)) => {
            for req in warmup {
                let ex = closed_exchange(req, 0, &names, false, &mut pipe.stdin, &mut pipe.stdout)?;
                exchanges.push(ex);
            }
            phases[0].end = Instant::now();
            let clock = CpuClock::start(pid, period);
            let (phase, piped, samples) =
                closed_pipe(pipe, clock, traffic, &names, depth, secs, traced)?;
            (cpu_samples, server_peak_rss_kb) = samples;
            phases.push(phase);
            exchanges.extend(piped);
        }
        (_, None) => unreachable!("stdio workloads always get a pipe"),
    }
    server.stop()?;
    Ok(WireRun {
        exchanges,
        phases,
        setup_s,
        cpu_samples,
        server_peak_rss_kb,
        unsolicited,
    })
}

/// What the writer hands the reader for each request it sent.
struct InFlight {
    req: GenRequest,
    phase: usize,
    due: Instant,
    sent: Instant,
    encode: Option<(Instant, Instant)>,
}

impl InFlight {
    fn answered(self, received: Option<Instant>, reply: Option<String>) -> Exchange {
        Exchange {
            req: self.req,
            phase: self.phase,
            due: self.due,
            sent: self.sent,
            received,
            reply,
            encode: self.encode,
        }
    }
}

/// A writer and a reader thread over one stdio session, with up to `depth`
/// requests in flight. The writer stops after `secs`; closing stdin lets
/// the server drain and exit, which ends the reader.
fn closed_pipe(
    pipe: Pipe,
    mut clock: CpuClock,
    traffic: &mut Traffic,
    names: &[String],
    depth: usize,
    secs: f64,
    traced: bool,
) -> std::io::Result<(Phase, Vec<Exchange>, (CpuSamples, u64))> {
    let Pipe { mut stdin, stdout } = pipe;
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(depth);
    for _ in 0..depth {
        token_tx.send(()).expect("receiver alive");
    }
    let (sent_tx, sent_rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<Vec<Exchange>> {
            let mut stdout = stdout;
            let mut out = Vec::new();
            while let Ok(flight) = sent_rx.recv() {
                let reply = read_reply(&mut stdout)?;
                let received = reply.is_some().then(Instant::now);
                let eof = reply.is_none();
                out.push(flight.answered(received, reply));
                // The writer may already be gone; its tokens no longer matter.
                let _ = token_tx.send(());
                if eof {
                    // Everything still in flight is missing.
                    out.extend(sent_rx.iter().map(|f| f.answered(None, None)));
                }
            }
            Ok(out)
        });
        let mut write_result = Ok(());
        while start.elapsed().as_secs_f64() < secs {
            if token_rx.recv().is_err() {
                break;
            }
            clock.tick();
            let req = traffic.next();
            let due = Instant::now();
            let line = req.line(names);
            let encode = traced.then(|| (due, Instant::now()));
            let sent = if traced { Instant::now() } else { due };
            if sent_tx
                .send(InFlight {
                    req,
                    phase: 1,
                    due,
                    sent,
                    encode,
                })
                .is_err()
            {
                break;
            }
            if let Err(e) = write_line(&mut stdin, &line) {
                write_result = Err(e);
                break;
            }
        }
        let samples = clock.finish();
        let end = Instant::now();
        drop(sent_tx);
        drop(stdin);
        let exchanges = reader.join().expect("reader thread panicked")?;
        write_result?;
        Ok((
            Phase {
                label: format!("closed-pipe depth {depth}"),
                rate: None,
                start,
                end,
                sent: 0,
                backlog_at_end: 0,
            },
            exchanges,
            samples,
        ))
    })
}

/// One connection's requests awaiting replies, oldest first.
type Pending = Mutex<VecDeque<InFlight>>;

/// State the open-loop sender and receiver share.
struct OpenShared {
    pending: Vec<Pending>,
    done: Mutex<Vec<Exchange>>,
    answered: AtomicUsize,
    /// Reply lines that arrived with no request waiting for them.
    unsolicited: AtomicUsize,
    stop: AtomicBool,
}

/// True when a rung ended with more than 5% of its requests (and more
/// than 8) still unanswered: the server fell behind the offered rate. A
/// stall too short to miss that mark still shows in the rung's p99.
pub fn backlog_grew(phase: &Phase) -> bool {
    phase.backlog_at_end > (phase.sent / 20).max(8)
}

/// True when a rung met the SLO: its windowed p99 from due time (a failed
/// or missing reply counts as missing the limit) is within [`SLO_NS`] and
/// its backlog did not grow.
pub fn rung_passes(exchanges: &[Exchange], phase_index: usize, phase: &Phase) -> bool {
    let lat = phase_latencies(exchanges, phase_index);
    !lat.is_empty() && stats::windowed_p99(&lat) <= SLO_NS && !backlog_grew(phase)
}

/// Latencies of one phase's requests in due-time order (see
/// [`ok_latency_ns`]).
pub fn phase_latencies(exchanges: &[Exchange], phase: usize) -> Vec<f64> {
    let mut of_phase: Vec<&Exchange> = exchanges.iter().filter(|e| e.phase == phase).collect();
    of_phase.sort_by_key(|e| e.due);
    of_phase.into_iter().map(ok_latency_ns).collect()
}

/// Latency of an ok reply; infinite for a shed, errored or missing one.
pub fn ok_latency_ns(ex: &Exchange) -> f64 {
    match (&ex.reply, ex.latency_ns()) {
        (Some(r), Some(ns)) if r.contains("\"status\":\"ok\"") => ns,
        _ => f64::INFINITY,
    }
}

/// The open loop: Poisson arrivals at each ladder rate, spread round-robin
/// over the connections. One sender thread sleeps to each due time and
/// writes; one receiver thread polls every connection and matches replies
/// to requests in order. Latency is timed from each request's due time, so
/// a stalled sender's lateness counts against the requests behind it.
/// Rungs run in order until the server falls behind (its backlog grows):
/// a rung below that can still miss the SLO when the generator or the
/// machine stalls, so the ladder does not stop at the first miss.
fn open_ladder(
    conns: &[TcpStream],
    traffic: &mut Traffic,
    names: &[String],
    secs: f64,
    traced: bool,
    exchanges: &mut Vec<Exchange>,
    phases: &mut Vec<Phase>,
) -> std::io::Result<usize> {
    let rung_secs = secs / LADDER_RPS.len() as f64;
    let shared = OpenShared {
        pending: conns.iter().map(|_| Mutex::new(VecDeque::new())).collect(),
        done: Mutex::new(Vec::new()),
        answered: AtomicUsize::new(0),
        unsolicited: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone())
        .collect::<std::io::Result<_>>()?;
    let mut writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone())
        .collect::<std::io::Result<_>>()?;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let receiver = scope.spawn(|| receive_loop(readers, &shared));
        tight_timer_slack();
        let mut sent_total = 0usize;
        let mut result = Ok(());
        for rate in LADDER_RPS {
            let arrivals = traffic.arrivals(rate, rung_secs);
            let sent_before = sent_total;
            let phase = phases.len();
            let start = Instant::now() + Duration::from_millis(1);
            for (i, (offset, req)) in arrivals.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let conn = i % writers.len();
                let sent = Instant::now();
                let line = req.line(names);
                let encode = traced.then(|| (sent, Instant::now()));
                shared.pending[conn]
                    .lock()
                    .expect("the receiver never panics holding a queue")
                    .push_back(InFlight {
                        req,
                        phase,
                        due,
                        sent,
                        encode,
                    });
                sent_total += 1;
                if let Err(e) = write_line(&mut writers[conn], &line) {
                    result = Err(e);
                    break;
                }
            }
            phases.push(Phase {
                label: format!("open {rate} rps"),
                rate: Some(rate),
                start,
                end: Instant::now(),
                sent: sent_total - sent_before,
                backlog_at_end: sent_total - shared.answered.load(Ordering::Acquire),
            });
            // Drain the rung before the next one.
            let drain_deadline = Instant::now() + Duration::from_secs(10);
            while shared.answered.load(Ordering::Acquire) < sent_total
                && Instant::now() < drain_deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            if result.is_err() || backlog_grew(&phases[phase]) {
                break;
            }
        }
        shared.stop.store(true, Ordering::Release);
        receiver.join().expect("receiver thread panicked")?;
        result
    })?;
    exchanges.append(&mut shared.done.into_inner().expect("receiver has exited"));
    for queue in shared.pending {
        let queue = queue.into_inner().expect("receiver has exited");
        exchanges.extend(queue.into_iter().map(|f| f.answered(None, None)));
    }
    Ok(shared.unsolicited.into_inner())
}

/// Reads replies from every connection as they arrive and matches each to
/// the oldest request waiting on that connection (the server answers a
/// connection's lines in order).
fn receive_loop(streams: Vec<TcpStream>, shared: &OpenShared) -> std::io::Result<()> {
    let fds: Vec<i32> = streams.iter().map(|s| s.as_raw_fd()).collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut open = vec![true; streams.len()];
    let mut chunk = vec![0u8; 1 << 16];
    while !shared.stop.load(Ordering::Acquire) && open.iter().any(|&o| o) {
        let ready = poll_readable(&fds, 5);
        for (i, stream) in streams.iter().enumerate() {
            if !ready[i] || !open[i] {
                continue;
            }
            // One read per wake-up: poll said data (or EOF) is there, so a
            // blocking read returns at once.
            let n = (&*stream).read(&mut chunk)?;
            let now = Instant::now();
            quick_ack(fds[i]);
            if n == 0 {
                open[i] = false;
                continue;
            }
            bufs[i].extend_from_slice(&chunk[..n]);
            while let Some(pos) = bufs[i].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[i].drain(..=pos).collect();
                let reply = String::from_utf8_lossy(&line[..pos]).into_owned();
                let flight = shared.pending[i]
                    .lock()
                    .expect("the sender never panics holding a queue")
                    .pop_front();
                match flight {
                    Some(flight) => {
                        shared
                            .done
                            .lock()
                            .expect("the sender never panics holding it")
                            .push(flight.answered(Some(now), Some(reply)));
                        shared.answered.fetch_add(1, Ordering::Release);
                    }
                    None => {
                        shared.unsolicited.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    Ok(())
}
