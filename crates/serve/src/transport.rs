//! Line transports: newline-delimited JSON over any `BufRead`/`Write`
//! pair, plus a thread-per-connection TCP front-end.
//!
//! The transport contract is strict: **one reply line per request line,
//! in order, whatever happens**. A malformed line produces a typed
//! `"status":"error"` reply — it never panics the serving thread and
//! never drops the connection, because a client that interleaves a
//! corrupt line between good ones must still be able to correlate the
//! replies to its remaining requests. That holds for lines that are not
//! UTF-8 and for lines longer than [`MAX_LINE_BYTES`] too: the latter get
//! a `line_too_long` error, and reading resumes after their newline.
//!
//! Framing works in *bursts*, on bytes. One burst reads the input once
//! (`fill_buf`) and takes every complete line already buffered — at most
//! [`MAX_IN_FLIGHT`] of them. Each line is decoded in place by
//! [`decode_request_line`] and admitted on the spot, while its bytes are
//! still in the read buffer, and its reply line is rendered at once into
//! the burst's one reused buffer. A decide-only request is decided there,
//! on the session's thread: a hit's reply wraps the bytes its cache entry
//! stores, copied under the entry's shard lock
//! ([`ServeReply::write_ok_json_rendered`]), so a hit formats no number;
//! a miss is decided by the models and rendered by
//! [`ServeReply::write_ok_json`]; errors and sheds by
//! [`ServeReply::write_json`]. Only a dispatch is copied into an owned
//! request, and its place in the buffer is kept. The burst's dispatches
//! then go to the queue together, under one queue lock; each one's reply
//! goes in at its place when the executor answers it, and the burst is
//! sent with one `write_all` + `flush`, so a decision that follows a
//! dispatch still leaves after the dispatch's reply. A cached line costs
//! no heap allocation at all (`tests/cached_line_allocs.rs`).
//!
//! A client with one request in flight gets one reply per request, as with
//! a line-at-a-time loop; a client that pipelines gets its buffered lines
//! answered with one write. The transport never blocks on a read while it
//! holds unwritten replies, adds no threads, and never holds more than
//! [`MAX_LINE_BYTES`] of an unfinished line. On TCP, at most
//! [`MAX_CONNECTIONS`] connections are served at once, each on its own
//! thread; one more gets a `too_many_connections` error line and is
//! closed. A write that stalls for [`WRITE_TIMEOUT`] — a client that
//! stopped reading — ends the connection; every reply of the burst being
//! written was already complete, so nothing is left behind.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::pending::PendingRequest;
use crate::proto::{decode_request_line, ServeReply};
use crate::server::{Admit, ServerHandle};

/// Most request lines one connection has in flight: the lines of one
/// burst. It bounds the replies a session buffers, and so its memory.
pub const MAX_IN_FLIGHT: usize = 16;

/// Bytes a session's reply buffer starts with: a burst of replies of
/// ≈250 bytes, the size of an `ok` reply, fits without growing it.
const BURST_BYTES: usize = MAX_IN_FLIGHT * 256;

/// Longest request line accepted, in bytes without its newline. A longer
/// line gets a `line_too_long` error reply.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long the accept loop pauses after a failed accept, so a lasting
/// error (out of file descriptors) does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Longest a reply write to a TCP client may stall. A client that stops
/// reading for longer is disconnected (`hetsel.serve.conn.write_timeout`),
/// so its connection thread does not block forever.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Most TCP connections served at once. One more gets one
/// `too_many_connections` error line (`"id":null`) and is closed, counted
/// in `hetsel.serve.conn.refused`. Each connection is a thread, and an
/// idle one costs ≈19 KB of RSS (4,000 idle connections took a 4.2 MB
/// server to 78.7 MB), so a full house adds ≈5 MB, about the server's own
/// working set, and holds 512 file descriptors (two per connection), half
/// the usual soft limit of 1,024. It also bounds how many decide-only
/// misses are evaluated at once: a connection evaluates its lines one at
/// a time.
pub const MAX_CONNECTIONS: usize = 256;

/// What one transport session processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Non-blank request lines read.
    pub lines: u64,
    /// Reply lines written (equals `lines` unless the writer failed).
    pub replies: u64,
    /// Replies that were typed errors (malformed lines, unknown regions).
    pub errors: u64,
}

/// Serves one line session: reads request lines from `reader` until EOF,
/// writes exactly one reply line each to `writer`. Returns the session's
/// counts; an `Err` is an I/O failure on the transport itself (the
/// protocol never errors the stream).
pub fn serve_lines(
    handle: &ServerHandle,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<TransportStats> {
    let mut burst = Burst::new(handle);
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF: a last line without its newline still gets a reply.
            burst.finish();
            burst.send(&mut writer)?;
            return Ok(burst.stats);
        }
        let used = burst.scan(buf);
        reader.consume(used);
        burst.send(&mut writer)?;
    }
}

/// One session's framing state, reused from burst to burst.
struct Burst<'h> {
    handle: &'h ServerHandle,
    /// Non-blank lines framed in this burst.
    lines: usize,
    /// The burst's reply lines, rendered in line order as each line is
    /// admitted, but for its dispatches' replies.
    out: Vec<u8>,
    /// The burst's dispatches, in line order.
    queued: Vec<Arc<PendingRequest>>,
    /// Where each dispatch's reply goes in `out`: the length of `out` when
    /// its line was admitted.
    holes: Vec<usize>,
    /// A dispatch's reply, on its way into `out`.
    dispatched: Vec<u8>,
    /// The start of a line whose newline has not been read yet.
    partial: Vec<u8>,
    /// True while dropping the rest of an over-long line, whose reply is
    /// already in `out`.
    skipping: bool,
    stats: TransportStats,
}

impl<'h> Burst<'h> {
    fn new(handle: &'h ServerHandle) -> Burst<'h> {
        Burst {
            handle,
            lines: 0,
            out: Vec::with_capacity(BURST_BYTES),
            queued: Vec::with_capacity(MAX_IN_FLIGHT),
            holes: Vec::with_capacity(MAX_IN_FLIGHT),
            dispatched: Vec::new(),
            partial: Vec::new(),
            skipping: false,
            stats: TransportStats::default(),
        }
    }

    /// Frames the complete lines of `buf`, up to [`MAX_IN_FLIGHT`], and
    /// keeps a trailing unfinished line in `partial`. Returns how many
    /// bytes of `buf` it used.
    fn scan(&mut self, buf: &[u8]) -> usize {
        let mut used = 0;
        while self.lines < MAX_IN_FLIGHT && used < buf.len() {
            let rest = &buf[used..];
            match rest.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    self.end_line(&rest[..end]);
                    used += end + 1;
                }
                None => {
                    self.append(rest);
                    used = buf.len();
                }
            }
        }
        used
    }

    /// Adds a piece of an unfinished line. Once the line outgrows
    /// [`MAX_LINE_BYTES`] it is answered and the rest of it dropped.
    fn append(&mut self, piece: &[u8]) {
        if self.skipping {
            return;
        }
        if self.partial.len() + piece.len() > MAX_LINE_BYTES {
            self.partial.clear();
            self.skipping = true;
            self.refuse(ServeReply::error(
                None,
                format!("line_too_long: a request line may hold at most {MAX_LINE_BYTES} bytes"),
            ));
        } else {
            self.partial.extend_from_slice(piece);
        }
    }

    /// Ends the current line with `piece`, the bytes before its newline.
    fn end_line(&mut self, piece: &[u8]) {
        if self.partial.is_empty() && !self.skipping && piece.len() <= MAX_LINE_BYTES {
            // The whole line is in the read buffer: frame it in place.
            self.line(piece);
            return;
        }
        self.append(piece);
        if !self.skipping {
            let line = std::mem::take(&mut self.partial);
            self.line(&line);
            self.partial = line;
            self.partial.clear();
        }
        self.skipping = false;
    }

    /// At EOF: frames a last line that had no newline.
    fn finish(&mut self) {
        if !self.skipping && !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.line(&line);
        }
    }

    /// Frames one complete line (without its newline) and admits its
    /// request.
    fn line(&mut self, bytes: &[u8]) {
        let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
        match std::str::from_utf8(bytes) {
            Ok(text) if text.trim().is_empty() => {}
            Ok(text) => match decode_request_line(text) {
                Ok(request) => {
                    self.stats.lines += 1;
                    self.lines += 1;
                    let out = &mut self.out;
                    match self.handle.admit(&request) {
                        Admit::Reply(reply) => render(out, &mut self.stats.errors, &reply),
                        // The entry's stored rendering, copied under its
                        // shard's lock: a hit formats nothing.
                        Admit::Hit(mut cached) => {
                            ServeReply::write_ok_json_rendered(out, request.id, cached.json());
                            out.push(b'\n');
                        }
                        Admit::Decided(decision) => {
                            ServeReply::write_ok_json(out, request.id, &decision);
                            out.push(b'\n');
                        }
                        Admit::Queue => {
                            let pending = PendingRequest::new(request.into_owned());
                            self.queued.push(Arc::new(pending));
                            self.holes.push(out.len());
                        }
                    }
                }
                Err(error_reply) => self.refuse(*error_reply),
            },
            Err(e) => self.refuse(ServeReply::error(
                None,
                format!("bad request: line is not valid UTF-8 ({e})"),
            )),
        }
    }

    /// Answers a line without the server.
    fn refuse(&mut self, reply: ServeReply) {
        hetsel_obs::static_counter!("hetsel.serve.bad_request").inc();
        self.stats.lines += 1;
        self.lines += 1;
        render(&mut self.out, &mut self.stats.errors, &reply);
    }

    /// Queues the burst's dispatches together, puts each one's reply in at
    /// its line's place — waiting for the executor — and sends the burst's
    /// replies in one write.
    fn send(&mut self, writer: &mut impl Write) -> io::Result<()> {
        if self.lines == 0 {
            return Ok(());
        }
        self.handle.enqueue(&self.queued);
        // Last first, so the places of the earlier ones stay where they
        // were taken.
        for (pending, &at) in self.queued.iter().zip(&self.holes).rev() {
            let (dispatched, stats) = (&mut self.dispatched, &mut self.stats);
            pending
                .done
                .wait_with(|reply| render(dispatched, &mut stats.errors, reply));
            self.out.splice(at..at, dispatched.drain(..));
        }
        self.queued.clear();
        self.holes.clear();
        writer.write_all(&self.out)?;
        writer.flush()?;
        self.out.clear();
        self.stats.replies += self.lines as u64;
        self.lines = 0;
        Ok(())
    }
}

/// Appends one reply line to `out`, counting it in `errors` when it is a
/// typed error.
fn render(out: &mut Vec<u8>, errors: &mut u64, reply: &ServeReply) {
    if reply.status() == "error" {
        *errors += 1;
    }
    reply.write_json(out);
    out.push(b'\n');
}

/// Accept loop: serves every connection on `listener` in its own thread,
/// at most [`MAX_CONNECTIONS`] at once (each runs [`serve_lines`] over
/// the socket, with writes bounded by [`WRITE_TIMEOUT`]). A failed accept
/// is logged, counted in `hetsel.serve.accept_error` and skipped; the loop
/// never returns.
pub fn serve_tcp(listener: TcpListener, handle: ServerHandle) -> ! {
    accept_loop(
        listener,
        &handle,
        &Connections::new(MAX_CONNECTIONS),
        WRITE_TIMEOUT,
    )
}

/// [`serve_tcp`] with its cap and write timeout as arguments.
fn accept_loop(
    listener: TcpListener,
    handle: &ServerHandle,
    connections: &Arc<Connections>,
    write_timeout: Duration,
) -> ! {
    loop {
        let spawned = listener.accept().and_then(|(stream, _)| {
            let Some(slot) = connections.try_open() else {
                connections.refuse(stream);
                return Ok(());
            };
            let handle = handle.clone();
            std::thread::Builder::new()
                .name("hetsel-serve-conn".to_string())
                .spawn(move || {
                    let _slot = slot;
                    let _ = serve_connection(&handle, stream, write_timeout);
                })
                .map(drop)
        });
        if let Err(e) = spawned {
            hetsel_obs::static_counter!("hetsel.serve.accept_error").inc();
            eprintln!("[hetsel-serve] accept failed: {e}");
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }
}

/// The open connections of one accept loop, against its cap. The gauge
/// `hetsel.serve.conn.open` counts them.
struct Connections {
    open: AtomicUsize,
    cap: usize,
}

/// A connection's place under the cap, given back when dropped.
struct ConnectionSlot(Arc<Connections>);

impl Connections {
    fn new(cap: usize) -> Arc<Connections> {
        Arc::new(Connections {
            open: AtomicUsize::new(0),
            cap,
        })
    }

    /// Takes a place for one more connection, if the cap allows it.
    fn try_open(self: &Arc<Self>) -> Option<ConnectionSlot> {
        self.open
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |open| {
                (open < self.cap).then_some(open + 1)
            })
            .ok()?;
        hetsel_obs::static_gauge!("hetsel.serve.conn.open").add(1);
        Some(ConnectionSlot(Arc::clone(self)))
    }

    /// Turns away a connection past the cap: one typed error line, then
    /// the socket closes. The line fits a fresh socket's send buffer, so
    /// writing it never blocks the accept loop.
    fn refuse(&self, mut stream: TcpStream) {
        hetsel_obs::static_counter!("hetsel.serve.conn.refused").inc();
        let mut line = Vec::new();
        ServeReply::error(
            None,
            format!(
                "too_many_connections: the server serves at most {} connections at once",
                self.cap
            ),
        )
        .write_json(&mut line);
        line.push(b'\n');
        let _ = stream.write_all(&line);
    }

    #[cfg(test)]
    fn open(&self) -> usize {
        self.open.load(Ordering::Acquire)
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::AcqRel);
        hetsel_obs::static_gauge!("hetsel.serve.conn.open").add(-1);
    }
}

/// Serves one TCP connection. A write that stalls for `write_timeout`
/// ends it, counted in `hetsel.serve.conn.write_timeout`.
fn serve_connection(
    handle: &ServerHandle,
    stream: TcpStream,
    write_timeout: Duration,
) -> io::Result<TransportStats> {
    // Each burst is one write; Nagle would hold a burst back until the
    // client acknowledged the previous one.
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(write_timeout))?;
    let reader = BufReader::new(stream.try_clone()?);
    let served = serve_lines(handle, reader, stream);
    if let Err(e) = &served {
        // A timed-out socket write fails with `WouldBlock` on Unix and
        // `TimedOut` on Windows.
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            hetsel_obs::static_counter!("hetsel.serve.conn.write_timeout").inc();
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ServeReply, ServeRequest};
    use crate::server::{DecisionServer, ServeConfig};
    use hetsel_core::{
        DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform, Selector,
    };
    use hetsel_polybench::{find_kernel, Dataset};
    use std::io::Cursor;

    fn server() -> DecisionServer {
        let (kernel, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        );
        DecisionServer::start(
            Dispatcher::new(engine, DispatcherConfig::default()),
            ServeConfig::default(),
        )
    }

    fn request_line(id: u64) -> String {
        let (_, binding) = find_kernel("gemm").unwrap();
        let req = ServeRequest::new(DecisionRequest::new("gemm", binding(Dataset::Benchmark)))
            .with_id(id);
        serde_json::to_string(&req).unwrap()
    }

    fn replies(output: &[u8]) -> Vec<ServeReply> {
        std::str::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str::<ServeReply>(l).expect("well-formed reply line"))
            .collect()
    }

    #[test]
    fn one_reply_per_line_in_order() {
        let server = server();
        let input = format!(
            "{}\n{}\n\n{}\n",
            request_line(1),
            request_line(2),
            request_line(3)
        );
        let mut out = Vec::new();
        let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (3, 3, 0));
        let replies = replies(&out);
        assert_eq!(replies.len(), 3);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.status(), "ok");
            assert_eq!(reply.id(), Some(i as u64 + 1));
        }
        server.shutdown();
    }

    #[test]
    fn malformed_line_gets_error_reply_and_session_continues() {
        let server = server();
        let input = format!(
            "{}\nthis is not json\n{{\"id\":9}}\n{}\n",
            request_line(1),
            request_line(2)
        );
        let mut out = Vec::new();
        let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (4, 4, 2));
        let replies = replies(&out);
        assert_eq!(replies[0].status(), "ok");
        assert_eq!(replies[1].status(), "error");
        // The parsable id survives into the error reply.
        assert_eq!(replies[2].status(), "error");
        assert_eq!(replies[2].id(), Some(9));
        // The session kept serving after the garbage.
        assert_eq!(replies[3].status(), "ok");
        assert_eq!(replies[3].id(), Some(2));
        server.shutdown();
    }

    #[test]
    fn invalid_utf8_line_gets_error_reply_and_session_continues() {
        let server = server();
        let mut input = format!("{}\n", request_line(1)).into_bytes();
        input.extend_from_slice(b"{\"id\":\xff\xfe}\n");
        input.extend_from_slice(format!("{}\n", request_line(2)).as_bytes());
        let mut out = Vec::new();
        let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (3, 3, 1));
        let statuses: Vec<&str> = replies(&out).iter().map(|r| r.status()).collect();
        assert_eq!(statuses, ["ok", "error", "ok"]);
        server.shutdown();
    }

    #[test]
    fn over_long_line_gets_line_too_long_and_reading_resumes() {
        let server = server();
        let mut input = format!("{}\n", request_line(1)).into_bytes();
        input.extend(std::iter::repeat_n(b'x', 3 * MAX_LINE_BYTES));
        input.push(b'\n');
        input.extend_from_slice(format!("{}\n", request_line(2)).as_bytes());
        let mut out = Vec::new();
        // A small read buffer makes the long line arrive in many pieces.
        let reader = BufReader::with_capacity(4096, Cursor::new(input));
        let stats = serve_lines(&server.handle(), reader, &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (3, 3, 1));
        let replies = replies(&out);
        match &replies[1] {
            ServeReply::Error { message, .. } => assert!(message.starts_with("line_too_long")),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(replies[2].id(), Some(2));
        server.shutdown();
    }

    #[test]
    fn the_partial_line_never_outgrows_the_cap() {
        let server = server();
        let handle = server.handle();
        let mut burst = Burst::new(&handle);
        let chunk = vec![b'x'; 1000];
        for _ in 0..(2 * MAX_LINE_BYTES / chunk.len()) {
            assert_eq!(burst.scan(&chunk), chunk.len());
            assert!(burst.partial.len() <= MAX_LINE_BYTES);
        }
        assert!(burst.skipping);
        // Exactly one reply for the whole over-long line, so far.
        assert_eq!(burst.lines, 1);
        burst.scan(b"tail\n");
        assert!(!burst.skipping && burst.partial.is_empty());
        assert_eq!(burst.lines, 1);
        server.shutdown();
    }

    #[test]
    fn a_burst_is_capped_at_max_in_flight() {
        let server = server();
        let handle = server.handle();
        let mut burst = Burst::new(&handle);
        let input: String = (0..MAX_IN_FLIGHT as u64 + 5)
            .map(|id| format!("{}\n", request_line(id)))
            .collect();
        let used = burst.scan(input.as_bytes());
        assert_eq!(burst.lines, MAX_IN_FLIGHT);
        assert!(used < input.len(), "the lines past the cap stay buffered");
        let mut out = Vec::new();
        burst.send(&mut out).unwrap();
        assert_eq!(replies(&out).len(), MAX_IN_FLIGHT);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = server.handle();
        std::thread::spawn(move || serve_tcp(listener, handle));
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut read_reply = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<ServeReply>(&line).unwrap()
        };
        for id in [5u64, 6] {
            writer
                .write_all(format!("{}\n", request_line(id)).as_bytes())
                .unwrap();
            writer.flush().unwrap();
            let reply = read_reply();
            assert_eq!(reply.status(), "ok");
            assert_eq!(reply.id(), Some(id));
        }
        // N lines in one write come back as N in-order replies.
        let ids: Vec<u64> = (100..140).collect();
        let burst: String = ids
            .iter()
            .map(|&id| format!("{}\n", request_line(id)))
            .collect();
        writer.write_all(burst.as_bytes()).unwrap();
        for &id in &ids {
            let reply = read_reply();
            assert_eq!(reply.status(), "ok");
            assert_eq!(reply.id(), Some(id));
        }
        drop(writer);
        server.shutdown();
    }

    #[test]
    fn a_client_that_stops_reading_is_disconnected_after_the_write_timeout() {
        let server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = server.handle();
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let served = serve_connection(&handle, stream, Duration::from_millis(100));
            let _ = done_tx.send(served);
        });
        let timeouts = hetsel_obs::registry().counter("hetsel.serve.conn.write_timeout");
        let before = timeouts.get();
        // Pipeline cached requests and never read a reply, until the
        // server hangs up.
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        std::thread::spawn(move || {
            let lines = format!("{}\n", request_line(1)).repeat(256);
            while writer.write_all(lines.as_bytes()).is_ok() {}
        });
        let served = done
            .recv_timeout(Duration::from_secs(60))
            .expect("the connection thread ends");
        let error = served.expect_err("a stalled write ends the session");
        assert!(
            matches!(
                error.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{error:?}"
        );
        assert_eq!(timeouts.get(), before + 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn a_connection_past_the_cap_is_refused_until_a_slot_frees() {
        let server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = Connections::new(2);
        {
            let handle = server.handle();
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(listener, &handle, &connections, WRITE_TIMEOUT));
        }
        let refused = hetsel_obs::registry().counter("hetsel.serve.conn.refused");
        let before = refused.get();
        let round_trip = |stream: &TcpStream, id: u64| {
            let mut writer = stream;
            writer
                .write_all(format!("{}\n", request_line(id)).as_bytes())
                .unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            serde_json::from_str::<ServeReply>(&line).unwrap()
        };
        // Two connections fill the cap; a reply on each shows both served.
        let first = TcpStream::connect(addr).unwrap();
        let second = TcpStream::connect(addr).unwrap();
        assert_eq!(round_trip(&first, 1).id(), Some(1));
        assert_eq!(round_trip(&second, 2).id(), Some(2));
        // The third gets one typed line, then EOF.
        let mut third = BufReader::new(TcpStream::connect(addr).unwrap());
        let mut line = String::new();
        third.read_line(&mut line).unwrap();
        match serde_json::from_str::<ServeReply>(&line).unwrap() {
            ServeReply::Error { id, message } => {
                assert_eq!(id, None);
                assert!(message.starts_with("too_many_connections: "), "{message}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        line.clear();
        assert_eq!(third.read_line(&mut line).unwrap(), 0, "{line}");
        assert!(refused.get() > before);
        // Closing one frees its slot once its thread has read the EOF; a
        // new connection is then served.
        drop(first);
        let patience = std::time::Instant::now() + Duration::from_secs(30);
        while connections.open() > 1 {
            assert!(
                std::time::Instant::now() < patience,
                "the slot was never freed"
            );
            std::thread::yield_now();
        }
        let fourth = TcpStream::connect(addr).unwrap();
        assert_eq!(round_trip(&fourth, 4).status(), "ok");
        drop((second, fourth));
        server.shutdown();
    }

    #[test]
    fn a_decision_after_a_dispatch_leaves_after_its_reply() {
        let server = server();
        let (_, binding) = find_kernel("gemm").unwrap();
        let dispatch = ServeRequest::new(DecisionRequest::new("gemm", binding(Dataset::Benchmark)))
            .with_id(1)
            .with_dispatch();
        let input = format!(
            "{}\n{}\n",
            serde_json::to_string(&dispatch).unwrap(),
            request_line(2)
        );
        let mut out = Vec::new();
        serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        let replies = replies(&out);
        assert_eq!(replies.len(), 2);
        match &replies[0] {
            ServeReply::Ok { id, dispatched, .. } => {
                assert_eq!(*id, Some(1));
                assert!(dispatched.is_some());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(replies[1].id(), Some(2));
        server.shutdown();
    }
}
