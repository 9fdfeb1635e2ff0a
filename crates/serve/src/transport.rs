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
//! (`fill_buf`), submits every complete line already buffered — at most
//! [`MAX_IN_FLIGHT`] of them — with one [`ServerHandle::submit_all`]
//! (which answers cached decide-only requests on the spot), waits for
//! their replies in submission order, renders them with
//! [`ServeReply::write_json`] into one reused buffer, and sends them with
//! one `write_all` + `flush`. A client with one request in flight gets one
//! reply per request, as with a line-at-a-time loop; a client that
//! pipelines gets its buffered lines evaluated as one batch. The
//! transport never blocks on a read while it holds unwritten replies,
//! adds no threads, and never holds more than [`MAX_LINE_BYTES`] of an
//! unfinished line.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::proto::{parse_request_line, ServeReply, ServeRequest};
use crate::server::ServerHandle;

/// Most request lines one connection has in flight: the lines of one
/// burst. It bounds the replies a session buffers, and so its memory.
pub const MAX_IN_FLIGHT: usize = 16;

/// Longest request line accepted, in bytes without its newline. A longer
/// line gets a `line_too_long` error reply.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long the accept loop pauses after a failed accept, so a lasting
/// error (out of file descriptors) does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

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
    /// One entry per non-blank line of the burst, in order: the reply
    /// when the transport answers the line itself, `None` when the line
    /// went to the server (its request is next in `requests`).
    slots: Vec<Option<ServeReply>>,
    requests: Vec<ServeRequest>,
    /// The start of a line whose newline has not been read yet.
    partial: Vec<u8>,
    /// True while dropping the rest of an over-long line, whose reply is
    /// already in `slots`.
    skipping: bool,
    /// The rendered replies of the burst.
    out: Vec<u8>,
    stats: TransportStats,
}

impl<'h> Burst<'h> {
    fn new(handle: &'h ServerHandle) -> Burst<'h> {
        Burst {
            handle,
            slots: Vec::with_capacity(MAX_IN_FLIGHT),
            requests: Vec::with_capacity(MAX_IN_FLIGHT),
            partial: Vec::new(),
            skipping: false,
            out: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Frames the complete lines of `buf`, up to [`MAX_IN_FLIGHT`], and
    /// keeps a trailing unfinished line in `partial`. Returns how many
    /// bytes of `buf` it used.
    fn scan(&mut self, buf: &[u8]) -> usize {
        let mut used = 0;
        while self.slots.len() < MAX_IN_FLIGHT && used < buf.len() {
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

    /// Frames one complete line (without its newline).
    fn line(&mut self, bytes: &[u8]) {
        let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
        match std::str::from_utf8(bytes) {
            Ok(text) if text.trim().is_empty() => {}
            Ok(text) => match parse_request_line(text) {
                Ok(request) => {
                    self.stats.lines += 1;
                    self.requests.push(request);
                    self.slots.push(None);
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
        self.slots.push(Some(reply));
    }

    /// Submits the burst's requests together, waits for the replies in
    /// line order and sends them all in one write.
    fn send(&mut self, writer: &mut impl Write) -> io::Result<()> {
        if self.slots.is_empty() {
            return Ok(());
        }
        let mut pending = self.handle.submit_all(self.requests.drain(..)).into_iter();
        let (out, stats) = (&mut self.out, &mut self.stats);
        out.clear();
        let mut render = |reply: &ServeReply| {
            if reply.status() == "error" {
                stats.errors += 1;
            }
            reply.write_json(out);
            out.push(b'\n');
        };
        let replies = self.slots.len() as u64;
        for slot in self.slots.drain(..) {
            match slot {
                Some(reply) => render(&reply),
                None => pending
                    .next()
                    .expect("one pending request per submitted line")
                    .done
                    .wait_with(&mut render),
            }
        }
        writer.write_all(&self.out)?;
        writer.flush()?;
        self.stats.replies += replies;
        Ok(())
    }
}

/// Accept loop: serves every connection on `listener` in its own thread
/// (each connection runs [`serve_lines`] over the socket). A failed
/// accept is logged, counted in `hetsel.serve.accept_error` and skipped;
/// the loop never returns.
pub fn serve_tcp(listener: TcpListener, handle: ServerHandle) -> ! {
    loop {
        let spawned = listener.accept().and_then(|(stream, _)| {
            let handle = handle.clone();
            std::thread::Builder::new()
                .name("hetsel-serve-conn".to_string())
                .spawn(move || {
                    let _ = serve_connection(&handle, stream);
                })
        });
        if let Err(e) = spawned {
            hetsel_obs::static_counter!("hetsel.serve.accept_error").inc();
            eprintln!("[hetsel-serve] accept failed: {e}");
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }
}

fn serve_connection(handle: &ServerHandle, stream: TcpStream) -> io::Result<TransportStats> {
    // Each burst is one write; Nagle would hold a burst back until the
    // client acknowledged the previous one.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(handle, reader, stream)
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
        assert_eq!(burst.slots.len(), 1);
        burst.scan(b"tail\n");
        assert!(!burst.skipping && burst.partial.is_empty());
        assert_eq!(burst.slots.len(), 1);
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
        assert_eq!(burst.slots.len(), MAX_IN_FLIGHT);
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
}
