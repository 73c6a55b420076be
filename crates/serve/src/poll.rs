//! Event-driven TCP front-end: one thread serving N nonblocking
//! connections, blocking in `poll(2)` whenever it has nothing to do.
//!
//! # Readiness poller
//!
//! Every connection is nonblocking. The loop sweeps all of them —
//! accept, then read / submit / resolve / write per connection, then
//! cull — for as long as sweeps make progress; under load it never
//! enters the kernel except for the socket calls themselves. A sweep that
//! moves nothing blocks the thread in `poll(2)` on:
//!
//! * the listener (`POLLIN`: a connection to accept);
//! * each connection that may still read (`POLLIN`) and each with
//!   unwritten reply bytes (`POLLOUT`);
//! * the read end of the front end's **self-pipe** (a Unix socket pair),
//!   which the [`BatchEngine`] writes to when it fulfils a request this
//!   front end submitted, or frees queue space that a deferred Block-mode
//!   submit waits for, and which shutdown writes to as well.
//!
//! There is no periodic timer: the `poll` timeout is the earliest
//! idle-eviction deadline among the idle connections, and infinite when
//! no connection can expire. [`FrontendStats::waits`] counts the blocking
//! waits and [`FrontendStats::wait_timeouts`] those that ended by timeout.
//!
//! # Wake protocol
//!
//! The engine must not pay a syscall per completion while the loop is
//! busy, and must never leave the loop blocked on a completion it missed.
//! The front end's `Wake` holds a completion `epoch` and a `parked`
//! flag, both accessed `SeqCst`:
//!
//! 1. The loop reads `epoch` before each sweep.
//! 2. After a sweep without progress it stores `parked = true`, then
//!    reads `epoch` again; if it moved, it clears `parked` and sweeps
//!    again instead of blocking.
//! 3. The waker (the engine, after publishing a result or freeing queue
//!    space; shutdown, after raising the stop flag) increments `epoch`,
//!    then swaps `parked` to false, and writes one byte to the pipe only
//!    if the swap flipped it from true.
//!
//! Steps 2 and 3 are a store-then-load on each side of two `SeqCst`
//! locations, so one of them sees the other: either the loop's second
//! read sees the new epoch (it sweeps again and finds the result), or the
//! waker's swap sees `parked` and the byte makes `poll` return. A byte
//! that arrives after the loop has already woken for another reason
//! costs one extra sweep. The loop drains the pipe after every `poll`
//! that reports it readable.
//!
//! Per connection the state machine is: read bytes → parse frames
//! (line or binary protocol, see the crate docs) → submit to the
//! [`BatchEngine`] without blocking (a full Block-mode queue pauses
//! *parsing* for that connection, which backpressures the socket; the
//! engine rings the pipe once a worker claims from the queue) → take
//! answered requests with `try_take` → encode replies **in request
//! order** → write. Clients may pipeline arbitrarily many requests up to
//! `max_pipeline`.
//!
//! The front end is Unix-only: it names sockets to `poll(2)` by raw
//! file descriptor.
//!
//! # Line protocol
//!
//! One request per line; ids separated by spaces and/or commas:
//!
//! ```text
//! → 12 55 103\n
//! ← ok 12:7:0.9312 55:3:0.5127 103:7:0.8809\n
//! ```
//!
//! Each `node:labels:prob` triple reports the queried node, its decided
//! labels (comma-separated; argmax for single-label models, the
//! ≥ 0.5-probability classes — possibly `-` for none — for multi-label)
//! and the highest class probability. Failures answer
//! `err <message>\n` and keep the connection open; admission shedding
//! answers `overloaded\n`; an empty line or `quit` closes it.
//!
//! # Connection hygiene
//!
//! Connections idle longer than `idle_timeout` with nothing in flight
//! are evicted; `max_conns` bounds acceptance (excess connections get
//! one `overloaded` reply and close). A peer that stops sending
//! (half-close, or a plain close after its last request) still gets an
//! answer to everything it sent: every complete request already
//! buffered — in line mode also a final unterminated line — is parsed,
//! answered in order and flushed before the connection is dropped; only
//! an incomplete binary frame is discarded. State lives in the `Conn`
//! struct, not in a blocked reader thread, so there is no thread to
//! leak. Shutdown raises the stop flag, rings the pipe and joins the
//! single loop thread.

use crate::classifier::BatchClassify;
use crate::engine::{BatchEngine, ResponseHandle, ServeError, TrySubmitError};
use crate::Prediction;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which framing a [`EventFrontend`] speaks (see the crate docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Protocol {
    /// Newline-delimited text (interoperates with `nc`/telnet).
    #[default]
    Line,
    /// Length-prefixed binary frames with client request ids.
    Binary,
}

impl std::str::FromStr for Protocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "line" => Ok(Protocol::Line),
            "binary" => Ok(Protocol::Binary),
            other => Err(format!("bad protocol {other:?}: expected line|binary")),
        }
    }
}

/// Parse a request line into node ids.
pub fn parse_request(line: &str) -> Result<Vec<u32>, String> {
    let ids: Result<Vec<u32>, _> = line
        .split([' ', ',', '\t'])
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<u32>().map_err(|_| format!("bad node id {t:?}")))
        .collect();
    let ids = ids?;
    if ids.is_empty() {
        return Err("empty request".into());
    }
    Ok(ids)
}

/// Format one prediction as the wire triple `node:labels:prob`.
fn format_prediction(p: &Prediction) -> String {
    format!("{}:{}:{:.4}", p.node, p.labels_display(), p.max_prob())
}

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    pub protocol: Protocol,
    /// Accepted-connection bound; excess connections are refused with
    /// one `overloaded` reply.
    pub max_conns: usize,
    /// Connections idle this long with nothing in flight are evicted.
    pub idle_timeout: Duration,
    /// In-flight request bound per connection; beyond it, parsing
    /// pauses (socket backpressure) until replies drain.
    pub max_pipeline: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            protocol: Protocol::Line,
            max_conns: 1024,
            idle_timeout: Duration::from_secs(60),
            max_pipeline: 256,
        }
    }
}

impl FrontendConfig {
    fn validate(&self) -> Result<(), String> {
        if self.max_conns == 0 {
            return Err("max_conns must be ≥ 1".into());
        }
        if self.max_pipeline == 0 {
            return Err("max_pipeline must be ≥ 1".into());
        }
        Ok(())
    }
}

/// Relaxed counters of one running front-end.
#[derive(Debug, Default)]
pub struct FrontendStats {
    pub accepted: AtomicU64,
    pub refused: AtomicU64,
    pub evicted_idle: AtomicU64,
    pub requests: AtomicU64,
    pub replies: AtomicU64,
    pub protocol_errors: AtomicU64,
    /// Times the loop blocked in `poll(2)` after a sweep without progress.
    pub waits: AtomicU64,
    /// Blocking waits that ended by timeout (an idle-eviction deadline)
    /// rather than by readiness or a wake-up.
    pub wait_timeouts: AtomicU64,
}

/// Binary protocol framing (see the crate docs for the layout).
/// Encoders/decoders are plain buffer transforms so tests and bench
/// clients reuse them verbatim.
pub mod wire {
    use super::{Prediction, ServeError};

    /// Frame payload bound (1M-node request); a longer announced frame
    /// is a protocol error, not an allocation.
    pub const MAX_FRAME: usize = 4 << 20;

    /// One prediction as decoded by a binary-protocol client.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WirePrediction {
        pub node: u32,
        pub max_prob: f32,
        pub labels: Vec<u32>,
    }

    /// One decoded response frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum WireResponse {
        Ok(Vec<WirePrediction>),
        Err(String),
        Overloaded,
    }

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn get_u32(b: &[u8]) -> u32 {
        u32::from_le_bytes(b[..4].try_into().expect("length checked"))
    }

    /// Append one request frame.
    pub fn encode_request(req_id: u64, nodes: &[u32], out: &mut Vec<u8>) {
        let len = 8 + 4 + 4 * nodes.len();
        put_u32(out, len as u32);
        out.extend_from_slice(&req_id.to_le_bytes());
        put_u32(out, nodes.len() as u32);
        for &n in nodes {
            put_u32(out, n);
        }
    }

    /// Try to decode one request frame from the front of `buf`:
    /// `Ok(None)` = incomplete, `Ok(Some((consumed, req_id, nodes)))`
    /// on success, `Err` = malformed (close the connection).
    pub fn try_decode_request(buf: &[u8]) -> Result<Option<(usize, u64, Vec<u32>)>, String> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = get_u32(buf) as usize;
        if len > MAX_FRAME {
            return Err(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME} limit"
            ));
        }
        if len < 12 {
            return Err(format!("request frame of {len} bytes is too short"));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let body = &buf[4..4 + len];
        let req_id = u64::from_le_bytes(body[..8].try_into().expect("length checked"));
        let n = get_u32(&body[8..]) as usize;
        if len != 12 + 4 * n {
            return Err(format!(
                "request frame length {len} disagrees with count {n}"
            ));
        }
        let nodes = body[12..].chunks_exact(4).map(get_u32).collect();
        Ok(Some((4 + len, req_id, nodes)))
    }

    /// Append one response frame for an engine result.
    pub fn encode_response(
        req_id: u64,
        result: &Result<Vec<Prediction>, ServeError>,
        out: &mut Vec<u8>,
    ) {
        let at = out.len();
        put_u32(out, 0); // frame length backpatched below
        out.extend_from_slice(&req_id.to_le_bytes());
        match result {
            Ok(preds) => {
                out.push(0);
                put_u32(out, preds.len() as u32);
                for p in preds {
                    put_u32(out, p.node);
                    out.extend_from_slice(&p.max_prob().to_le_bytes());
                    put_u32(out, p.labels.len() as u32);
                    for &l in &p.labels {
                        put_u32(out, l);
                    }
                }
            }
            Err(ServeError::Overloaded) => out.push(2),
            Err(e) => {
                out.push(1);
                out.extend_from_slice(e.to_string().as_bytes());
            }
        }
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Try to decode one response frame from the front of `buf`; same
    /// contract as [`try_decode_request`].
    pub fn try_decode_response(buf: &[u8]) -> Result<Option<(usize, u64, WireResponse)>, String> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = get_u32(buf) as usize;
        if len > MAX_FRAME {
            return Err(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME} limit"
            ));
        }
        if len < 9 {
            return Err(format!("response frame of {len} bytes is too short"));
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let body = &buf[4..4 + len];
        let req_id = u64::from_le_bytes(body[..8].try_into().expect("length checked"));
        let payload = &body[9..];
        let resp = match body[8] {
            0 => {
                if payload.len() < 4 {
                    return Err("truncated ok payload".into());
                }
                let n = get_u32(payload) as usize;
                let mut preds = Vec::with_capacity(n);
                let mut at = 4;
                for _ in 0..n {
                    if payload.len() < at + 12 {
                        return Err("truncated prediction".into());
                    }
                    let node = get_u32(&payload[at..]);
                    let max_prob = f32::from_le_bytes(
                        payload[at + 4..at + 8].try_into().expect("length checked"),
                    );
                    let k = get_u32(&payload[at + 8..]) as usize;
                    at += 12;
                    if payload.len() < at + 4 * k {
                        return Err("truncated label list".into());
                    }
                    let labels = payload[at..at + 4 * k]
                        .chunks_exact(4)
                        .map(get_u32)
                        .collect();
                    at += 4 * k;
                    preds.push(WirePrediction {
                        node,
                        max_prob,
                        labels,
                    });
                }
                WireResponse::Ok(preds)
            }
            1 => WireResponse::Err(String::from_utf8_lossy(payload).into_owned()),
            2 => WireResponse::Overloaded,
            s => return Err(format!("unknown response status {s}")),
        };
        Ok(Some((4 + len, req_id, resp)))
    }
}

/// Input buffer bound: a line or partial frame beyond this is a
/// protocol error (DoS hygiene; legitimate requests are far smaller).
const MAX_RBUF: usize = wire::MAX_FRAME + 4;

/// One in-flight or answered request, queued per connection so replies
/// go out in request order even when the engine answers out of order.
enum Pending {
    Waiting {
        id: u64,
        handle: ResponseHandle,
    },
    Ready {
        id: u64,
        result: Result<Vec<Prediction>, ServeError>,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<Pending>,
    /// A parsed request the engine had no room for (Block mode): retried
    /// on every sweep, the next one once the engine rings for freed queue
    /// space, before any further parsing — per-connection ordering is
    /// preserved and the socket backpressures.
    deferred: Option<(u64, Vec<u32>)>,
    last_activity: Instant,
    /// The peer stopped sending (`read → Ok(0)`): nothing more will
    /// arrive, but what is already buffered is still parsed and answered.
    read_eof: bool,
    /// Stop parsing — `quit`, an empty line, a protocol error, or EOF
    /// with the buffer drained: flush pending replies, then drop.
    closing: bool,
    /// Unrecoverable I/O or protocol error: drop without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            deferred: None,
            last_activity: Instant::now(),
            read_eof: false,
            closing: false,
            dead: false,
        }
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.wbuf.is_empty() && self.deferred.is_none()
    }
}

/// `poll(2)`, which `std` does not wrap.
mod sys {
    use std::os::fd::RawFd;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
    }
}

/// The loop's doorbell: a completion epoch, a `parked` flag and a
/// self-pipe, plus the stop flag that shutdown raises before ringing. See
/// "Wake protocol" in the module docs for why every access is `SeqCst`
/// and why no wake-up is lost.
pub(crate) struct Wake {
    epoch: AtomicU64,
    parked: AtomicBool,
    stop: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Wake {
    fn new() -> std::io::Result<Wake> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Wake {
            epoch: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            tx,
            rx,
        })
    }

    /// Tell the loop something changed (protocol step 3): a syscall only
    /// when the loop is parked in, or about to enter, `poll`.
    pub(crate) fn wake(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            // A full socket buffer already holds bytes the loop will read,
            // so a failed write loses nothing.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Empty the pipe after `poll` reported it readable.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Handle to a running event front-end (one loop thread: sweeps, and
/// `poll(2)` between them).
/// Dropping it stops and joins the loop; [`EventFrontend::join`] blocks
/// until the loop exits on its own (listener error) — the CLI's serve
/// loop.
pub struct EventFrontend {
    local: std::net::SocketAddr,
    wake: Arc<Wake>,
    stats: Arc<FrontendStats>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EventFrontend {
    /// Bind `addr` and start the serve loop over `engine`.
    pub fn spawn<C: BatchClassify>(
        engine: Arc<BatchEngine<C>>,
        addr: &str,
        cfg: FrontendConfig,
    ) -> std::io::Result<EventFrontend> {
        cfg.validate().map_err(std::io::Error::other)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let wake = Arc::new(Wake::new()?);
        let stats = Arc::new(FrontendStats::default());
        let thread = {
            let wake = Arc::clone(&wake);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("gsgcn-serve-poll".into())
                .spawn(move || serve_loop(&engine, &listener, cfg, &wake, &stats))?
        };
        Ok(EventFrontend {
            local,
            wake,
            stats,
            thread: Some(thread),
        })
    }

    /// The bound address (ephemeral ports!).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local
    }

    /// The front-end's counters.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// Stop the serve loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the loop thread exits (it only does on listener
    /// failure or [`EventFrontend::shutdown`] from another handle).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn stop_and_join(&mut self) {
        // Raise the flag before ringing: a loop that sees the new epoch
        // or the byte re-checks the flag before it blocks again.
        self.wake.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EventFrontend {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop<C: BatchClassify>(
    engine: &BatchEngine<C>,
    listener: &TcpListener,
    cfg: FrontendConfig,
    wake: &Arc<Wake>,
    stats: &FrontendStats,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut read_chunk = [0u8; 4096];
    while !wake.stop.load(Ordering::SeqCst) {
        // Protocol step 1.
        let epoch = wake.epoch.load(Ordering::SeqCst);
        let mut progress = false;

        // --- Accept phase (bounded per sweep for fairness) ---
        for _ in 0..32 {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if conns.len() >= cfg.max_conns {
                        // Count first: a client that has read the refusal
                        // must find it counted.
                        stats.refused.fetch_add(1, Ordering::Relaxed);
                        refuse(stream, cfg.protocol);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream));
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => return, // listener gone: shut the front-end down
            }
        }

        // --- Per-connection phases ---
        for conn in conns.iter_mut() {
            progress |= step_conn(conn, engine, &cfg, wake, stats, &mut read_chunk);
        }

        // --- Cull phase ---
        let before = conns.len();
        let idle_timeout = cfg.idle_timeout;
        conns.retain(|c| {
            if c.dead || (c.closing && c.idle()) {
                return false;
            }
            if c.idle() && c.last_activity.elapsed() > idle_timeout {
                stats.evicted_idle.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            true
        });
        progress |= conns.len() != before;
        if progress {
            continue;
        }

        // --- Wait phase (protocol step 2) ---
        wake.parked.store(true, Ordering::SeqCst);
        if wake.epoch.load(Ordering::SeqCst) != epoch {
            wake.parked.store(false, Ordering::SeqCst);
            continue;
        }
        fds.clear();
        fds.push(poll_fd(listener.as_raw_fd(), sys::POLLIN));
        fds.push(poll_fd(wake.rx.as_raw_fd(), sys::POLLIN));
        for c in &conns {
            let mut events = 0;
            if !c.closing && !c.read_eof {
                events |= sys::POLLIN;
            }
            if c.wpos < c.wbuf.len() {
                events |= sys::POLLOUT;
            }
            // A connection waiting only on the engine is left out: a
            // hang-up would otherwise wake the loop with nothing to do.
            if events != 0 {
                fds.push(poll_fd(c.stream.as_raw_fd(), events));
            }
        }
        stats.waits.fetch_add(1, Ordering::Relaxed);
        let timeout_ms = eviction_timeout_ms(&conns, idle_timeout);
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `pollfd`-layout entries (`#[repr(C)]`, an int and
        // two shorts); `poll` writes only their `revents`. The
        // descriptors belong to `listener`, `wake` and `conns`, which all
        // outlive the call.
        let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
        wake.parked.store(false, Ordering::SeqCst);
        match ready {
            0 => {
                stats.wait_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            n if n > 0 => {
                if fds[1].revents != 0 {
                    wake.drain();
                }
            }
            _ => {
                if std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
                    return; // `poll` itself failed: shut the front-end down
                }
            }
        }
    }
}

fn poll_fd(fd: RawFd, events: i16) -> sys::PollFd {
    sys::PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// Milliseconds until the first idle connection is due for eviction,
/// rounded up and one past it (eviction needs `elapsed > idle_timeout`);
/// `-1` (no timeout) when nothing can expire, a deadline past what
/// `Instant` can hold included.
fn eviction_timeout_ms(conns: &[Conn], idle_timeout: Duration) -> i32 {
    let Some(first) = conns
        .iter()
        .filter(|c| c.idle())
        .filter_map(|c| c.last_activity.checked_add(idle_timeout))
        .min()
    else {
        return -1;
    };
    let left = first.saturating_duration_since(Instant::now());
    i32::try_from(left.as_micros().div_ceil(1000) + 1).unwrap_or(i32::MAX)
}

/// One sweep step of one connection; returns whether anything moved.
fn step_conn<C: BatchClassify>(
    conn: &mut Conn,
    engine: &BatchEngine<C>,
    cfg: &FrontendConfig,
    wake: &Arc<Wake>,
    stats: &FrontendStats,
    chunk: &mut [u8],
) -> bool {
    if conn.dead {
        return false;
    }
    let mut progress = false;

    // --- Read phase (bounded per sweep for fairness) ---
    if !conn.closing && !conn.read_eof {
        for _ in 0..8 {
            if conn.rbuf.len() >= MAX_RBUF {
                protocol_error(conn, cfg.protocol, "input buffer overflow", stats);
                break;
            }
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    // --- Submit phase: retry the deferred request, then parse more ---
    if let Some((id, nodes)) = conn.deferred.take() {
        // On false the queue is still full; submit() re-stashed the request.
        if submit(conn, engine, id, nodes, wake) {
            progress = true;
        }
    }
    if conn.deferred.is_none() && !conn.dead {
        progress |= parse_input(conn, engine, cfg, wake, stats);
    }

    // --- Resolve phase: drain answered requests in order ---
    while let Some(front) = conn.pending.front_mut() {
        match front {
            Pending::Ready { .. } => {}
            Pending::Waiting { handle, .. } => match handle.try_take() {
                Some(result) => {
                    let id = match front {
                        Pending::Waiting { id, .. } => *id,
                        Pending::Ready { .. } => unreachable!(),
                    };
                    *front = Pending::Ready { id, result };
                }
                None => break,
            },
        }
        let Some(Pending::Ready { id, result }) = conn.pending.pop_front() else {
            unreachable!("front was just made Ready");
        };
        encode_reply(conn, cfg.protocol, id, &result);
        stats.replies.fetch_add(1, Ordering::Relaxed);
        progress = true;
    }

    // --- Write phase ---
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                conn.last_activity = Instant::now();
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    progress
}

/// Parse as many complete requests as the pipeline bound allows. Once
/// the peer has stopped sending and nothing complete is left, the
/// connection starts closing (a final unterminated line is served first;
/// an incomplete binary frame is discarded).
fn parse_input<C: BatchClassify>(
    conn: &mut Conn,
    engine: &BatchEngine<C>,
    cfg: &FrontendConfig,
    wake: &Arc<Wake>,
    stats: &FrontendStats,
) -> bool {
    let mut progress = false;
    let mut consumed = 0usize;
    // Whether parsing stopped because no complete request is buffered
    // (as opposed to a full pipeline or a deferred submit).
    let mut drained = false;
    while !conn.closing && conn.deferred.is_none() && conn.pending.len() < cfg.max_pipeline {
        match cfg.protocol {
            Protocol::Line => {
                let rest = &conn.rbuf[consumed..];
                let (end, used) = match rest.iter().position(|&b| b == b'\n') {
                    Some(nl) => (nl, nl + 1),
                    None if conn.read_eof && !rest.is_empty() => (rest.len(), rest.len()),
                    None => {
                        drained = true;
                        break;
                    }
                };
                let line = std::str::from_utf8(&rest[..end])
                    .unwrap_or("\u{FFFD}")
                    .trim();
                consumed += used;
                if line.is_empty() || line == "quit" {
                    conn.closing = true;
                    break;
                }
                progress = true;
                match parse_request(line) {
                    Ok(nodes) => {
                        stats.requests.fetch_add(1, Ordering::Relaxed);
                        submit(conn, engine, 0, nodes, wake);
                    }
                    Err(e) => conn.pending.push_back(Pending::Ready {
                        id: 0,
                        result: Err(ServeError::BadRequest(e)),
                    }),
                }
            }
            Protocol::Binary => match wire::try_decode_request(&conn.rbuf[consumed..]) {
                Ok(None) => {
                    drained = true;
                    break;
                }
                Ok(Some((used, id, nodes))) => {
                    consumed += used;
                    progress = true;
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    submit(conn, engine, id, nodes, wake);
                }
                Err(e) => {
                    protocol_error(conn, cfg.protocol, &e, stats);
                    break;
                }
            },
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    if drained && conn.read_eof {
        conn.rbuf.clear();
        conn.closing = true;
        progress = true;
    }
    progress
}

/// Submit one parsed request, asking the engine to ring `wake` when it
/// is answered; on a full Block-mode queue the request is parked in
/// `conn.deferred` (and `false` returned) so the loop retries it, once
/// the engine rings for freed queue space, before parsing anything newer.
fn submit<C: BatchClassify>(
    conn: &mut Conn,
    engine: &BatchEngine<C>,
    id: u64,
    nodes: Vec<u32>,
    wake: &Arc<Wake>,
) -> bool {
    match engine.try_submit_woken(nodes, wake) {
        Ok(handle) => {
            conn.pending.push_back(Pending::Waiting { id, handle });
            true
        }
        Err(TrySubmitError::Full(nodes)) => {
            conn.deferred = Some((id, nodes));
            false
        }
        Err(TrySubmitError::Rejected(e)) => {
            conn.pending
                .push_back(Pending::Ready { id, result: Err(e) });
            true
        }
    }
}

/// Append one reply in the connection's protocol framing.
fn encode_reply(
    conn: &mut Conn,
    protocol: Protocol,
    id: u64,
    result: &Result<Vec<Prediction>, ServeError>,
) {
    match protocol {
        Protocol::Line => {
            let line = match result {
                Ok(preds) => {
                    let body = preds
                        .iter()
                        .map(format_prediction)
                        .collect::<Vec<_>>()
                        .join(" ");
                    format!("ok {body}")
                }
                Err(ServeError::Overloaded) => "overloaded".to_string(),
                Err(e) => format!("err {e}"),
            };
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.wbuf.push(b'\n');
        }
        Protocol::Binary => wire::encode_response(id, result, &mut conn.wbuf),
    }
}

/// Tear a connection down on a framing violation: one last error reply,
/// then close (a framing error desynchronises the stream — there is no
/// safe way to keep parsing).
fn protocol_error(conn: &mut Conn, protocol: Protocol, msg: &str, stats: &FrontendStats) {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    encode_reply(
        conn,
        protocol,
        0,
        &Err(ServeError::BadRequest(msg.to_string())),
    );
    conn.rbuf.clear();
    conn.closing = true;
}

/// Best-effort `overloaded` reply to a connection refused at
/// `max_conns` (nonblocking write; if the socket is not writable the
/// close alone carries the message).
fn refuse(stream: TcpStream, protocol: Protocol) {
    let _ = stream.set_nonblocking(true);
    let mut buf = Vec::new();
    match protocol {
        Protocol::Line => buf.extend_from_slice(b"overloaded\n"),
        Protocol::Binary => wire::encode_response(0, &Err(ServeError::Overloaded), &mut buf),
    }
    let mut s = stream;
    let _ = s.write(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_mixed_separators() {
        assert_eq!(parse_request("1 2,3\t4").unwrap(), vec![1, 2, 3, 4]);
        assert!(parse_request("1 x").is_err());
        assert!(parse_request("   ").is_err());
    }

    #[test]
    fn prediction_wire_format() {
        let p = Prediction {
            node: 9,
            labels: vec![2, 5],
            probs: vec![0.1, 0.2, 0.7],
        };
        assert_eq!(format_prediction(&p), "9:2,5:0.7000");
        let none = Prediction {
            node: 1,
            labels: vec![],
            probs: vec![0.3],
        };
        assert_eq!(format_prediction(&none), "1:-:0.3000");
    }

    #[test]
    fn protocol_parses() {
        assert_eq!("line".parse::<Protocol>().unwrap(), Protocol::Line);
        assert_eq!("binary".parse::<Protocol>().unwrap(), Protocol::Binary);
        assert!("http".parse::<Protocol>().is_err());
    }

    #[test]
    fn request_frames_round_trip() {
        let mut buf = Vec::new();
        wire::encode_request(42, &[7, 0, 999], &mut buf);
        wire::encode_request(43, &[1], &mut buf);
        let (used, id, nodes) = wire::try_decode_request(&buf).unwrap().unwrap();
        assert_eq!((id, nodes), (42, vec![7, 0, 999]));
        let (used2, id2, nodes2) = wire::try_decode_request(&buf[used..]).unwrap().unwrap();
        assert_eq!((id2, nodes2), (43, vec![1]));
        assert_eq!(used + used2, buf.len());
        // Truncated prefix: incomplete, not an error.
        assert!(wire::try_decode_request(&buf[..used - 1])
            .unwrap()
            .is_none());
        assert!(wire::try_decode_request(&buf[..3]).unwrap().is_none());
    }

    #[test]
    fn response_frames_round_trip() {
        let preds = vec![
            Prediction {
                node: 5,
                labels: vec![2, 7],
                probs: vec![0.1, 0.2, 0.7],
            },
            Prediction {
                node: 9,
                labels: vec![],
                probs: vec![0.4],
            },
        ];
        let mut buf = Vec::new();
        wire::encode_response(11, &Ok(preds.clone()), &mut buf);
        wire::encode_response(12, &Err(ServeError::Overloaded), &mut buf);
        wire::encode_response(13, &Err(ServeError::BadRequest("nope".into())), &mut buf);
        let (used, id, resp) = wire::try_decode_response(&buf).unwrap().unwrap();
        assert_eq!(id, 11);
        match resp {
            wire::WireResponse::Ok(got) => {
                assert_eq!(got.len(), 2);
                assert_eq!(got[0].node, 5);
                assert_eq!(got[0].labels, vec![2, 7]);
                assert!((got[0].max_prob - 0.7).abs() < 1e-6);
                assert_eq!(got[1].labels, Vec::<u32>::new());
            }
            other => panic!("unexpected {other:?}"),
        }
        let (used2, id2, resp2) = wire::try_decode_response(&buf[used..]).unwrap().unwrap();
        assert_eq!((id2, resp2), (12, wire::WireResponse::Overloaded));
        let (_, id3, resp3) = wire::try_decode_response(&buf[used + used2..])
            .unwrap()
            .unwrap();
        assert_eq!(id3, 13);
        assert_eq!(
            resp3,
            wire::WireResponse::Err("bad request: nope".to_string())
        );
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        // Announced length beyond the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        assert!(wire::try_decode_request(&buf).is_err());
        // Length/count disagreement.
        let mut buf = Vec::new();
        wire::encode_request(1, &[1, 2, 3], &mut buf);
        buf[4 + 8] = 99; // count field corrupted
        assert!(wire::try_decode_request(&buf).is_err());
        // Unknown response status.
        let mut buf = Vec::new();
        wire::encode_response(1, &Err(ServeError::Overloaded), &mut buf);
        buf[12] = 77;
        assert!(wire::try_decode_response(&buf).is_err());
    }
}
