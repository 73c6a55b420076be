//! Serving workloads (`serve_cold`, `serve_warm`): a trained depth-2 model
//! behind `EventFrontend` (binary protocol) → `BatchEngine` (one worker,
//! shed admission) → `NodeClassifier` with an `ActivationCache`, driven
//! over loopback sockets by an in-process load generator.
//!
//! Two load shapes. **Closed loop**: a fixed number of callers per
//! connection, each sending its next request when its reply arrives —
//! callers that wait, which measures capacity. **Open loop**: requests are due on a fixed
//! schedule (constant rate, alternating over the connections) whether or
//! not earlier replies came back, and each is timed from when it was
//! *due*, so a stall is charged to every request it delays.

use crate::inputs::{permutation, uniform_requests, zipf_requests};
use crate::report::Report;
use crate::spec::{Mix, ServeSpec, SETUP_REPEATS};
use crate::stats::{median, percentile, sorted};
use crate::trace::{totals_by_name, Tracer, NO_PARENT};
use crate::train::dataset_spec;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::Dataset;
use gsgcn_graph::{l_hop_subgraph, one_hop_frontier, GraphStore};
use gsgcn_nn::model::GcnModel;
use gsgcn_nn::InferenceWorkspace;
use gsgcn_sampler::dashboard::FrontierConfig;
use gsgcn_serve::classifier::BatchClassify;
use gsgcn_serve::poll::wire::{self, WirePrediction, WireResponse};
use gsgcn_serve::poll::{EventFrontend, FrontendConfig, Protocol};
use gsgcn_serve::{
    ActivationCache, AdmissionControl, BatchEngine, ClassifyWorkspace, EngineConfig,
    NodeClassifier, Prediction,
};
use gsgcn_tensor::{DMatrix, Precision};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multi-label decision threshold (`gsgcn_metrics::f1`).
const DECISION_THRESHOLD: f32 = 0.5;
/// Replies checked against the oracle per phase.
const ORACLE_SAMPLES: usize = 16;
/// How long a phase waits for outstanding replies before calling them
/// timed out.
const DRAIN: Duration = Duration::from_secs(2);
/// A rate "meets the limit" when at most this share of its requests miss.
const MAX_MISS_FRAC: f64 = 0.01;
/// Closed-loop phases per server.
const CLOSED_PHASES: u64 = 3;
/// Percentile of `slow_op_ms`: the highest that repeated within its bound
/// when the benchmark was calibrated (p99 did not).
const TAIL: f64 = 0.90;

/// One client connection speaking the binary protocol.
struct Socket {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Socket {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Socket> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Socket timeouts only bound how long a lost reply or a stop flag
        // goes unnoticed; they are far too coarse (kernel ticks) to pace
        // anything, so no send ever waits on one.
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Socket {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            chunk: vec![0; 64 << 10],
        })
    }

    fn send(&mut self, id: u64, nodes: &[u32]) -> io::Result<()> {
        self.wbuf.clear();
        wire::encode_request(id, nodes, &mut self.wbuf);
        self.stream.write_all(&self.wbuf)
    }

    /// Block (up to the read timeout) for bytes; append complete replies.
    fn recv(&mut self, out: &mut Vec<(u64, WireResponse)>) -> io::Result<()> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => self.rbuf.extend_from_slice(&self.chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
        let mut used = 0;
        while let Some((n, id, resp)) =
            wire::try_decode_response(&self.rbuf[used..]).map_err(io::Error::other)?
        {
            used += n;
            out.push((id, resp));
        }
        self.rbuf.drain(..used);
        Ok(())
    }
}

/// What happened to one request.
#[derive(Debug)]
pub struct Record {
    pub id: u64,
    /// Milliseconds the generator sent it after it was due.
    pub late_ms: f64,
    /// None: no reply ever came (connection error or drain timeout).
    pub answer: Option<Answer>,
}

#[derive(Debug)]
pub struct Answer {
    /// Milliseconds from when the request was due (closed loop: sent)
    /// until its reply.
    pub latency_ms: f64,
    pub reply: WireResponse,
}

impl Record {
    /// Latency in ms; infinite for a request that was never answered.
    pub fn latency_ms(&self) -> f64 {
        self.answer.as_ref().map_or(f64::INFINITY, |a| a.latency_ms)
    }
}

/// One open-loop request: due `due_s` seconds after the phase starts.
pub struct Due<'a> {
    pub due_s: f64,
    pub id: u64,
    pub conn: usize,
    pub nodes: &'a [u32],
}

/// The sending half of the open loop: sleep until each request is due,
/// then hand it to `write`. Never waits for replies, so a slow server
/// cannot slow the schedule; a `write` that blocks makes every request
/// due meanwhile late, which is recorded. Returns each request's lateness
/// in milliseconds.
pub fn pace(
    start: Instant,
    schedule: &[Due<'_>],
    mut write: impl FnMut(&Due<'_>) -> io::Result<()>,
) -> Vec<f64> {
    schedule
        .iter()
        .map(|req| {
            let due = start + Duration::from_secs_f64(req.due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let late = Instant::now().saturating_duration_since(due);
            // A failed write surfaces as a request that never gets a reply.
            let _ = write(req);
            1e3 * late.as_secs_f64()
        })
        .collect()
}

/// Join the schedule with what the senders and readers saw. Latency runs
/// from the **due** time, so generator lateness and queueing behind a
/// stall are both inside it.
pub fn assemble(
    schedule: &[Due<'_>],
    late_ms: Vec<f64>,
    mut replies: BTreeMap<u64, (f64, WireResponse)>,
) -> Vec<Record> {
    schedule
        .iter()
        .zip(late_ms)
        .map(|(req, late_ms)| Record {
            id: req.id,
            late_ms,
            answer: replies.remove(&req.id).map(|(done_s, reply)| Answer {
                latency_ms: 1e3 * (done_s - req.due_s),
                reply,
            }),
        })
        .collect()
}

/// `poll(2)`, which `std` does not wrap: the open loop's one reader thread
/// has to sleep until either connection has bytes, and a blocking read on
/// one socket would leave the other's replies unstamped.
mod sys {
    use std::os::fd::RawFd;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 1;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
    }
}

/// Sleep until one of `conns` is readable (or hung up, or 50 ms passed);
/// returns which are.
fn readable(conns: &[Socket]) -> io::Result<Vec<bool>> {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout entries (`#[repr(C)]`, int + two shorts) naming
    // descriptors `conns` keeps open for the duration of the call.
    let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, 50) };
    if ready < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    // Hang-ups and errors set other bits; the read that follows reports them.
    Ok(fds.iter().map(|f| ready > 0 && f.revents != 0).collect())
}

/// The receiving half of the open loop: one thread for all connections,
/// timestamping each reply as it arrives, until `expected` have come or
/// `DRAIN` has passed since the sender finished.
fn read_replies(
    mut conns: Vec<Socket>,
    start: Instant,
    expected: usize,
    sending_done: &AtomicBool,
) -> Vec<(u64, f64, WireResponse)> {
    let mut got = Vec::with_capacity(expected);
    let mut batch = Vec::new();
    let mut give_up = None;
    while got.len() < expected {
        if sending_done.load(Ordering::Acquire) {
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                break;
            }
        }
        let Ok(ready) = readable(&conns) else {
            break;
        };
        for (conn, _) in conns.iter_mut().zip(ready).filter(|(_, r)| *r) {
            if conn.recv(&mut batch).is_err() {
                return got;
            }
        }
        let done = start.elapsed().as_secs_f64();
        got.extend(batch.drain(..).map(|(id, resp)| (id, done, resp)));
    }
    got
}

/// Closed loop over one connection: `window` callers, each with one
/// request in flight — a reply frees its caller to send the next — until
/// `seconds` have passed; then the requests still in flight are awaited.
fn drive_closed<'a>(
    conn: &mut Socket,
    start: Instant,
    seconds: f64,
    window: usize,
    mut requests: impl Iterator<Item = (u64, &'a [u32])>,
) -> Vec<Record> {
    let mut records: Vec<Record> = Vec::new();
    let mut sent_s: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
    let mut replies = Vec::new();
    let mut give_up = None;
    loop {
        let mut now = start.elapsed().as_secs_f64();
        while now < seconds && sent_s.len() < window {
            let Some((id, nodes)) = requests.next() else {
                break;
            };
            if conn.send(id, nodes).is_err() {
                return records; // what is in flight stays unanswered
            }
            sent_s.insert(id, (records.len(), now));
            records.push(Record {
                id,
                late_ms: 0.0,
                answer: None,
            });
            now = start.elapsed().as_secs_f64();
        }
        if sent_s.is_empty() {
            return records;
        }
        if now >= seconds {
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                return records;
            }
        }
        if conn.recv(&mut replies).is_err() {
            return records;
        }
        let done = start.elapsed().as_secs_f64();
        for (id, reply) in replies.drain(..) {
            if let Some((at, sent)) = sent_s.remove(&id) {
                records[at].answer = Some(Answer {
                    latency_ms: 1e3 * (done - sent),
                    reply,
                });
            }
        }
    }
}

/// `NodeClassifier` with its compute threads pinned: the engine's worker
/// would otherwise run GEMMs on the process-wide default pool.
struct Pinned {
    inner: NodeClassifier,
    pool: rayon::ThreadPool,
}

impl BatchClassify for Pinned {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        self.pool
            .install(|| self.inner.classify_into(nodes, ws, out))
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        self.inner.validate_nodes(nodes)
    }
}

struct Server {
    frontend: EventFrontend,
    engine: Arc<BatchEngine<Pinned>>,
    classifier: Arc<Pinned>,
    cache: Arc<ActivationCache>,
    /// Same model, graph and features, no cache: the reference answers.
    oracle: NodeClassifier,
    model: Arc<GcnModel>,
    hot: Vec<u32>,
    generate_s: f64,
}

fn setup(spec: &ServeSpec, seed: u64) -> Result<Server, String> {
    let t0 = Instant::now();
    let d = dataset_spec(crate::spec::Shape::Yelp, spec.vertices).generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();

    // Train the model that will be served.
    let cfg = TrainerConfig {
        sampler: FrontierConfig {
            frontier_size: 250,
            budget: 2000,
            ..FrontierConfig::default()
        },
        hidden_dims: spec.hidden.to_vec(),
        adam: Default::default(),
        dropout: 0.0,
        epochs: spec.train_epochs,
        p_inter: 2,
        threads: 2,
        sampler_threads: 0,
        eval_every: 0,
        prop_mode: Default::default(),
        fused: true,
        patience: None,
        seed,
    };
    let mut trainer = GsGcnTrainer::new(&d, cfg)?;
    for _ in 0..spec.train_epochs {
        let stats = trainer.train_epoch()?;
        if !stats.mean_loss.is_finite() {
            return Err(format!(
                "set-up training diverged: loss {}",
                stats.mean_loss
            ));
        }
    }
    let mut model = GcnModel::new(trainer.model().config().clone(), seed);
    model.import_weights(&trainer.model().export_weights())?;
    drop(trainer);
    let model = Arc::new(model);
    let Dataset {
        graph, features, ..
    } = d;
    // The hot set: a seeded draw from the middle half of the degree
    // distribution, in draw order (rank 1 of the Zipf stream first). Rank 1
    // takes a sixth of all draws, so with hubs eligible its degree alone —
    // anything from 1 to 1000 by seed — would decide how large the typical
    // one-hop ball is; typical nodes keep the work per request alike
    // across seeds.
    let mut degrees: Vec<usize> = (0..spec.vertices as u32).map(|v| graph.degree(v)).collect();
    degrees.sort_unstable();
    let band = degrees[degrees.len() / 4]..=degrees[3 * degrees.len() / 4];
    let hot: Vec<u32> = permutation(spec.vertices, seed ^ 0x407)
        .into_iter()
        .filter(|&v| band.contains(&graph.degree(v)))
        .take(spec.hot_set)
        .collect();
    let (graph, features) = (Arc::new(graph), Arc::new(features));

    let cache = Arc::new(ActivationCache::with_precision(
        spec.cache_bytes,
        Precision::F32,
    ));
    let inner = NodeClassifier::new(
        Arc::clone(&model),
        Arc::clone(&graph),
        Arc::clone(&features),
    )?
    .with_cache(Some(Arc::clone(&cache)));
    let oracle = NodeClassifier::new(Arc::clone(&model), graph, features)?.with_cache(None);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(spec.threads)
        .build()
        .map_err(|e| e.to_string())?;
    let classifier = Arc::new(Pinned { inner, pool });
    let engine = Arc::new(BatchEngine::spawn(
        Arc::clone(&classifier),
        EngineConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            admission: AdmissionControl::Shed,
        },
    )?);
    let frontend = EventFrontend::spawn(
        Arc::clone(&engine),
        "127.0.0.1:0",
        FrontendConfig {
            protocol: Protocol::Binary,
            max_conns: 16,
            idle_timeout: Duration::from_secs(60),
            max_pipeline: 256,
        },
    )
    .map_err(|e| format!("cannot start the front-end: {e}"))?;

    // Warm mix: pull the hot set (and with it the closed one-hop ball the
    // final hop reads) through the cold path once.
    for chunk in hot.chunks(64) {
        engine
            .classify(chunk.to_vec())
            .map_err(|e| format!("pre-warm failed: {e}"))?;
    }
    Ok(Server {
        frontend,
        engine,
        classifier,
        cache,
        oracle,
        model,
        hot,
        generate_s,
    })
}

fn requests(spec: &ServeSpec, server: &Server, count: usize, seed: u64) -> Vec<Vec<u32>> {
    match spec.mix {
        Mix::UniformNoReuse => uniform_requests(spec.vertices, spec.roots_per_request, count, seed),
        Mix::ZipfHot => zipf_requests(
            &server.hot,
            spec.zipf_s,
            spec.roots_per_request,
            count,
            seed,
        ),
    }
}

/// Whether a wire reply matches the oracle's prediction for one node of a
/// multi-label model: identical when `tol` is 0, otherwise probabilities
/// within `tol` and decided labels equal except where the oracle's
/// probability sits within `tol` of the decision boundary.
fn agrees(got: &WirePrediction, want: &Prediction, tol: f32) -> bool {
    if got.node != want.node || (got.max_prob - want.max_prob()).abs() > tol {
        return false;
    }
    if got.labels == want.labels {
        return true;
    }
    let differing = |c: &u32| got.labels.contains(c) != want.labels.contains(c);
    (0..want.probs.len() as u32)
        .filter(differing)
        .all(|c| (want.probs[c as usize] - DECISION_THRESHOLD).abs() <= tol)
}

/// One phase's merged outcome.
struct Phase {
    sent: u64,
    failed: u64,
    /// Latency of every request sent (ms), unsorted; infinite for one that
    /// failed, so that losing the slowest requests cannot improve a
    /// percentile.
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Requests that failed or took longer than the limit.
    missed: u64,
    /// Nodes classified in `Ok` replies.
    nodes_ok: u64,
    wall_s: f64,
}

impl Phase {
    fn miss_frac(&self) -> f64 {
        self.missed as f64 / self.sent.max(1) as f64
    }
}

/// Merge per-connection records, check a sample against the oracle, and
/// count failures: a request that errored, was shed, timed out or
/// disagrees with the oracle failed, and a failed request misses.
fn settle(
    spec: &ServeSpec,
    server: &Server,
    reqs: &[Vec<u32>],
    per_conn: Vec<Vec<Record>>,
    wall_s: f64,
    out: &mut Report,
) -> Phase {
    let tol = match spec.mix {
        Mix::UniformNoReuse => 0.0,
        Mix::ZipfHot => 1e-4,
    };
    let mut phase = Phase {
        sent: 0,
        failed: 0,
        lat_ms: Vec::new(),
        late_ms: Vec::new(),
        missed: 0,
        nodes_ok: 0,
        wall_s,
    };
    let total: usize = per_conn.iter().map(Vec::len).sum();
    let every = (total / ORACLE_SAMPLES).max(1) as u64;
    for rec in per_conn.into_iter().flatten() {
        phase.sent += 1;
        phase.late_ms.push(rec.late_ms);
        let nodes = &reqs[rec.id as usize % reqs.len()];
        let preds = match &rec.answer {
            Some(Answer {
                reply: WireResponse::Ok(preds),
                ..
            }) if preds.len() == nodes.len() => Some(preds),
            _ => None, // error reply, shed, or never answered
        };
        let mut ok = preds.is_some();
        if let (Some(preds), true) = (preds, rec.id % every == 0) {
            let want = server.oracle.classify(nodes).unwrap_or_default();
            ok = want.len() == preds.len()
                && preds.iter().zip(&want).all(|(g, w)| agrees(g, w, tol));
            if !ok {
                out.error(format!(
                    "request {} disagrees with the direct classify",
                    rec.id
                ));
            }
        }
        let latency_ms = if ok { rec.latency_ms() } else { f64::INFINITY };
        phase.lat_ms.push(latency_ms);
        if ok {
            phase.nodes_ok += nodes.len() as u64;
        } else {
            phase.failed += 1;
        }
        if latency_ms > spec.latency_limit_ms {
            phase.missed += 1;
        }
    }
    out.attempted += phase.sent;
    out.failed += phase.failed;
    phase
}

fn connect_all(spec: &ServeSpec, server: &Server) -> Result<Vec<Socket>, String> {
    (0..spec.connections)
        .map(|_| Socket::connect(server.frontend.local_addr()).map_err(|e| e.to_string()))
        .collect()
}

fn closed_phase(
    spec: &ServeSpec,
    server: &Server,
    seconds: f64,
    seed: u64,
    out: &mut Report,
) -> Result<Phase, String> {
    // More requests than the window can possibly serve.
    let reqs = requests(spec, server, 65_536, seed);
    let mut conns = connect_all(spec, server)?;
    let n = conns.len();
    let start = Instant::now();
    let per_conn: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine = reqs
                    .iter()
                    .enumerate()
                    .skip(c)
                    .step_by(n)
                    .map(|(i, r)| (i as u64, r.as_slice()));
                s.spawn(move || {
                    drive_closed(conn, start, seconds, spec.callers_per_connection, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    Ok(settle(spec, server, &reqs, per_conn, wall_s, out))
}

fn open_phase(
    spec: &ServeSpec,
    server: &Server,
    rate: f64,
    seconds: f64,
    seed: u64,
    out: &mut Report,
) -> Result<Phase, String> {
    let count = (rate * seconds).round().max(1.0) as usize;
    let reqs = requests(spec, server, count, seed);
    let readers = connect_all(spec, server)?;
    let n = readers.len();
    // The sending side writes through its own handle on each connection.
    let mut writers = readers
        .iter()
        .map(|r| r.stream.try_clone())
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut frame = Vec::new();
    let schedule: Vec<Due<'_>> = reqs
        .iter()
        .enumerate()
        .map(|(k, nodes)| Due {
            due_s: k as f64 / rate,
            id: k as u64,
            conn: k % n,
            nodes,
        })
        .collect();
    let sending_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(10);
    // Two generator threads: one reader timestamps replies from both
    // connections as they arrive; this thread is the scheduler for both.
    let (late_ms, replies) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_replies(readers, start, count, &sending_done));
        let late_ms = pace(start, &schedule, |req| {
            frame.clear();
            wire::encode_request(req.id, req.nodes, &mut frame);
            writers[req.conn].write_all(&frame)
        });
        sending_done.store(true, Ordering::Release);
        let replies: BTreeMap<u64, (f64, WireResponse)> = reader
            .join()
            .expect("reply reader thread")
            .into_iter()
            .map(|(id, done, resp)| (id, (done, resp)))
            .collect();
        (late_ms, replies)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let records = assemble(&schedule, late_ms, replies);
    Ok(settle(spec, server, &reqs, vec![records], wall_s, out))
}

fn check_frontend(server: &Server, out: &mut Report) {
    let errors = server
        .frontend
        .stats()
        .protocol_errors
        .load(Ordering::Relaxed);
    if errors > 0 {
        out.error(format!("front-end counted {errors} protocol errors"));
    }
}

/// Untraced pass. Set-up runs [`SETUP_REPEATS`] times anyway, so each
/// set-up's server gets its share of the window: an unmeasured warm-up,
/// the closed loop for capacity, the open loop at rate `mid`. Capacity is
/// read off every server's closed-loop phases together, and latency
/// percentiles are taken over the pooled open-loop requests of all
/// servers, failed ones included.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut out = Report::default();
    let share = seconds / SETUP_REPEATS as f64;
    let (mut setup_s, mut nodes_per_s) = (Vec::new(), Vec::new());
    let (mut lat_ms, mut missed) = (Vec::new(), 0u64);
    for rep in 0..SETUP_REPEATS as u64 {
        let t0 = Instant::now();
        let server = setup(spec, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());

        // The first second of traffic runs up to a third slower than
        // steady state (allocator growth, socket buffers, cold code);
        // users of a running server never see it.
        closed_phase(
            spec,
            &server,
            0.2 * share,
            seed ^ 0x3A23 ^ rep,
            &mut Report::default(),
        )?;
        // Capacity in short phases, [`CLOSED_PHASES`] per server: a box
        // hiccup spoils one phase, not a third of the sample.
        let mut closed_p50 = Vec::new();
        for k in 0..CLOSED_PHASES {
            let closed = closed_phase(
                spec,
                &server,
                0.3 * share / CLOSED_PHASES as f64,
                seed ^ 0xC105ED ^ (rep * CLOSED_PHASES + k),
                &mut out,
            )?;
            nodes_per_s.push(closed.nodes_ok as f64 / closed.wall_s);
            closed_p50.push(median(&closed.lat_ms));
        }
        let rate = median(&nodes_per_s[nodes_per_s.len() - CLOSED_PHASES as usize..]);
        let mid = open_phase(
            spec,
            &server,
            spec.rates[1],
            0.5 * share,
            seed ^ 0x0BE4 ^ rep,
            &mut out,
        )?;
        let lat = sorted(&mid.lat_ms);
        check_frontend(&server, &mut out);
        out.note(format!(
            "server {rep}: closed loop {rate:.0} nodes/s, p50 {:.3} ms; open loop at {} req/s: {} sent, {} failed, {} missed the {} ms limit, p50 {:.3} p{} {:.3} ms (n = {}), generator late p99 {:.3} ms",
            median(&closed_p50),
            spec.rates[1],
            mid.sent,
            mid.failed,
            mid.missed,
            spec.latency_limit_ms,
            percentile(&lat, 0.50),
            TAIL * 100.0,
            percentile(&lat, TAIL),
            lat.len(),
            percentile(&sorted(&mid.late_ms), 0.99),
        ));
        lat_ms.extend(lat);
        missed += mid.missed;
    }
    out.set("setup_s", median(&setup_s));
    // Capacity as a time, the one row it gets: seconds the closed loop
    // needs per `quota_nodes` classified nodes. Capacity is what a server
    // sustains when it has the machine, and everything that disturbs a
    // phase only slows it — a neighbour on the box, an unlucky placement of
    // five threads on two cores, the first server of a process — so it is
    // read off the upper quartile of the phases: their median moved by
    // ±9 % from run to run at definition time, the upper quartile by ±3 %.
    let capacity = percentile(&sorted(&nodes_per_s), 0.75);
    out.set("to_target_s", spec.quota_nodes as f64 / capacity);
    let lat_ms = sorted(&lat_ms);
    out.set("op_ms", percentile(&lat_ms, 0.50));
    out.set("slow_op_ms", percentile(&lat_ms, TAIL));
    out.set("quality", 1.0 - missed as f64 / lat_ms.len().max(1) as f64);
    Ok(out)
}

/// Per-request wire cost: encode and decode of a request frame and of its
/// reply frame, in microseconds.
fn wire_costs(reqs: &[Vec<u32>], replies: &[Vec<Prediction>], out: &mut Report) {
    let mut buf = Vec::new();
    let mut frames_req = Vec::new();
    let mut frames_resp = Vec::new();
    let results: Vec<_> = replies.iter().map(|p| Ok(p.clone())).collect();
    let t0 = Instant::now();
    for (i, r) in reqs.iter().enumerate() {
        buf.clear();
        wire::encode_request(i as u64, r, &mut buf);
        frames_req.push(buf.clone());
    }
    for (i, r) in results.iter().enumerate() {
        buf.clear();
        wire::encode_response(i as u64, r, &mut buf);
        frames_resp.push(buf.clone());
    }
    let encode = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for f in &frames_req {
        std::hint::black_box(wire::try_decode_request(f).ok());
    }
    for f in &frames_resp {
        std::hint::black_box(wire::try_decode_response(f).ok());
    }
    let decode = t0.elapsed().as_secs_f64();
    out.set("serve.wire_encode_us", 1e6 * encode / reqs.len() as f64);
    out.set("serve.wire_decode_us", 1e6 * decode / reqs.len() as f64);
}

/// The classifier's work on one request, rebuilt from the public pieces
/// `NodeClassifier::classify_into` is made of, each under a span.
#[allow(clippy::too_many_arguments)]
fn classify_pieces(
    tr: &Tracer,
    parent: u32,
    op: u64,
    server: &Server,
    nodes: &[u32],
    infer: &mut InferenceWorkspace,
    bufs: &mut [DMatrix; 3],
    ball_rows: &mut u64,
) {
    let store: &GraphStore = server.classifier.inner.store();
    let model = &*server.model;
    let hops = model.num_layers();
    let [x, hidden, probs] = bufs;
    let fb = tr.span("graph.ball", parent, op, || one_hop_frontier(store, nodes));
    let warm = tr.span("serve.cache.gather", parent, op, || {
        server
            .cache
            .try_gather(&fb.origin, model.hidden_width(), hidden)
    });
    if warm {
        *ball_rows += fb.origin.len() as u64;
        tr.span("nn.infer", parent, op, || {
            model.infer_probs_final_hop_into(&fb.graph, hidden, fb.num_roots, infer, probs)
        });
        return;
    }
    let (batch, layer_graphs, fb) = tr.span("graph.ball", parent, op, || {
        let batch = l_hop_subgraph(store, nodes, hops);
        let layer_graphs = batch.layer_graphs(hops);
        let fb = one_hop_frontier(&batch.sub.graph, &batch.root_locals);
        (batch, layer_graphs, fb)
    });
    *ball_rows += batch.num_vertices() as u64;
    tr.span("graph.store.gather", parent, op, || {
        store
            .gather_features_into(&batch.sub.origin, x)
            .expect("feature gather from a resident store")
    });
    tr.span("nn.infer", parent, op, || {
        model
            .infer_hidden_pruned_into(&layer_graphs[..hops - 1], x, infer)
            .gather_rows_into(&fb.origin, hidden);
        model.infer_probs_final_hop_into(&fb.graph, hidden, fb.num_roots, infer, probs)
    });
    tr.span("serve.cache.insert", parent, op, || {
        let orig: Vec<u32> = fb
            .origin
            .iter()
            .map(|&l| batch.sub.origin[l as usize])
            .collect();
        server.cache.insert_rows(&orig, hidden)
    });
}

/// Traced pass: the three open-loop rates, then the first requests of the
/// stream replayed one at a time at each rung of a direct-call ladder
/// (socket → engine → classifier → its pieces).
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Report, String> {
    let mut out = Report::default();
    let server = setup(spec, seed)?;
    out.set("data.generate_s", server.generate_s);

    let cache_before = server.cache.stats();
    let (batches_before, nodes_before) =
        (server.engine.batches(), server.engine.nodes_classified());
    let mut ok_rps = 0.0;
    let rungs = [
        ("lo", "serve.rate_lo_p99_ms"),
        ("mid", "serve.rate_mid_p99_ms"),
        ("hi", "serve.rate_hi_p99_ms"),
    ];
    for (i, ((name, p99_metric), rate)) in rungs.into_iter().zip(spec.rates).enumerate() {
        let phase = open_phase(
            spec,
            &server,
            rate,
            0.2 * seconds,
            seed ^ (0x0BE4 + i as u64),
            &mut out,
        )?;
        let lat = sorted(&phase.lat_ms);
        // Over 1 % failed (possible at `hi`, where shedding is the design):
        // the percentile is a failed request, reported as the drain time.
        let p99 = percentile(&lat, 0.99).min(1e3 * DRAIN.as_secs_f64());
        out.set(p99_metric, p99);
        match name {
            "mid" => out.set(
                "serve.loadgen_late_ms",
                percentile(&sorted(&phase.late_ms), 0.99),
            ),
            "hi" => out.set("serve.rate_hi_miss_frac", phase.miss_frac()),
            _ => {}
        }
        // Meets the limit, and replies kept up with the schedule (a
        // growing backlog shows as the phase overrunning its length).
        let kept_up = phase.wall_s <= 0.2 * seconds + 2.0 * spec.latency_limit_ms / 1e3;
        if phase.miss_frac() <= MAX_MISS_FRAC
            && percentile(&lat, TAIL) <= spec.latency_limit_ms
            && kept_up
        {
            ok_rps = rate;
        }
        out.note(format!(
            "open loop {name} at {rate} req/s: {} sent, {} failed, {} missed; p50 {:.3} p99 {:.3} ms",
            phase.sent,
            phase.failed,
            phase.missed,
            percentile(&lat, 0.50),
            p99
        ));
    }
    out.set("serve.max_ok_rps", ok_rps);
    let cache = server.cache.stats();
    let (hits, misses) = (
        (cache.hits - cache_before.hits) as f64,
        (cache.misses - cache_before.misses) as f64,
    );
    out.set(
        "serve.cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set(
        "serve.cache.evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );
    let batches = (server.engine.batches() - batches_before).max(1);
    out.set(
        "serve.engine.batch_size",
        (server.engine.nodes_classified() - nodes_before) as f64 / batches as f64,
    );
    out.set("serve.engine.shed", server.engine.shed() as f64);

    // The ladder. Every rung replays the same requests one at a time, in
    // alternating blocks: the box drifts by more over the seconds one rung
    // takes than the rungs differ by, and this way each rung samples every
    // stretch of the run. On the cold mix the cache is invalidated before
    // each block so every rung pays the cold path.
    const BLOCK: usize = 10;
    let n = spec.ladder_requests;
    let reqs = requests(spec, &server, n, seed ^ 0x1ADDE7);
    let cold = spec.mix == Mix::UniformNoReuse;
    let invalidate = || {
        if cold {
            server.cache.bump_version();
        }
    };
    let mut socket = Socket::connect(server.frontend.local_addr()).map_err(|e| e.to_string())?;
    let (mut socket_ms, mut engine_ms, mut classify_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies = Vec::with_capacity(n);
    let mut ws = ClassifyWorkspace::new();
    let mut preds = Vec::new();
    let mut infer = InferenceWorkspace::new();
    let mut bufs = [
        DMatrix::zeros(0, 0),
        DMatrix::zeros(0, 0),
        DMatrix::zeros(0, 0),
    ];
    let mut ball_rows = 0u64;
    let since = tracer.now_ns();
    for (b, block) in reqs.chunks(BLOCK).enumerate() {
        let ids = (b * BLOCK) as u64..;

        invalidate();
        let recs = drive_closed(
            &mut socket,
            Instant::now(),
            f64::INFINITY,
            1,
            ids.clone().zip(block.iter().map(Vec::as_slice)),
        );
        out.attempted += recs.len() as u64;
        for rec in &recs {
            socket_ms.push(rec.latency_ms());
            if !matches!(
                rec.answer,
                Some(Answer {
                    reply: WireResponse::Ok(_),
                    ..
                })
            ) {
                out.failed += 1;
            }
        }

        invalidate();
        for r in block {
            let t0 = Instant::now();
            let preds = server
                .engine
                .classify(r.clone())
                .map_err(|e| e.to_string())?;
            engine_ms.push(1e3 * t0.elapsed().as_secs_f64());
            replies.push(preds);
        }

        invalidate();
        for r in block {
            preds.clear();
            let t0 = Instant::now();
            server.classifier.classify_into(r, &mut ws, &mut preds)?;
            classify_ms.push(1e3 * t0.elapsed().as_secs_f64());
        }

        invalidate();
        server.classifier.pool.install(|| {
            for (op, r) in ids.zip(block) {
                let span = tracer.open("serve.classifier.pieces", NO_PARENT, op);
                classify_pieces(
                    tracer,
                    span,
                    op,
                    &server,
                    r,
                    &mut infer,
                    &mut bufs,
                    &mut ball_rows,
                );
                tracer.close(span);
            }
        });
    }
    drop(socket);
    let (socket_ms, engine_ms, classify_ms) =
        (median(&socket_ms), median(&engine_ms), median(&classify_ms));
    let totals = totals_by_name(&tracer.spans(), since);
    let per_req = |name: &str| totals.get(name).map_or(0.0, |t| t.0) / n as f64;
    let per_call_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| 1e6 * t.0 / t.2.max(1) as f64)
    };
    let pieces_ms = 1e3 * per_req("serve.classifier.pieces");

    wire_costs(&reqs, &replies, &mut out);
    out.set("serve.socket_ms", socket_ms);
    out.set("serve.poll.self_ms", socket_ms - engine_ms);
    out.set("serve.engine.self_ms", engine_ms - classify_ms);
    out.set("serve.classifier.classify_ms", classify_ms);
    // Rungs rebuilt from pieces over the socket median: how much of a
    // request the ladder accounts for.
    out.set(
        "serve.ladder_sum_ratio",
        ((socket_ms - engine_ms) + (engine_ms - classify_ms) + pieces_ms) / socket_ms,
    );
    out.set("graph.ball_s", per_req("graph.ball"));
    out.set("graph.ball_rows", ball_rows as f64 / n as f64);
    out.set("graph.store.gather_s", per_req("graph.store.gather"));
    out.set("nn.infer_s", per_req("nn.infer"));
    out.set("serve.cache.gather_us", per_call_us("serve.cache.gather"));
    out.set("serve.cache.insert_us", per_call_us("serve.cache.insert"));
    out.note(format!(
        "ladder over {n} requests: socket {socket_ms:.3} ms, engine {engine_ms:.3} ms, classifier {classify_ms:.3} ms, pieces {pieces_ms:.3} ms"
    ));
    check_frontend(&server, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        // Ten requests due 10 ms apart on a transport that answers the
        // moment a request is written; writing request 2 stalls 55 ms, so
        // requests 3..=6 are already overdue when the sender gets back.
        let nodes = [1u32];
        let schedule: Vec<Due<'_>> = (0..10)
            .map(|k| Due {
                due_s: 0.010 * k as f64,
                id: k,
                conn: 0,
                nodes: &nodes,
            })
            .collect();
        let start = Instant::now();
        let mut replies = BTreeMap::new();
        let late = pace(start, &schedule, |req| {
            if req.id == 2 {
                std::thread::sleep(Duration::from_millis(55));
            }
            replies.insert(
                req.id,
                (start.elapsed().as_secs_f64(), WireResponse::Ok(Vec::new())),
            );
            Ok(())
        });
        let recs = assemble(&schedule, late, replies);
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.answer.is_some()));
        // Before the stall: on time. The stalled request: the whole stall.
        assert!(recs[0].latency_ms() < 8.0 && recs[1].latency_ms() < 8.0);
        assert!(recs[2].late_ms < 8.0 && recs[2].latency_ms() >= 55.0);
        // Due at 30 ms, sent once the stall ended at ≥ 75 ms: ≥ 45 ms late,
        // and its latency counts from the due time although the transport
        // answered instantly.
        assert!(recs[3].late_ms >= 44.0, "late {}", recs[3].late_ms);
        assert!(
            recs[3].latency_ms() >= 44.0,
            "latency {}",
            recs[3].latency_ms()
        );
        assert!(
            recs[6].latency_ms() >= 14.0,
            "latency {}",
            recs[6].latency_ms()
        );
        // Well after the stall the schedule has recovered.
        assert!(
            recs[9].latency_ms() < 8.0,
            "latency {}",
            recs[9].latency_ms()
        );
    }

    #[test]
    fn a_request_without_a_reply_has_no_latency() {
        let nodes = [1u32];
        let schedule = [Due {
            due_s: 0.0,
            id: 0,
            conn: 0,
            nodes: &nodes,
        }];
        let recs = assemble(&schedule, vec![0.0], BTreeMap::new());
        assert!(recs[0].answer.is_none() && recs[0].latency_ms().is_infinite());
    }

    #[test]
    fn oracle_agreement_rule() {
        let want = Prediction {
            node: 7,
            labels: vec![1],
            probs: vec![0.2, 0.9, 0.50004],
        };
        let exact = WirePrediction {
            node: 7,
            max_prob: 0.9,
            labels: vec![1],
        };
        assert!(agrees(&exact, &want, 0.0));
        let near = WirePrediction {
            node: 7,
            max_prob: 0.90005,
            labels: vec![1, 2],
        };
        assert!(!agrees(&near, &want, 0.0));
        // Class 2 sits within 1e-4 of the boundary: either decision is fine.
        assert!(agrees(&near, &want, 1e-4));
        let wrong = WirePrediction {
            node: 7,
            max_prob: 0.9,
            labels: vec![0, 1],
        };
        assert!(!agrees(&wrong, &want, 1e-4));
    }
}
