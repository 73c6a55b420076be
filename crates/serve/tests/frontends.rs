//! Front-end integration tests for the event-driven poller: line +
//! binary protocols, pipelining, idle eviction, max-conns, shed and
//! block admission, the peer-stopped-sending (EOF) path, and the
//! blocking wait: counted wake-ups, no timeouts, prompt shutdown.

use gsgcn_graph::GraphBuilder;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::classifier::BatchClassify;
use gsgcn_serve::poll::{wire, EventFrontend, FrontendConfig, Protocol};
use gsgcn_serve::{
    AdmissionControl, BatchEngine, ClassifyWorkspace, EngineConfig, NodeClassifier, Prediction,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn classifier() -> Arc<NodeClassifier> {
    let n = 24;
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .chain((0..n as u32 / 2).map(|i| (i, i + n as u32 / 2)))
        .collect();
    let g = GraphBuilder::new(n).add_edges(edges).build();
    let x = gsgcn_tensor::DMatrix::from_fn(n, 6, |i, j| ((i * 5 + j) % 9) as f32 * 0.2 - 0.7);
    let model = GcnModel::new(
        GcnConfig {
            in_dim: 6,
            hidden_dims: vec![8, 8],
            num_classes: 4,
            loss: LossKind::SoftmaxCe,
            ..GcnConfig::default()
        },
        23,
    );
    Arc::new(NodeClassifier::new(Arc::new(model), Arc::new(g), Arc::new(x)).unwrap())
}

fn engine(c: Arc<NodeClassifier>) -> Arc<BatchEngine<NodeClassifier>> {
    Arc::new(
        BatchEngine::spawn(
            c,
            EngineConfig {
                workers: 1,
                max_batch: 64,
                max_wait: Duration::from_millis(5),
                queue_capacity: 64,
                admission: AdmissionControl::Block,
            },
        )
        .unwrap(),
    )
}

/// Read exactly one binary response frame off a blocking stream.
fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u64, wire::WireResponse) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((used, id, resp)) = wire::try_decode_response(buf).expect("well-formed frame") {
            buf.drain(..used);
            return (id, resp);
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed mid-frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn poll_line_protocol_round_trip() {
    let c = classifier();
    let eng = engine(Arc::clone(&c));
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();

    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writer.write_all(b"3, 11 20\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok "), "{line}");
    assert_eq!(line.trim()[3..].split(' ').count(), 3);
    let direct = c.classify(&[3, 11, 20]).unwrap();
    for (triple, p) in line.trim()[3..].split(' ').zip(&direct) {
        assert!(
            triple.starts_with(&format!("{}:{}:", p.node, p.labels[0])),
            "{triple}"
        );
    }

    // Bad id: error reply, connection stays usable.
    writer.write_all(b"999999\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("err ") && line.contains("out of range"),
        "{line}"
    );

    writer.write_all(b"0\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok 0:"), "{line}");

    writer.write_all(b"quit\n").unwrap();
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "should close");
    fe.shutdown();
}

#[test]
fn poll_binary_protocol_pipelines_in_order() {
    let c = classifier();
    let eng = engine(Arc::clone(&c));
    let cfg = FrontendConfig {
        protocol: Protocol::Binary,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
    // Pipeline 8 requests in one write, ids 100..108.
    let mut out = Vec::new();
    for i in 0..8u64 {
        wire::encode_request(100 + i, &[i as u32, (i as u32 + 7) % 24], &mut out);
    }
    // And one bad request in the middle of the stream.
    wire::encode_request(999, &[23, 9999], &mut out);
    stream.write_all(&out).unwrap();

    let direct = |n: &[u32]| c.classify(n).unwrap();
    let mut buf = Vec::new();
    for i in 0..8u64 {
        let (id, resp) = read_frame(&mut stream, &mut buf);
        assert_eq!(id, 100 + i, "replies must come back in request order");
        let wire::WireResponse::Ok(preds) = resp else {
            panic!("unexpected response for id {id}: {resp:?}");
        };
        let want = direct(&[i as u32, (i as u32 + 7) % 24]);
        assert_eq!(preds.len(), 2);
        for (p, w) in preds.iter().zip(&want) {
            assert_eq!(p.node, w.node);
            assert_eq!(p.labels, w.labels);
            assert!((p.max_prob - w.max_prob()).abs() < 1e-6);
        }
    }
    let (id, resp) = read_frame(&mut stream, &mut buf);
    assert_eq!(id, 999);
    let wire::WireResponse::Err(m) = resp else {
        panic!("expected error frame, got {resp:?}");
    };
    assert!(m.contains("out of range"), "{m}");
    assert_eq!(fe.stats().requests.load(Ordering::Relaxed), 9);
    fe.shutdown();
}

#[test]
fn poll_evicts_idle_connections() {
    let eng = engine(classifier());
    let cfg = FrontendConfig {
        idle_timeout: Duration::from_millis(150),
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();

    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Sit idle: the front-end must close on us.
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "not evicted");
    assert!(fe.stats().evicted_idle.load(Ordering::Relaxed) >= 1);
    fe.shutdown();
}

#[test]
fn poll_refuses_connections_past_max_conns() {
    let eng = engine(classifier());
    let cfg = FrontendConfig {
        max_conns: 1,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();

    let keeper = TcpStream::connect(fe.local_addr()).unwrap();
    let mut kw = keeper.try_clone().unwrap();
    let mut kr = BufReader::new(keeper);
    let mut line = String::new();
    kw.write_all(b"1\n").unwrap();
    kr.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok "), "{line}");

    // Second connection: one `overloaded` line, then close.
    let extra = TcpStream::connect(fe.local_addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut er = BufReader::new(extra);
    line.clear();
    let t0 = Instant::now();
    loop {
        match er.read_line(&mut line) {
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                assert!(t0.elapsed() < Duration::from_secs(5), "no refusal reply");
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
    assert_eq!(line.trim(), "overloaded", "{line}");
    assert!(fe.stats().refused.load(Ordering::Relaxed) >= 1);

    // The first connection is unaffected.
    kw.write_all(b"2\n").unwrap();
    line.clear();
    kr.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok "), "{line}");
    fe.shutdown();
}

/// Shed admission end-to-end over the binary protocol: flooding a tiny
/// queue yields explicit status-2 `overloaded` frames, not hangs.
struct SlowClassifier(Arc<NodeClassifier>);

impl BatchClassify for SlowClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        std::thread::sleep(Duration::from_millis(30));
        self.0.classify_into(nodes, ws, out)
    }
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
}

#[test]
fn poll_shed_overload_replies_overloaded() {
    let eng = Arc::new(
        BatchEngine::spawn(
            Arc::new(SlowClassifier(classifier())),
            EngineConfig {
                workers: 1,
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                queue_capacity: 2,
                admission: AdmissionControl::Shed,
            },
        )
        .unwrap(),
    );
    let cfg = FrontendConfig {
        protocol: Protocol::Binary,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
    let total = 24u64;
    let mut out = Vec::new();
    for i in 0..total {
        wire::encode_request(i, &[(i % 24) as u32], &mut out);
    }
    stream.write_all(&out).unwrap();
    let mut buf = Vec::new();
    let (mut served, mut shed) = (0u32, 0u32);
    for want in 0..total {
        let (id, resp) = read_frame(&mut stream, &mut buf);
        assert_eq!(id, want, "order must survive shedding");
        match resp {
            wire::WireResponse::Ok(_) => served += 1,
            wire::WireResponse::Overloaded => shed += 1,
            wire::WireResponse::Err(m) => panic!("unexpected err {m}"),
        }
    }
    assert!(served > 0, "nothing served under overload");
    assert!(shed > 0, "24 requests into a 2-slot queue shed nothing");
    fe.shutdown();
}

/// A peer that sends its last request without a newline and half-closes
/// still gets its answer: the unterminated final line is served, the
/// reply flushed, then the connection closed. (Shutdown joining proves
/// the loop thread exited.)
#[test]
fn poll_serves_final_partial_line_on_eof() {
    let eng = engine(classifier());
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();

    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"0 5").unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok 0:"), "{line:?}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "should close");
    assert_eq!(fe.stats().replies.load(Ordering::Relaxed), 1);
    fe.shutdown();
}

/// Line mode, terminated lines: two pipelined requests followed at once
/// by a plain half-close are both answered, in order, before the close.
#[test]
fn poll_answers_pipelined_lines_before_closing_on_eof() {
    let eng = engine(classifier());
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();

    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"3\n17 4\n").unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok 3:"), "{line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ok 17:") && line.contains(" 4:"),
        "{line:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "should close");
    fe.shutdown();
}

/// Requests that arrive together with the peer's FIN are not dropped:
/// three pipelined binary frames and the half-close go out back to back,
/// and all three replies come back in order before the close.
#[test]
fn poll_answers_requests_that_arrive_with_the_fin() {
    let c = classifier();
    let eng = engine(Arc::clone(&c));
    let cfg = FrontendConfig {
        protocol: Protocol::Binary,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();

    let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
    let mut out = Vec::new();
    for i in 0..3u64 {
        wire::encode_request(7 + i, &[i as u32, 23 - i as u32], &mut out);
    }
    stream.write_all(&out).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut buf = Vec::new();
    for i in 0..3u64 {
        let (id, resp) = read_frame(&mut stream, &mut buf);
        assert_eq!(id, 7 + i, "replies must come back in request order");
        let wire::WireResponse::Ok(preds) = resp else {
            panic!("unexpected response for id {id}: {resp:?}");
        };
        let want = c.classify(&[i as u32, 23 - i as u32]).unwrap();
        assert_eq!(preds.len(), 2);
        for (p, w) in preds.iter().zip(&want) {
            assert_eq!((p.node, &p.labels), (w.node, &w.labels));
        }
    }
    assert!(buf.is_empty(), "bytes after the last reply: {buf:?}");
    assert_eq!(stream.read(&mut [0u8; 16]).unwrap(), 0, "should close");
    fe.shutdown();
}

/// Block admission through the front door: a one-slot queue behind a
/// slow worker refuses most submits with `Full`, the connection's
/// deferred request waits for the engine to ring the loop when a worker
/// claims, and every pipelined request is answered, in order, without a
/// single `poll` ending by timeout (nothing retries on a timer). Two
/// requests submitted directly occupy the worker and the queue first, so
/// the first claim that frees space for the front end answers none of
/// its requests: only the space ring can wake the loop then.
#[test]
fn poll_block_admission_waits_for_the_engine_to_free_space() {
    let c = classifier();
    let eng = Arc::new(
        BatchEngine::spawn(
            Arc::new(SlowClassifier(Arc::clone(&c))),
            EngineConfig {
                workers: 1,
                max_batch: 64,
                max_wait: Duration::ZERO,
                queue_capacity: 1,
                admission: AdmissionControl::Block,
            },
        )
        .unwrap(),
    );
    let cfg = FrontendConfig {
        protocol: Protocol::Binary,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(Arc::clone(&eng), "127.0.0.1:0", cfg).unwrap();
    let mut stream = TcpStream::connect(fe.local_addr()).unwrap();

    // The second submit returns once the worker has claimed the first.
    let busy = eng.submit(vec![0]).unwrap();
    let queued = eng.submit(vec![1]).unwrap();
    // A lost wake-up fails the read instead of hanging the test.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    for i in 0..16u64 {
        wire::encode_request(i, &[(i * 5 % 24) as u32], &mut out);
    }
    stream.write_all(&out).unwrap();
    let mut buf = Vec::new();
    for want in 0..16u64 {
        let (id, resp) = read_frame(&mut stream, &mut buf);
        assert_eq!(id, want, "replies must come back in request order");
        let wire::WireResponse::Ok(preds) = resp else {
            panic!("unexpected response for id {id}: {resp:?}");
        };
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].node, (want * 5 % 24) as u32);
    }
    assert_eq!(busy.wait().unwrap()[0].node, 0);
    assert_eq!(queued.wait().unwrap()[0].node, 1);
    let stats = fe.stats();
    assert!(
        stats.waits.load(Ordering::Relaxed) > 0,
        "the loop never blocked"
    );
    assert_eq!(stats.wait_timeouts.load(Ordering::Relaxed), 0);
    fe.shutdown();
}

/// An idle front end with one open, idle connection blocks until
/// something happens: a handful of waits over 300 ms (a loop parking on
/// a 2 ms timer would count about 150).
#[test]
fn poll_idle_frontend_blocks_a_few_times() {
    let eng = engine(classifier());
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();
    let _idle = TcpStream::connect(fe.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let waits = fe.stats().waits.load(Ordering::Relaxed);
    assert!(
        (1..=4).contains(&waits),
        "{waits} blocking waits while idle"
    );
    assert_eq!(fe.stats().wait_timeouts.load(Ordering::Relaxed), 0);
    fe.shutdown();
}

/// An idle timeout too long for any deadline (`--idle-timeout-ms` takes
/// any `u64`) means no connection ever expires; it must not take the loop
/// down once a connection sits idle.
#[test]
fn poll_serves_with_an_unbounded_idle_timeout() {
    let eng = engine(classifier());
    let cfg = FrontendConfig {
        idle_timeout: Duration::MAX,
        ..FrontendConfig::default()
    };
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", cfg).unwrap();
    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // The loop blocks with the connection idle before each request.
    for node in [3, 4] {
        writer.write_all(format!("{node}\n").as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with(&format!("ok {node}:")), "{line:?}");
    }
    fe.shutdown();
}

/// Answers every request at once, without a model.
struct InstantClassifier;

impl BatchClassify for InstantClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        _ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        out.extend(nodes.iter().map(|&node| Prediction {
            node,
            labels: vec![0],
            probs: vec![1.0],
        }));
        Ok(())
    }
    fn num_nodes(&self) -> usize {
        1 << 20
    }
}

/// Ping-pong: each reply is awaited before the next request goes out, so
/// the loop blocks between almost every pair of events and every answer
/// must reach it through an engine wake-up. A lost wake-up would leave
/// the loop blocked until a timeout; none may happen.
#[test]
fn poll_ping_pong_never_waits_out_a_timeout() {
    let eng =
        Arc::new(BatchEngine::spawn(Arc::new(InstantClassifier), EngineConfig::default()).unwrap());
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();

    let stream = TcpStream::connect(fe.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for i in 0..2000u32 {
        writer.write_all(format!("{i}\n").as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, format!("ok {i}:0:1.0000\n"));
    }
    let stats = fe.stats();
    assert_eq!(stats.replies.load(Ordering::Relaxed), 2000);
    assert_eq!(stats.wait_timeouts.load(Ordering::Relaxed), 0);
    fe.shutdown();
}

/// Dropping a front end whose loop is blocked with no deadline (no
/// connections) rings it awake and joins at once.
#[test]
fn poll_drop_wakes_a_blocked_loop() {
    let eng = engine(classifier());
    let fe = EventFrontend::spawn(eng, "127.0.0.1:0", FrontendConfig::default()).unwrap();
    let t0 = Instant::now();
    while fe.stats().waits.load(Ordering::Relaxed) == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "loop never blocked");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(fe);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("dropping a blocked front end did not join");
}
