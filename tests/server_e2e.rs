//! End-to-end tests for the network serving subsystem: a real
//! `tadoc-server` on an ephemeral loopback port, driven by real TCP
//! clients.
//!
//! The contract under test: concurrent clients receive answers
//! byte-identical to the sequential oracle; malformed, truncated and
//! oversized frames get **typed** protocol errors without taking the
//! handler pool down; a full admission queue sheds with `Overloaded`
//! instead of queuing unboundedly; expired deadlines answer
//! `DeadlineExceeded`; a frame served from a results-cache entry — however
//! many connections race to fill it — is byte-for-byte a fresh encoding of
//! the table; a version-1 peer gets a
//! typed version error and loses only its own connection; a peer that
//! stops reading loses its connection instead of keeping a handler; and
//! graceful shutdown drains admitted work before the listener goes away.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use g_tadoc_repro::prelude::*;
use server::framing::{FrameReader, ReadOutcome};
use server::protocol::{
    decode_header, encode_request, encode_response, parse_response, ProtocolError, QueryRequest,
    Request, Response, StatsSnapshot, WireErrorCode, HEADER_LEN, MAGIC, MAX_PAYLOAD_LEN, VERSION,
};
use server::server::{Server, ServerConfig, ServerHandle, WRITE_STALL_TIMEOUT};
use server::{Client, QueryOutcome};

/// Every test in this binary runs alone.  The fault tests arm the
/// process-global failpoint registry: an armed site fires in whichever
/// query crosses it first, and an observation hook counts every query's
/// crossings, so a query of a concurrent test would take the fault or
/// skew the count.  (A test that panics poisons the mutex; later tests
/// take the guard anyway.)
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(6);
    (0..16)
        .map(|i| {
            (
                format!("doc{i}"),
                format!("{shared} topic{} {shared}", i % 5),
            )
        })
        .collect()
}

/// A corpus big enough that one cold query comfortably overlaps other
/// clients' admissions (used by the shed and drain tests).
fn large_corpus() -> Vec<(String, String)> {
    let page = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu ".repeat(40);
    (0..8)
        .map(|i| (format!("book{i}"), format!("{page} chapter{i} {page}")))
        .collect()
}

fn oracle_digests(archive: &TadocArchive, dag: &Dag) -> HashMap<(Task, TaskConfig), u64> {
    Task::ALL
        .into_iter()
        .map(|t| {
            let cfg = TaskConfig::default();
            ((t, cfg), run_task(archive, dag, t, cfg).output.digest())
        })
        .collect()
}

/// Triggers shutdown when dropped, so a panicking test body still lets the
/// server thread (and the enclosing `thread::scope`) finish.
struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Binds an ephemeral loopback port, runs the server for the duration of
/// `body`, then shuts it down and returns the final stats.
fn with_server<F>(config: ServerConfig, archive: &TadocArchive, dag: &Dag, body: F) -> StatsSnapshot
where
    F: FnOnce(&ServerHandle),
{
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let handle = server.handle();
    let mut stats = None;
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run(archive, dag).expect("server run"));
        {
            let _guard = ShutdownOnDrop(handle.clone());
            body(&handle);
        }
        stats = Some(runner.join().expect("server thread panicked"));
    });
    stats.expect("server stats")
}

/// Reads exactly one response frame off a raw stream (blocking).
fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    loop {
        match reader.read_frame(stream).expect("read response frame") {
            ReadOutcome::Frame { kind, payload } => {
                return parse_response(kind, &payload).expect("parse response")
            }
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => panic!("server closed the stream before responding"),
        }
    }
}

fn query_frame(task: Task) -> Vec<u8> {
    encode_request(&Request::Query(QueryRequest {
        task,
        cfg: TaskConfig::default(),
        deadline_ms: None,
    }))
}

/// Asks `task` over a raw stream and returns the answer's frame, header
/// included, exactly as the server wrote it.
fn raw_answer(stream: &mut TcpStream, task: Task) -> Vec<u8> {
    stream.write_all(&query_frame(task)).expect("send query");
    let mut frame = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut frame).expect("read header");
    let (_, len) = decode_header(&frame).expect("well-formed header");
    frame.resize(HEADER_LEN + len, 0);
    stream
        .read_exact(&mut frame[HEADER_LEN..])
        .expect("read payload");
    frame
}

fn assert_protocol_error(resp: &Response) {
    match resp {
        Response::Error(e) => assert_eq!(
            e.code,
            WireErrorCode::Protocol,
            "expected a protocol error, got {:?}: {}",
            e.code,
            e.message
        ),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
}

/// ≥4 concurrent TCP clients running the full task mix against one server:
/// every answer must match the sequential oracle's digest.
#[test]
fn concurrent_tcp_clients_get_oracle_identical_answers() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = oracle_digests(&archive, &dag);

    let config = ServerConfig {
        handler_threads: 6,
        ..ServerConfig::default()
    };
    let stats = with_server(config, &archive, &dag, |handle| {
        std::thread::scope(|s| {
            for c in 0..5usize {
                let addr = handle.addr();
                let oracle = &oracle;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..2 * Task::ALL.len() {
                        let task = Task::ALL[(c + i) % Task::ALL.len()];
                        let cfg = TaskConfig::default();
                        match client.query(task, cfg).expect("query round trip") {
                            QueryOutcome::Ok(out) => assert_eq!(
                                Some(&out.digest()),
                                oracle.get(&(task, cfg)),
                                "client {c}: {} diverged from the oracle over TCP",
                                task.name()
                            ),
                            other => panic!("client {c}: unexpected outcome {other:?}"),
                        }
                    }
                });
            }
        });
    });
    assert_eq!(stats.queries_answered, 5 * 2 * Task::ALL.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.accepted_connections >= 5);
}

/// Malformed, truncated and oversized frames each get a **typed** protocol
/// error; non-fatal ones leave the same connection usable; and the handler
/// pool keeps serving fresh clients afterwards.
#[test]
fn bad_frames_get_typed_errors_without_killing_the_pool() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let wc_digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
        .output
        .digest();

    let valid_query = encode_request(&Request::Query(QueryRequest {
        task: Task::WordCount,
        cfg: TaskConfig::default(),
        deadline_ms: None,
    }));
    let query_kind = valid_query[5];

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let addr = handle.addr();

        // Bad magic: fatal — typed error, then the server closes.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&[0xFFu8; 64]).expect("write garbage");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Oversized declared length: fatal, rejected from the header alone.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(query_kind);
        frame.extend_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        s.write_all(&frame).expect("write oversized header");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Truncated frame then EOF: fatal.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&valid_query[..valid_query.len() - 2])
            .expect("write truncated frame");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Unsupported version: fatal.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = valid_query.clone();
        frame[4] = VERSION + 1;
        s.write_all(&frame).expect("write future-version frame");
        assert_protocol_error(&read_response(&mut s, &mut FrameReader::new()));
        drop(s);

        // Unknown kind and malformed payload are NON-fatal: the same
        // connection must answer a valid query afterwards.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new();
        let mut unknown = Vec::new();
        unknown.extend_from_slice(&MAGIC);
        unknown.push(VERSION);
        unknown.push(0x7f);
        unknown.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&unknown).expect("write unknown kind");
        assert_protocol_error(&read_response(&mut s, &mut reader));

        let mut corrupt = valid_query.clone();
        corrupt[HEADER_LEN] = 0xEE; // unknown task tag
        s.write_all(&corrupt).expect("write corrupt payload");
        assert_protocol_error(&read_response(&mut s, &mut reader));

        s.write_all(&valid_query).expect("write valid query");
        match read_response(&mut s, &mut reader) {
            Response::Result(out) => assert_eq!(out.digest(), wc_digest),
            other => panic!("expected a result on the surviving stream, got {other:?}"),
        }
        drop(s);

        // A fresh client still gets oracle-correct answers: the pool is up.
        let mut client = Client::connect(addr).expect("connect after abuse");
        match client
            .query(Task::WordCount, TaskConfig::default())
            .expect("query")
        {
            QueryOutcome::Ok(out) => assert_eq!(out.digest(), wc_digest),
            other => panic!("unexpected outcome {other:?}"),
        }
        let snap = client.stats().expect("stats");
        assert!(
            snap.protocol_errors >= 6,
            "expected ≥6 protocol errors counted, got {}",
            snap.protocol_errors
        );
    });
    assert!(stats.protocol_errors >= 6);
    assert_eq!(stats.queries_answered, 2);
}

/// A saturated admission queue sheds with `Overloaded` instead of queuing
/// unboundedly: capacity 1, one executor, many closed-loop clients.
#[test]
fn full_queue_sheds_with_overloaded() {
    let _guard = serial();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
        .output
        .digest();

    let config = ServerConfig {
        handler_threads: 8,
        executor_threads: 1,
        queue_depth: 1,
        results_cache: false, // cache hits would finish too fast to overlap
        ..ServerConfig::default()
    };
    let stats = with_server(config, &archive, &dag, |handle| {
        let shed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..6usize {
                let addr = handle.addr();
                let shed = &shed;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..30 {
                        match client
                            .query(Task::WordCount, TaskConfig::default())
                            .expect("query round trip")
                        {
                            QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                            QueryOutcome::Overloaded {
                                queue_depth,
                                capacity,
                            } => {
                                assert!(queue_depth <= capacity);
                                assert_eq!(capacity, 1);
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            QueryOutcome::Denied(e) => {
                                panic!("unexpected denial: {:?} {}", e.code, e.message)
                            }
                        }
                    }
                });
            }
        });
        assert!(
            shed.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "6 closed-loop clients against a capacity-1 queue never saw Overloaded"
        );
    });
    assert!(stats.shed > 0);
    assert!(stats.max_queue_depth <= 1);
    assert_eq!(stats.refused, 0);
}

/// An already-expired deadline (`deadline_ms: 0`) answers
/// `DeadlineExceeded` without executing, and the engine keeps serving the
/// same connection afterwards.  (In-flight expiry is covered
/// deterministically by `faults::inflight_deadline_expiry`, which stalls
/// execution at a chunk boundary.)
#[test]
fn expired_deadlines_answer_deadline_exceeded() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");

        // Already expired on arrival: never executes.
        match client
            .query_with_deadline(Task::WordCount, TaskConfig::default(), 0)
            .expect("round trip")
        {
            QueryOutcome::Denied(e) => assert_eq!(e.code, WireErrorCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        // The engine is unharmed: the same connection then gets a real
        // answer with no deadline.
        match client
            .query(Task::WordCount, TaskConfig::default())
            .expect("round trip")
        {
            QueryOutcome::Ok(out) => {
                let oracle = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
                assert_eq!(out.digest(), oracle.output.digest());
            }
            other => panic!("expected a result, got {other:?}"),
        }
    });
    assert_eq!(stats.queries_answered, 2);
}

/// Graceful shutdown drains: a query in flight when `Shutdown` arrives is
/// still answered (oracle-identical), the listener then goes away, and new
/// connections are refused.
#[test]
fn graceful_shutdown_drains_inflight_queries() {
    let _guard = serial();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let digest = run_task(&archive, &dag, Task::SequenceCount, TaskConfig::default())
        .output
        .digest();

    let config = ServerConfig {
        results_cache: false,
        ..ServerConfig::default()
    };
    let mut addr = None;
    let stats = with_server(config, &archive, &dag, |handle| {
        addr = Some(handle.addr());
        std::thread::scope(|s| {
            let addr = handle.addr();
            let worker = s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .query(Task::SequenceCount, TaskConfig::default())
                    .expect("round trip")
            });
            // Let the query reach the executor, then ask for shutdown.
            std::thread::sleep(Duration::from_millis(5));
            let mut admin = Client::connect(addr).expect("connect admin");
            admin.shutdown_server().expect("shutdown ack");

            match worker.join().expect("client thread") {
                QueryOutcome::Ok(out) => assert_eq!(
                    out.digest(),
                    digest,
                    "in-flight query diverged during graceful shutdown"
                ),
                other => panic!("in-flight query was not drained: {other:?}"),
            }
        });
    });
    assert!(stats.queries_answered >= 1);
    // The listener is gone: fresh connections fail outright.
    let addr = addr.expect("server address");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after graceful shutdown"
    );
}

/// Every way a result reaches the wire — encoded into the cache entry's frame
/// slot by the miss that stored it, written from that slot on every hit, on
/// the same connection or another — must put the same bytes there: a fresh
/// `encode_response` of the oracle's table.
#[test]
fn cached_frames_are_the_bytes_of_a_fresh_encoding() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let mut first = TcpStream::connect(handle.addr()).expect("connect");
        let mut second = TcpStream::connect(handle.addr()).expect("connect");
        for task in Task::ALL {
            let table = run_task(&archive, &dag, task, TaskConfig::default()).output;
            let fresh = encode_response(&Response::Result(table));
            let answers = [
                ("miss", raw_answer(&mut first, task)),
                ("first hit", raw_answer(&mut first, task)),
                (
                    "cached-frame hit, other connection",
                    raw_answer(&mut second, task),
                ),
                (
                    "cached-frame hit, same connection",
                    raw_answer(&mut first, task),
                ),
            ];
            for (how, bytes) in answers {
                assert!(
                    bytes == fresh,
                    "{}: {how} differs from a fresh encoding",
                    task.name()
                );
            }
        }
    });
    assert_eq!(stats.queries_answered, 24);
    assert_eq!(stats.protocol_errors, 0);
}

/// Four connections race on the first asks of one cold key: one answer
/// stores the entry, and the writes that follow race to fill its frame slot
/// or read it.  Whoever wins, every connection gets the bytes of a fresh
/// `encode_response` of the oracle's table.
#[test]
fn connections_racing_on_a_cold_key_all_get_a_fresh_encoding() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let task = Task::RankedInvertedIndex;
    let table = run_task(&archive, &dag, task, TaskConfig::default()).output;
    let fresh = encode_response(&Response::Result(table));
    let (connections, asks) = (4, 3);
    let config = ServerConfig {
        executor_threads: 2,
        ..ServerConfig::default()
    };

    let stats = with_server(config, &archive, &dag, |handle| {
        let addr = handle.addr();
        let start = std::sync::Barrier::new(connections);
        std::thread::scope(|s| {
            for c in 0..connections {
                let (start, fresh) = (&start, &fresh);
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    start.wait();
                    for ask in 0..asks {
                        assert!(
                            raw_answer(&mut stream, task) == *fresh,
                            "connection {c}, ask {ask}: differs from a fresh encoding"
                        );
                    }
                });
            }
        });
    });
    assert_eq!(stats.queries_answered, (connections * asks) as u64);
    assert_eq!(stats.protocol_errors, 0);
}

/// A peer still speaking protocol version 1 sends frames whose columns
/// this codec would misread.  Its first frame is answered with a typed
/// `UnsupportedVersion(1)` and its connection closes; a version-2 client on
/// another connection keeps getting oracle-identical answers.
#[test]
fn a_version_1_frame_is_refused_while_version_2_clients_keep_serving() {
    let _guard = serial();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = oracle_digests(&archive, &dag);
    let cfg = TaskConfig::default();

    let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut ask = |task: Task| match client.query(task, cfg).expect("query round trip") {
            QueryOutcome::Ok(out) => assert_eq!(
                Some(&out.digest()),
                oracle.get(&(task, cfg)),
                "{} diverged from the oracle",
                task.name()
            ),
            other => panic!("unexpected outcome {other:?}"),
        };
        ask(Task::RankedInvertedIndex);

        assert_eq!(VERSION, 2);
        let mut old = TcpStream::connect(handle.addr()).expect("connect");
        let mut v1_query = query_frame(Task::RankedInvertedIndex);
        v1_query[4] = 1;
        old.write_all(&v1_query).expect("write a version-1 query");
        let mut reader = FrameReader::new();
        match read_response(&mut old, &mut reader) {
            Response::Error(e) => {
                assert_eq!(e.code, WireErrorCode::Protocol);
                assert_eq!(e.message, ProtocolError::UnsupportedVersion(1).to_string());
            }
            other => panic!("expected a typed version error, got {other:?}"),
        }
        loop {
            match reader.read_frame(&mut old) {
                Ok(ReadOutcome::Idle) => continue,
                Ok(ReadOutcome::Closed) | Err(_) => break,
                Ok(ReadOutcome::Frame { kind, .. }) => {
                    panic!("the server answered again ({kind:#04x}) after a version error")
                }
            }
        }

        for task in Task::ALL {
            ask(task);
        }
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.queries_answered, 1 + Task::ALL.len() as u64);
}

/// A client that asks for large results and never reads them fills the
/// socket buffers; the write that stalls must break the connection within
/// the stall timeout, so the (single) handler moves on to the next
/// connection and shutdown still completes.
#[test]
fn a_peer_that_stops_reading_cannot_pin_a_handler() {
    let _guard = serial();
    // Pseudo-random text: nearly every trigram distinct, so the ranked
    // inverted index is a few hundred kilobytes.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let files: Vec<(String, String)> = (0..16)
        .map(|f| {
            let words: Vec<String> = (0..1500)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    format!("w{}", (state >> 33) % 400)
                })
                .collect();
            (format!("doc{f}"), words.join(" "))
        })
        .collect();
    let archive = compress_corpus(&files, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let table = run_task(&archive, &dag, Task::RankedInvertedIndex, cfg).output;
    let frame_len = encode_response(&Response::Result(table)).len();
    let wc_digest = run_task(&archive, &dag, Task::WordCount, cfg)
        .output
        .digest();
    // More than the socket buffers can ever absorb (tcp_rmem + tcp_wmem
    // maxima are tens of megabytes), in requests that fit them easily.
    let asks = (64 << 20) / frame_len + 1;
    assert!(
        asks < 2000,
        "{asks} requests of 28 bytes must not fill a socket buffer"
    );

    let config = ServerConfig {
        handler_threads: 1,
        ..ServerConfig::default()
    };
    with_server(config, &archive, &dag, |handle| {
        let mut stalled = TcpStream::connect(handle.addr()).expect("connect");
        for _ in 0..asks {
            stalled
                .write_all(&query_frame(Task::RankedInvertedIndex))
                .expect("send query");
        }
        // Queued behind the only handler.  One write may stall twice: once
        // with room for part of a frame, once with none.
        let bound = 2 * WRITE_STALL_TIMEOUT + Duration::from_secs(4);
        let asked = Instant::now();
        let mut next = TcpStream::connect(handle.addr()).expect("connect");
        next.set_read_timeout(Some(bound)).expect("set timeout");
        next.write_all(&query_frame(Task::WordCount))
            .expect("send query");
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut next).expect("read response frame") {
            ReadOutcome::Frame { kind, payload } => match parse_response(kind, &payload) {
                Ok(Response::Result(out)) => assert_eq!(out.digest(), wc_digest),
                other => panic!("expected a result, got {other:?}"),
            },
            other => panic!(
                "the handler was still pinned {:?} after the next connection asked: {other:?}",
                asked.elapsed()
            ),
        }
        // Only now may the stalled peer go away: a reset would have freed
        // the handler without any timeout.
        drop(stalled);
    });
}

/// Fault-injection coverage for the two server-side sites (armed only under
/// `--features failpoints`): a dropped accept recovers, and an injected
/// queue-full sheds deterministically.
#[cfg(feature = "failpoints")]
mod faults {
    use super::*;

    /// `server-accept` armed once: the first connection is dropped at
    /// accept; the next one is served normally.
    #[test]
    fn dropped_accept_recovers() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::enable_times("server-accept", 1);
            // The dropped connection: connect succeeds at the TCP level,
            // but the server discards the stream, so the query cannot
            // complete.
            let mut doomed = Client::connect(handle.addr()).expect("connect");
            assert!(
                doomed
                    .query(Task::WordCount, TaskConfig::default())
                    .is_err(),
                "query should fail on a connection dropped at accept"
            );
            // The acceptor survived: the next connection is served.
            let mut client = Client::connect(handle.addr()).expect("reconnect");
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result after recovery, got {other:?}"),
            }
            failpoints::reset();
        });
        assert_eq!(stats.queries_answered, 1);
    }

    /// In-flight deadline expiry, deterministically: an `observe` hook on
    /// the engine's `chunk-boundary` site stalls execution past the
    /// query's budget, so the deadline trips **during** execution (not at
    /// the pre-flight check), and the answer is `DeadlineExceeded`.
    #[test]
    fn inflight_deadline_expiry() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::observe("chunk-boundary", || {
                std::thread::sleep(Duration::from_millis(25))
            });
            let mut client = Client::connect(handle.addr()).expect("connect");
            // A generous-enough budget to pass the pre-flight check, far
            // too small to survive a stalled chunk boundary.
            match client
                .query_with_deadline(Task::WordCount, TaskConfig::default(), 10)
                .expect("round trip")
            {
                QueryOutcome::Denied(e) => assert_eq!(e.code, WireErrorCode::DeadlineExceeded),
                other => panic!("expected in-flight DeadlineExceeded, got {other:?}"),
            }
            failpoints::reset();
            // The same engine still answers an unlimited query correctly.
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result after reset, got {other:?}"),
            }
        });
        assert_eq!(stats.queries_answered, 2);
    }

    /// A degraded answer is correct but never cached: the ask after it must
    /// execute again (no results-cache entry, so no cached frame, may answer
    /// it), and only the asks after *that* are hits — every one the bytes of
    /// a fresh encoding.
    #[test]
    fn a_degraded_answer_is_never_served_from_the_frame_table() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let table = run_task(&archive, &dag, Task::SequenceCount, TaskConfig::default()).output;
        let fresh = encode_response(&Response::Result(table));

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            let mut stream = TcpStream::connect(handle.addr()).expect("connect");
            failpoints::enable_times("worker-epoch", 1);
            let degraded = raw_answer(&mut stream, Task::SequenceCount);
            assert!(
                !failpoints::is_armed("worker-epoch"),
                "the fault must have fired"
            );
            assert!(
                degraded == fresh,
                "a degraded answer is still the oracle's table"
            );

            let chunks = Arc::new(AtomicU64::new(0));
            let seen = Arc::clone(&chunks);
            failpoints::observe("chunk-boundary", move || {
                seen.fetch_add(1, Ordering::Relaxed);
            });
            let recomputed = raw_answer(&mut stream, Task::SequenceCount);
            let executed = chunks.load(Ordering::Relaxed);
            assert!(executed > 0, "the ask after a degraded answer must execute");
            assert!(recomputed == fresh);

            // From here on the table is cached: nothing executes again.
            for how in ["first hit", "cached-frame hit"] {
                assert!(
                    raw_answer(&mut stream, Task::SequenceCount) == fresh,
                    "{how}"
                );
            }
            assert_eq!(
                chunks.load(Ordering::Relaxed),
                executed,
                "hits execute nothing"
            );
            failpoints::reset();
        });
        assert_eq!(stats.queries_answered, 4);
    }

    /// `server-queue` armed N times: each admission sheds with
    /// `Overloaded`, deterministically, then service resumes.
    #[test]
    fn injected_queue_full_sheds_deterministically() {
        let _guard = serial();
        failpoints::reset();
        let archive = compress_corpus(&corpus(), CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let digest = run_task(&archive, &dag, Task::WordCount, TaskConfig::default())
            .output
            .digest();

        let stats = with_server(ServerConfig::default(), &archive, &dag, |handle| {
            failpoints::enable_times("server-queue", 3);
            let mut client = Client::connect(handle.addr()).expect("connect");
            for i in 0..3 {
                match client
                    .query(Task::WordCount, TaskConfig::default())
                    .expect("round trip")
                {
                    QueryOutcome::Overloaded { .. } => {}
                    other => panic!("injection {i}: expected Overloaded, got {other:?}"),
                }
            }
            match client
                .query(Task::WordCount, TaskConfig::default())
                .expect("round trip")
            {
                QueryOutcome::Ok(out) => assert_eq!(out.digest(), digest),
                other => panic!("expected a result once disarmed, got {other:?}"),
            }
            failpoints::reset();
        });
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.queries_answered, 1);
    }
}
