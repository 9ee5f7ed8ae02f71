//! Concurrent serving: end-to-end TCP sessions, snapshot isolation under
//! a live writer, admission shedding, and (behind `--features chaos`)
//! the connection-level fault matrix — dropped connections, torn
//! replies, slow-loris clients, oversized and malformed frames, worker
//! panics. The server must never panic, never leak a session, and
//! never serve a torn snapshot.
//!
//! `GQ_TEST_THREADS` (CI sweeps 1/2/8) pins the engine thread count;
//! `GQ_CHAOS_SEED` (CI sweeps 7/42/1337) seeds the fault injection.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gq_core::{CancelToken, ExecConfig, QueryEngine, QueryLimits, Request};
use gq_server::{AdmissionConfig, Client, ClientError, Server, ServerConfig};
use gq_storage::{tuple, Database, Schema};

fn thread_counts() -> Vec<usize> {
    match std::env::var("GQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

fn empty_engine() -> Arc<QueryEngine> {
    Arc::new(QueryEngine::new(Database::new()))
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(empty_engine(), cfg).expect("bind test server")
}

// ---------------------------------------------------------------------------
// End-to-end sessions
// ---------------------------------------------------------------------------

#[test]
fn e2e_ddl_writes_and_queries_across_sessions() {
    let mut srv = start(ServerConfig::default());
    let addr = srv.local_addr();

    // Session 1 creates schema and data.
    let mut a = Client::connect(addr).expect("connect a");
    assert!(a.send(".relation p(v)").expect("ddl").ok);
    for i in 0..5 {
        assert!(a.send(&format!(".insert p({i})")).expect("insert").ok);
    }

    // Session 2 sees the committed state (same engine, fresh snapshot).
    let mut b = Client::connect(addr).expect("connect b");
    let r = b.send("p(x)").expect("query");
    assert!(r.ok, "{}", r.body);
    assert!(r.body.contains("5 answers"), "{}", r.body);

    // Closed query, strategy switch, explain — the REPL surface works
    // over the wire.
    assert!(b.send(".strategy classical").expect("strategy").ok);
    let r = b.send("exists x. p(x)").expect("closed");
    assert!(r.ok);
    assert_eq!(r.body, "true");
    let r = b.send(".explain exists x. p(x)").expect("explain");
    assert!(r.ok);
    assert!(!r.body.is_empty());

    assert!(a.send(".close").expect("close a").ok);
    assert!(b.send(".close").expect("close b").ok);
    drop((a, b));
    srv.shutdown();
    let stats = srv.stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.closed, 2);
    assert_eq!(stats.admission.active, 0, "sessions must be reaped");
}

#[test]
fn per_session_limits_do_not_leak_across_sessions() {
    let mut srv = start(ServerConfig::default());
    let addr = srv.local_addr();
    let mut a = Client::connect(addr).expect("connect a");
    assert!(a.send(".relation p(v)").expect("ddl").ok);
    for i in 0..20 {
        assert!(a.send(&format!(".insert p({i})")).expect("insert").ok);
    }
    // Session A throttles itself to 3 output tuples.
    assert!(a.send(".limits output 3").expect("limits").ok);
    let r = a.send("p(x)").expect("query a");
    assert!(!r.ok, "limit must trip: {}", r.body);
    assert_eq!(r.code, "budget", "{}", r.body);

    // Session B is untouched by A's limits.
    let mut b = Client::connect(addr).expect("connect b");
    let r = b.send("p(x)").expect("query b");
    assert!(r.ok, "{}", r.body);
    assert!(r.body.contains("20 answers"), "{}", r.body);

    // And A itself recovers after raising the limit.
    assert!(a.send(".limits output off").expect("reset").ok);
    let r = a.send("p(x)").expect("query a again");
    assert!(r.ok, "{}", r.body);
    drop((a, b));
    srv.shutdown();
}

#[test]
fn errors_are_structured_and_sessions_survive_them() {
    let mut srv = start(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    let r = c.send("exists x. (((").expect("parse error");
    assert!(!r.ok);
    assert_eq!(r.code, "parse");
    let r = c.send(".insert nosuch(1)").expect("storage error");
    assert!(!r.ok);
    assert_eq!(r.code, "error");
    let r = c.send(".bogus").expect("proto error");
    assert!(!r.ok);
    assert_eq!(r.code, "proto");
    // Session still serves after three consecutive failures.
    let r = c.send(".ping").expect("ping");
    assert!(r.ok);
    assert_eq!(r.body, "pong");
    drop(c);
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Snapshot isolation under a live writer
// ---------------------------------------------------------------------------

/// The writer inserts 0..N into `r` in order, each insert one commit.
/// Every concurrent reader query must therefore observe exactly the
/// prefix {0..j} of some committed epoch — never a gap, never a torn
/// half-insert — and the answer for a given prefix must be bit-identical
/// at every thread count (CI pins 1/2/8 via GQ_TEST_THREADS).
#[test]
fn snapshot_isolation_readers_see_committed_prefixes() {
    const WRITES: i64 = 120;
    const READERS: usize = 4;
    for threads in thread_counts() {
        let mut engine = QueryEngine::new(Database::new());
        engine.set_exec_config(ExecConfig::with_threads(threads).with_morsel_size(16));
        let engine = Arc::new(engine);
        engine
            .create_relation("r", Schema::new(vec!["v"]).expect("schema"))
            .expect("create");
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut observed = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        let request = Request::text("r(x)")
                            .with_limits(QueryLimits::UNLIMITED)
                            .with_cancel(CancelToken::new());
                        let result = engine.run(&request).expect("reader query").result;
                        let seen: Vec<i64> = result
                            .answers
                            .sorted_tuples()
                            .iter()
                            .map(|t| match t.get(0) {
                                Some(gq_storage::Value::Int(n)) => *n,
                                other => panic!("unexpected value {other:?}"),
                            })
                            .collect();
                        // The committed-prefix property: exactly 0..j.
                        let expected: Vec<i64> = (0..seen.len() as i64).collect();
                        assert_eq!(
                            seen, expected,
                            "reader saw a non-prefix state at {threads} threads"
                        );
                        observed.push(seen.len());
                    }
                    observed
                })
            })
            .collect();
        for i in 0..WRITES {
            engine.insert("r", tuple![i]).expect("write");
        }
        done.store(true, Ordering::Release);
        let mut max_seen = 0;
        for h in readers {
            let observed = h.join().expect("reader thread");
            // Prefix lengths are monotone per reader: snapshots never
            // travel backwards in epoch order for a single session.
            assert!(
                observed.windows(2).all(|w| w[0] <= w[1]),
                "reader observed a snapshot regression at {threads} threads"
            );
            max_seen = max_seen.max(observed.last().copied().unwrap_or(0));
        }
        assert!(max_seen <= WRITES as usize);
        // Final state is the full commit history.
        let r = engine.query("r(x)").expect("final query");
        assert_eq!(r.len(), WRITES as usize);
    }
}

/// The same property through the TCP front-end: a writer client streams
/// inserts while reader clients query; every reply must render a
/// committed prefix.
#[test]
fn snapshot_isolation_holds_over_tcp() {
    const WRITES: usize = 60;
    let mut srv = start(ServerConfig {
        workers: 6,
        ..Default::default()
    });
    let addr = srv.local_addr();
    let mut ddl = Client::connect(addr).expect("connect ddl");
    assert!(ddl.send(".relation r(v)").expect("ddl").ok);
    assert!(ddl.send(".close").expect("close ddl").ok);
    drop(ddl);

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect reader");
                while !done.load(Ordering::Acquire) {
                    let r = c.send("r(x)").expect("reader query");
                    assert!(r.ok, "{}", r.body);
                    // Body is one line per tuple then the summary line.
                    let tuples: BTreeSet<i64> = r
                        .body
                        .lines()
                        .filter_map(|l| l.strip_prefix('(')?.strip_suffix(')')?.parse::<i64>().ok())
                        .collect();
                    let expected: BTreeSet<i64> = (0..tuples.len() as i64).collect();
                    assert_eq!(tuples, expected, "non-prefix state over TCP");
                }
                let _ = c.send(".close");
            })
        })
        .collect();
    let mut w = Client::connect(addr).expect("connect writer");
    for i in 0..WRITES {
        assert!(w.send(&format!(".insert r({i})")).expect("insert").ok);
    }
    done.store(true, Ordering::Release);
    for h in readers {
        h.join().expect("reader");
    }
    let _ = w.send(".close");
    drop(w);
    srv.shutdown();
    assert_eq!(srv.stats().admission.active, 0);
}

// ---------------------------------------------------------------------------
// Hardening that needs no chaos feature: hostile bytes on the wire
// ---------------------------------------------------------------------------

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let mut srv = start(ServerConfig {
        max_frame_bytes: 1024,
        ..Default::default()
    });
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    // Declare a 1 GiB payload; the server must reject on the header.
    use std::io::Write;
    let header = (1u32 << 30).to_be_bytes();
    c.stream_mut().write_all(&header).expect("send header");
    let r = c.recv().expect("reply");
    assert!(!r.ok);
    assert_eq!(r.code, "proto");
    assert!(r.body.contains("oversized"), "{}", r.body);
    // Connection is closed afterwards.
    assert!(matches!(c.recv(), Err(ClientError::ConnectionClosed)));
    drop(c);
    srv.shutdown();
    assert_eq!(srv.stats().admission.active, 0);
}

#[test]
fn torn_request_from_client_is_handled() {
    let mut srv = start(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    use std::io::Write;
    // Declare 100 bytes, send 3, then hang up.
    let mut bytes = (100u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(b"abc");
    c.stream_mut().write_all(&bytes).expect("send torn");
    c.stream_mut()
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");
    let r = c.recv().expect("reply");
    assert!(!r.ok);
    assert_eq!(r.code, "proto");
    assert!(r.body.contains("torn"), "{}", r.body);
    drop(c);
    srv.shutdown();
    assert_eq!(srv.stats().admission.active, 0);
}

#[test]
fn slow_loris_client_is_cut_off_by_the_frame_deadline() {
    let mut srv = start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    use std::io::Write;
    // Dribble one header byte, then stall past the whole-frame deadline.
    c.stream_mut().write_all(&[0]).expect("dribble");
    let r = c.recv().expect("reply");
    assert!(!r.ok);
    assert!(r.body.contains("timed out"), "{}", r.body);
    drop(c);
    srv.shutdown();
    assert_eq!(srv.stats().admission.active, 0);
}

#[test]
fn idle_session_is_reaped_by_the_idle_timeout() {
    let mut srv = start(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    assert!(c.send(".ping").expect("ping").ok);
    // Say nothing; the server must time the session out on its own.
    let r = c.recv().expect("timeout notice");
    assert!(!r.ok);
    assert!(r.body.contains("timed out"), "{}", r.body);
    drop(c);
    srv.shutdown();
    assert_eq!(srv.stats().admission.active, 0);
    assert_eq!(srv.stats().closed, 1);
}

#[test]
fn abrupt_disconnect_reaps_the_session() {
    let mut srv = start(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    assert!(c.send(".ping").expect("ping").ok);
    drop(c); // vanish without .close
             // Wait for the server to notice EOF and close the session.
    for _ in 0..100 {
        if srv.stats().closed == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    srv.shutdown();
    let stats = srv.stats();
    assert_eq!(stats.closed, 1, "session must be reaped after EOF");
    assert_eq!(stats.admission.active, 0);
}

#[test]
fn shutdown_cancels_inflight_queries() {
    // A query guaranteed to run long: cross product of two relations,
    // cancelled mid-flight by server shutdown.
    let engine = empty_engine();
    engine
        .create_relation("big", Schema::new(vec!["v"]).expect("schema"))
        .expect("create");
    for i in 0..3000 {
        engine.insert("big", tuple![i]).expect("insert");
    }
    let mut srv = Server::start(engine, ServerConfig::default()).expect("bind");
    let addr = srv.local_addr();
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect_with(addr, Duration::from_secs(30), 1 << 26).expect("connect");
        // The reply is either a cancellation error or a closed socket,
        // depending on where shutdown catches the query.
        c.send("big(x) & big(y) & x = y")
    });
    std::thread::sleep(Duration::from_millis(100));
    srv.shutdown();
    match worker.join().expect("client thread") {
        // Any structured reply is acceptable: a cancellation error, or a
        // completed result if the query beat the shutdown to the finish.
        Ok(_) => {}
        Err(ClientError::ConnectionClosed | ClientError::Frame(_)) => {}
    }
    assert_eq!(srv.stats().admission.active, 0);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn admission_shed_includes_retry_hint_and_recovers() {
    let mut srv = start(ServerConfig {
        admission: AdmissionConfig {
            max_sessions: 1,
            retry_after: Duration::from_millis(123),
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = srv.local_addr();
    let mut held = Client::connect(addr).expect("connect held");
    assert!(held.send(".ping").expect("ping").ok);

    let mut shed = Client::connect(addr).expect("connect shed");
    let r = shed.recv().expect("shed notice");
    assert!(!r.ok);
    assert_eq!(r.code, "overloaded");
    assert_eq!(r.retry_after_ms, Some(123));
    drop(shed);

    // Once the held session closes, a retry succeeds — exactly what the
    // retry-after hint promises.
    assert!(held.send(".close").expect("close").ok);
    drop(held);
    let mut retry = None;
    for _ in 0..100 {
        let mut c = Client::connect(addr).expect("reconnect");
        match c.send(".ping") {
            Ok(r) if r.ok => {
                retry = Some(c);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut c = retry.expect("a retry must eventually be admitted");
    let _ = c.send(".close");
    drop(c);
    srv.shutdown();
    assert!(srv.stats().admission.shed_sessions >= 1);
}

// ---------------------------------------------------------------------------
// Chaos connection matrix (deterministic fault injection)
// ---------------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use gq_chaos::ChaosConfig;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn seed() -> u64 {
        std::env::var("GQ_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// The chaos registry is process-global: serialize every chaos test.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn dropped_connections_never_leak_sessions() {
        let _g = lock();
        let _c = gq_chaos::install(ChaosConfig::with_seed(seed()).conn_drop(0.5));
        let mut srv = start(ServerConfig::default());
        let addr = srv.local_addr();
        let mut served = 0u32;
        for _ in 0..20 {
            let mut c = Client::connect(addr).expect("connect");
            match c.send(".ping") {
                Ok(r) if r.ok => {
                    served += 1;
                    let _ = c.send(".close");
                }
                // Chaos dropped the connection before or after the
                // request — both are fine, the server must just survive.
                _ => {}
            }
        }
        drop(_c);
        // All sessions must be reaped whichever way they ended.
        for _ in 0..100 {
            if srv.stats().admission.active == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        srv.shutdown();
        let stats = srv.stats();
        assert_eq!(stats.admission.active, 0, "leaked sessions after drops");
        assert_eq!(stats.accepted, 20);
        assert!(served > 0, "with p=0.5 some pings must get through");
    }

    #[test]
    fn torn_replies_surface_as_client_frame_errors() {
        let _g = lock();
        let _c = gq_chaos::install(ChaosConfig::with_seed(seed()).torn_frame(1.0));
        let mut srv = start(ServerConfig::default());
        let mut c = Client::connect(srv.local_addr()).expect("connect");
        match c.send(".ping") {
            Err(ClientError::Frame(_)) | Err(ClientError::ConnectionClosed) => {}
            Ok(r) => panic!("reply should have been torn, got ok={} {}", r.ok, r.body),
        }
        drop(c);
        drop(_c);
        srv.shutdown();
        assert_eq!(srv.stats().admission.active, 0);
    }

    #[test]
    fn slow_loris_injection_delays_but_does_not_wedge() {
        let _g = lock();
        let _c = gq_chaos::install(
            ChaosConfig::with_seed(seed()).slow_loris(Duration::from_millis(30), 1.0),
        );
        let mut srv = start(ServerConfig::default());
        let mut c = Client::connect(srv.local_addr()).expect("connect");
        let r = c.send(".ping").expect("delayed but served");
        assert!(r.ok);
        let _ = c.send(".close");
        drop(c);
        drop(_c);
        srv.shutdown();
        assert_eq!(srv.stats().admission.active, 0);
    }

    #[test]
    fn injected_worker_panics_become_structured_replies() {
        let _g = lock();
        let mut srv = start(ServerConfig::default());
        let addr = srv.local_addr();
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.send(".relation p(v)").expect("ddl").ok);
        for i in 0..64 {
            assert!(c.send(&format!(".insert p({i})")).expect("insert").ok);
        }
        {
            let _chaos = gq_chaos::install(ChaosConfig::with_seed(seed()).worker_panic(1.0));
            let r = c.send("p(x)").expect("reply despite panic");
            assert!(!r.ok, "injected panic must fail the query: {}", r.body);
            assert_eq!(r.code, "panic", "{}", r.body);
        }
        // The session survives the panic and works once chaos stops.
        let r = c.send("p(x)").expect("recovered query");
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("64 answers"), "{}", r.body);
        let _ = c.send(".close");
        drop(c);
        srv.shutdown();
        assert_eq!(srv.stats().admission.active, 0);
    }

    #[test]
    fn injected_storage_faults_fail_queries_not_the_server() {
        let _g = lock();
        let mut srv = start(ServerConfig::default());
        let addr = srv.local_addr();
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.send(".relation p(v)").expect("ddl").ok);
        assert!(c.send(".insert p(1)").expect("insert").ok);
        {
            let _chaos = gq_chaos::install(ChaosConfig::with_seed(seed()).scan_error(1.0));
            let r = c.send("p(x)").expect("reply despite fault");
            assert!(!r.ok);
            assert!(r.body.contains("chaos"), "{}", r.body);
        }
        let r = c.send("p(x)").expect("recovered");
        assert!(r.ok, "{}", r.body);
        let _ = c.send(".close");
        drop(c);
        srv.shutdown();
    }
}
