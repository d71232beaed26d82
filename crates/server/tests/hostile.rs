//! Fault-injection tests: adversarial clients against the reactor.
//!
//! Every scenario here wedged or serialized the old thread-per-
//! connection pool — a slowloris dribbler parked a worker for its 10 s
//! I/O budget, a never-writing connection did the same, and a slow
//! stream reader held its worker for the whole response. With the
//! reactor they hold a registered fd (and a bounded outbox) instead,
//! so a **single-worker** server must keep answering a well-behaved
//! client promptly in all three cases.

use gvdb_core::{preprocess, PreprocessConfig, QueryManager, SharedWorkspace};
use gvdb_graph::generators::{wikidata_like, RdfConfig};
use gvdb_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server with no datasets: `/v1/healthz` is all these tests need,
/// and it exercises the full accept → parse → dispatch → respond path.
fn empty_server(config: ServerConfig) -> Server {
    Server::start(Arc::new(SharedWorkspace::new()), config).expect("bind")
}

fn rdf_server(name: &str, config: ServerConfig) -> (Server, std::path::PathBuf) {
    let graph = wikidata_like(RdfConfig {
        entities: 400,
        ..Default::default()
    });
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-hostile-{name}-{}", std::process::id()));
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            k: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    let server = Server::start(Arc::new(QueryManager::new(db)), config).expect("bind");
    (server, path)
}

/// One buffered keep-alive request; panics if the response stalls past
/// `timeout` (that is the assertion: a healthy client must not wait).
fn timed_request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, path: &str) -> String {
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: application/json\r\n\r\n")
                .as_bytes(),
        )
        .expect("request write");
    let mut headers = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response headers");
        assert!(n > 0, "server closed a healthy connection");
        if line == "\r\n" {
            break;
        }
        headers.push_str(&line);
    }
    let length: usize = headers
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })
        .expect("content-length")
        .parse()
        .expect("length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf8")
}

fn well_behaved_client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// A slowloris: dribbles one header byte every `pace` for as long as
/// `running` stays set. Never completes a request — it holds a parser
/// buffer, not a worker.
fn spawn_dribbler(
    addr: SocketAddr,
    pace: Duration,
    running: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => return,
        };
        let bytes = b"GET /v1/healthz HTTP/1.1\r\nX-Slowloris: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        for &b in bytes.iter().cycle() {
            if !running.load(Ordering::Relaxed) {
                break;
            }
            // The server may (rightly) have cut us off.
            if stream.write_all(&[b]).is_err() {
                break;
            }
            std::thread::sleep(pace);
        }
    })
}

#[test]
fn slowloris_dribblers_do_not_starve_a_single_worker_pool() {
    let server = empty_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let running = Arc::new(AtomicBool::new(true));
    let dribblers: Vec<_> = (0..3)
        .map(|_| spawn_dribbler(addr, Duration::from_millis(50), Arc::clone(&running)))
        .collect();
    // Let the dribblers connect and start dribbling first.
    std::thread::sleep(Duration::from_millis(200));

    let (mut stream, mut reader) = well_behaved_client(addr);
    let start = Instant::now();
    for _ in 0..20 {
        let body = timed_request(&mut stream, &mut reader, "/v1/healthz");
        assert_eq!(body, "{\"ok\":true}");
    }
    let elapsed = start.elapsed();
    // The old pool needed a dribbler to time out (10 s) before serving
    // anyone else; the reactor interleaves freely.
    assert!(
        elapsed < Duration::from_secs(5),
        "20 keep-alive requests took {elapsed:?} with dribblers active"
    );

    running.store(false, Ordering::Relaxed);
    for d in dribblers {
        d.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn never_writing_connections_do_not_hold_workers() {
    let server = empty_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // N connections that open and then say nothing at all.
    let silent: Vec<TcpStream> = (0..50)
        .map(|_| TcpStream::connect(addr).expect("silent connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let (mut stream, mut reader) = well_behaved_client(addr);
    let start = Instant::now();
    for _ in 0..20 {
        timed_request(&mut stream, &mut reader, "/v1/healthz");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "silent connections starved the pool"
    );

    drop(silent);
    server.shutdown();
}

#[test]
fn slow_stream_reader_is_disconnected_not_served_by_a_parked_worker() {
    // A tiny outbox budget so the streamed window hits backpressure
    // quickly once the client stops draining it.
    let (server, path) = rdf_server(
        "slowread",
        ServerConfig {
            workers: 1,
            outbox_bytes: 2048,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // The slow reader requests a streamed window … and then refuses to
    // read it for 4 s — past the producer's 2 s no-progress patience.
    // In the old design the worker sat in blocking socket writes for
    // its whole 10 s budget; now the stream lands in the bounded outbox
    // and the producer aborts once the reader demonstrably stalls,
    // freeing the worker in ~2 s.
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"GET /v1/window?layer=0&minx=0&miny=0&maxx=100000&maxy=100000 HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .expect("request");
        std::thread::sleep(Duration::from_secs(4));
        // Now drain. Whether the stream was aborted (close after the
        // pending bytes drain) or the response fit in kernel buffers
        // (keep-alive, then the idle sweep closes us), the server must
        // end this connection on its own — the read loop below reaches
        // EOF rather than hanging.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut total = 0usize;
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => total += n,
            }
        }
        total
    });
    std::thread::sleep(Duration::from_millis(300));

    // Meanwhile the single worker must be free for everyone else.
    let (mut stream, mut reader) = well_behaved_client(addr);
    let start = Instant::now();
    for _ in 0..10 {
        let body = timed_request(
            &mut stream,
            &mut reader,
            "/v1/window?layer=0&minx=0&miny=0&maxx=1200&maxy=1200",
        );
        assert!(body.contains("\"kind\":\"window\""), "got: {body}");
    }
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "slow reader held the only worker"
    );

    // The slow connection was terminated by the server, not by us.
    slow.join().unwrap();
    server.shutdown();
    gvdb_storage::wal::remove_database(&path).ok();
}

#[test]
fn shutdown_with_500_idle_connections_returns_promptly() {
    let server = empty_server(ServerConfig {
        workers: 2,
        max_connections: 2048,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // 500 keep-alive connections, each proven live by one served
    // request, all left open and idle.
    let mut idle = Vec::with_capacity(500);
    for _ in 0..500 {
        let (mut stream, mut reader) = well_behaved_client(addr);
        let body = timed_request(&mut stream, &mut reader, "/v1/healthz");
        assert_eq!(body, "{\"ok\":true}");
        idle.push((stream, reader));
    }

    // The old worker path re-checked its shutdown flag on a 250 ms poll
    // per parked connection; the reactor is woken once and closes all
    // of them before returning.
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?} with 500 idle connections open"
    );

    // Every idle connection observes the close (EOF, not a read
    // timeout — the 5 s client timeout would surface as an error).
    for (_stream, reader) in idle.iter_mut().take(10) {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {}
            other => panic!("connection not closed after shutdown: {other:?}"),
        }
    }
}
