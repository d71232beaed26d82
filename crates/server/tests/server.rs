//! End-to-end tests of the serving layer: a real listener, real TCP
//! clients, the shared query manager underneath.

use gvdb_api::{ApiResponse, ErrorKind};
use gvdb_core::{preprocess, PreprocessConfig, QueryManager};
use gvdb_graph::generators::{wikidata_like, RdfConfig};
use gvdb_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn manager(name: &str) -> (Arc<QueryManager>, std::path::PathBuf) {
    let graph = wikidata_like(RdfConfig {
        entities: 400,
        ..Default::default()
    });
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-server-{name}-{}", std::process::id()));
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            k: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    (Arc::new(QueryManager::new(db)), path)
}

/// GET `path`, returning (headers, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    match response.split_once("\r\n\r\n") {
        Some((head, body)) => (head.to_string(), body.to_string()),
        None => (response, String::new()),
    }
}

fn header_value<'a>(headers: &'a str, name: &str) -> Option<&'a str> {
    headers
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim_start_matches(':').trim())
}

/// The graph payload of a buffered `/v1/window` body.
fn window_graph(body: &str) -> String {
    match ApiResponse::from_json(body).expect("window response") {
        ApiResponse::Window { graph, .. } => graph,
        other => panic!("expected a window response, got {}", other.kind()),
    }
}

/// The session id of a `/v1/session/new` body.
fn session_id(body: &str) -> u64 {
    match ApiResponse::from_json(body).expect("session response") {
        ApiResponse::Session { id } => id,
        other => panic!("expected a session response, got {}", other.kind()),
    }
}

#[test]
fn serves_layers_window_search_and_stats() {
    let (qm, path) = manager("basic");
    let server = Server::start(qm, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let (_, layers) = http_get(addr, "/v1/layers");
    let ApiResponse::Layers { layers, .. } = ApiResponse::from_json(&layers).unwrap() else {
        panic!("not a layers response: {layers}");
    };
    assert!(!layers.is_empty());

    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=1500&maxy=1500&stream=0";
    let (h1, b1) = http_get(addr, w);
    assert!(h1.contains("200 OK"));
    assert_eq!(header_value(&h1, "X-Gvdb-Source"), Some("cold"));
    assert!(window_graph(&b1).contains("\"nodes\""));
    // The exact repeat is a cache hit with an identical payload.
    let (h2, b2) = http_get(addr, w);
    assert_eq!(header_value(&h2, "X-Gvdb-Source"), Some("hit"));
    assert_eq!(window_graph(&b1), window_graph(&b2));

    let (_, search) = http_get(addr, "/v1/search?layer=0&q=Q1&stream=0");
    let ApiResponse::Hits { hits } = ApiResponse::from_json(&search).unwrap() else {
        panic!("not a hits response: {search}");
    };
    assert!(!hits.is_empty());

    let (h, _) = http_get(
        addr,
        "/v1/window?layer=0&minx=5&miny=0&maxx=1&maxy=1&stream=0",
    );
    assert!(h.contains("400 Bad Request"), "inverted window rejected");

    let (h, _) = http_get(
        addr,
        "/v1/window?layer=99&minx=0&miny=0&maxx=1&maxy=1&stream=0",
    );
    assert!(h.contains("404 Not Found"), "missing layer is 404");

    // Paths outside /v1 are a typed 404.
    let (h, body) = http_get(addr, "/window?layer=0&minx=0&miny=0&maxx=1500&maxy=1500");
    assert!(
        h.contains("404 Not Found"),
        "unversioned route is gone: {h}"
    );
    let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a typed error: {body}");
    };
    assert_eq!(e.kind, ErrorKind::NotFound);

    let (_, stats) = http_get(addr, "/v1/stats");
    let ApiResponse::Stats(stats) = ApiResponse::from_json(&stats).unwrap() else {
        panic!("not a stats response: {stats}");
    };
    assert_eq!(stats.datasets.len(), 1);
    let ds = &stats.datasets[0];
    assert_eq!(ds.epochs.len(), layers.len());
    assert!(ds.cache.hits >= 1);
    assert!(!ds.cache.shards.is_empty() && !ds.pool.shards.is_empty());

    let (_, health) = http_get(addr, "/v1/healthz");
    assert_eq!(health, "{\"ok\":true}");

    assert!(server.served() >= 8);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn session_pans_ride_the_delta_path_over_http() {
    let (qm, path) = manager("session");
    let server = Server::start(qm, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let (_, body) = http_get(addr, "/v1/session/new");
    let sid = session_id(&body);
    assert_eq!(server.session_count(), 1);

    let (h1, _) = http_get(
        addr,
        &format!("/v1/window?layer=0&session={sid}&minx=0&miny=0&maxx=2000&maxy=2000&stream=0"),
    );
    assert_eq!(header_value(&h1, "X-Gvdb-Source"), Some("cold"));

    // An 85%-overlap pan through the same session must be incremental —
    // the registry anchored the previous viewport.
    let (h2, _) = http_get(
        addr,
        &format!("/v1/window?layer=0&session={sid}&minx=300&miny=0&maxx=2300&maxy=2000&stream=0"),
    );
    assert_eq!(
        header_value(&h2, "X-Gvdb-Source"),
        Some("delta"),
        "session pan must be served by the delta path: {h2}"
    );
    assert_eq!(
        header_value(&h2, "X-Gvdb-Session"),
        Some(sid.to_string().as_str())
    );

    // An unknown session is a 404, not a silent cold query.
    let (h, _) = http_get(
        addr,
        "/v1/window?layer=0&session=999999&minx=0&miny=0&maxx=10&maxy=10&stream=0",
    );
    assert!(h.contains("404 Not Found"));

    // A session request omitting `layer` stays on the session's current
    // layer: after exploring layer 1, repeating the same window with no
    // layer parameter must be an exact hit (same layer, same window),
    // not a cold snap back to layer 0.
    http_get(
        addr,
        &format!("/v1/window?layer=1&session={sid}&minx=0&miny=0&maxx=2000&maxy=2000&stream=0"),
    );
    let (h, _) = http_get(
        addr,
        &format!("/v1/window?session={sid}&minx=0&miny=0&maxx=2000&maxy=2000&stream=0"),
    );
    assert_eq!(
        header_value(&h, "X-Gvdb-Source"),
        Some("hit"),
        "layer-less session request must stay on the session's layer: {h}"
    );

    // An inverted window on /v1/session/new is a 400 like every other
    // window, and opens no session.
    let (h, _) = http_get(addr, "/v1/session/new?minx=5&miny=0&maxx=1&maxy=1");
    assert!(
        h.contains("400 Bad Request"),
        "inverted window rejected: {h}"
    );
    assert_eq!(server.session_count(), 1);

    // Explicit release: the id stops resolving and the registry shrinks.
    let (_, closed) = http_get(addr, &format!("/v1/session/close?session={sid}"));
    assert!(matches!(
        ApiResponse::from_json(&closed).unwrap(),
        ApiResponse::Closed
    ));
    assert_eq!(server.session_count(), 0);
    let (h, _) = http_get(addr, &format!("/v1/session/close?session={sid}"));
    assert!(h.contains("404 Not Found"), "double close is a 404");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_clients_get_consistent_bodies() {
    let (qm, path) = manager("hammer");
    let server = Server::start(
        qm,
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=2500&maxy=2500&stream=0";
    let (_, expected) = http_get(addr, w);
    let expected = window_graph(&expected);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let (h, b) = http_get(addr, w);
                    assert!(h.contains("200 OK"));
                    assert_eq!(
                        window_graph(&b),
                        expected,
                        "every client sees identical rows"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    assert!(server.served() >= 161);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn wait_returns_when_a_shutdown_handle_fires() {
    let (qm, path) = manager("waithandle");
    let server = Server::start(qm, ServerConfig::default()).unwrap();
    let addr = server.addr();
    let handle = server.shutdown_handle();
    let waiter = std::thread::spawn(move || server.wait());
    let (h, _) = http_get(addr, "/v1/healthz");
    assert!(h.contains("200 OK"));
    handle.shutdown();
    waiter
        .join()
        .expect("wait() must return after shutdown fires");
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be gone after the handle fires"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn shutdown_joins_and_stops_accepting() {
    let (qm, path) = manager("shutdown");
    let server = Server::start(qm, ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (h, _) = http_get(addr, "/v1/healthz");
    assert!(h.contains("200 OK"));
    server.shutdown();
    // The listener is gone: connecting now must fail (or be refused
    // before a response is written).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = write!(s, "GET /v1/healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf).ok();
            buf.is_empty()
        }
    };
    assert!(refused, "server must not answer after shutdown");
    std::fs::remove_file(&path).ok();
}
