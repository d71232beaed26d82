//! Integration tests of the `v1` typed protocol over real TCP: the
//! multi-dataset workspace behind the `dataset=` selector, HTTP
//! mutations riding the epoch machinery, per-dataset isolation, and
//! HTTP/1.1 keep-alive.

use gvdb_api::{ApiRequest, ApiResponse, EdgeDto, Source};
use gvdb_core::{preprocess, PreprocessConfig, QueryManager, SharedWorkspace};
use gvdb_graph::generators::{patent_like, wikidata_like, CitationConfig, RdfConfig};
use gvdb_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn db_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-v1-{name}-{}", std::process::id()));
    path
}

fn rdf_manager(name: &str) -> (QueryManager, std::path::PathBuf) {
    let graph = wikidata_like(RdfConfig {
        entities: 400,
        ..Default::default()
    });
    let path = db_path(name);
    let (db, _) = preprocess(
        &graph,
        &path,
        &PreprocessConfig {
            k: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    (QueryManager::new(db), path)
}

/// A keep-alive HTTP client: one TCP connection, many requests.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        // One write per request + no Nagle: fragmented small writes on a
        // reused connection would hit delayed-ACK stalls.
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Send one request on the persistent connection and read exactly one
    /// response (headers, body) back, leaving the connection open.
    /// `Accept: application/json` pins `/v1/window` and `/v1/search` to
    /// the buffered envelope this suite asserts on (the streamed frame
    /// protocol has its own suite in `tests/streaming.rs`).
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (String, String) {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nAccept: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).expect("request");
        self.read_response()
    }

    /// Read exactly one buffered response (headers + Content-Length body)
    /// off the connection.
    fn read_response(&mut self) -> (String, String) {
        let mut headers = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("header line");
            assert!(n > 0, "connection closed mid-response");
            if line == "\r\n" {
                break;
            }
            headers.push_str(&line);
        }
        let content_length: usize = headers
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .expect("content-length")
            .parse()
            .expect("content-length value");
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (headers, String::from_utf8(body).expect("utf8 body"))
    }

    fn get(&mut self, path: &str) -> (String, String) {
        self.request("GET", path, None)
    }
}

fn header_value<'a>(headers: &'a str, name: &str) -> Option<&'a str> {
    headers
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim_start_matches(':').trim())
}

fn parse_window_response(body: &str) -> gvdb_api::WindowMeta {
    match ApiResponse::from_json(body).expect("window response") {
        ApiResponse::Window { meta, graph } => {
            assert!(graph.contains("\"nodes\""), "graph payload present");
            meta
        }
        other => panic!("expected window response, got {}", other.kind()),
    }
}

#[test]
fn v1_flow_over_a_single_manager() {
    let (qm, path) = rdf_manager("single");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());

    // Dataset discovery: a bare manager serves dataset "default".
    let (_, body) = client.get("/v1/datasets");
    let ApiResponse::Datasets { datasets } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a datasets response: {body}");
    };
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].name, "default");
    assert!(datasets[0].layers >= 2);

    // Layers.
    let (_, body) = client.get("/v1/layers");
    let ApiResponse::Layers { dataset, layers } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a layers response: {body}");
    };
    assert_eq!(dataset, "default");
    assert_eq!(layers.len(), datasets[0].layers);
    assert!(layers[0].rows > 0);

    // Window: cold, then an exact cache hit, meta in the typed envelope.
    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=1500&maxy=1500";
    let (h1, b1) = client.get(w);
    assert!(h1.contains("200 OK"));
    let meta = parse_window_response(&b1);
    assert_eq!(meta.source, Source::Cold);
    assert_eq!(meta.dataset, "default");
    assert_eq!(header_value(&h1, "X-Gvdb-Source"), Some("cold"));
    let (h2, b2) = client.get(w);
    assert_eq!(parse_window_response(&b2).source, Source::Hit);
    assert_eq!(header_value(&h2, "X-Gvdb-Source"), Some("hit"));

    // Search and focus.
    let (_, body) = client.get("/v1/search?layer=0&q=Q1");
    let ApiResponse::Hits { hits } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a hits response: {body}");
    };
    assert!(!hits.is_empty());
    let (_, body) = client.get(&format!("/v1/focus?layer=0&node={}", hits[0].node));
    let ApiResponse::Focus { rows, .. } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a focus response: {body}");
    };
    assert!(rows > 0);

    // Typed errors: bad window, unknown layer, unknown dataset.
    let (h, body) = client.request(
        "GET",
        "/v1/window?layer=0&minx=5&miny=0&maxx=1&maxy=1",
        None,
    );
    assert!(h.contains("400 Bad Request"), "{h}");
    let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not an error response: {body}");
    };
    assert_eq!(e.kind, gvdb_api::ErrorKind::BadRequest);
    let mut client = Client::connect(server.addr()); // errors close the connection
    let (h, _) = client.request(
        "GET",
        "/v1/window?layer=99&minx=0&miny=0&maxx=1&maxy=1",
        None,
    );
    assert!(h.contains("404 Not Found"), "{h}");
    let mut client = Client::connect(server.addr());
    let (h, body) = client.get("/v1/layers?dataset=acm");
    assert!(h.contains("404 Not Found"), "{h}");
    assert!(
        body.contains("default"),
        "error lists the alternatives: {body}"
    );

    // Stats carries serving counters and the default dataset.
    let mut client = Client::connect(server.addr());
    let (_, body) = client.get("/v1/stats");
    let ApiResponse::Stats(stats) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a stats response: {body}");
    };
    assert!(stats.served >= 8);
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.datasets.len(), 1);
    assert!(stats.datasets[0].cache.hits >= 1);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn rpc_endpoint_speaks_serialized_requests() {
    let (qm, path) = rdf_manager("rpc");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());

    // A serialized ApiRequest round-trips the full protocol over POST /v1.
    let req = ApiRequest::Window {
        predicate: None,
        dataset: Some("default".into()),
        layer: Some(0),
        window: gvdb_api::RectDto {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 1200.0,
            max_y: 1200.0,
        },
        session: None,
        packed: false,
        rid_range: None,
    };
    let (h, body) = client.request("POST", "/v1", Some(&req.to_json()));
    assert!(h.contains("200 OK"), "{h}");
    let meta = parse_window_response(&body);
    assert_eq!(meta.source, Source::Cold);

    let (_, body) = client.request("POST", "/v1", Some(&ApiRequest::ListDatasets.to_json()));
    assert!(matches!(
        ApiResponse::from_json(&body).unwrap(),
        ApiResponse::Datasets { .. }
    ));

    // Malformed RPC bodies are typed 400s.
    let (h, body) = client.request("POST", "/v1", Some("{\"op\":\"frobnicate\"}"));
    assert!(h.contains("400 Bad Request"), "{h}");
    assert!(body.contains("unknown op"), "{body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (qm, path) = rdf_manager("keepalive");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();

    // N sequential requests through ONE TcpStream: every response must
    // arrive on it, marked keep-alive, with identical cache-hit bodies.
    let mut client = Client::connect(server.addr());
    let w = "/v1/window?layer=0&minx=0&miny=0&maxx=1000&maxy=1000";
    let (h, cold) = client.get(w);
    assert!(
        header_value(&h, "Connection")
            .unwrap()
            .contains("keep-alive"),
        "successful v1 responses keep the connection open: {h}"
    );
    assert_eq!(parse_window_response(&cold).source, Source::Cold);
    // Every repeat is a cache hit; hit bodies are byte-identical.
    let (_, first_hit) = client.get(w);
    assert_eq!(parse_window_response(&first_hit).source, Source::Hit);
    for i in 0..31 {
        let (h, body) = client.get(w);
        assert!(h.contains("200 OK"), "request {i}: {h}");
        assert_eq!(body, first_hit, "request {i} body diverged");
    }
    // All 33 requests were served, and the server saw exactly ONE
    // connection for them: session_count 0, served advanced by 33.
    assert!(server.served() >= 33);

    // An explicit Connection: close is honored.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("close ends the stream");
    assert!(response.contains("Connection: close"), "{response}");

    // Legacy HTTP/1.0 clients default to close.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("1.0 closes");
    assert!(response.contains("Connection: close"), "{response}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipelined_requests_drain_in_order() {
    let (qm, path) = rdf_manager("pipeline");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();

    // Write three requests back-to-back before reading anything; the
    // worker must answer all three, in order, on the one connection.
    let mut client = Client::connect(server.addr());
    let burst = "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(3);
    client.stream.write_all(burst.as_bytes()).unwrap();
    for i in 0..3 {
        let mut headers = String::new();
        loop {
            let mut line = String::new();
            assert!(
                client.reader.read_line(&mut line).unwrap() > 0,
                "eof at {i}"
            );
            if line == "\r\n" {
                break;
            }
            headers.push_str(&line);
        }
        let n: usize = header_value(&headers, "Content-Length")
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; n];
        client.reader.read_exact(&mut body).unwrap();
        assert_eq!(
            String::from_utf8(body).unwrap(),
            "{\"ok\":true}",
            "response {i}"
        );
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_headers_are_rejected_not_buffered() {
    let (qm, path) = rdf_manager("headers");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();

    // One header line far past MAX_HEADER_BYTES: the server must answer
    // 400 (or drop the connection) instead of buffering it all. A write
    // error proves nothing — loopback buffers absorb megabytes before the
    // server's answer lands — so the proof is on the read side: while a
    // writer keeps the header growing, a 400 or EOF must arrive before
    // the deadline. A server that kept buffering would never answer.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let deadline = std::time::Duration::from_secs(10);
    stream.set_read_timeout(Some(deadline)).unwrap();
    stream.set_write_timeout(Some(deadline)).unwrap();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        let done = done.clone();
        std::thread::spawn(move || {
            let chunk = vec![b'a'; 8192];
            let mut sent = 0usize;
            let _ = stream.write_all(b"GET /v1/healthz HTTP/1.1\r\nX-Bomb: ");
            while !done.load(std::sync::atomic::Ordering::Relaxed) && sent < 4 << 20 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
                sent += chunk.len();
            }
        })
    };
    let mut head = [0u8; 12];
    let mut got = 0usize;
    let verdict = loop {
        match stream.read(&mut head[got..]) {
            Ok(0) => break "eof".to_string(),
            Ok(n) => {
                got += n;
                if got == head.len() {
                    break String::from_utf8_lossy(&head).into_owned();
                }
            }
            Err(e) => match e.kind() {
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted => {
                    break "reset".to_string()
                }
                _ => panic!("no 400 or EOF within {deadline:?}: {e}"),
            },
        }
    };
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    assert!(
        matches!(verdict.as_str(), "eof" | "reset") || verdict.starts_with("HTTP/1.1 400"),
        "oversized header answered with {verdict:?}"
    );
    // A normal request still works afterwards.
    let mut client = Client::connect(server.addr());
    let (h, _) = client.get("/v1/healthz");
    assert!(h.contains("200 OK"), "{h}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The mutation gate over raw HTTP: without the configured API key,
/// `/v1/edge*` and `/v1/flush` answer typed 401s (including mutations
/// smuggled through the RPC form); with it, the write lands; read-only
/// datasets turn mutations into typed 403s while flush stays allowed.
#[test]
fn mutation_gate_and_flush_over_http() {
    let (qm, path) = rdf_manager("authgate");
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            api_key: Some("s3cr3t".into()),
            read_only: vec![],
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let edge_body = r#"{"layer":0,"edge":{"node1_id":910001,"node1_label":"gate A","node2_id":910002,"node2_label":"gate B","edge_label":"gated","x1":1.0,"y1":1.0,"x2":2.0,"y2":2.0,"directed":false}}"#;

    // No Authorization header: typed 401 on the edge route, the RPC form
    // and flush alike. Reads stay open.
    let mut client = Client::connect(server.addr());
    let (_, body) = client.get("/v1/layers");
    assert!(body.contains("\"layers\""), "reads stay open: {body}");
    let (h, body) = client.request("POST", "/v1/edge", Some(edge_body));
    assert!(h.contains("401 Unauthorized"), "{h}");
    let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a typed error: {body}");
    };
    assert_eq!(e.kind, gvdb_api::ErrorKind::Unauthorized);
    let mut client = Client::connect(server.addr()); // errors close
    let rpc_edit = format!("{{\"op\":\"insert_edge\",{}", &edge_body[1..]);
    let (h, _) = client.request("POST", "/v1", Some(&rpc_edit));
    assert!(
        h.contains("401 Unauthorized"),
        "RPC mutations are gated: {h}"
    );
    let mut client = Client::connect(server.addr());
    let (h, _) = client.request("POST", "/v1/flush", None);
    assert!(h.contains("401 Unauthorized"), "flush is gated: {h}");

    // The right bearer token goes through; flush reports pages written.
    let mut client = Client::connect(server.addr());
    let authed = format!(
        "POST /v1/edge HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer s3cr3t\r\nContent-Length: {}\r\n\r\n{edge_body}",
        edge_body.len()
    );
    client.stream.write_all(authed.as_bytes()).unwrap();
    let (h, body) = client.read_response();
    assert!(h.contains("200 OK"), "{h} {body}");
    assert!(body.contains("\"epoch\":1"), "{body}");
    let flush = "POST /v1/flush HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer s3cr3t\r\nContent-Length: 0\r\n\r\n";
    client.stream.write_all(flush.as_bytes()).unwrap();
    let (h, body) = client.read_response();
    assert!(h.contains("200 OK"), "{h} {body}");
    let ApiResponse::Flushed { dataset, pages } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not flushed: {body}");
    };
    assert_eq!(dataset, "default");
    assert!(pages > 0, "the edit left dirty pages: {body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A coordinate that parses to infinity (`1e999`) is refused with a typed
/// 400 before anything is written.
#[test]
fn non_finite_edge_coordinate_is_a_400() {
    let (qm, path) = rdf_manager("nonfinite");
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let body = r#"{"layer":0,"edge":{"node1_id":920001,"node1_label":"a","node2_id":920002,"node2_label":"b","edge_label":"inf","x1":1e999,"y1":0.0,"x2":1.0,"y2":1.0,"directed":false}}"#;
    let mut client = Client::connect(server.addr());
    let (h, body) = client.request("POST", "/v1/edge", Some(body));
    assert!(h.contains("400 Bad Request"), "{h} {body}");
    let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a typed error: {body}");
    };
    assert_eq!(e.kind, gvdb_api::ErrorKind::BadRequest);
    assert!(e.message.contains("finite"), "{}", e.message);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A node is one object across rows: an edge that reuses a stored node
/// id with another label or position is a typed 400, writes nothing and
/// leaves the epoch alone; the same node restated exactly is accepted.
#[test]
fn reusing_a_node_id_with_other_data_is_a_400() {
    let (qm, path) = rdf_manager("nodeident");
    let whole = gvdb_spatial::Rect::new(-1e9, -1e9, 1e9, 1e9);
    let stored = qm.window_query(0, &whole).unwrap().rows[0].1.clone();
    let rows_before = qm.db().layer(0).unwrap().row_count();
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let insert = |label: &str, x: f64, y: f64| {
        ApiRequest::InsertEdge {
            dataset: None,
            layer: 0,
            edge: EdgeDto {
                node1_id: stored.node1_id,
                node1_label: label.into(),
                node2_id: 930_001,
                node2_label: "fresh".into(),
                edge_label: "reuse".into(),
                x1: x,
                y1: y,
                x2: 1000.0,
                y2: 1000.0,
                directed: false,
            },
        }
        .to_json()
    };
    let layer0 = |client: &mut Client| {
        let (_, body) = client.get("/v1/layers");
        let ApiResponse::Layers { layers, .. } = ApiResponse::from_json(&body).unwrap() else {
            panic!("not layers: {body}");
        };
        (layers[0].rows, layers[0].epoch)
    };
    let (x, y) = (stored.geometry.x1, stored.geometry.y1);
    for bad in [
        insert("moved", 1000.0, 1000.0),
        insert("moved", x, y),
        insert(&stored.node1_label, x + 0.5, y),
    ] {
        let mut client = Client::connect(server.addr());
        let (h, body) = client.request("POST", "/v1/edge", Some(&bad));
        assert!(h.contains("400 Bad Request"), "{h} {body}");
        let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
            panic!("not a typed error: {body}");
        };
        assert_eq!(e.kind, gvdb_api::ErrorKind::BadRequest);
        assert!(e.message.contains("invalid row"), "{}", e.message);
        let mut client = Client::connect(server.addr());
        assert_eq!(layer0(&mut client), (rows_before, 0), "nothing written");
    }
    let mut client = Client::connect(server.addr());
    let same = insert(&stored.node1_label, x, y);
    let (h, body) = client.request("POST", "/v1/edge", Some(&same));
    assert!(h.contains("200 OK"), "{h} {body}");
    assert_eq!(layer0(&mut client), (rows_before + 1, 1));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Per-dataset read-only mode: a 403 with the Forbidden kind, no key
/// involved.
#[test]
fn read_only_dataset_rejects_mutations() {
    let (qm, path) = rdf_manager("readonly");
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            read_only: vec!["default".into()],
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());
    let (h, body) = client.request(
        "POST",
        "/v1/edge",
        Some(r#"{"layer":0,"edge":{"node1_id":1,"node1_label":"a","node2_id":2,"node2_label":"b","edge_label":"x","x1":0,"y1":0,"x2":1,"y2":1}}"#),
    );
    assert!(h.contains("403 Forbidden"), "{h}");
    let ApiResponse::Error(e) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a typed error: {body}");
    };
    assert_eq!(e.kind, gvdb_api::ErrorKind::Forbidden);
    assert!(e.message.contains("read-only"), "{}", e.message);
    // Flush is not a mutation: it stays allowed on read-only datasets.
    let mut client = Client::connect(server.addr());
    let (h, _) = client.request("POST", "/v1/flush", None);
    assert!(h.contains("200 OK"), "{h}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The acceptance-criterion test: a workspace with two datasets behind
/// one server; sessions interleave across datasets; a mutation to A (over
/// HTTP, via POST body) bumps A's epoch and invalidates A's windows while
/// B's epochs **and cached windows** are untouched.
#[test]
fn multi_dataset_serving_with_isolated_mutations() {
    let rdf_path = db_path("multi-rdf");
    let cite_path = db_path("multi-cite");
    let cfg = PreprocessConfig {
        k: Some(2),
        ..Default::default()
    };
    let (rdf_db, _) = preprocess(
        &wikidata_like(RdfConfig {
            entities: 300,
            ..Default::default()
        }),
        &rdf_path,
        &cfg,
    )
    .unwrap();
    let (cite_db, _) = preprocess(
        &patent_like(CitationConfig {
            nodes: 400,
            ..Default::default()
        }),
        &cite_path,
        &cfg,
    )
    .unwrap();

    let workspace = Arc::new(SharedWorkspace::new());
    workspace.add("dblp", rdf_db).unwrap();
    workspace.add("patents", cite_db).unwrap();
    let server = Server::start(workspace, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());

    // Both datasets are discoverable.
    let (_, body) = client.get("/v1/datasets");
    let ApiResponse::Datasets { datasets } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not datasets: {body}");
    };
    assert_eq!(
        datasets.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
        vec!["dblp", "patents"]
    );

    // An unaddressed request against a multi-dataset workspace is a 400
    // naming the choices — on a FRESH connection (errors close).
    {
        let mut c = Client::connect(server.addr());
        let (h, body) = c.get("/v1/layers");
        assert!(h.contains("400 Bad Request"), "{h}");
        assert!(body.contains("dblp") && body.contains("patents"), "{body}");
    }

    // One session per dataset, interleaved: each anchors independently
    // and pans ride each dataset's own delta path.
    let session_of = |client: &mut Client, dataset: &str| -> u64 {
        let (_, body) = client.get(&format!("/v1/session/new?dataset={dataset}"));
        match ApiResponse::from_json(&body).unwrap() {
            ApiResponse::Session { id } => id,
            other => panic!("not a session: {}", other.kind()),
        }
    };
    let sid_a = session_of(&mut client, "dblp");
    let sid_b = session_of(&mut client, "patents");
    assert_eq!(server.session_count(), 2);

    let window_of = |client: &mut Client, dataset: &str, sid: u64, minx: f64| {
        let (_, body) = client.get(&format!(
            "/v1/window?dataset={dataset}&layer=0&session={sid}&minx={minx}&miny=0&maxx={}&maxy=2000",
            minx + 2000.0
        ));
        parse_window_response(&body)
    };
    // Interleave: A cold, B cold, A pan (delta), B pan (delta).
    assert_eq!(
        window_of(&mut client, "dblp", sid_a, 0.0).source,
        Source::Cold
    );
    assert_eq!(
        window_of(&mut client, "patents", sid_b, 0.0).source,
        Source::Cold
    );
    let pan_a = window_of(&mut client, "dblp", sid_a, 300.0);
    assert_eq!(pan_a.source, Source::Delta, "dblp session pans ride delta");
    let pan_b = window_of(&mut client, "patents", sid_b, 300.0);
    assert_eq!(
        pan_b.source,
        Source::Delta,
        "patents session pans ride delta"
    );
    assert_eq!(pan_a.epoch, 0);
    assert_eq!(pan_b.epoch, 0);

    // Warm an anonymous cached window on each dataset too.
    let anon = |client: &mut Client, dataset: &str| {
        let (_, body) = client.get(&format!(
            "/v1/window?dataset={dataset}&layer=0&minx=100&miny=100&maxx=900&maxy=900"
        ));
        parse_window_response(&body)
    };
    anon(&mut client, "dblp");
    anon(&mut client, "patents");
    assert_eq!(anon(&mut client, "dblp").source, Source::Hit);
    assert_eq!(anon(&mut client, "patents").source, Source::Hit);

    // Mutate dataset "dblp" over HTTP: POST body, typed response with the
    // NEW epoch.
    let edge = EdgeDto {
        node1_id: 987_001,
        node1_label: "http A".into(),
        node2_id: 987_002,
        node2_label: "http B".into(),
        edge_label: "http-edit".into(),
        x1: 400.0,
        y1: 400.0,
        x2: 500.0,
        y2: 500.0,
        directed: false,
    };
    let insert_body = ApiRequest::InsertEdge {
        dataset: Some("dblp".into()),
        layer: 0,
        edge,
    }
    .to_json();
    // Strip the "op" envelope? No — /v1/edge accepts the same field names.
    let (h, body) = client.request("POST", "/v1/edge", Some(&insert_body));
    assert!(h.contains("200 OK"), "{h} {body}");
    let ApiResponse::Mutated {
        dataset,
        epoch,
        rid,
        ..
    } = ApiResponse::from_json(&body).unwrap()
    else {
        panic!("not mutated: {body}");
    };
    assert_eq!(dataset, "dblp");
    assert_eq!(epoch, 1, "mutation response carries the new epoch");
    let rid = rid.expect("insert returns a row id");

    // The writer observes its own write: the anonymous dblp window
    // re-queries (no stale hit) at epoch 1 and contains the new edge.
    let (_, body) =
        client.get("/v1/window?dataset=dblp&layer=0&minx=100&miny=100&maxx=900&maxy=900");
    let ApiResponse::Window { meta, graph } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not a window: {body}");
    };
    assert_eq!(meta.epoch, 1);
    assert_ne!(meta.source, Source::Hit, "dblp caches invalidated");
    assert!(graph.contains("http-edit"), "write visible in the payload");

    // …while PATENTS is untouched: epoch still 0 and its cached windows
    // still serve as exact hits.
    let untouched = anon(&mut client, "patents");
    assert_eq!(untouched.epoch, 0, "patents epochs untouched by dblp edit");
    assert_eq!(untouched.source, Source::Hit, "patents cache survives");
    let pat_pan = window_of(&mut client, "patents", sid_b, 600.0);
    assert_eq!(pat_pan.source, Source::Delta, "patents anchors survive too");
    assert_eq!(pat_pan.epoch, 0);

    // Stats shows the divergence per dataset.
    let (_, body) = client.get("/v1/stats");
    let ApiResponse::Stats(stats) = ApiResponse::from_json(&body).unwrap() else {
        panic!("not stats: {body}");
    };
    let ds = |name: &str| {
        stats
            .datasets
            .iter()
            .find(|d| d.name == name)
            .unwrap()
            .clone()
    };
    assert_eq!(ds("dblp").epochs[0], 1);
    assert_eq!(ds("patents").epochs[0], 0);
    assert_eq!(ds("dblp").sessions.live, 1);
    assert_eq!(ds("patents").sessions.live, 1);

    // Delete the edge again through the delete route; epoch advances.
    let (_, body) = client.request(
        "POST",
        "/v1/edge/delete",
        Some(&format!(
            "{{\"dataset\":\"dblp\",\"layer\":0,\"rid\":{rid}}}"
        )),
    );
    let ApiResponse::Mutated { epoch, .. } = ApiResponse::from_json(&body).unwrap() else {
        panic!("not mutated: {body}");
    };
    assert_eq!(epoch, 2);

    // Sessions close per dataset.
    let (_, body) = client.get(&format!("/v1/session/close?dataset=dblp&session={sid_a}"));
    assert!(matches!(
        ApiResponse::from_json(&body).unwrap(),
        ApiResponse::Closed
    ));
    assert_eq!(server.session_count(), 1);

    server.shutdown();
    std::fs::remove_file(&rdf_path).ok();
    std::fs::remove_file(&cite_path).ok();
}
