//! gvdb-client against a **live** gvdb server over real TCP: every typed
//! method round-trips, buffered and streamed results agree, connections
//! are reused through the pool, and the mutation gate returns the typed
//! 401/403 kinds.

use gvdb_api::{EdgeDto, ErrorKind, RectDto, RowBatch, Source};
use gvdb_client::{ClientError, GvdbClient, WindowParams};
use gvdb_core::{preprocess, PreprocessConfig, QueryManager};
use gvdb_graph::generators::{wikidata_like, RdfConfig};
use gvdb_server::{Server, ServerConfig};
use std::sync::Arc;

fn db_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-client-{name}-{}", std::process::id()));
    path
}

fn manager(name: &str, entities: usize) -> (QueryManager, std::path::PathBuf) {
    let graph = wikidata_like(RdfConfig {
        entities,
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

fn test_edge(tag: &str) -> EdgeDto {
    EdgeDto {
        node1_id: 995_001,
        node1_label: format!("{tag} A"),
        node2_id: 995_002,
        node2_label: format!("{tag} B"),
        edge_label: tag.to_string(),
        x1: 10.0,
        y1: 10.0,
        x2: 60.0,
        y2: 60.0,
        directed: false,
    }
}

/// The acceptance-criterion test: every typed method of the client
/// round-trips against a live `gvdb serve`-equivalent server.
#[test]
fn every_typed_method_round_trips() {
    let (qm, path) = manager("roundtrip", 400);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let client = GvdbClient::new(server.addr().to_string());

    assert!(client.healthz().unwrap());

    // Discovery.
    let datasets = client.datasets().unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].name, "default");
    let (dataset, layers) = client.layers(None).unwrap();
    assert_eq!(dataset, "default");
    assert_eq!(layers.len(), datasets[0].layers);
    assert!(layers[0].rows > 0);

    // Buffered window: cold then hit, typed meta.
    let params = WindowParams {
        window: RectDto {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 1500.0,
            max_y: 1500.0,
        },
        ..Default::default()
    };
    let (meta, graph) = client.window(&params).unwrap();
    assert_eq!(meta.source, Source::Cold);
    assert!(graph.contains("\"nodes\""));
    let (meta, _) = client.window(&params).unwrap();
    assert_eq!(meta.source, Source::Hit);

    // Search + focus.
    let hits = client.search(None, 0, "Q1").unwrap();
    assert!(!hits.is_empty());
    let (rows, graph) = client.focus(None, 0, hits[0].node).unwrap();
    assert!(rows > 0 && graph.contains("\"edges\""));

    // Mutations observe their own epochs.
    let inserted = client
        .insert_edge(None, 0, test_edge("client-edit"))
        .unwrap();
    assert_eq!(inserted.epoch, 1);
    let rid = inserted.rid.expect("insert returns the row id");
    let deleted = client.delete_edge(None, 0, rid).unwrap();
    assert_eq!(deleted.epoch, 2);
    assert!(deleted.rid.is_none());

    // Sessions: anchored pans ride the delta path through the client.
    let sid = client.session_new(None, None).unwrap();
    let mut anchored = params.clone();
    anchored.session = Some(sid);
    let (meta, _) = client.window(&anchored).unwrap();
    assert_eq!(meta.session, Some(sid));
    anchored.window.min_x += 300.0;
    anchored.window.max_x += 300.0;
    let (meta, _) = client.window(&anchored).unwrap();
    assert_eq!(meta.source, Source::Delta, "session pan must be delta");
    client.session_close(None, sid).unwrap();
    let err = client.window(&anchored).unwrap_err();
    let ClientError::Api(e) = err else {
        panic!("expected a typed error, got {err}")
    };
    assert_eq!(e.kind, ErrorKind::NotFound);

    // Durability hook.
    let (flushed, pages) = client.flush(None).unwrap();
    assert_eq!(flushed, "default");
    assert!(pages > 0, "a preprocessed db has dirty pages to write");
    let (_, pages_again) = client.flush(None).unwrap();
    assert_eq!(pages_again, 0, "second flush finds nothing dirty");

    // Stats.
    let stats = client.stats().unwrap();
    assert_eq!(stats.datasets.len(), 1);
    assert!(stats.served > 10);

    // Keep-alive reuse: after all of the above, the pool holds an idle
    // connection and a follow-up call reuses it.
    let addr = server.addr().to_string();
    assert!(client.pool().idle_count(&addr) >= 1);
    client.datasets().unwrap();
    assert!(client.pool().idle_count(&addr) >= 1);

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

#[test]
fn streamed_window_matches_buffered_and_reuses_connections() {
    let (qm, path) = manager("stream", 500);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let client = GvdbClient::new(server.addr().to_string());
    let params = WindowParams {
        window: RectDto {
            min_x: -1e9,
            min_y: -1e9,
            max_x: 1e9,
            max_y: 1e9,
        },
        ..Default::default()
    };

    // Cold stream: header first, then batches, then the trailer.
    let mut stream = client.window_stream(&params).unwrap();
    assert_eq!(stream.header.op, "window");
    assert_eq!(stream.header.source, Some(Source::Cold));
    let batches = stream.collect_batches().unwrap();
    assert!(!batches.is_empty());
    let streamed_edges: u64 = batches
        .iter()
        .map(|b| match b {
            RowBatch::Graph { edges, .. } => *edges,
            RowBatch::Hits { .. } | RowBatch::Packed { .. } => {
                panic!("window streams decode to plain graph batches")
            }
        })
        .sum();
    let trailer = stream.trailer().expect("trailer after drain").clone();
    assert_eq!(trailer.rows, streamed_edges);
    assert_eq!(trailer.source, Some(Source::Cold));
    assert_eq!(trailer.frames, batches.len() as u64);

    // The buffered envelope agrees on the row count.
    let (meta, _) = client.window(&params).unwrap();
    assert_eq!(meta.source, Source::Hit, "stream populated the cache");

    // Hit stream: batches marked reused, multi-frame for a big window.
    let mut stream = client.window_stream(&params).unwrap();
    assert_eq!(stream.header.source, Some(Source::Hit));
    let mut hit_edges = 0u64;
    let mut frames = 0u64;
    while let Some(batch) = stream.next_batch().unwrap() {
        let RowBatch::Graph { edges, reused, .. } = batch else {
            panic!("window streams graph batches")
        };
        assert!(reused, "cache-hit batches are reused rows");
        hit_edges += edges;
        frames += 1;
    }
    assert_eq!(hit_edges, streamed_edges);
    assert_eq!(
        stream.header.rows_total, hit_edges,
        "the header carries the row total"
    );
    if streamed_edges > gvdb_api::DEFAULT_CHUNK_ROWS as u64 {
        assert!(frames > 1, "large windows stream multiple batches");
    }

    // Search streams too.
    let mut search = client.search_stream(None, 0, "Q1").unwrap();
    assert_eq!(search.header.op, "search");
    let hits: usize = search
        .collect_batches()
        .unwrap()
        .iter()
        .map(RowBatch::len)
        .sum();
    assert_eq!(search.trailer().unwrap().rows, hits as u64);
    assert!(hits > 0);

    // Fully-drained streams hand their connections back.
    let addr = server.addr().to_string();
    assert!(client.pool().idle_count(&addr) >= 1);

    // Spaces in a streamed query travel as '+' and round-trip: the
    // multi-word search matches what the buffered POST form finds.
    let spaced = "Q1 label";
    let buffered = client.search(None, 0, spaced).unwrap();
    let mut stream = client.search_stream(None, 0, spaced).unwrap();
    let streamed: usize = stream
        .collect_batches()
        .unwrap()
        .iter()
        .map(RowBatch::len)
        .sum();
    assert_eq!(streamed, buffered.len());
    // Strings the query-string dialect cannot carry are rejected
    // up-front instead of silently corrupting the request line.
    match client.search_stream(None, 0, "a&b") {
        Err(ClientError::Protocol(_)) => {}
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("uncarryable query must be rejected"),
    }

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

/// The negotiated compact encoding is invisible above the wire: a
/// packed-by-default client and a `packed: false` client reassemble the
/// exact same bytes as the buffered envelope, and the packed wire is
/// measurably smaller.
#[test]
fn packed_negotiation_is_transparent() {
    let (qm, path) = manager("packed", 500);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let client = GvdbClient::new(server.addr().to_string());
    let whole_plane = RectDto {
        min_x: -1e9,
        min_y: -1e9,
        max_x: 1e9,
        max_y: 1e9,
    };
    let packed_params = WindowParams {
        window: whole_plane,
        ..Default::default()
    };
    assert!(packed_params.packed, "compact encoding is on by default");
    let plain_params = WindowParams {
        window: whole_plane,
        packed: false,
        ..Default::default()
    };

    let reassemble = |client: &GvdbClient, params: &WindowParams| -> (String, u64) {
        let mut stream = client.window_stream(params).unwrap();
        let batches = stream.collect_batches().unwrap();
        let fragments: Vec<String> = batches
            .iter()
            .map(|b| match b {
                RowBatch::Graph { graph, .. } => graph.clone(),
                _ => panic!("streams decode to plain graph batches"),
            })
            .collect();
        let text = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
        (text, stream.rows_wire_bytes())
    };

    // Packed stream (cold), then the buffered envelope: identical bytes.
    let (packed_text, packed_wire) = reassemble(&client, &packed_params);
    let (_, buffered) = client.window(&plain_params).unwrap();
    assert_eq!(
        packed_text, buffered,
        "packed stream diverged from buffered"
    );

    // A plain client sees the same bytes — and a fatter wire.
    let (plain_text, plain_wire) = reassemble(&client, &plain_params);
    assert_eq!(plain_text, buffered);
    assert!(
        packed_wire * 2 < plain_wire,
        "packed wire {packed_wire} B should be well under half of plain {plain_wire} B"
    );
    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

/// Delta windows stream packed too: along a session's pan and for a
/// sessionless window overlapping a cached one, every `Rows` frame
/// arrives packed, the decoded stream reassembles to exactly the plain
/// stream and the buffered body of the same window, and the packed rows
/// take at most half the plain rows' wire bytes.
#[test]
fn delta_windows_stream_packed() {
    let (qm, path) = manager("packeddelta", 500);
    let extent = qm
        .window_query(0, &gvdb_spatial::Rect::new(-1e9, -1e9, 1e9, 1e9))
        .unwrap();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for (_, row) in extent.rows.iter() {
        let g = &row.geometry;
        min_x = min_x.min(g.x1).min(g.x2);
        max_x = max_x.max(g.x1).max(g.x2);
        min_y = min_y.min(g.y1).min(g.y2);
        max_y = max_y.max(g.y1).max(g.y2);
    }
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let client = GvdbClient::new(server.addr().to_string());
    // Windows half the plane wide, stepping a tenth of it: 80% overlap.
    let (w, h) = ((max_x - min_x) / 2.0, max_y - min_y);
    let view = |step: f64| RectDto {
        min_x: min_x + step * w / 5.0,
        min_y,
        max_x: min_x + step * w / 5.0 + w,
        max_y: min_y + h,
    };

    // (source, decoded payload, every frame packed, rows wire bytes)
    let stream = |params: &WindowParams| {
        let mut stream = client.window_stream(params).unwrap();
        let (mut fragments, mut all_packed) = (Vec::new(), true);
        while let Some(batch) = stream.next_batch_raw().unwrap() {
            all_packed &= matches!(batch, RowBatch::Packed { .. });
            match batch.into_plain() {
                RowBatch::Graph { graph, .. } => fragments.push(graph),
                other => panic!("window streamed {other:?}"),
            }
        }
        let text = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
        (
            stream.header.source,
            text,
            all_packed,
            stream.rows_wire_bytes(),
        )
    };
    let check = |packed: &WindowParams| -> Option<Source> {
        let (source, packed_text, all_packed, packed_wire) = stream(packed);
        assert!(all_packed, "{source:?} window sent a plain frame");
        let plain = WindowParams {
            session: None,
            packed: false,
            ..packed.clone()
        };
        let (_, plain_text, _, plain_wire) = stream(&plain);
        let (_, buffered) = client.window(&plain).unwrap();
        assert_eq!(packed_text, plain_text, "packed stream != plain stream");
        assert_eq!(packed_text, buffered, "packed stream != buffered body");
        assert!(
            packed_wire * 2 <= plain_wire,
            "packed rows {packed_wire} B over half of plain {plain_wire} B"
        );
        source
    };

    let session = client.session_new(None, Some(view(0.0))).unwrap();
    let mut sources = Vec::new();
    for step in 0..6 {
        sources.push(check(&WindowParams {
            window: view(step as f64),
            session: Some(session),
            ..Default::default()
        }));
    }
    assert!(
        sources[1..].iter().all(|s| *s == Some(Source::Delta)),
        "session pans ride the delta path: {sources:?}"
    );
    // Sessionless: a window overlapping a cached one splices off it.
    let overlapping = WindowParams {
        window: view(5.5),
        ..Default::default()
    };
    assert_eq!(check(&overlapping), Some(Source::Delta));
    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

#[test]
fn idle_pooled_connections_are_visible_in_server_stats() {
    let (qm, path) = manager("gauge", 300);
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            workers: 2,
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let puller = GvdbClient::new(addr.clone());
    let observer = GvdbClient::new(addr.clone());

    // The stats gauges exclude the request reporting them (the worker
    // building the response, the connection carrying it), so a server
    // with no other traffic reads as quiescent.
    let quiet = observer.stats().unwrap();
    assert_eq!(quiet.active_workers, 0);
    assert_eq!(quiet.open_connections, 0);

    // One request from another client parks an idle keep-alive
    // connection in its pool; the reactor still owns the fd and the
    // gauge sees it — connections cost a registration, not a worker.
    // (Poll briefly: the worker that answered `layers` decrements its
    // gauge a hair after the client sees the response.)
    puller.layers(None).unwrap();
    assert!(puller.pool().idle_count(&addr) >= 1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let busy = observer.stats().unwrap();
        assert_eq!(busy.open_connections, 1, "pooled connection registered");
        if busy.active_workers == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection must not hold a worker: {busy:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Dropping the client hangs up its pooled connection; the reactor
    // reaps the EOF and the gauge returns to zero.
    drop(puller);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let now = observer.stats().unwrap();
        if now.open_connections == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reactor did not reap the dropped connection: {now:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

#[test]
fn mutation_gate_returns_typed_kinds() {
    let (qm, path) = manager("auth", 300);
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            api_key: Some("sesame".into()),
            read_only: vec![],
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // No key: mutations and flush bounce with 401; reads stay open.
    let anon = GvdbClient::new(addr.clone());
    assert!(anon.datasets().is_ok());
    let err = anon.insert_edge(None, 0, test_edge("denied")).unwrap_err();
    let ClientError::Api(e) = err else {
        panic!("expected typed error, got {err}")
    };
    assert_eq!(e.kind, ErrorKind::Unauthorized);
    let ClientError::Api(e) = anon.flush(None).unwrap_err() else {
        panic!("flush without key must be typed")
    };
    assert_eq!(e.kind, ErrorKind::Unauthorized);

    // Wrong key is still a 401; the right key goes through.
    let wrong = GvdbClient::new(addr.clone()).with_api_key("mellon");
    let ClientError::Api(e) = wrong.insert_edge(None, 0, test_edge("denied")).unwrap_err() else {
        panic!("wrong key must be typed")
    };
    assert_eq!(e.kind, ErrorKind::Unauthorized);
    let authed = GvdbClient::new(addr).with_api_key("sesame");
    let mutation = authed.insert_edge(None, 0, test_edge("granted")).unwrap();
    assert_eq!(mutation.epoch, 1);
    assert!(authed.flush(None).is_ok());

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

#[test]
fn read_only_datasets_reject_mutations_with_403() {
    let (qm, path) = manager("readonly", 300);
    let server = Server::start(
        Arc::new(qm),
        ServerConfig {
            read_only: vec!["default".into()],
            ..Default::default()
        },
    )
    .unwrap();
    let client = GvdbClient::new(server.addr().to_string());

    // Reads and flush work; mutations bounce with the Forbidden kind.
    assert!(client.layers(None).is_ok());
    assert!(client.flush(None).is_ok());
    let ClientError::Api(e) = client.insert_edge(None, 0, test_edge("ro")).unwrap_err() else {
        panic!("read-only mutation must be a typed error")
    };
    assert_eq!(e.kind, ErrorKind::Forbidden);
    // Addressing the dataset explicitly changes nothing.
    let ClientError::Api(e) = client
        .insert_edge(Some("default"), 0, test_edge("ro"))
        .unwrap_err()
    else {
        panic!("read-only mutation must be a typed error")
    };
    assert_eq!(e.kind, ErrorKind::Forbidden);

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

/// The attribute query engine over real TCP: filtered windows (buffered,
/// streamed via the `filter=` query parameter, and via RPC), filtered
/// search, aggregation both ways, and the new stats counters.
#[test]
fn filtered_windows_and_aggregates_round_trip() {
    use gvdb_api::{AggOp, Field, Predicate};
    use gvdb_client::AggregateParams;

    let (qm, path) = manager("filtered", 400);
    let server = Server::start(Arc::new(qm), ServerConfig::default()).unwrap();
    let client = GvdbClient::new(server.addr().to_string());

    let pred = Predicate::Range {
        field: Field::Degree,
        min: Some(2.0),
        max: None,
    };
    let plain = WindowParams {
        window: RectDto {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 2000.0,
            max_y: 2000.0,
        },
        ..Default::default()
    };
    let filtered = WindowParams {
        predicate: Some(pred.clone()),
        ..plain.clone()
    };

    // The streamed filtered window (predicate rides `filter=`) decodes
    // byte-identical to the buffered filtered envelope (RPC form).
    let mut stream = client.window_stream(&filtered).unwrap();
    let mut fragments = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        let RowBatch::Graph { graph, .. } = batch else {
            panic!("graph batches only")
        };
        fragments.push(graph);
    }
    let streamed = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
    let (_, buffered) = client.window(&filtered).unwrap();
    assert_eq!(streamed, buffered);

    // The predicate drops rows relative to the unfiltered window.
    let (_, unfiltered) = client.window(&plain).unwrap();
    assert!(buffered.len() < unfiltered.len());

    // Filtered search stays a subset; edge-label predicates are a typed
    // BadRequest.
    let all = client.search(None, 0, "Q1").unwrap();
    let some = client
        .search_filtered(
            None,
            0,
            "Q1",
            Some(Predicate::Range {
                field: Field::X,
                min: None,
                max: Some(1000.0),
            }),
        )
        .unwrap();
    assert!(some.len() <= all.len());
    let ClientError::Api(e) = client
        .search_filtered(None, 0, "Q1", Some(Predicate::EdgeLabelEq("x".into())))
        .unwrap_err()
    else {
        panic!("expected a typed error")
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);

    // Aggregation: buffered == streamed summary, trailer carries rows.
    let agg = AggregateParams {
        dataset: None,
        layer: Some(0),
        window: plain.window,
        predicate: Some(pred),
        agg: AggOp::Histogram {
            field: Field::Degree,
            buckets: 6,
        },
    };
    let (epoch, result) = client.aggregate(&agg).unwrap();
    assert!(result.rows > 0);
    let h = result.histogram.as_ref().expect("histogram result");
    assert_eq!(h.counts.len(), 6);
    let mut stream = client.aggregate_stream(&agg).unwrap();
    assert_eq!(stream.header.op, "aggregate");
    assert_eq!(stream.header.epoch, epoch);
    assert!(stream.next_batch().unwrap().is_none(), "no row batches");
    assert_eq!(stream.summary(), Some(&result));
    let trailer = stream.trailer().expect("trailer after drain");
    assert_eq!(trailer.rows, result.rows);

    // Stats expose the per-layer sidecar cardinality and the chooser's
    // decisions.
    let stats = client.stats().unwrap();
    let ds = &stats.datasets[0];
    assert!(!ds.layers.is_empty());
    assert!(ds.layers.iter().all(|l| l.sidecar_nodes > 0));
    assert!(ds.chooser.index + ds.chooser.scan > 0);

    server.shutdown();
    gvdb_core::remove_database(&path).ok();
}

/// A one-shot raw HTTP peer: accepts one connection, reads the request
/// head and answers with `response` verbatim.
fn raw_peer(response: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") && sock.read(&mut byte).unwrap_or(0) == 1 {
            head.push(byte[0]);
        }
        sock.write_all(&response).ok();
    });
    (addr, handle)
}

/// A streamed response whose chunks are `(payload, terminator)` pairs
/// (a well-formed chunk ends in `\r\n`).
fn chunked_response(chunks: &[(&str, &str)]) -> Vec<u8> {
    let mut out =
        String::from("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n");
    for (payload, terminator) in chunks {
        out.push_str(&format!("{:x}\r\n{payload}{terminator}", payload.len()));
    }
    out.push_str("0\r\n\r\n");
    out.into_bytes()
}

fn header_frame() -> String {
    gvdb_api::ApiFrame::Header(gvdb_api::FrameHeader {
        op: "window".into(),
        dataset: "default".into(),
        layer: 0,
        epoch: 0,
        source: Some(Source::Cold),
        session: None,
        rows_total: 0,
    })
    .to_json()
}

fn protocol_message<T>(result: Result<T, ClientError>) -> String {
    match result {
        Err(ClientError::Protocol(message)) => message,
        Err(other) => panic!("expected a protocol error, got {other:?}"),
        Ok(_) => panic!("expected a protocol error, got a value"),
    }
}

#[test]
fn a_bad_chunk_terminator_is_a_protocol_error() {
    let rows = "{\"frame\":\"rows\",\"nodes\":0,\"edges\":0,\"reused\":false,\"graph\":{\"nodes\":[],\"edges\":[]}}";
    // The header chunk is well formed; the rows chunk is followed by two
    // stray bytes instead of CRLF, so the reader is out of sync.
    let (addr, peer) = raw_peer(chunked_response(&[(&header_frame(), "\r\n"), (rows, "XY")]));
    let client = GvdbClient::new(addr);
    let mut stream = client.window_stream(&WindowParams::default()).unwrap();
    assert_eq!(stream.header.op, "window");
    let message = protocol_message(stream.next_batch());
    assert!(message.contains("CRLF"), "{message}");
    peer.join().unwrap();
}

#[test]
fn a_bad_frame_error_quotes_a_bounded_excerpt() {
    let mut bad = String::from("{\"frame\":\"rows\",\"nodes\":1,\"edges\":0,\"graph\":[");
    for _ in 0..5_000 {
        bad.push_str("\"é😀\",");
    }
    let (addr, peer) = raw_peer(chunked_response(&[
        (&header_frame(), "\r\n"),
        (&bad, "\r\n"),
    ]));
    let client = GvdbClient::new(addr);
    let mut stream = client.window_stream(&WindowParams::default()).unwrap();
    let message = protocol_message(stream.next_batch());
    assert!(message.starts_with("bad frame: "), "{message}");
    assert!(message.contains("malformed frame"), "{message}");
    assert!(message.contains("{\"frame\":\"rows\""), "{message}");
    assert!(
        message.len() < 512,
        "{} bytes quoted from a {}-byte frame",
        message.len(),
        bad.len()
    );
    peer.join().unwrap();
}
