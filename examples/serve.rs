//! The serving layer demo: two synthetic datasets behind the real
//! [`graphvizdb::server`] stack, speaking the typed `/v1` protocol —
//! multi-dataset selection, session-anchored delta pans, an HTTP
//! mutation observing its own epoch, per-dataset `/v1/stats` — all over
//! **one keep-alive connection**.
//!
//! By default the example starts the server, issues the demo requests
//! against itself and exits (CI-friendly). Pass `--serve` to keep
//! listening.
//!
//! ```text
//! cargo run --release --example serve             # self-demo
//! cargo run --release --example serve -- --serve  # keep serving
//! ```
//!
//! For real databases use the CLI instead:
//! `gvdb serve acm=acm.gvdb dblp=dblp.gvdb`.

use graphvizdb::core::SharedWorkspace;
use graphvizdb::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn main() {
    let mut rdf_path = std::env::temp_dir();
    rdf_path.push(format!("gvdb-serve-rdf-{}.db", std::process::id()));
    let mut cite_path = std::env::temp_dir();
    cite_path.push(format!("gvdb-serve-cite-{}.db", std::process::id()));

    let rdf = wikidata_like(RdfConfig {
        entities: 1_000,
        ..Default::default()
    });
    let cite = patent_like(CitationConfig {
        nodes: 1_500,
        ..Default::default()
    });
    let (rdf_db, _) =
        preprocess(&rdf, &rdf_path, &PreprocessConfig::default()).expect("preprocess");
    let (cite_db, _) =
        preprocess(&cite, &cite_path, &PreprocessConfig::default()).expect("preprocess");

    let workspace = Arc::new(SharedWorkspace::new());
    workspace.add("dblp", rdf_db).expect("register dblp");
    workspace.add("patents", cite_db).expect("register patents");

    // The event-driven core makes connection capacity explicit: idle
    // keep-alive connections cost a registered fd in the reactor, not a
    // thread, so `max_connections` can dwarf `workers`. `outbox_bytes`
    // bounds the per-connection response queue a slow reader can pin.
    let server = Server::start(
        workspace,
        ServerConfig {
            max_connections: 1024,
            outbox_bytes: 1 << 20,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    println!("graphvizdb serving 2 datasets on http://{addr} (v1 API)");

    if std::env::args().any(|a| a == "--serve") {
        server.wait();
        return;
    }

    // Self-demo: one keep-alive client walks the protocol. Every request
    // below reuses the same TCP connection.
    let mut client = Client::connect(addr);
    let demo = |client: &mut Client, method: &str, path: &str, body: Option<&str>| -> String {
        let (headers, body) = client.request(method, path, body);
        let source = headers
            .lines()
            .find(|l| l.starts_with("X-Gvdb-Source"))
            .unwrap_or("")
            .trim();
        let preview: String = body.chars().take(160).collect();
        println!(
            "\n{method} {path}  {source}\n{preview}{}",
            if body.len() > 160 { "…" } else { "" }
        );
        body
    };

    demo(&mut client, "GET", "/v1/datasets", None);
    demo(&mut client, "GET", "/v1/layers?dataset=dblp", None);
    // Cold, then exact cache hit.
    demo(
        &mut client,
        "GET",
        "/v1/window?dataset=dblp&layer=0&minx=0&miny=0&maxx=1200&maxy=1200",
        None,
    );
    demo(
        &mut client,
        "GET",
        "/v1/window?dataset=dblp&layer=0&minx=0&miny=0&maxx=1200&maxy=1200",
        None,
    );
    // Session-anchored pan: the 80% overlap rides the delta path.
    let session = demo(&mut client, "GET", "/v1/session/new?dataset=dblp", None);
    let session: u64 = session
        .split("\"session\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches('}').parse().ok())
        .expect("session id");
    demo(
        &mut client,
        "GET",
        &format!(
            "/v1/window?dataset=dblp&layer=0&session={session}&minx=0&miny=0&maxx=1200&maxy=1200"
        ),
        None,
    );
    demo(
        &mut client,
        "GET",
        &format!(
            "/v1/window?dataset=dblp&layer=0&session={session}&minx=240&miny=0&maxx=1440&maxy=1200"
        ),
        None,
    );
    // Search.
    demo(
        &mut client,
        "GET",
        "/v1/search?dataset=dblp&layer=0&q=Faloutsos",
        None,
    );
    // An HTTP mutation: insert an edge into dblp; the response carries
    // the layer's NEW epoch, and the panned window (same session) now
    // re-queries instead of serving the stale cache entry.
    demo(
        &mut client,
        "POST",
        "/v1/edge",
        Some(
            r#"{"dataset":"dblp","layer":0,"edge":{"node1_id":990001,"node1_label":"demo A","node2_id":990002,"node2_label":"demo B","edge_label":"hand-drawn","x1":600.0,"y1":600.0,"x2":700.0,"y2":700.0,"directed":false}}"#,
        ),
    );
    demo(
        &mut client,
        "GET",
        &format!(
            "/v1/window?dataset=dblp&layer=0&session={session}&minx=240&miny=0&maxx=1440&maxy=1200"
        ),
        None,
    );
    // Patents was untouched by the dblp edit: its epochs stay 0.
    demo(&mut client, "GET", "/v1/layers?dataset=patents", None);
    // Per-dataset stats (cache/pool shards, sessions, epochs).
    demo(&mut client, "GET", "/v1/stats", None);

    println!("\nself-demo complete over ONE keep-alive connection (pass --serve to keep the server running)");
    server.shutdown();
    gvdb_storage::wal::remove_database(&rdf_path).ok();
    gvdb_storage::wal::remove_database(&cite_path).ok();
}

/// A minimal keep-alive HTTP client for the self-demo.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (String, String) {
        let body = body.unwrap_or("");
        // `Accept: application/json` keeps `/v1/window` and `/v1/search`
        // on the buffered envelope this little client parses; drop it (or
        // use `gvdb-client`) to get the streamed frame protocol instead.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nAccept: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes()).expect("request");
        let mut headers = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("headers");
            assert!(n > 0, "server closed the demo connection");
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
        let mut buf = vec![0u8; length];
        self.reader.read_exact(&mut buf).expect("body");
        (headers, String::from_utf8(buf).expect("utf8"))
    }
}
