//! `gvdb` — the graphvizdb command-line tool.
//!
//! ```text
//! gvdb preprocess <graph-file> <db> [--k N] [--layout force|circular|star|grid|hier]
//!                                   [--levels N] [--criterion degree|pagerank|hits]
//! gvdb info <db>
//! gvdb window <db> <layer> <minx> <miny> <maxx> <maxy>
//! gvdb search <db> <layer> <keyword...>
//! gvdb focus <db> <layer> <node-id>
//! gvdb serve <db> | <name>=<path>... | --workspace <dir>
//!            [--addr HOST:PORT] [--workers N] [--backlog N]
//!            [--max-connections N] [--outbox-bytes N]
//!            [--api-key KEY] [--read-only DATASET]...
//!            [--follow HOST:PORT] [--poll-ms N]
//! gvdb serve --router --shard HOST:PORT... [--addr HOST:PORT]
//!            [--shardmap-out FILE] [server flags]
//! ```
//!
//! `serve` binds a multi-dataset workspace behind the `/v1` API: a single
//! bare `<db>` serves as dataset `default`, several `<name>=<path>` pairs
//! serve side by side behind `dataset=<name>`, and `--workspace <dir>`
//! loads every `*.gvdb` file in the directory (dataset name = file stem).
//!
//! A single-dataset `serve` is a replication leader: it serves
//! `/v1/repl/*` for followers to pull and never contacts them.
//! `--follow HOST:PORT` makes a read-only follower that pulls the
//! leader's new checkpoints every `--poll-ms` (default 500), and
//! `--router` fans reads out over the `--shard` replicas.
//!
//! Input format is inferred from the extension: `.nt` parses as N-Triples,
//! anything else as a (tab/space-separated) edge list.

use graphvizdb::abstraction::{AbstractionMethod, HierarchyConfig, RankingCriterion};
use graphvizdb::api::RectDto;
use graphvizdb::core::service::to_rect;
use graphvizdb::core::{preprocess, LayoutChoice, PreprocessConfig, QueryManager};
use graphvizdb::graph::io::{read_edge_list, read_ntriples};
use graphvizdb::graph::Graph;
use graphvizdb::storage::GraphDb;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("preprocess") => cmd_preprocess(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("window") => cmd_window(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("focus") => cmd_focus(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  gvdb preprocess <graph-file> <db> [--k N] [--layout force|circular|star|grid|hier]
                                    [--levels N] [--criterion degree|pagerank|hits]
  gvdb info <db>
  gvdb window <db> <layer> <minx> <miny> <maxx> <maxy>
  gvdb search <db> <layer> <keyword...>
  gvdb focus <db> <layer> <node-id>
  gvdb serve <db> | <name>=<path>... | --workspace <dir>
             [--addr HOST:PORT] [--workers N] [--backlog N]
             [--max-connections N] [--outbox-bytes N]
             [--api-key KEY] [--read-only DATASET]...
             [--follow HOST:PORT] [--poll-ms N]
  gvdb serve --router --shard HOST:PORT... [--addr HOST:PORT]
             [--shardmap-out FILE] [server flags]";

fn load_graph(path: &str) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    if path.ends_with(".nt") {
        read_ntriples(file).map_err(|e| format!("parse {path}: {e}"))
    } else {
        read_edge_list(file, true).map_err(|e| format!("parse {path}: {e}"))
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable flag (`--read-only a --read-only b`).
fn flag_all<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// `serve`'s value-taking flags: the positional scan skips each together
/// with its value. A new `serve` flag MUST be listed here (or in the
/// boolean set inside [`serve_positionals`]) or it is rejected as unknown.
const SERVE_VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--backlog",
    "--max-connections",
    "--outbox-bytes",
    "--workspace",
    "--api-key",
    "--read-only",
    "--follow",
    "--poll-ms",
    "--shard",
    "--shardmap-out",
];

/// The non-flag arguments of `serve` (dataset specs), with unknown
/// `--flags` rejected.
fn serve_positionals(args: &[String]) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if SERVE_VALUE_FLAGS.contains(&arg) {
            i += 2;
            continue;
        }
        if arg == "--router" {
            i += 1;
            continue;
        }
        if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        }
        out.push(arg);
        i += 1;
    }
    Ok(out)
}

fn cmd_preprocess(args: &[String]) -> Result<(), String> {
    let [input, db_path, ..] = args else {
        return Err("preprocess needs <graph-file> <db>".into());
    };
    let graph = load_graph(input)?;
    println!(
        "loaded {}: {} nodes, {} edges",
        input,
        graph.node_count(),
        graph.edge_count()
    );
    let mut cfg = PreprocessConfig::default();
    if let Some(k) = flag(args, "--k") {
        cfg.k = Some(k.parse().map_err(|_| format!("bad --k {k}"))?);
    }
    if let Some(layout) = flag(args, "--layout") {
        cfg.layout = match layout {
            "force" => LayoutChoice::ForceDirected,
            "circular" => LayoutChoice::Circular,
            "star" => LayoutChoice::Star,
            "grid" => LayoutChoice::Grid,
            "hier" => LayoutChoice::Hierarchical,
            other => return Err(format!("unknown layout {other}")),
        };
    }
    let levels: usize = match flag(args, "--levels") {
        Some(v) => v.parse().map_err(|_| format!("bad --levels {v}"))?,
        None => 4,
    };
    let criterion = match flag(args, "--criterion") {
        Some("pagerank") => RankingCriterion::PageRank,
        Some("hits") => RankingCriterion::HitsAuthority,
        Some("degree") | None => RankingCriterion::Degree,
        Some(other) => return Err(format!("unknown criterion {other}")),
    };
    cfg.hierarchy = HierarchyConfig {
        levels,
        method: AbstractionMethod::Filter {
            criterion,
            fraction: 0.3,
        },
    };
    let (_db, report) = preprocess(&graph, Path::new(db_path), &cfg).map_err(|e| e.to_string())?;
    println!(
        "built {} layers into {db_path} (k = {}, edge cut {})",
        report.layer_sizes.len(),
        report.k,
        report.edge_cut
    );
    let t = &report.times;
    println!(
        "step times: 1) partition {:.2?}  2) layout {:.2?}  3) organize {:.2?}  4) abstraction {:.2?}  5) indexing {:.2?}",
        t.partitioning, t.layout, t.organize, t.abstraction, t.indexing
    );
    Ok(())
}

fn open_db(path: &str) -> Result<GraphDb, String> {
    GraphDb::open(Path::new(path)).map_err(|e| format!("open {path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [db_path, ..] = args else {
        return Err("info needs <db>".into());
    };
    let db = open_db(db_path)?;
    println!("{db_path}: {} layers", db.layer_count());
    for i in 0..db.layer_count() {
        let layer = db.layer(i).expect("index in range");
        println!("  layer {i} ({}): {} rows", layer.name(), layer.row_count());
    }
    Ok(())
}

fn cmd_window(args: &[String]) -> Result<(), String> {
    let [db_path, layer, minx, miny, maxx, maxy, ..] = args else {
        return Err("window needs <db> <layer> <minx> <miny> <maxx> <maxy>".into());
    };
    let layer: usize = layer.parse().map_err(|_| "bad layer index")?;
    let parse = |v: &String| v.parse::<f64>().map_err(|_| format!("bad coordinate {v}"));
    let rect = to_rect(&RectDto {
        min_x: parse(minx)?,
        min_y: parse(miny)?,
        max_x: parse(maxx)?,
        max_y: parse(maxy)?,
    })
    .map_err(|e| e.to_string())?;
    let qm = QueryManager::new(open_db(db_path)?);
    let resp = qm.window_query(layer, &rect).map_err(|e| e.to_string())?;
    println!("{}", resp.json.text);
    let source = if resp.cache_hit {
        "cache-hit"
    } else if resp.delta {
        "delta"
    } else {
        "cold"
    };
    eprintln!(
        "# {} nodes, {} edges; db {:.3} ms, json {:.3} ms; {source}, {} reused / {} fetched",
        resp.json.node_count,
        resp.json.edge_count,
        resp.db_ms,
        resp.build_json_ms,
        resp.rows_reused,
        resp.rows_fetched
    );
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let [db_path, layer, keyword @ ..] = args else {
        return Err("search needs <db> <layer> <keyword...>".into());
    };
    if keyword.is_empty() {
        return Err("search needs a keyword".into());
    }
    let layer: usize = layer.parse().map_err(|_| "bad layer index")?;
    let qm = QueryManager::new(open_db(db_path)?);
    let hits = qm
        .keyword_search(layer, &keyword.join(" "))
        .map_err(|e| e.to_string())?;
    println!("{} hit(s)", hits.len());
    for h in hits.iter().take(25) {
        println!(
            "  node {} @ ({:.1}, {:.1}): {}",
            h.node_id, h.position.x, h.position.y, h.label
        );
    }
    Ok(())
}

fn cmd_focus(args: &[String]) -> Result<(), String> {
    let [db_path, layer, node, ..] = args else {
        return Err("focus needs <db> <layer> <node-id>".into());
    };
    let layer: usize = layer.parse().map_err(|_| "bad layer index")?;
    let node: u64 = node.parse().map_err(|_| "bad node id")?;
    let qm = QueryManager::new(open_db(db_path)?);
    let rows = qm.focus_on_node(layer, node).map_err(|e| e.to_string())?;
    println!("{} incident edge(s)", rows.len());
    for (_, r) in rows.iter().take(25) {
        println!(
            "  {} --{}--> {}",
            r.node1_label, r.edge_label, r.node2_label
        );
    }
    Ok(())
}

/// `gvdb serve`: open one or more preprocessed databases as a shared
/// workspace and serve them over HTTP (the `/v1` typed API) until the
/// process is killed.
///
/// * `gvdb serve graph.db` — one dataset, named `default`.
/// * `gvdb serve acm=acm.gvdb dblp=dblp.gvdb` — several datasets behind
///   the `dataset=` selector, each with its own sessions and epochs.
/// * `gvdb serve --workspace ./data` — every `*.gvdb` in the directory.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use graphvizdb::core::SharedWorkspace;
    use graphvizdb::replication::{FollowerRepl, LeaderRepl, RouterRepl, RouterService};
    use graphvizdb::server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let mut config = ServerConfig::default();
    if let Some(addr) = flag(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(workers) = flag(args, "--workers") {
        config.workers = workers
            .parse()
            .map_err(|_| format!("bad --workers {workers}"))?;
    }
    if let Some(backlog) = flag(args, "--backlog") {
        config.backlog = backlog
            .parse()
            .map_err(|_| format!("bad --backlog {backlog}"))?;
    }
    if let Some(max) = flag(args, "--max-connections") {
        config.max_connections = max
            .parse()
            .map_err(|_| format!("bad --max-connections {max}"))?;
    }
    if let Some(bytes) = flag(args, "--outbox-bytes") {
        config.outbox_bytes = bytes
            .parse()
            .map_err(|_| format!("bad --outbox-bytes {bytes}"))?;
    }
    if let Some(key) = flag(args, "--api-key") {
        config.api_key = Some(key.to_string());
    }
    config.read_only = flag_all(args, "--read-only")
        .into_iter()
        .map(String::from)
        .collect();

    // Replication / sharding roles.
    let follow = flag(args, "--follow").map(String::from);
    let router_mode = args.iter().any(|a| a == "--router");
    let shards: Vec<String> = flag_all(args, "--shard")
        .into_iter()
        .map(String::from)
        .collect();
    let poll_ms: u64 = match flag(args, "--poll-ms") {
        Some(v) => v.parse().map_err(|_| format!("bad --poll-ms {v}"))?,
        None => 500,
    };
    let shardmap_out = flag(args, "--shardmap-out");
    if router_mode && follow.is_some() {
        return Err("--router cannot be combined with --follow".into());
    }
    if !shards.is_empty() && !router_mode {
        return Err("--shard only makes sense with --router".into());
    }

    // Router: no local datasets at all — just shard addresses to fan out
    // over. Short-circuits before any workspace handling.
    if router_mode {
        if shards.is_empty() {
            return Err("--router needs at least one --shard HOST:PORT".into());
        }
        if !serve_positionals(args)?.is_empty() {
            return Err("--router takes no dataset arguments; list --shard peers instead".into());
        }
        let shard_count = shards.len();
        let router = RouterService::connect(shards).map_err(|e| format!("router: {e}"))?;
        if let Some(out) = shardmap_out {
            std::fs::write(out, router.shard_map_json())
                .map_err(|e| format!("write {out}: {e}"))?;
        }
        config.repl = Some(Arc::new(RouterRepl::new(&router)));
        let server = Server::start(Arc::new(router), config).map_err(|e| format!("bind: {e}"))?;
        println!(
            "graphvizdb router over {shard_count} shard(s) on http://{}",
            server.addr()
        );
        println!("windows/searches/aggregates fan out and merge; shard map at /v1/shardmap");
        println!("writes are refused here — apply them on the leader");
        server.wait();
        return Ok(());
    }

    let workspace = Arc::new(SharedWorkspace::new());
    if let Some(dir) = flag(args, "--workspace") {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir}: {e}"))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("gvdb") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("unusable file name {}", path.display()))?
                .to_string();
            workspace
                .open(&name, &path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
        }
        if workspace.is_empty() {
            return Err(format!("no *.gvdb files in {dir}"));
        }
    }
    // Positional dataset specs: `<name>=<path>`, or a bare `<path>`
    // serving as dataset `default` (the backwards-compatible form).
    for arg in serve_positionals(args)? {
        let (name, path) = match arg.split_once('=') {
            Some((name, path)) if !name.is_empty() => (name, path),
            _ => ("default", arg),
        };
        workspace
            .open(name, Path::new(path))
            .map_err(|e| format!("open {path}: {e}"))?;
    }
    if workspace.is_empty() {
        return Err("serve needs <db>, <name>=<path>... or --workspace <dir>".into());
    }

    // Wire the replication personality. Any single-dataset server is a
    // leader — it serves `/v1/repl/*` so followers can pull. `--follow`
    // makes this node a read-only replica that pulls from a leader.
    let mut _follower_loop = None;
    if let Some(leader_addr) = follow {
        if workspace.len() != 1 {
            return Err("--follow replicates exactly one dataset; serve a single <db>".into());
        }
        let (name, qm) = workspace.entries().pop().expect("one dataset");
        let follower = FollowerRepl::new(qm, leader_addr.clone());
        _follower_loop = Some(follower.start(Duration::from_millis(poll_ms.max(1))));
        // A replica that took local writes would diverge from the shipped
        // checkpoint stream, so the followed dataset is forced read-only.
        if !config.read_only.contains(&name) {
            config.read_only.push(name);
        }
        config.repl = Some(follower);
        println!("following {leader_addr} (poll every {poll_ms}ms); local writes are refused");
    } else if workspace.len() == 1 {
        let (_, qm) = workspace.entries().pop().expect("one dataset");
        config.repl = Some(LeaderRepl::new(qm));
    }

    let datasets = workspace.names().join(", ");
    let count = workspace.len();
    let gated = config.api_key.is_some();
    let read_only = config.read_only.join(", ");
    let server = Server::start(workspace, config).map_err(|e| format!("bind: {e}"))?;
    println!(
        "graphvizdb serving {count} dataset(s) [{datasets}] on http://{}",
        server.addr()
    );
    println!("v1 API: /v1/datasets /v1/layers /v1/window /v1/search /v1/focus /v1/edge (POST) /v1/edge/delete (POST) /v1/session/new /v1/session/close /v1/flush (POST) /v1/stats /v1/healthz");
    println!("window/search stream typed frames over chunked encoding (stream=0 or Accept: application/json for the buffered envelope)");
    if gated {
        println!("mutations + flush require 'Authorization: Bearer <api-key>'");
    }
    if !read_only.is_empty() {
        println!("read-only dataset(s): {read_only}");
    }
    server.wait();
    Ok(())
}
