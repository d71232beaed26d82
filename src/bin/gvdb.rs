//! `gvdb` — the graphvizdb command-line tool.
//!
//! ```text
//! gvdb preprocess <edge-list|.nt> <db> [--k N] [--layout force|circular|star|grid|hier]
//!                                      [--levels N] [--criterion degree|pagerank|hits]
//! gvdb info <db>
//! gvdb window <db> <layer> <minx> <miny> <maxx> <maxy>
//! gvdb search <db> <layer> <keyword...>
//! gvdb focus <db> <layer> <node-id>
//! gvdb stats <db>
//! gvdb serve <db> | <name>=<path>... | --workspace <dir>
//!            [--addr HOST:PORT] [--workers N] [--backlog N]
//!            [--max-connections N] [--outbox-bytes N]
//!            [--api-key KEY] [--read-only DATASET]... [--plain-frames]
//! gvdb bench-smoke [--out FILE] [--concurrency-out FILE] [--http-out FILE]
//!                  [--stream-out FILE] [--connections-out FILE]
//!                  [--filter-out FILE]
//!                  [--nodes N] [--pans K] [--overlap F]
//! ```
//!
//! `serve` binds a multi-dataset workspace behind the `/v1` API: a single
//! bare `<db>` serves as dataset `default`, several `<name>=<path>` pairs
//! serve side by side behind `dataset=<name>`, and `--workspace <dir>`
//! loads every `*.gvdb` file in the directory (dataset name = file stem).
//!
//! Input format is inferred from the extension: `.nt` parses as N-Triples,
//! anything else as a (tab/space-separated) edge list.

use graphvizdb::abstraction::{AbstractionMethod, HierarchyConfig, RankingCriterion};
use graphvizdb::core::{preprocess, LayoutChoice, PreprocessConfig, QueryManager};
use graphvizdb::graph::io::{read_edge_list, read_ntriples};
use graphvizdb::graph::Graph;
use graphvizdb::spatial::Rect;
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
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-smoke") => cmd_bench_smoke(&args[1..]),
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
  gvdb stats <db>
  gvdb serve <db> | <name>=<path>... | --workspace <dir>
             [--addr HOST:PORT] [--workers N] [--backlog N]
             [--max-connections N] [--outbox-bytes N]
             [--api-key KEY] [--read-only DATASET]... [--plain-frames]
             [--replicate-to HOST:PORT]... [--ship-interval-ms N]
             [--follow HOST:PORT] [--poll-ms N]
  gvdb serve --router --shard HOST:PORT... [--addr HOST:PORT]
             [--shardmap-out FILE] [server flags]
  gvdb bench-smoke [--out FILE] [--concurrency-out FILE] [--http-out FILE]
                   [--stream-out FILE] [--connections-out FILE]
                   [--filter-out FILE] [--cluster-out FILE]
                   [--nodes N] [--pans K] [--overlap F]";

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
    "--replicate-to",
    "--ship-interval-ms",
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
        if arg == "--plain-frames" || arg == "--router" {
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
    let rect = Rect::new(parse(minx)?, parse(miny)?, parse(maxx)?, parse(maxy)?);
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
    // Operational escape hatch: refuse `encoding=packed` negotiation and
    // serve every stream as plain JSON frames (e.g. when debugging a
    // client with a packet capture).
    config.plain_frames = args.iter().any(|a| a == "--plain-frames");

    // Replication / sharding roles.
    let replicate_to: Vec<String> = flag_all(args, "--replicate-to")
        .into_iter()
        .map(String::from)
        .collect();
    let follow = flag(args, "--follow").map(String::from);
    let router_mode = args.iter().any(|a| a == "--router");
    let shards: Vec<String> = flag_all(args, "--shard")
        .into_iter()
        .map(String::from)
        .collect();
    let ship_ms: u64 = match flag(args, "--ship-interval-ms") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --ship-interval-ms {v}"))?,
        None => 500,
    };
    let poll_ms: u64 = match flag(args, "--poll-ms") {
        Some(v) => v.parse().map_err(|_| format!("bad --poll-ms {v}"))?,
        None => 500,
    };
    let shardmap_out = flag(args, "--shardmap-out");
    if follow.is_some() && !replicate_to.is_empty() {
        return Err("--follow and --replicate-to are different roles; pick one".into());
    }
    if router_mode && (follow.is_some() || !replicate_to.is_empty()) {
        return Err("--router cannot be combined with --follow or --replicate-to".into());
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
    // potential leader — it serves `/v1/repl/*` so followers can pull —
    // and `--replicate-to` additionally pushes fresh checkpoints.
    // `--follow` makes this node a read-only replica of a leader.
    let mut _follower_loop = None;
    let mut _shipper_loop = None;
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
        let leader = LeaderRepl::new(qm);
        if !replicate_to.is_empty() {
            _shipper_loop = Some(leader.start_shipper(
                replicate_to.clone(),
                config.api_key.clone(),
                Duration::from_millis(ship_ms.max(1)),
            ));
            println!(
                "shipping checkpoints to {} every {ship_ms}ms",
                replicate_to.join(", ")
            );
        }
        config.repl = Some(leader);
    } else if !replicate_to.is_empty() {
        return Err("--replicate-to requires serving exactly one dataset".into());
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

/// The perf-trajectory smoke bench: a synthetic patent-like dataset, one
/// interactive pan trajectory, cold vs delta execution, written to a JSON
/// file (`BENCH_pan.json` by default) so successive PRs can diff the
/// numbers. Runs in seconds; CI executes it on every push.
fn cmd_bench_smoke(args: &[String]) -> Result<(), String> {
    use graphvizdb::prelude::{patent_like, CitationConfig};
    use gvdb_bench::{pan_trajectory, prepare};
    use std::time::Instant;

    let out = flag(args, "--out").unwrap_or("BENCH_pan.json");
    // Default dataset size is chosen so one viewport's heap pages exceed
    // the default buffer pool: cold pans then pay real page I/O, which is
    // exactly the regime the delta path exists for (and the paper's own
    // setting — datasets far larger than the 6 GB MySQL cache).
    let nodes: usize = match flag(args, "--nodes") {
        Some(v) => v.parse().map_err(|_| format!("bad --nodes {v}"))?,
        None => 12_000,
    };
    let pans: usize = match flag(args, "--pans") {
        Some(v) => v.parse().map_err(|_| format!("bad --pans {v}"))?,
        None => 40,
    };
    let overlap: f64 = match flag(args, "--overlap") {
        Some(v) => v.parse().map_err(|_| format!("bad --overlap {v}"))?,
        None => 0.8,
    };
    let side_frac: f64 = match flag(args, "--side") {
        Some(v) => v.parse().map_err(|_| format!("bad --side {v}"))?,
        None => 0.3,
    };
    if !(0.0..1.0).contains(&overlap) {
        return Err(format!("--overlap must be in [0, 1), got {overlap}"));
    }

    let graph = patent_like(CitationConfig {
        nodes,
        avg_citations: 4.34,
        ..Default::default()
    });
    eprintln!(
        "bench-smoke: {} nodes, {} edges; preprocessing…",
        graph.node_count(),
        graph.edge_count()
    );
    let (db, _report, bounds, path) = prepare(&graph, "smoke");
    let side = (bounds.width().min(bounds.height()) * side_frac).max(1.0);
    let windows = pan_trajectory(&bounds, side, overlap, pans);

    // Delta manager: the default incremental path. Cold manager: a second
    // handle on the same file with partial hits disabled and a single
    // one-entry cache shard (each insert evicts the previous window), so
    // every query re-runs the full R-tree descent + heap fetch even if
    // the trajectory ever revisits a window.
    let qm_delta = QueryManager::new(db);
    let qm_cold = QueryManager::with_cache_config(
        GraphDb::open(Path::new(&path)).map_err(|e| e.to_string())?,
        gvdb_bench::uncached_cache_config(),
    );

    let mut cold_ms = Vec::with_capacity(windows.len());
    let mut delta_ms = Vec::with_capacity(windows.len());
    let mut cold_db = Vec::new();
    let mut cold_json = Vec::new();
    let mut delta_db = Vec::new();
    let mut delta_json = Vec::new();
    let (mut cold_fetched, mut delta_fetched, mut delta_reused) = (0u64, 0u64, 0u64);
    let cold_pool0 = qm_cold.pool_stats();
    let delta_pool0 = qm_delta.pool_stats();
    for (i, w) in windows.iter().enumerate() {
        let t = Instant::now();
        let cold = qm_cold.window_query(0, w).map_err(|e| e.to_string())?;
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cold_fetched += cold.rows_fetched as u64;
        cold_db.push(cold.db_ms);
        cold_json.push(cold.build_json_ms);
        if cold.delta || cold.cache_hit {
            return Err(format!("pan {i}: cold baseline was served from cache"));
        }

        let t = Instant::now();
        let delta = qm_delta.window_query(0, w).map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i > 0 {
            // The first query has no anchor; it is cold by definition and
            // excluded from the delta series.
            delta_ms.push(ms);
            delta_fetched += delta.rows_fetched as u64;
            delta_reused += delta.rows_reused as u64;
            delta_db.push(delta.db_ms);
            delta_json.push(delta.build_json_ms);
            if !delta.delta {
                eprintln!("warning: pan {i} did not take the delta path");
            }
        }
        if delta.rows != cold.rows {
            return Err(format!("pan {i}: delta result diverged from cold"));
        }
    }
    let cold_pool = qm_cold.pool_stats().since(&cold_pool0);
    let delta_pool = qm_delta.pool_stats().since(&delta_pool0);

    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if xs.is_empty() {
            0.0
        } else {
            xs[xs.len() / 2]
        }
    };
    let cold_median = median(&mut cold_ms);
    let delta_median = median(&mut delta_ms);
    let speedup = if delta_median > 0.0 {
        cold_median / delta_median
    } else {
        f64::INFINITY
    };

    // Residency gauges from the delta manager's pool after the full
    // trajectory. With delta/RLE leaf pages a resident frame carries
    // `compression_ratio`× the plain-format bytes — and therefore that
    // many times the rows — so the pool's effective row capacity per
    // physical byte is the plain-page figure scaled by the ratio.
    // `rows_per_pool_byte` prices the resident logical bytes at the
    // dataset's average plain row cost (heap record + index entry ≈
    // logical bytes / rows when fully resident); recorded so CI can
    // watch the pool's effective capacity across PRs.
    let rows_per_pool_byte = if delta_pool.physical_bytes > 0 {
        let plain_bytes_per_row = if delta_pool.logical_bytes > 0 {
            delta_pool.logical_bytes as f64 / graph.edge_count().max(1) as f64
        } else {
            1.0
        };
        delta_pool.compression_ratio() / plain_bytes_per_row.max(f64::MIN_POSITIVE)
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"dataset\": \"patent_like\",\n  \"nodes\": {},\n  \"edges\": {},\n  \"pans\": {},\n  \"overlap\": {:.2},\n  \"window_side\": {:.1},\n  \"cold\": {{ \"median_ms\": {:.4}, \"db_ms\": {:.4}, \"json_ms\": {:.4}, \"rows_fetched\": {} }},\n  \"delta\": {{ \"median_ms\": {:.4}, \"db_ms\": {:.4}, \"json_ms\": {:.4}, \"rows_fetched\": {}, \"rows_reused\": {} }},\n  \"speedup\": {:.2},\n  \"pool_hit_rate\": {{ \"cold\": {:.4}, \"delta\": {:.4} }},\n  \"pool_residency\": {{ \"logical_bytes\": {}, \"physical_bytes\": {}, \"compression_ratio\": {:.2}, \"rows_per_pool_byte\": {:.5} }}\n}}\n",
        graph.node_count(),
        graph.edge_count(),
        pans,
        overlap,
        side,
        cold_median,
        median(&mut cold_db),
        median(&mut cold_json),
        cold_fetched,
        delta_median,
        median(&mut delta_db),
        median(&mut delta_json),
        delta_fetched,
        delta_reused,
        speedup,
        cold_pool.hit_rate(),
        delta_pool.hit_rate(),
        delta_pool.logical_bytes,
        delta_pool.physical_bytes,
        delta_pool.compression_ratio(),
        rows_per_pool_byte
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: delta {:.3} ms vs cold {:.3} ms median ({speedup:.1}x), {} vs {} rows fetched",
        delta_median, cold_median, delta_fetched, cold_fetched
    );

    let conc_out = flag(args, "--concurrency-out").unwrap_or("BENCH_concurrency.json");
    bench_concurrency(Path::new(&path), &bounds, conc_out)?;

    let http_out = flag(args, "--http-out").unwrap_or("BENCH_http.json");
    bench_http(Path::new(&path), &bounds, http_out)?;

    let stream_out = flag(args, "--stream-out").unwrap_or("BENCH_stream.json");
    bench_stream(Path::new(&path), &bounds, stream_out)?;

    let connections_out = flag(args, "--connections-out").unwrap_or("BENCH_connections.json");
    bench_connections(Path::new(&path), &bounds, connections_out)?;

    let filter_out = flag(args, "--filter-out").unwrap_or("BENCH_filter.json");
    bench_filter(Path::new(&path), &bounds, filter_out)?;

    let cluster_out = flag(args, "--cluster-out").unwrap_or("BENCH_cluster.json");
    bench_cluster(Path::new(&path), &bounds, cluster_out)?;

    std::fs::remove_file(&path).ok();
    Ok(())
}

/// The attribute-pushdown smoke bench: one selective label-prefix
/// predicate over the whole plane, answered through the chooser's index
/// path (trie probe + B+-tree row lookups + residual filter) and through
/// a forced scan (full R-tree descent + heap fetch, filter after). Both
/// run on a manager whose cache evicts every insert — and filtered cold
/// windows are never cached anyway — so every iteration pays the real
/// access-path cost. The two paths must return identical row sets, the
/// predicate must stay at or under 10% selectivity, and the index median
/// must never lose to the scan median; CI additionally gates a 2x win.
/// Filtered aggregation (count + degree histogram) is timed on the same
/// predicate.
fn bench_filter(
    db_path: &Path,
    bounds: &graphvizdb::spatial::Rect,
    out: &str,
) -> Result<(), String> {
    use graphvizdb::api::{AggOp, Field, Predicate};
    use graphvizdb::core::FilterMode;
    use std::time::Instant;

    const ITERS: usize = 15;
    const BUCKETS: usize = 16;

    let qm = QueryManager::with_cache_config(
        GraphDb::open(db_path).map_err(|e| e.to_string())?,
        gvdb_bench::uncached_cache_config(),
    );
    let total_rows = {
        let db = qm.db();
        db.layer(0).ok_or("bench db has no layer 0")?.row_count()
    };
    // patent_like labels every node `patent US3xxxxxx`; this prefix keeps
    // roughly 100 of the 12 000 default nodes, so the rows touching them
    // sit well under the 10% selectivity bound the acceptance gate wants.
    let pred = Predicate::NodeLabelPrefix("patent US30000".into());

    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if xs.is_empty() {
            0.0
        } else {
            xs[xs.len() / 2]
        }
    };
    let rids_of = |resp: &graphvizdb::core::WindowResponse| -> Vec<graphvizdb::storage::RowId> {
        let mut rids: Vec<_> = resp.rows.iter().map(|(rid, _)| *rid).collect();
        rids.sort_unstable();
        rids
    };

    let mut index_ms = Vec::with_capacity(ITERS);
    let mut scan_ms = Vec::with_capacity(ITERS);
    let mut matched_rows = 0u64;
    for i in 0..ITERS {
        let t = Instant::now();
        let via_index = qm
            .window_query_filtered(0, bounds, None, &pred, FilterMode::ForceIndex)
            .map_err(|e| e.to_string())?;
        index_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let via_scan = qm
            .window_query_filtered(0, bounds, None, &pred, FilterMode::ForceScan)
            .map_err(|e| e.to_string())?;
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);

        if via_index.cache_hit || via_scan.cache_hit || via_index.delta || via_scan.delta {
            return Err(format!("filter iter {i}: a mode was served from cache"));
        }
        if rids_of(&via_index) != rids_of(&via_scan) {
            return Err(format!("filter iter {i}: index and scan rows diverged"));
        }
        matched_rows = via_index.rows.len() as u64;
    }
    let selectivity = matched_rows as f64 / total_rows.max(1) as f64;
    if selectivity > 0.10 {
        return Err(format!(
            "filter predicate selects {selectivity:.3} of the window; the bench needs <= 0.10"
        ));
    }

    // One Auto-mode query to record which path the chooser actually picks
    // at this selectivity.
    let (idx0, scan0) = qm.chooser_counts();
    qm.window_query_filtered(0, bounds, None, &pred, FilterMode::Auto)
        .map_err(|e| e.to_string())?;
    let (idx1, scan1) = qm.chooser_counts();
    let auto_decision = if idx1 > idx0 {
        "index"
    } else if scan1 > scan0 {
        "scan"
    } else {
        "unknown"
    };

    let mut count_ms = Vec::with_capacity(ITERS);
    let mut hist_ms = Vec::with_capacity(ITERS);
    let mut agg_rows = 0u64;
    let mut agg_nodes = 0u64;
    for _ in 0..ITERS {
        let t = Instant::now();
        let (count, _) = qm
            .aggregate_window(0, bounds, Some(&pred), &AggOp::Count, FilterMode::Auto)
            .map_err(|e| e.to_string())?;
        count_ms.push(t.elapsed().as_secs_f64() * 1e3);
        agg_rows = count.rows;
        agg_nodes = count.nodes;

        let t = Instant::now();
        qm.aggregate_window(
            0,
            bounds,
            Some(&pred),
            &AggOp::Histogram {
                field: Field::Degree,
                buckets: BUCKETS,
            },
            FilterMode::Auto,
        )
        .map_err(|e| e.to_string())?;
        hist_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if agg_rows != matched_rows {
        return Err(format!(
            "aggregate counted {agg_rows} rows but the filtered window held {matched_rows}"
        ));
    }

    let index_median = median(&mut index_ms);
    let scan_median = median(&mut scan_ms);
    if index_median > scan_median {
        return Err(format!(
            "pushdown regression: index path {index_median:.3} ms is slower than scan {scan_median:.3} ms"
        ));
    }
    let speedup = if index_median > 0.0 {
        scan_median / index_median
    } else {
        f64::INFINITY
    };

    let json = format!(
        "{{\n  \"predicate\": \"node_label_prefix:patent US30000\",\n  \"iters\": {ITERS},\n  \"window_rows\": {total_rows},\n  \"matched_rows\": {matched_rows},\n  \"matched_nodes\": {agg_nodes},\n  \"selectivity\": {selectivity:.5},\n  \"pushdown_index_median_ms\": {index_median:.4},\n  \"scan_filter_median_ms\": {scan_median:.4},\n  \"speedup\": {speedup:.2},\n  \"auto_decision\": \"{auto_decision}\",\n  \"aggregate\": {{ \"count_median_ms\": {:.4}, \"histogram_median_ms\": {:.4}, \"buckets\": {BUCKETS} }}\n}}\n",
        median(&mut count_ms),
        median(&mut hist_ms),
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: index {index_median:.3} ms vs scan {scan_median:.3} ms median ({speedup:.1}x) at {selectivity:.4} selectivity"
    );
    Ok(())
}

/// The scale-out smoke bench: a real 3-node replication cluster (one
/// leader, two followers bootstrapped from a file copy and synced over
/// HTTP) plus a fan-out router, all in-process. Every node gets **one**
/// worker thread, so a node is a fixed unit of serving capacity and the
/// cluster's read throughput can actually exceed a single node's on the
/// same host — that is the claim replicas exist to prove. Measures:
///
/// * **single** — N client threads all hammering the leader.
/// * **replicated** — the same N threads spread round-robin across all
///   three replicas (each serves the identical dataset).
/// * **router** — whole-bounds windows through the fan-out/merge router
///   vs the same window asked of the leader directly: the price of
///   shard fan-out + RowId-ordered merge on one host.
///
/// `host_cpus` is recorded because replica scaling on a single host is
/// physically capped by the core count: CI only holds the ≥2x scaling
/// line when the host has at least 4 CPUs, and otherwise just requires
/// the cluster not to be slower than one node.
fn bench_cluster(
    db_path: &Path,
    bounds: &graphvizdb::spatial::Rect,
    out: &str,
) -> Result<(), String> {
    use graphvizdb::api::RectDto;
    use graphvizdb::client::{ClusterClient, GvdbClient, WindowParams};
    use graphvizdb::replication::{FollowerRepl, LeaderRepl, RouterRepl, RouterService};
    use graphvizdb::server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Instant;

    const CLIENT_THREADS: usize = 6;
    const REQUESTS: usize = 80;
    const ROUTER_ITERS: usize = 12;

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let one_worker = || ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };

    // Leader: the bench db itself, serving checkpoints via its provider.
    let leader_qm = Arc::new(QueryManager::new(
        GraphDb::open(db_path).map_err(|e| e.to_string())?,
    ));
    let leader_seq = leader_qm.checkpoint_seq();
    let mut config = one_worker();
    config.repl = Some(LeaderRepl::new(Arc::clone(&leader_qm)));
    let leader_srv = Server::start(leader_qm, config).map_err(|e| format!("bind: {e}"))?;
    let leader_addr = leader_srv.addr().to_string();

    // Followers: deployment bootstrap is a copy of the quiescent leader
    // file; one sync pass against the live leader proves each replica
    // sits at the leader's checkpoint position before any timing runs.
    let mut copies = Vec::new();
    let mut followers = Vec::new();
    let mut servers = vec![leader_srv];
    for i in 1..3 {
        let copy = db_path.with_extension(format!("replica{i}.gvdb"));
        std::fs::copy(db_path, &copy).map_err(|e| format!("copy {}: {e}", copy.display()))?;
        let qm = Arc::new(QueryManager::new(
            GraphDb::open(&copy).map_err(|e| e.to_string())?,
        ));
        let follower = FollowerRepl::new(Arc::clone(&qm), leader_addr.clone());
        let synced = follower.sync_once().map_err(|e| format!("sync: {e}"))?;
        if synced != leader_seq {
            return Err(format!(
                "replica {i} synced to seq {synced}, leader is at {leader_seq}"
            ));
        }
        let mut config = one_worker();
        config.repl = Some(follower.clone());
        let srv = Server::start(qm, config).map_err(|e| format!("bind: {e}"))?;
        copies.push(copy);
        followers.push(follower);
        servers.push(srv);
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    // The interactive workload: a small ring of viewports, so after one
    // warm lap the servers answer from their window caches and the
    // measurement prices the serving path (HTTP + cache + serialization),
    // not cold disk — a node's single worker is then the honest
    // bottleneck the replicas multiply.
    let side = (bounds.width().min(bounds.height()) * 0.25).max(1.0);
    let view = |j: usize| -> RectDto {
        let step = side * 0.5 * (j % 8) as f64;
        RectDto {
            min_x: bounds.min_x + step,
            min_y: bounds.min_y,
            max_x: bounds.min_x + step + side,
            max_y: bounds.min_y + side,
        }
    };
    let run = |targets: &[&str]| -> Result<(f64, f64), String> {
        let total = CLIENT_THREADS * REQUESTS;
        let t0 = Instant::now();
        let mut lat: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENT_THREADS)
                .map(|t| {
                    let addr = targets[t % targets.len()].to_string();
                    scope.spawn(move || -> Result<Vec<f64>, String> {
                        let client = GvdbClient::new(addr);
                        let mut lat = Vec::with_capacity(REQUESTS);
                        for j in 0..REQUESTS {
                            let params = WindowParams {
                                window: view(t + j),
                                ..WindowParams::default()
                            };
                            let t = Instant::now();
                            client.window(&params).map_err(|e| e.to_string())?;
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok(lat)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect::<Result<Vec<_>, _>>()
        })?
        .into_iter()
        .flatten()
        .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = lat.get(lat.len() / 2).copied().unwrap_or(0.0);
        Ok((total as f64 / elapsed.max(f64::MIN_POSITIVE), median))
    };

    // One warm lap across every replica, then the timed runs.
    for addr in &addrs {
        run(&[addr])?;
    }
    let (single_qps, single_median) = run(&[&addrs[0]])?;
    let targets: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let (repl_qps, repl_median) = run(&targets)?;
    let scaling = if single_qps > 0.0 {
        repl_qps / single_qps
    } else {
        f64::INFINITY
    };

    // Router fan-out: the whole bench plane through shard slices +
    // RowId-ordered merge, against the same window answered by the
    // leader alone.
    let router = RouterService::connect(addrs.clone()).map_err(|e| format!("router: {e}"))?;
    let config = ServerConfig {
        repl: Some(Arc::new(RouterRepl::new(&router))),
        ..ServerConfig::default()
    };
    let router_srv = Server::start(Arc::new(router), config).map_err(|e| format!("bind: {e}"))?;
    let cluster = ClusterClient::from_router(&router_srv.addr().to_string())
        .map_err(|e| format!("cluster client: {e}"))?;
    let whole = WindowParams {
        window: RectDto {
            min_x: bounds.min_x - 1.0,
            min_y: bounds.min_y - 1.0,
            max_x: bounds.max_x + 1.0,
            max_y: bounds.max_y + 1.0,
        },
        ..WindowParams::default()
    };
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if xs.is_empty() {
            0.0
        } else {
            xs[xs.len() / 2]
        }
    };
    let direct_client = GvdbClient::new(addrs[0].clone());
    let mut fanout_ms = Vec::with_capacity(ROUTER_ITERS);
    let mut direct_ms = Vec::with_capacity(ROUTER_ITERS);
    for _ in 0..ROUTER_ITERS {
        let t = Instant::now();
        cluster
            .window_graph(&whole)
            .map_err(|e| format!("fan-out window: {e}"))?;
        fanout_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        direct_client
            .window(&whole)
            .map_err(|e| format!("direct window: {e}"))?;
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let fanout_median = median(&mut fanout_ms);
    let direct_median = median(&mut direct_ms);
    let fanout_overhead = if direct_median > 0.0 {
        fanout_median / direct_median
    } else {
        f64::INFINITY
    };

    router_srv.shutdown();
    for srv in servers {
        srv.shutdown();
    }
    drop(followers);
    for copy in &copies {
        std::fs::remove_file(copy).ok();
    }

    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"replicas\": 3,\n  \"workers_per_node\": 1,\n  \"client_threads\": {CLIENT_THREADS},\n  \"requests_per_thread\": {REQUESTS},\n  \"checkpoint_seq\": {leader_seq},\n  \"single\": {{ \"qps\": {single_qps:.1}, \"median_ms\": {single_median:.4} }},\n  \"replicated\": {{ \"qps\": {repl_qps:.1}, \"median_ms\": {repl_median:.4} }},\n  \"scaling\": {scaling:.2},\n  \"router\": {{ \"fanout_median_ms\": {fanout_median:.4}, \"direct_median_ms\": {direct_median:.4}, \"overhead\": {fanout_overhead:.2}, \"iters\": {ROUTER_ITERS} }}\n}}\n"
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: 3-replica cluster {repl_qps:.0} qps vs single node {single_qps:.0} qps ({scaling:.2}x on {host_cpus} cpus); router fan-out {fanout_median:.2} ms vs direct {direct_median:.2} ms"
    );
    Ok(())
}

/// The connection-scaling smoke bench for the event-driven server core:
/// an active client's cache-hit `/v1/window` latency is measured twice on
/// a `--workers 4` server — first with 10 idle keep-alive connections
/// open, then with 1000. Idle connections are just registered fds in the
/// reactor (no thread, no worker), so the loaded median must stay within
/// 1.5x of the baseline. Every idle connection is proven live with one
/// served request when opened and one more after the measurement.
fn bench_connections(
    db_path: &Path,
    bounds: &graphvizdb::spatial::Rect,
    out: &str,
) -> Result<(), String> {
    use graphvizdb::api::ApiResponse;
    use graphvizdb::server::{Server, ServerConfig};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Instant;

    const IDLE_BASELINE: usize = 10;
    const IDLE_LOADED: usize = 1000;
    const REQUESTS: usize = 200;
    const TARGET_RATIO: f64 = 1.5;

    let qm = Arc::new(QueryManager::new(
        GraphDb::open(db_path).map_err(|e| e.to_string())?,
    ));
    let server = Server::start(
        qm,
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let side = (bounds.width().min(bounds.height()) * 0.25).max(1.0);
    let target = format!(
        "/v1/window?stream=0&layer=0&minx={:.1}&miny={:.1}&maxx={:.1}&maxy={:.1}",
        bounds.min_x,
        bounds.min_y,
        bounds.min_x + side,
        bounds.min_y + side
    );
    let request_bytes = format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes();

    fn read_response(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed mid-response".into());
            }
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        String::from_utf8(body).map_err(|e| e.to_string())
    }

    struct Conn {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }
    let open_conn = |request: &[u8]| -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            writer,
            reader: BufReader::new(stream),
        };
        // Prove the connection live (and registered) with one request.
        conn.writer.write_all(request).map_err(|e| e.to_string())?;
        read_response(&mut conn.reader)?;
        Ok(conn)
    };
    let measure = |request: &[u8]| -> Result<f64, String> {
        let mut active = open_conn(request)?;
        let mut ms = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            let t = Instant::now();
            active
                .writer
                .write_all(request)
                .map_err(|e| e.to_string())?;
            read_response(&mut active.reader)?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Ok(ms[ms.len() / 2])
    };
    let open_connections_gauge = || -> Result<u64, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write!(
            stream,
            "GET /v1/stats HTTP/1.1\r\nHost: b\r\nAccept: application/json\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| e.to_string())?;
        let body = read_response(&mut BufReader::new(stream))?;
        match ApiResponse::from_json(&body) {
            Ok(ApiResponse::Stats(stats)) => Ok(stats.open_connections),
            other => Err(format!("not a stats response: {other:?}")),
        }
    };

    // Warm the window cache so the active client measures the hit path.
    let mut idle: Vec<Conn> = Vec::with_capacity(IDLE_LOADED);
    idle.push(open_conn(&request_bytes)?);

    // Baseline: 10 idle keep-alive connections open.
    while idle.len() < IDLE_BASELINE {
        idle.push(open_conn(&request_bytes)?);
    }
    let baseline_median = measure(&request_bytes)?;

    // Loaded: 1000 idle keep-alive connections open, all simultaneously
    // registered (the stats gauge proves it — it excludes its own probe).
    while idle.len() < IDLE_LOADED {
        idle.push(open_conn(&request_bytes)?);
    }
    let open_now = open_connections_gauge()?;
    if (open_now as usize) < IDLE_LOADED {
        return Err(format!(
            "only {open_now} connections open, expected >= {IDLE_LOADED}"
        ));
    }
    let loaded_median = measure(&request_bytes)?;

    // Every idle connection still serves (in opening order, so none has
    // sat idle past the keep-alive budget).
    for (i, conn) in idle.iter_mut().enumerate() {
        conn.writer
            .write_all(&request_bytes)
            .map_err(|e| format!("idle connection {i} is dead: {e}"))?;
        read_response(&mut conn.reader).map_err(|e| format!("idle connection {i}: {e}"))?;
    }
    server.shutdown();

    let ratio = if baseline_median > 0.0 {
        loaded_median / baseline_median
    } else {
        f64::INFINITY
    };
    let json = format!(
        "{{\n  \"path\": \"cache-hit /v1/window\",\n  \"workers\": 4,\n  \"requests\": {REQUESTS},\n  \"idle_connections_baseline\": {IDLE_BASELINE},\n  \"idle_connections_loaded\": {IDLE_LOADED},\n  \"open_connections_observed\": {open_now},\n  \"baseline_median_ms\": {baseline_median:.4},\n  \"loaded_median_ms\": {loaded_median:.4},\n  \"latency_ratio\": {ratio:.3},\n  \"target_ratio\": {TARGET_RATIO}\n}}\n"
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: active median {loaded_median:.3} ms with {IDLE_LOADED} idle connections vs {baseline_median:.3} ms with {IDLE_BASELINE} ({ratio:.2}x)"
    );
    if ratio > TARGET_RATIO {
        eprintln!(
            "warning: latency ratio {ratio:.2}x exceeds the {TARGET_RATIO}x target under idle-connection load"
        );
    }
    Ok(())
}

/// The streaming smoke bench: one large `/v1/window` request measured two
/// ways through `gvdb-client` — the **buffered** envelope (the whole body
/// must arrive before the client can paint anything) vs the **streamed**
/// frame protocol's time-to-first-row-batch. The request is identical
/// both ways, so the server-side query cost is too (at the default smoke
/// size the whole-plane result exceeds the window cache's per-shard byte
/// budget, so every query runs the full cold path on both variants); the
/// difference is the latency the frame protocol removes — with
/// streaming, the first paintable batch lands one chunk after the query,
/// regardless of how large the full payload is. Writes medians to `out`.
fn bench_stream(
    db_path: &Path,
    bounds: &graphvizdb::spatial::Rect,
    out: &str,
) -> Result<(), String> {
    use graphvizdb::server::{Server, ServerConfig};
    use gvdb_client::{GvdbClient, WindowParams};
    use std::sync::Arc;
    use std::time::Instant;

    const REQUESTS: usize = 40;

    let qm = Arc::new(QueryManager::new(
        GraphDb::open(db_path).map_err(|e| e.to_string())?,
    ));
    let server = Server::start(qm, ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let client = GvdbClient::new(server.addr().to_string());

    // The whole layer-0 plane: the largest window the dataset can serve,
    // which is exactly where buffered time-to-first-row is worst.
    let params = WindowParams {
        window: gvdb_api::RectDto {
            min_x: bounds.min_x,
            min_y: bounds.min_y,
            max_x: bounds.max_x,
            max_y: bounds.max_y,
        },
        ..Default::default()
    };

    // Warm-up: one buffered request primes the buffer pool (the result
    // itself is too large for the window cache, so the measured queries
    // below all run the cold path — identically for both variants).
    let (_, graph) = client.window(&params).map_err(|e| e.to_string())?;
    let payload_bytes = graph.len();

    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if xs.is_empty() {
            0.0
        } else {
            xs[xs.len() / 2]
        }
    };

    let mut buffered_ms = Vec::with_capacity(REQUESTS);
    let mut rows = 0u64;
    for _ in 0..REQUESTS {
        let t = Instant::now();
        let (meta, graph) = client.window(&params).map_err(|e| e.to_string())?;
        buffered_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rows = (meta.rows_reused + meta.rows_fetched) as u64;
        std::hint::black_box(graph);
    }

    let mut first_frame_ms = Vec::with_capacity(REQUESTS);
    let mut first_rows_ms = Vec::with_capacity(REQUESTS);
    let mut stream_total_ms = Vec::with_capacity(REQUESTS);
    let mut frames = 0u64;
    let mut streamed_rows = 0u64;
    let mut packed_payload = 0u64;
    for _ in 0..REQUESTS {
        let mut stream = client.window_stream(&params).map_err(|e| e.to_string())?;
        // The stream reports its own decode timing, measured from request
        // send — no wall-clock bookkeeping around the calls.
        first_frame_ms.push(stream.header_ms());
        let first = stream
            .next_batch_timed()
            .map_err(|e| e.to_string())?
            .ok_or("empty stream")?;
        // The client could paint `first.batch` right here.
        first_rows_ms.push(first.recv_ms);
        let mut batch_count = 1u64;
        let mut row_count = first.batch.len() as u64;
        while let Some(batch) = stream.next_batch().map_err(|e| e.to_string())? {
            batch_count += 1;
            row_count += batch.len() as u64;
        }
        stream_total_ms.push(stream.elapsed_ms());
        frames = batch_count;
        streamed_rows = row_count;
        // Streams negotiate `encoding=packed` by default, so this is the
        // compact row payload as it actually crossed the wire (frame
        // envelopes and base64 included) — comparable against the
        // buffered plain-JSON `payload_bytes` above.
        packed_payload = stream.rows_wire_bytes();
    }
    server.shutdown();
    if streamed_rows != rows {
        return Err(format!(
            "streamed rows {streamed_rows} diverged from buffered {rows}"
        ));
    }

    let buffered_median = median(&mut buffered_ms);
    let first_frame_median = median(&mut first_frame_ms);
    let first_rows_median = median(&mut first_rows_ms);
    let stream_total_median = median(&mut stream_total_ms);
    let ttff_speedup = if first_frame_median > 0.0 {
        buffered_median / first_frame_median
    } else {
        f64::INFINITY
    };
    let speedup = if first_rows_median > 0.0 {
        buffered_median / first_rows_median
    } else {
        f64::INFINITY
    };
    let total_ratio = if buffered_median > 0.0 {
        stream_total_median / buffered_median
    } else {
        f64::INFINITY
    };
    let chunk_rows = gvdb_api::DEFAULT_CHUNK_ROWS;
    let compression_ratio = if packed_payload > 0 {
        payload_bytes as f64 / packed_payload as f64
    } else {
        f64::INFINITY
    };
    let json = format!(
        "{{\n  \"requests\": {REQUESTS},\n  \"path\": \"whole layer-0 plane /v1/window (uncacheably large: every query runs cold)\",\n  \"rows\": {rows},\n  \"payload_bytes\": {payload_bytes},\n  \"payload_bytes_compressed\": {packed_payload},\n  \"payload_compression_ratio\": {compression_ratio:.2},\n  \"row_frames\": {frames},\n  \"chunk_rows\": {chunk_rows},\n  \"buffered_full_body_median_ms\": {buffered_median:.4},\n  \"stream_first_frame_median_ms\": {first_frame_median:.4},\n  \"stream_first_rows_median_ms\": {first_rows_median:.4},\n  \"stream_total_median_ms\": {stream_total_median:.4},\n  \"total_vs_buffered_ratio\": {total_ratio:.3},\n  \"ttff_speedup_vs_buffered\": {ttff_speedup:.2},\n  \"ttfr_speedup_vs_buffered\": {speedup:.2}\n}}\n"
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: first row batch in {first_rows_median:.3} ms vs {buffered_median:.3} ms buffered full body ({speedup:.1}x, {rows} rows / {frames} frames, total {stream_total_median:.3} ms = {total_ratio:.2}x buffered)"
    );
    if speedup < 3.0 {
        eprintln!("warning: time-to-first-rows speedup {speedup:.1}x is below the 3x target");
    }
    if total_ratio > 1.0 {
        eprintln!(
            "warning: streamed total {stream_total_median:.3} ms exceeds the buffered full body {buffered_median:.3} ms — the streamed path must strictly dominate"
        );
    }
    Ok(())
}

/// The HTTP smoke bench: the same cache-hit `/v1/window` request measured
/// two ways — **keep-alive** (one persistent connection, requests in
/// sequence) vs **connection-per-request** (`Connection: close`, a fresh
/// TCP handshake every time). Server-side the work is identical (an exact
/// window-cache hit, ~µs), so the difference is pure connection overhead —
/// the cost HTTP/1.1 keep-alive removes. Writes medians to `out`.
fn bench_http(db_path: &Path, bounds: &graphvizdb::spatial::Rect, out: &str) -> Result<(), String> {
    use graphvizdb::server::{Server, ServerConfig};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Instant;

    const REQUESTS: usize = 300;

    let qm = Arc::new(QueryManager::new(
        GraphDb::open(db_path).map_err(|e| e.to_string())?,
    ));
    let server = Server::start(qm, ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let side = (bounds.width().min(bounds.height()) * 0.25).max(1.0);
    let target = format!(
        "/v1/window?stream=0&layer=0&minx={:.1}&miny={:.1}&maxx={:.1}&maxy={:.1}",
        bounds.min_x,
        bounds.min_y,
        bounds.min_x + side,
        bounds.min_y + side
    );

    /// Read exactly one HTTP response (headers + Content-Length body).
    fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(), String> {
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed mid-response".into());
            }
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        Ok(())
    }

    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if xs.is_empty() {
            0.0
        } else {
            xs[xs.len() / 2]
        }
    };

    // Warm the window cache so both variants measure the hit path.
    {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| e.to_string())?;
        let mut sink = String::new();
        stream
            .read_to_string(&mut sink)
            .map_err(|e| e.to_string())?;
    }

    // Keep-alive: one connection, REQUESTS sequential request/response
    // round-trips. The request is one `write_all` on a no-delay socket —
    // fragmented writes on a reused connection would measure Nagle +
    // delayed-ACK stalls, not the server.
    let keepalive_request = format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes();
    let mut keepalive_ms = Vec::with_capacity(REQUESTS);
    {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        for _ in 0..REQUESTS {
            let t = Instant::now();
            writer
                .write_all(&keepalive_request)
                .map_err(|e| e.to_string())?;
            read_response(&mut reader)?;
            keepalive_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    // Connection-per-request: a fresh TCP handshake before every request.
    let close_request =
        format!("GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n").into_bytes();
    let mut per_conn_ms = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let t = Instant::now();
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        writer
            .write_all(&close_request)
            .map_err(|e| e.to_string())?;
        read_response(&mut reader)?;
        per_conn_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();

    let keepalive_median = median(&mut keepalive_ms);
    let per_conn_median = median(&mut per_conn_ms);
    let speedup = if keepalive_median > 0.0 {
        per_conn_median / keepalive_median
    } else {
        f64::INFINITY
    };
    let json = format!(
        "{{\n  \"requests\": {REQUESTS},\n  \"path\": \"cache-hit /v1/window\",\n  \"keepalive_median_ms\": {keepalive_median:.4},\n  \"per_connection_median_ms\": {per_conn_median:.4},\n  \"keepalive_speedup\": {speedup:.2}\n}}\n"
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    println!(
        "wrote {out}: keep-alive {keepalive_median:.3} ms vs connection-per-request {per_conn_median:.3} ms median ({speedup:.1}x)"
    );
    Ok(())
}

/// The concurrency smoke bench: 1/2/4/8 reader threads hammering
/// `window_query` on per-thread distinct windows of a shared
/// [`QueryManager`], over a warm buffer pool. Two paths are measured:
///
/// * **cached** — the default manager; after the first round every query
///   is an exact window-cache hit, so this stresses the sharded cache and
///   the read-lock fast path.
/// * **uncached** — a manager with the cache reduced to one entry and the
///   delta path disabled, so every query runs the full R-tree descent and
///   batched heap fetch through the sharded buffer pool (pages resident
///   after the warm-up round: pure lock-striping, no disk).
///
/// Writes queries/sec per thread count plus the per-shard pool counters
/// to `out`. `host_cpus` is recorded because aggregate throughput cannot
/// scale past the core count regardless of locking.
fn bench_concurrency(
    db_path: &Path,
    bounds: &graphvizdb::spatial::Rect,
    out: &str,
) -> Result<(), String> {
    use graphvizdb::spatial::Rect;
    use gvdb_bench::{
        concurrency_window, concurrency_window_side, uncached_cache_config, CONCURRENCY_THREADS,
        CONCURRENCY_WINDOWS_PER_THREAD,
    };
    use std::sync::Arc;
    use std::time::Instant;

    // Per-variant work: cache hits are ~µs, so they need many more
    // iterations than full index+heap queries for a stable wall time.
    const CACHED_QUERIES_PER_THREAD: usize = 20_000;
    const UNCACHED_QUERIES_PER_THREAD: usize = 150;
    let side = concurrency_window_side(bounds);
    let thread_counts = CONCURRENCY_THREADS;

    let open = || GraphDb::open(db_path).map_err(|e| e.to_string());
    let qm_hot = Arc::new(QueryManager::new(open()?));
    let qm_cold = Arc::new(QueryManager::with_cache_config(
        open()?,
        uncached_cache_config(),
    ));

    // Deterministic per-thread windows (shared with the criterion bench
    // so both harnesses measure the same workload).
    let window = |t: usize, i: usize| -> Rect { concurrency_window(bounds, side, t, i) };

    let run = |qm: &Arc<QueryManager>, threads: usize, queries: usize| -> Result<f64, String> {
        // Warm-up round: touch every window once so the pool is resident
        // and (for the hot manager) the cache is populated.
        for t in 0..threads {
            for i in 0..CONCURRENCY_WINDOWS_PER_THREAD {
                qm.window_query(0, &window(t, i))
                    .map_err(|e| e.to_string())?;
            }
        }
        let started = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let qm = Arc::clone(qm);
                let windows: Vec<Rect> = (0..CONCURRENCY_WINDOWS_PER_THREAD)
                    .map(|i| window(t, i))
                    .collect();
                std::thread::spawn(move || {
                    for q in 0..queries {
                        qm.window_query(0, &windows[q % windows.len()])
                            .expect("window query");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().map_err(|_| "bench thread panicked".to_string())?;
        }
        let secs = started.elapsed().as_secs_f64();
        Ok(threads as f64 * queries as f64 / secs.max(1e-9))
    };

    let mut cached_qps = Vec::new();
    let mut uncached_qps = Vec::new();
    for &threads in &thread_counts {
        cached_qps.push(run(&qm_hot, threads, CACHED_QUERIES_PER_THREAD)?);
        uncached_qps.push(run(&qm_cold, threads, UNCACHED_QUERIES_PER_THREAD)?);
    }
    let ratio = |qps: &[f64], threads: usize| {
        let idx = thread_counts
            .iter()
            .position(|&t| t == threads)
            .unwrap_or(0);
        if qps[0] > 0.0 {
            qps[idx] / qps[0]
        } else {
            0.0
        }
    };

    let shard_stats = qm_cold.pool_shard_stats();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fmt_list = |xs: &[f64]| {
        xs.iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let threads_list = thread_counts
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"threads\": [{threads_list}],\n  \"queries_per_thread\": {{\"cached\": {CACHED_QUERIES_PER_THREAD}, \"uncached\": {UNCACHED_QUERIES_PER_THREAD}}},\n  \"cached_qps\": [{}],\n  \"uncached_qps\": [{}],\n  \"cached_speedup_4t\": {:.2},\n  \"uncached_speedup_4t\": {:.2},\n  \"pool_shards\": {},\n  \"pool_shard_pins\": [{}]\n}}\n",
        fmt_list(&cached_qps),
        fmt_list(&uncached_qps),
        ratio(&cached_qps, 4),
        ratio(&uncached_qps, 4),
        shard_stats.len(),
        shard_stats
            .iter()
            .map(|s| (s.hits + s.misses).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("{json}");
    let at4 = thread_counts.iter().position(|&t| t == 4).unwrap_or(0);
    println!(
        "wrote {out}: cached {:.0} -> {:.0} qps (1 -> {} threads), uncached {:.0} -> {:.0} qps, {host_cpus} host cpu(s)",
        cached_qps[0], cached_qps[at4], thread_counts[at4], uncached_qps[0], uncached_qps[at4]
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [db_path, ..] = args else {
        return Err("stats needs <db>".into());
    };
    let db = open_db(db_path)?;
    println!("layer |     rows | searchable");
    for i in 0..db.layer_count() {
        let layer = db.layer(i).expect("index in range");
        println!("{:>5} | {:>8} | yes", i, layer.row_count());
    }
    Ok(())
}
