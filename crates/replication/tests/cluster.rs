//! An in-test cluster over real TCP: leader, followers, and router are
//! full `gvdb_server::Server` instances (threads, not mocks), wired to
//! replication providers exactly as `gvdb serve` wires them. Covers the
//! scale-out acceptance criteria: checkpoint pulls, the seq guard, the
//! absence of any push endpoint, gap-detected snapshot resync, the
//! bounded-staleness sentinel invariant, and byte-identity of routed
//! window streams.

use gvdb_api::repl::ReplRole;
use gvdb_api::{EdgeDto, ErrorKind, RectDto};
use gvdb_client::{ClientError, ClusterClient, GvdbClient, WindowParams};
use gvdb_core::{preprocess, PreprocessConfig, QueryManager, ReplProvider};
use gvdb_graph::generators::{wikidata_like, RdfConfig};
use gvdb_replication::{FollowerRepl, LeaderRepl, RouterRepl, RouterService};
use gvdb_server::{Server, ServerConfig};
use gvdb_storage::db::WAL_KEEP_ARCHIVES;
use gvdb_storage::GraphDb;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn db_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gvdb-cluster-{name}-{}", std::process::id()));
    path
}

/// Seed a leader: preprocess a deterministic graph, wrap it in a
/// manager, and flush once so the baseline state is a committed
/// checkpoint with an archive.
fn seed_leader(name: &str, entities: usize) -> (Arc<QueryManager>, std::path::PathBuf) {
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
    let qm = Arc::new(QueryManager::new(db));
    qm.flush().unwrap();
    (qm, path)
}

/// Bootstrap a follower the way a deployment does: from a copy of the
/// leader's (quiescent) database file. The copied catalog carries the
/// checkpoint seq, so the follower resumes shipping from there.
fn clone_db(src: &std::path::Path, name: &str) -> (Arc<QueryManager>, std::path::PathBuf) {
    let path = db_path(name);
    std::fs::copy(src, &path).unwrap();
    let qm = Arc::new(QueryManager::new(GraphDb::open(&path).unwrap()));
    (qm, path)
}

fn serve(service: Arc<QueryManager>, repl: Arc<dyn ReplProvider>, read_only: bool) -> Server {
    let config = ServerConfig {
        repl: Some(repl),
        read_only: if read_only {
            vec!["default".into()]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    Server::start(service, config).unwrap()
}

fn whole_plane() -> RectDto {
    RectDto {
        min_x: -1e12,
        min_y: -1e12,
        max_x: 1e12,
        max_y: 1e12,
    }
}

fn sentinel_edge(k: u64) -> EdgeDto {
    EdgeDto {
        node1_id: 990_000 + 2 * k,
        node1_label: format!("sentinel-{k} A"),
        node2_id: 990_001 + 2 * k,
        node2_label: format!("sentinel-{k} B"),
        edge_label: format!("sentinel-{k}"),
        x1: 10.0 + k as f64,
        y1: 10.0,
        x2: 60.0 + k as f64,
        y2: 60.0,
        directed: false,
    }
}

/// Every distinct `k` for which `sentinel-<k>` appears in `json`.
fn sentinel_set(json: &str) -> std::collections::BTreeSet<u64> {
    let mut out = std::collections::BTreeSet::new();
    let mut rest = json;
    while let Some(i) = rest.find("sentinel-") {
        rest = &rest[i + "sentinel-".len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(k) = digits.parse() {
            out.insert(k);
        }
    }
    out
}

fn cleanup(paths: &[&std::path::Path]) {
    for p in paths {
        gvdb_storage::wal::remove_database(p).ok();
    }
}

/// Checkpoint pull: a follower behind by several committed checkpoints
/// catches up incrementally through `sync_once`, lands on the leader's
/// seq, and — the epochs-as-positions rule — adopts the leader's
/// flush-time epochs, so its window responses carry the exact staleness
/// position. Both ends' `/v1/stats` replication gauges report the
/// motion over HTTP.
#[test]
fn pull_catches_up_and_sets_epochs_to_shipped_positions() {
    let (leader_qm, leader_path) = seed_leader("pull-leader", 300);
    let (follower_qm, follower_path) = clone_db(&leader_path, "pull-follower");

    let leader_repl = LeaderRepl::new(Arc::clone(&leader_qm));
    let leader_srv = serve(Arc::clone(&leader_qm), leader_repl, false);
    let leader_client = GvdbClient::new(leader_srv.addr().to_string());

    let follower = FollowerRepl::new(Arc::clone(&follower_qm), leader_srv.addr().to_string());
    let follower_srv = serve(Arc::clone(&follower_qm), follower.clone(), true);
    let follower_client = GvdbClient::new(follower_srv.addr().to_string());

    // In sync: a pass is a no-op.
    assert_eq!(follower.sync_once().unwrap(), leader_qm.checkpoint_seq());

    // Three edits, three checkpoints.
    for k in 1..=3 {
        leader_client
            .insert_edge(None, 0, sentinel_edge(k))
            .unwrap();
        leader_client.flush(None).unwrap();
    }
    assert_eq!(leader_qm.checkpoint_seq(), follower_qm.checkpoint_seq() + 3);

    let seq = follower.sync_once().unwrap();
    assert_eq!(seq, leader_qm.checkpoint_seq());
    // Epochs were SET to the leader's flush-time values, not bumped.
    assert_eq!(follower_qm.epochs(), leader_qm.last_flush_epochs());
    assert_eq!(follower_qm.layer_epoch(0), 3);

    // The replicated rows are visible on the follower.
    let resp = follower_qm.window_query(0, &gvdb_spatial::Rect::new(-1e12, -1e12, 1e12, 1e12));
    let json = resp.unwrap().json;
    assert_eq!(sentinel_set(&json.text), (1..=3).collect());

    let stats = follower.stats();
    assert_eq!(stats.role, ReplRole::Follower);
    assert_eq!(stats.applied, 3);
    assert_eq!(stats.last_applied_seq, leader_qm.checkpoint_seq());
    assert_eq!(stats.resyncs, 0);

    // The same gauges over the wire, on both ends.
    let leader_stats = leader_client.stats().unwrap().replication.unwrap();
    assert_eq!(leader_stats.role, ReplRole::Leader);
    assert_eq!(leader_stats.last_applied_seq, leader_qm.checkpoint_seq());
    let follower_stats = follower_client.stats().unwrap().replication.unwrap();
    assert_eq!(follower_stats.role, ReplRole::Follower);
    assert_eq!(follower_stats.applied, 3);
    assert_eq!(follower_stats.last_applied_seq, leader_qm.checkpoint_seq());

    leader_srv.shutdown();
    follower_srv.shutdown();
    cleanup(&[&leader_path, &follower_path]);
}

/// The apply seq guard checks what a peer hands the follower: a
/// checkpoint must be exactly `local_seq + 1`. A gapped or replayed
/// image is a typed `Conflict`, and the in-order ones apply.
#[test]
fn out_of_order_checkpoint_is_a_typed_conflict() {
    let (leader_qm, leader_path) = seed_leader("order-leader", 300);
    let (follower_qm, follower_path) = clone_db(&leader_path, "order-follower");

    let leader_repl = LeaderRepl::new(Arc::clone(&leader_qm));
    let leader_srv = serve(Arc::clone(&leader_qm), leader_repl, false);
    let leader_client = GvdbClient::new(leader_srv.addr().to_string());

    let follower = FollowerRepl::new(Arc::clone(&follower_qm), leader_srv.addr().to_string());
    let follower_srv = serve(Arc::clone(&follower_qm), follower.clone(), true);
    let follower_client = GvdbClient::new(follower_srv.addr().to_string());

    let base = follower_qm.checkpoint_seq();
    for k in 1..=2 {
        leader_client
            .insert_edge(None, 0, sentinel_edge(k))
            .unwrap();
        leader_client.flush(None).unwrap();
    }

    let archived = |seq: u64| {
        gvdb_storage::wal::read_archive_bytes(&leader_path, seq)
            .unwrap()
            .expect("leader retains its recent checkpoints")
    };
    let expect_conflict = |seq: u64| match follower.apply_bytes(&archived(seq)) {
        Err(e) => assert_eq!(e.kind, ErrorKind::Conflict, "{e:?}"),
        Ok(applied) => panic!("seq {seq} applied out of order (now at {applied})"),
    };

    // Seq base+2 first: gap.
    expect_conflict(base + 2);
    assert_eq!(follower_qm.checkpoint_seq(), base);

    // In order: base+1 then base+2 apply.
    for seq in [base + 1, base + 2] {
        assert_eq!(follower.apply_bytes(&archived(seq)).unwrap(), seq);
    }
    assert_eq!(follower_qm.checkpoint_seq(), base + 2);

    // Replaying an already-applied checkpoint: duplicate.
    expect_conflict(base + 2);
    assert_eq!(follower_qm.checkpoint_seq(), base + 2);

    // The follower's HTTP surface is read-only: a direct mutation is a
    // typed 403, so replica epochs can never fork from the leader's.
    let err = follower_client
        .insert_edge(None, 0, sentinel_edge(99))
        .unwrap_err();
    match err {
        ClientError::Api(e) => assert_eq!(e.kind, ErrorKind::Forbidden),
        other => panic!("expected a typed 403, got {other:?}"),
    }

    leader_srv.shutdown();
    follower_srv.shutdown();
    cleanup(&[&leader_path, &follower_path]);
}

/// Replication is pull-only: no endpoint takes a checkpoint. A `POST`
/// of a valid, in-order checkpoint to a follower is the ordinary typed
/// v1 404 and leaves its database untouched.
#[test]
fn checkpoint_post_to_a_follower_is_a_typed_404() {
    let (leader_qm, leader_path) = seed_leader("post-leader", 300);
    let (follower_qm, follower_path) = clone_db(&leader_path, "post-follower");

    let leader_repl = LeaderRepl::new(Arc::clone(&leader_qm));
    let leader_srv = serve(Arc::clone(&leader_qm), leader_repl, false);
    let leader_client = GvdbClient::new(leader_srv.addr().to_string());

    let follower = FollowerRepl::new(Arc::clone(&follower_qm), leader_srv.addr().to_string());
    let follower_srv = serve(Arc::clone(&follower_qm), follower, true);
    let follower_client = GvdbClient::new(follower_srv.addr().to_string());

    let base = follower_qm.checkpoint_seq();
    leader_client
        .insert_edge(None, 0, sentinel_edge(1))
        .unwrap();
    leader_client.flush(None).unwrap();
    let (status, checkpoint) = leader_client
        .get_text(&format!("/v1/repl/checkpoint?seq={}", base + 1))
        .unwrap();
    assert_eq!(status, 200, "{checkpoint}");

    let (status, body) = follower_client
        .post_text("/v1/repl/checkpoint", &checkpoint)
        .unwrap();
    assert_eq!(status, 404, "{body}");
    match gvdb_api::ApiResponse::from_json(&body).unwrap() {
        gvdb_api::ApiResponse::Error(e) => assert_eq!(e.kind, ErrorKind::NotFound),
        other => panic!("expected a typed 404, got {other:?}"),
    }
    assert_eq!(follower_qm.checkpoint_seq(), base);

    leader_srv.shutdown();
    follower_srv.shutdown();
    cleanup(&[&leader_path, &follower_path]);
}

/// Gap detection: a follower that slept through more flushes than the
/// leader retains archives for cannot catch up incrementally — one
/// `sync_once` performs a full snapshot resync and lands on the
/// leader's exact position.
#[test]
fn gap_beyond_retention_snapshot_resyncs() {
    let (leader_qm, leader_path) = seed_leader("gap-leader", 300);
    let (follower_qm, follower_path) = clone_db(&leader_path, "gap-follower");

    let leader_repl = LeaderRepl::new(Arc::clone(&leader_qm));
    let leader_srv = serve(Arc::clone(&leader_qm), leader_repl, false);
    let leader_client = GvdbClient::new(leader_srv.addr().to_string());

    // More checkpoints than the retention window holds.
    let n = WAL_KEEP_ARCHIVES as u64 + 2;
    for k in 1..=n {
        leader_client
            .insert_edge(None, 0, sentinel_edge(k))
            .unwrap();
        leader_client.flush(None).unwrap();
    }

    let follower = FollowerRepl::new(Arc::clone(&follower_qm), leader_srv.addr().to_string());
    let seq = follower.sync_once().unwrap();
    assert_eq!(seq, leader_qm.checkpoint_seq());
    assert_eq!(follower.stats().resyncs, 1);
    assert_eq!(follower_qm.epochs(), leader_qm.last_flush_epochs());

    // Every sentinel survived the file replacement.
    let resp = follower_qm
        .window_query(0, &gvdb_spatial::Rect::new(-1e12, -1e12, 1e12, 1e12))
        .unwrap();
    assert_eq!(sentinel_set(&resp.json.text), (1..=n).collect());

    leader_srv.shutdown();
    cleanup(&[&leader_path, &follower_path]);
}

/// The bounded-staleness invariant, end to end over real TCP: a writer
/// streams sentinel edits into the leader (flushing each), the follower
/// pulls and applies checkpoints concurrently, and every response a
/// reader gets from the follower satisfies `sentinels == 1..=epoch` —
/// the trailer/meta epoch is never ahead of or behind the data.
#[test]
fn follower_reads_are_bounded_staleness_consistent() {
    let (leader_qm, leader_path) = seed_leader("sentinel-leader", 300);
    let (follower_qm, follower_path) = clone_db(&leader_path, "sentinel-follower");

    let leader_repl = LeaderRepl::new(Arc::clone(&leader_qm));
    let leader_srv = serve(Arc::clone(&leader_qm), leader_repl, false);

    let follower = FollowerRepl::new(Arc::clone(&follower_qm), leader_srv.addr().to_string());
    let follower_srv = serve(Arc::clone(&follower_qm), follower.clone(), true);
    let _poller = follower.start(Duration::from_millis(20));

    const ROUNDS: u64 = 12;
    let leader_addr = leader_srv.addr().to_string();
    let writer = std::thread::spawn(move || {
        let client = GvdbClient::new(leader_addr);
        for k in 1..=ROUNDS {
            client.insert_edge(None, 0, sentinel_edge(k)).unwrap();
            client.flush(None).unwrap();
            std::thread::sleep(Duration::from_millis(15));
        }
    });

    let reader = GvdbClient::new(follower_srv.addr().to_string());
    let params = WindowParams {
        window: whole_plane(),
        packed: false,
        ..Default::default()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut checked = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "follower did not reach epoch {ROUNDS} in 30s"
        );
        let (meta, graph) = reader.window(&params).unwrap();
        // THE invariant: the payload holds exactly the first `epoch`
        // sentinel edits — never a row the epoch does not admit, never
        // missing one it promises.
        assert_eq!(
            sentinel_set(&graph),
            (1..=meta.epoch).collect(),
            "follower response at epoch {} is not bounded-staleness consistent",
            meta.epoch
        );
        checked += 1;
        if meta.epoch >= ROUNDS {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        checked >= 1,
        "the stress loop must observe at least one epoch"
    );
    writer.join().unwrap();

    leader_srv.shutdown();
    follower_srv.shutdown();
    cleanup(&[&leader_path, &follower_path]);
}

/// Boot a 3-replica cluster (copies of one seeded database) behind a
/// router, returning everything a routed test needs.
struct RoutedCluster {
    servers: Vec<Server>,
    router_srv: Server,
    paths: Vec<std::path::PathBuf>,
}

fn routed_cluster(name: &str) -> (RoutedCluster, GvdbClient, GvdbClient) {
    let (leader_qm, leader_path) = seed_leader(&format!("{name}-s0"), 400);
    let mut paths = vec![leader_path.clone()];
    let mut servers = vec![serve(
        Arc::clone(&leader_qm),
        LeaderRepl::new(Arc::clone(&leader_qm)),
        false,
    )];
    for i in 1..3 {
        let (qm, path) = clone_db(&leader_path, &format!("{name}-s{i}"));
        let follower = FollowerRepl::new(Arc::clone(&qm), servers[0].addr().to_string());
        servers.push(serve(qm, follower, true));
        paths.push(path);
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let router = RouterService::connect(addrs).unwrap();
    let repl = Arc::new(RouterRepl::new(&router));
    let router_srv = Server::start(
        Arc::new(router),
        ServerConfig {
            repl: Some(repl),
            ..Default::default()
        },
    )
    .unwrap();
    let single = GvdbClient::new(servers[0].addr().to_string());
    let routed = GvdbClient::new(router_srv.addr().to_string());
    (
        RoutedCluster {
            servers,
            router_srv,
            paths,
        },
        single,
        routed,
    )
}

impl RoutedCluster {
    fn teardown(self) {
        self.router_srv.shutdown();
        for s in self.servers {
            s.shutdown();
        }
        let paths: Vec<&std::path::Path> = self.paths.iter().map(|p| p.as_path()).collect();
        cleanup(&paths);
    }
}

/// THE acceptance criterion: a whole-plane window fanned out over 3 rid
/// shards and merged reassembles **byte-identical** to the same query
/// answered by one unsharded node — through the client-side
/// `ClusterClient` (bootstrapped from the router's `/v1/shardmap`) and
/// through the router's own merged stream, plain and packed.
#[test]
fn routed_window_reassembles_byte_identical() {
    let (cluster, single, routed) = routed_cluster("ident");

    let params = WindowParams {
        window: whole_plane(),
        packed: false,
        ..Default::default()
    };
    let (_, reference) = single.window(&params).unwrap();

    // Client-side fan-out, bootstrapped from the router's shard map.
    let cc = ClusterClient::from_router(&cluster.router_srv.addr().to_string()).unwrap();
    assert_eq!(cc.shard_count(), 3);
    let (header, graph, trailer) = cc.window_graph(&params).unwrap();
    assert_eq!(graph, reference, "client-side merge must be byte-identical");
    assert_eq!(header.op, "window");
    assert!(trailer.rows > 0);
    assert_eq!(header.rows_total, trailer.rows, "merged row total");

    // Server-side fan-out: plain frames through the router.
    let mut stream = routed.window_stream(&params).unwrap();
    let mut fragments = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        if let gvdb_api::RowBatch::Graph { graph, .. } = batch {
            fragments.push(graph);
        }
    }
    let reassembled = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
    assert_eq!(
        reassembled, reference,
        "routed plain stream must be byte-identical"
    );
    assert_eq!(stream.header.rows_total, stream.trailer().unwrap().rows);

    // Packed frames through the router decode to the same bytes.
    let packed_params = WindowParams {
        packed: true,
        ..params.clone()
    };
    let mut stream = routed.window_stream(&packed_params).unwrap();
    let mut fragments = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        if let gvdb_api::RowBatch::Graph { graph, .. } = batch {
            fragments.push(graph);
        }
    }
    let reassembled = gvdb_api::reassemble_graph(fragments.iter().map(String::as_str)).unwrap();
    assert_eq!(
        reassembled, reference,
        "routed packed stream must be byte-identical"
    );
    assert_eq!(stream.header.rows_total, stream.trailer().unwrap().rows);

    cluster.teardown();
}

/// Everything that does not decompose forwards whole through the
/// router: search and aggregate agree with the single node, sessions
/// pin to one shard and answer, mutations and flushes are typed 403s,
/// and `/v1/stats` reports the router role.
#[test]
fn router_forwards_pins_sessions_and_refuses_writes() {
    let (cluster, single, routed) = routed_cluster("fwd");

    // Search agrees (forwarded to a full replica).
    let single_hits = single.search(None, 0, "Q1").unwrap();
    let routed_hits = routed.search(None, 0, "Q1").unwrap();
    assert_eq!(single_hits, routed_hits);

    // Aggregate agrees.
    let agg = gvdb_client::AggregateParams {
        window: whole_plane(),
        ..Default::default()
    };
    let (_, single_agg) = single.aggregate(&agg).unwrap();
    let (_, routed_agg) = routed.aggregate(&agg).unwrap();
    assert_eq!(single_agg, routed_agg);

    // Sessions: created, used for an anchored window, closed — all
    // through the router (pinned to shard 0).
    let sid = routed.session_new(None, Some(whole_plane())).unwrap();
    let (meta, _) = routed
        .window(&WindowParams {
            window: whole_plane(),
            session: Some(sid),
            packed: false,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(meta.session, Some(sid));
    routed.session_close(None, sid).unwrap();

    // Writes are refused with the typed kind.
    for err in [
        routed.insert_edge(None, 0, sentinel_edge(7)).unwrap_err(),
        routed.flush(None).map(|_| ()).unwrap_err(),
    ] {
        match err {
            ClientError::Api(e) => assert_eq!(e.kind, ErrorKind::Forbidden),
            other => panic!("expected a typed 403, got {other:?}"),
        }
    }

    // The router role shows in its stats; the shard map is served.
    let stats = routed.stats().unwrap().replication.unwrap();
    assert_eq!(stats.role, ReplRole::Router);
    let (status, map) = routed.get_text("/v1/shardmap").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        gvdb_api::repl::ShardMapDto::from_json(&map)
            .unwrap()
            .shards
            .len(),
        3
    );

    cluster.teardown();
}
