//! Concurrent read-path scaling: 1/2/4/8 threads hammering
//! `QueryManager::window_query` on per-thread distinct windows of one
//! shared manager, over a warm buffer pool.
//!
//! Two variants per thread count:
//!
//! * `cached` — the default manager: after warm-up every query is an
//!   exact window-cache hit, so this stresses the sharded cache locks
//!   and the database read-lock fast path.
//! * `uncached` — cache reduced to one entry with the delta path
//!   disabled: every query runs the full R-tree descent + batched heap
//!   fetch through the lock-striped buffer pool (pages resident, so
//!   contention, not disk, is what's measured).
//!
//! On a multi-core host aggregate throughput should grow with threads —
//! the point of the sharded pool is that there is no global lock to
//! plateau on. (On a single-core host the numbers stay flat: throughput
//! cannot scale past the core count.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{
    bench_db_path, concurrency_window, concurrency_window_side, plane_bounds,
    uncached_cache_config, CONCURRENCY_THREADS, CONCURRENCY_WINDOWS_PER_THREAD,
};
use gvdb_core::{preprocess, PreprocessConfig, QueryManager};
use gvdb_graph::generators::{patent_like, CitationConfig};
use gvdb_spatial::Rect;
use gvdb_storage::GraphDb;
use std::hint::black_box;
use std::sync::Arc;

const QUERIES_PER_THREAD: usize = 50;

fn hammer(qm: &Arc<QueryManager>, bounds: &Rect, side: f64, threads: usize) -> usize {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let qm = Arc::clone(qm);
            let windows: Vec<Rect> = (0..CONCURRENCY_WINDOWS_PER_THREAD)
                .map(|i| concurrency_window(bounds, side, t, i))
                .collect();
            std::thread::spawn(move || {
                let mut rows = 0usize;
                for q in 0..QUERIES_PER_THREAD {
                    rows += qm
                        .window_query(0, &windows[q % windows.len()])
                        .expect("window query")
                        .rows
                        .len();
                }
                rows
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

fn bench_concurrent_reads(c: &mut Criterion) {
    let graph = patent_like(CitationConfig {
        nodes: 12_000,
        avg_citations: 4.34,
        ..Default::default()
    });
    let path = bench_db_path("concurrent-reads");
    let (db, report) = preprocess(&graph, &path, &PreprocessConfig::default()).unwrap();
    let bounds = plane_bounds(&report);
    let side = concurrency_window_side(&bounds);
    drop(db);

    let qm_hot = Arc::new(QueryManager::new(GraphDb::open(&path).unwrap()));
    let qm_cold = Arc::new(QueryManager::with_cache_config(
        GraphDb::open(&path).unwrap(),
        uncached_cache_config(),
    ));
    // Warm the pools and (for `hot`) the cache for every thread's set.
    for t in 0..8 {
        for i in 0..CONCURRENCY_WINDOWS_PER_THREAD {
            let w = concurrency_window(&bounds, side, t, i);
            qm_hot.window_query(0, &w).unwrap();
            qm_cold.window_query(0, &w).unwrap();
        }
    }

    let mut group = c.benchmark_group("concurrent_reads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for threads in CONCURRENCY_THREADS {
        group.bench_with_input(
            BenchmarkId::new("cached", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(hammer(&qm_hot, &bounds, side, threads))),
        );
        group.bench_with_input(
            BenchmarkId::new("uncached", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(hammer(&qm_cold, &bounds, side, threads))),
        );
    }
    group.finish();

    let shards = qm_cold.pool_shard_stats();
    eprintln!(
        "pool shards: {} | per-shard pins: {:?}",
        shards.len(),
        shards.iter().map(|s| s.hits + s.misses).collect::<Vec<_>>()
    );
    gvdb_storage::wal::remove_database(&path).ok();
}

criterion_group!(benches, bench_concurrent_reads);
criterion_main!(benches);
