//! Online hot path: cost of a window query served cold (R-tree + heap +
//! JSON build) vs served from the sharded LRU window cache.
//!
//! The cached path should sit well under the cold path at every window
//! size — it is a shard lookup plus a result clone — which is what makes
//! repeated pan/zoom traffic from many users cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{prepare, random_windows, Dataset};
use gvdb_core::QueryManager;
use std::hint::black_box;

fn bench_cold_vs_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query_cold_vs_cached");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(20);
    let graph = Dataset::Patent.generate(10_000);
    let (db, _report, bounds, path) = prepare(&graph, "bench-cache");
    let qm = QueryManager::new(db);

    for side in [200.0f64, 1500.0, 3000.0] {
        // Cold: cycle through a window pool larger than the cache (512
        // entries), so every query pays the full DB + JSON path.
        let cold_pool = random_windows(&bounds, side, 2_048, 11);
        let mut next = 0usize;
        group.bench_with_input(
            BenchmarkId::new("cold", format!("{side}px")),
            &cold_pool,
            |b, pool| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for _ in 0..50 {
                        let w = &pool[next % pool.len()];
                        next += 1;
                        rows += qm.window_query(0, w).unwrap().rows.len();
                    }
                    black_box(rows)
                })
            },
        );

        // Cached: warm 50 windows once, then replay them.
        let windows = random_windows(&bounds, side, 50, 7);
        for w in &windows {
            qm.window_query(0, w).unwrap();
        }
        group.bench_with_input(
            BenchmarkId::new("cached", format!("{side}px")),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for w in windows {
                        let resp = qm.window_query(0, w).unwrap();
                        debug_assert!(resp.cache_hit);
                        rows += resp.rows.len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
    let stats = qm.cache_stats();
    println!(
        "cache stats: {} hits / {} misses ({:.1}% hit rate), {} entries",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries
    );
    gvdb_storage::wal::remove_database(&path).ok();
}

criterion_group!(benches, bench_cold_vs_cached);
criterion_main!(benches);
