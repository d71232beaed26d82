//! The incremental-viewport benchmark: one interactive pan answered cold
//! (full R-tree descent + heap fetch + full JSON build, the pre-delta
//! engine) vs by the delta path (kept region reused from the overlapping
//! cached window, only the strips touch the index and heap), at 50%, 80%
//! and 95% viewport overlap.
//!
//! Each bencher iteration walks a short pan trajectory. The delta
//! manager's trajectory shifts a little every iteration so every query is
//! a *fresh* window that overlaps — but never equals — a cached one:
//! every measured query exercises the partial-hit path, never the exact
//! hit. The cold manager runs with the delta path disabled
//! (`min_delta_overlap > 1`) and an effectively empty result cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{pan_trajectory, prepare, Dataset};
use gvdb_core::{CacheConfig, QueryManager};
use gvdb_spatial::Rect;
use gvdb_storage::GraphDb;
use std::cell::Cell;
use std::hint::black_box;

const PANS_PER_ITER: usize = 5;

fn shifted(windows: &[Rect], dy: f64) -> Vec<Rect> {
    windows
        .iter()
        .map(|w| Rect::new(w.min_x, w.min_y + dy, w.max_x, w.max_y + dy))
        .collect()
}

fn bench_pan_overlaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_pan");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);

    let graph = Dataset::Patent.generate(300); // ~12.7k nodes, ~55k edges
    let (db, _report, bounds, path) = prepare(&graph, "bench-pan");
    let qm_delta = QueryManager::new(db);
    // Cold baseline: delta path disabled, and a single one-entry shard so
    // each insert evicts the previous window — consecutive trajectory
    // windows are distinct, so no query is ever served from cache even
    // when the same trajectory replays across bench iterations.
    let qm_cold = QueryManager::with_cache_config(
        GraphDb::open(&path).expect("reopen"),
        CacheConfig {
            capacity: 1,
            shards: 1,
            min_delta_overlap: 2.0,
            ..CacheConfig::default()
        },
    );
    let side = bounds.width().min(bounds.height()) * 0.3;

    for overlap in [0.5f64, 0.8, 0.95] {
        let windows = pan_trajectory(&bounds, side, overlap, PANS_PER_ITER + 1);

        group.bench_with_input(
            BenchmarkId::new("cold", format!("{:.0}%", overlap * 100.0)),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for w in windows.iter() {
                        let resp = qm_cold.window_query(0, w).unwrap();
                        assert!(!resp.cache_hit && !resp.delta, "baseline must stay cold");
                        rows += resp.rows.len();
                    }
                    black_box(rows)
                })
            },
        );

        // Shift the whole trajectory per iteration: windows repeat never,
        // overlap always.
        let iter_no = Cell::new(0u64);
        group.bench_with_input(
            BenchmarkId::new("delta", format!("{:.0}%", overlap * 100.0)),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let n = iter_no.replace(iter_no.get() + 1);
                    let dy = (n % 64) as f64 * side * 0.003;
                    let trajectory = shifted(windows, dy);
                    // Seed the anchor, then measure delta pans.
                    let mut rows = qm_delta.window_query(0, &trajectory[0]).unwrap().rows.len();
                    for w in &trajectory[1..] {
                        let resp = qm_delta.window_query(0, w).unwrap();
                        debug_assert!(resp.delta || resp.cache_hit);
                        rows += resp.rows.len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
    drop(qm_cold);
    drop(qm_delta);
    gvdb_storage::wal::remove_database(&path).ok();
}

criterion_group!(benches, bench_pan_overlaps);
criterion_main!(benches);
