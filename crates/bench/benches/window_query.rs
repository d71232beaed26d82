//! The Fig. 3 microbenchmark: DB-side window query cost vs window size,
//! plus the cost of unflushed edits in the R-tree's overlay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gvdb_bench::{prepare, random_windows, uncached_cache_config, Dataset};
use gvdb_core::QueryManager;
use gvdb_storage::{EdgeGeometry, EdgeRow};
use rand::prelude::*;
use std::hint::black_box;

fn bench_window_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query_db_exec");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(20);
    // Small-scale dataset so the bench harness itself stays fast.
    let graph = Dataset::Patent.generate(10_000);
    let (db, _report, bounds, path) = prepare(&graph, "bench-window");
    // Uncached: every iteration re-runs the R-tree descent and heap
    // fetch instead of replaying the previous iteration's cache hits.
    let qm = QueryManager::with_cache_config(db, uncached_cache_config());
    for side in [200.0f64, 1500.0, 3000.0] {
        let windows = random_windows(&bounds, side, 50, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{side}px")),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for w in windows {
                        rows += qm.window_query(0, w).unwrap().rows.len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// What unflushed canvas edits cost a window: the R-tree's edit overlay
/// is a flat list that every descent scans whole, so window time grows
/// with the inserts made since the last flush (repacked away by it).
fn bench_overlay_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query_overlay_cost");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let graph = Dataset::Patent.generate(10_000);
    let (mut db, _report, bounds, path) = prepare(&graph, "bench-overlay");
    let windows = random_windows(&bounds, 1500.0, 50, 5);
    let mut rng = StdRng::seed_from_u64(11);
    let mut inserted = 0usize;
    for pending in [0usize, 1_000, 10_000] {
        // Short edges spread over the plane, like canvas edits.
        while inserted < pending {
            let x = bounds.min_x + rng.random::<f64>() * bounds.width();
            let y = bounds.min_y + rng.random::<f64>() * bounds.height();
            let id = 1_000_000 + 2 * inserted as u64;
            let row = EdgeRow {
                node1_id: id,
                node1_label: "edit".into(),
                geometry: EdgeGeometry {
                    x1: x,
                    y1: y,
                    x2: x + (rng.random::<f64>() - 0.5) * 200.0,
                    y2: y + (rng.random::<f64>() - 0.5) * 200.0,
                    directed: true,
                },
                edge_label: "edit".into(),
                node2_id: id + 1,
                node2_label: "edit".into(),
            };
            db.insert_row(0, &row).unwrap();
            inserted += 1;
        }
        let table = db.layer(0).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pending}_unflushed_inserts")),
            &windows,
            |b, windows| {
                b.iter(|| {
                    let mut rows = 0usize;
                    for w in windows {
                        rows += table.window(db.pool(), w).unwrap().len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
    drop(db);
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_window_sizes, bench_overlay_cost);
criterion_main!(benches);
