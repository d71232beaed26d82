//! Generated inputs stay in bounds, and the open loop measures latency
//! from the due time.

use gvdb_spatial::Rect;
use perfbench::openloop::run_open_loop;
use perfbench::stats::Rng;
use perfbench::workload::{
    cold_jumps, hot_viewports, navigate_walks, stratified_points, EPISODE, JUMP_SIDE, NAV_OVERLAP,
    ZOOM_EVERY,
};
use std::time::Duration;

const EPS: f64 = 1e-6;

fn within(outer: &Rect, r: &Rect) -> bool {
    r.min_x >= outer.min_x - EPS
        && r.min_y >= outer.min_y - EPS
        && r.max_x <= outer.max_x + EPS
        && r.max_y <= outer.max_y + EPS
}

fn plane() -> Rect {
    Rect::new(-5_000.0, 2_000.0, 75_000.0, 70_000.0)
}

#[test]
fn walks_stay_in_bounds_overlap_and_zoom() {
    let b = plane();
    let walks = navigate_walks(&b, 5, 2, 3_000, &mut Rng::new(11));
    assert_eq!(walks.len(), 2);
    for walk in &walks {
        assert_eq!(walk.len(), 3_000);
        for (i, step) in walk.iter().enumerate() {
            assert!(within(&b, &step.rect), "step {i} left the plane");
            assert_eq!(step.zoom, i % ZOOM_EVERY == ZOOM_EVERY - 1);
            assert_eq!(step.layer, usize::from(step.zoom));
        }
        for (i, pair) in walk.windows(2).enumerate() {
            if (i + 1) % EPISODE == 0 {
                continue; // the next episode starts elsewhere
            }
            let frac = pair[0].rect.intersection_area(&pair[1].rect) / pair[1].rect.area();
            assert!(
                frac >= NAV_OVERLAP - 0.01,
                "step {i} overlaps the next by {frac}"
            );
        }
    }
    assert_ne!(walks[0][0].rect, walks[1][0].rect, "users start apart");
    // The seed picks where the walks go.
    let other = navigate_walks(&b, 5, 2, 3_000, &mut Rng::new(12));
    assert_ne!(walks[0][0].rect, other[0][0].rect);
}

#[test]
fn jumps_stay_in_bounds_and_never_repeat() {
    let b = plane();
    let jumps = cold_jumps(&b, 5, 2_000, &mut Rng::new(5));
    let side = b.width().min(b.height());
    let mut layer0 = 0;
    for j in &jumps {
        assert!(within(&b, &j.rect));
        let share = j.rect.width() / side;
        assert!(share >= JUMP_SIDE.0 - EPS && share <= JUMP_SIDE.1 + EPS);
        assert!(j.layer < 5);
        layer0 += usize::from(j.layer == 0);
    }
    assert!(
        (1_300..1_500).contains(&layer0),
        "layer-0 share {layer0}/2000"
    );
    let mut keys: Vec<_> = jumps
        .iter()
        .map(|j| (j.rect.min_x.to_bits(), j.rect.min_y.to_bits()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), jumps.len());
    assert_eq!(
        jumps,
        cold_jumps(&b, 5, 2_000, &mut Rng::new(5)),
        "same seed, same inputs"
    );
}

#[test]
fn hot_viewports_stay_in_bounds_one_per_cell() {
    let b = plane();
    let hot = hot_viewports(&b, 16, &mut Rng::new(9), |_| 0.0);
    assert_eq!(hot.len(), 16);
    let mut cells: Vec<(i64, i64)> = hot
        .iter()
        .map(|r| {
            assert!(within(&b, r));
            let (w, h) = (b.width() * 0.95 / 4.0, b.height() * 0.95 / 4.0);
            (
                ((r.min_x - b.min_x) / w) as i64,
                ((r.min_y - b.min_y) / h) as i64,
            )
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    assert_eq!(cells.len(), 16, "one viewport per cell");
    assert!(hot_viewports(&b, 16, &mut Rng::new(9), |_| f64::INFINITY).is_empty());
    // The lowest-cost draw of each cell wins.
    let left = hot_viewports(&b, 16, &mut Rng::new(9), |r| r.min_x);
    for (l, h) in left.iter().zip(&hot) {
        assert!(l.min_x <= h.min_x + b.width() / 4.0);
    }
}

#[test]
fn stratified_points_cover_every_cell_each_round() {
    let b = plane();
    let points = stratified_points(&b, 6, 72, &mut Rng::new(4));
    for round in points.chunks(36) {
        let mut cells: Vec<(i64, i64)> = round
            .iter()
            .map(|&(x, y)| {
                assert!(b.contains_point(&gvdb_spatial::Point::new(x, y)));
                (
                    ((x - b.min_x) / b.width() * 6.0) as i64,
                    ((y - b.min_y) / b.height() * 6.0) as i64,
                )
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 36);
    }
}

/// A fake server that answers in 1 ms but stalls once for 120 ms: the
/// requests queued behind the stall must all show it, because latency
/// runs from the due time, not from the (late) send.
#[test]
fn a_stall_delays_every_queued_request() {
    let mut calls = [0usize];
    let (timings, dropped) = run_open_loop(
        200.0,
        &mut calls,
        Duration::from_millis(500),
        Duration::from_secs(2),
        |n, i, _due| {
            *n += 1;
            std::thread::sleep(Duration::from_millis(if i == 20 { 120 } else { 1 }));
        },
    );
    assert_eq!(dropped, 0);
    assert_eq!(timings.len(), 100);
    assert_eq!(calls[0], 100);
    // Due every 5 ms; the stall at request 20 holds back ~24 requests.
    let after = &timings[21..30];
    assert!(
        after.iter().all(|t| t.latency_ms() > 60.0),
        "queued requests must carry the stall: {:?}",
        after.iter().map(|t| t.latency_ms()).collect::<Vec<_>>()
    );
    assert!(after.iter().all(|t| t.late_ms() > 50.0));
    // Latency shrinks as the backlog drains, and is small again later.
    assert!(after[0].latency_ms() > after[8].latency_ms());
    assert!(timings[90].latency_ms() < 30.0);
    assert!(timings[..20].iter().all(|t| t.latency_ms() < 30.0));
}

#[test]
fn a_generator_far_behind_drops_the_rest() {
    let mut state = [()];
    let (timings, dropped) = run_open_loop(
        100.0,
        &mut state,
        Duration::from_millis(200),
        Duration::from_millis(50),
        |_, _, _| std::thread::sleep(Duration::from_millis(60)),
    );
    assert!(dropped > 0);
    assert_eq!(timings.len() + dropped, 20);
}
