//! Property-based tests for the geometry primitives.

use gvdb_spatial::{geom::segments_intersect, Point, Rect, Segment};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..100.0, 0.0f64..100.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_is_commutative_and_covering(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.contains_rect(&a) && u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn intersection_area_symmetric_and_bounded(a in arb_rect(), b in arb_rect()) {
        let i = a.intersection_area(&b);
        prop_assert!((i - b.intersection_area(&a)).abs() < 1e-9);
        prop_assert!(i <= a.area() + 1e-9 && i <= b.area() + 1e-9);
        prop_assert_eq!(i > 0.0, a.intersects(&b) && {
            // touching rects intersect with zero area
            let w = a.max_x.min(b.max_x) - a.min_x.max(b.min_x);
            let h = a.max_y.min(b.max_y) - a.min_y.max(b.min_y);
            w > 0.0 && h > 0.0
        });
    }

    #[test]
    fn difference_strips_are_disjoint_and_cover_exactly_new_minus_old(
        new in arb_rect(),
        old in arb_rect(),
    ) {
        let strips = new.difference(&old);
        prop_assert!(strips.len() <= 4);
        // Each strip lies inside `new` and carves nothing out of `old`.
        for s in &strips {
            prop_assert!(new.contains_rect(s));
            prop_assert!(s.intersection_area(&old) < 1e-9);
            prop_assert!(s.area() > 0.0, "degenerate strips must be omitted");
        }
        // Pairwise disjoint in area.
        for (i, a) in strips.iter().enumerate() {
            for b in strips.iter().skip(i + 1) {
                prop_assert!(a.intersection_area(b) < 1e-9);
            }
        }
        // Areas sum to exactly the uncovered part of `new`.
        let sum: f64 = strips.iter().map(Rect::area).sum();
        let want = new.area() - new.intersection_area(&old);
        prop_assert!((sum - want).abs() < 1e-6, "sum {sum} want {want}");
        // Point-level coverage: a sampled point of `new` outside `old` is
        // in some strip; a point inside `old` is in none (interior-wise).
        for ti in 0..10 {
            for tj in 0..10 {
                let p = Point::new(
                    new.min_x + new.width() * (ti as f64 + 0.5) / 10.0,
                    new.min_y + new.height() * (tj as f64 + 0.5) / 10.0,
                );
                let in_strips = strips.iter().any(|s| s.contains_point(&p));
                // Skip points on `old`'s boundary: closed-rect containment
                // is ambiguous exactly there.
                let strictly_in_old = p.x > old.min_x && p.x < old.max_x
                    && p.y > old.min_y && p.y < old.max_y;
                let strictly_out_old = p.x < old.min_x || p.x > old.max_x
                    || p.y < old.min_y || p.y > old.max_y;
                if strictly_in_old {
                    prop_assert!(
                        strips.iter().all(|s| s.intersection_area(&old) < 1e-9)
                    );
                }
                if strictly_out_old {
                    prop_assert!(in_strips, "uncovered point {p:?}");
                }
            }
        }
    }

    #[test]
    fn intersection_agrees_with_intersection_area(a in arb_rect(), b in arb_rect()) {
        match a.intersection(&b) {
            Some(i) => {
                prop_assert!((i.area() - a.intersection_area(&b)).abs() < 1e-9);
                prop_assert!(a.contains_rect(&i) && b.contains_rect(&i));
            }
            None => prop_assert!(a.intersection_area(&b) < 1e-12),
        }
    }

    #[test]
    fn segment_rect_intersection_agrees_with_sampling(
        ax in 0.0f64..100.0, ay in 0.0f64..100.0,
        bx in 0.0f64..100.0, by in 0.0f64..100.0,
        r in arb_rect(),
    ) {
        let s = Segment::new(Point::new(ax, ay), Point::new(bx, by));
        // Sample the segment densely; if any sample is inside, the exact
        // test must agree. (One direction only: sampling can miss grazing
        // intersections the exact test finds.)
        let mut sampled_hit = false;
        for t in 0..=100 {
            let t = t as f64 / 100.0;
            let p = Point::new(ax + (bx - ax) * t, ay + (by - ay) * t);
            if r.contains_point(&p) {
                sampled_hit = true;
                break;
            }
        }
        if sampled_hit {
            prop_assert!(s.intersects_rect(&r));
        }
        // And the bbox filter is sound: exact hit implies bbox hit.
        if s.intersects_rect(&r) {
            prop_assert!(s.bbox().intersects(&r));
        }
    }

    #[test]
    fn segments_intersect_is_symmetric(
        p1 in (0.0f64..10.0, 0.0f64..10.0),
        p2 in (0.0f64..10.0, 0.0f64..10.0),
        p3 in (0.0f64..10.0, 0.0f64..10.0),
        p4 in (0.0f64..10.0, 0.0f64..10.0),
    ) {
        let a = Point::new(p1.0, p1.1);
        let b = Point::new(p2.0, p2.1);
        let c = Point::new(p3.0, p3.1);
        let d = Point::new(p4.0, p4.1);
        prop_assert_eq!(
            segments_intersect(&a, &b, &c, &d),
            segments_intersect(&c, &d, &a, &b)
        );
        prop_assert_eq!(
            segments_intersect(&a, &b, &c, &d),
            segments_intersect(&b, &a, &d, &c)
        );
    }
}
