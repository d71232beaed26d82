//! Points, axis-aligned rectangles, and line segments on the layout plane.
//!
//! The storage scheme indexes **edge geometries**: the line between the two
//! endpoint nodes (paper Fig. 2). A window query must therefore return
//! every edge whose *segment* crosses the viewing window, not merely those
//! whose bounding box does — [`Segment::intersects_rect`] is that exact
//! test. The disk R-tree stores each edge's endpoints in its leaves and
//! runs the test inside the leaf scan, so refinement happens before any
//! row is fetched.

use serde::{Deserialize, Serialize};

/// A point on the layout plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Axis-aligned rectangle (`min <= max` on both axes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum x.
    pub min_x: f64,
    /// Minimum y.
    pub min_y: f64,
    /// Maximum x.
    pub max_x: f64,
    /// Maximum y.
    pub max_y: f64,
}

impl Rect {
    /// Construct from explicit bounds.
    ///
    /// # Panics
    /// Panics (debug only) if `min > max` on either axis.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rect");
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Bounding box of two points (any order).
    pub fn from_points(a: Point, b: Point) -> Self {
        Rect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// A rectangle of `width` x `height` centered at `c` — how the client
    /// builds the focus window after a keyword-search hit (paper §II-B).
    pub fn centered(c: Point, width: f64, height: f64) -> Self {
        Rect::new(
            c.x - width / 2.0,
            c.y - height / 2.0,
            c.x + width / 2.0,
            c.y + height / 2.0,
        )
    }

    /// Width.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether `self` and `other` overlap (closed bounds: touching counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Whether the point lies inside (closed bounds).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Area of the intersection (0 when disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max_x.min(other.max_x) - self.min_x.max(other.min_x)).max(0.0);
        let h = (self.max_y.min(other.max_y) - self.min_y.max(other.min_y)).max(0.0);
        w * h
    }

    /// The overlapping rectangle, or `None` when the two do not overlap
    /// with positive area (touching edges yield `None`: a zero-area
    /// "kept region" is useless to a delta query).
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min_x = self.min_x.max(other.min_x);
        let min_y = self.min_y.max(other.min_y);
        let max_x = self.max_x.min(other.max_x);
        let max_y = self.max_y.min(other.max_y);
        if min_x < max_x && min_y < max_y {
            Some(Rect {
                min_x,
                min_y,
                max_x,
                max_y,
            })
        } else {
            None
        }
    }

    /// `self \ other` as at most four disjoint strips (left, right, bottom,
    /// top of the carved-out intersection). The strips partition the area
    /// of `self` not covered by `other`:
    ///
    /// ```text
    ///        ┌──────┬────────────┬───────┐
    ///        │      │    top     │       │
    ///        │      ├────────────┤       │
    ///        │ left │ self∩other │ right │
    ///        │      ├────────────┤       │
    ///        │      │   bottom   │       │
    ///        └──────┴────────────┴───────┘
    /// ```
    ///
    /// This is the pan decomposition of the incremental viewport path: a
    /// panned window splits into the kept region ([`Rect::intersection`]
    /// with the previous window) plus these delta strips, and only the
    /// strips need an index lookup. Strips are pairwise disjoint in area
    /// (they share edges at most), each lies inside `self`, none overlaps
    /// `other` with positive area, and their areas sum to
    /// `self.area() - self.intersection_area(other)`. Degenerate
    /// (zero-area) strips are omitted; when the rectangles are disjoint
    /// the result is `[self]`, and when `other` covers `self` it is empty.
    pub fn difference(&self, other: &Rect) -> Vec<Rect> {
        let Some(i) = self.intersection(other) else {
            return if self.area() > 0.0 {
                vec![*self]
            } else {
                Vec::new()
            };
        };
        let mut strips = Vec::with_capacity(4);
        if self.min_x < i.min_x {
            strips.push(Rect::new(self.min_x, self.min_y, i.min_x, self.max_y));
        }
        if i.max_x < self.max_x {
            strips.push(Rect::new(i.max_x, self.min_y, self.max_x, self.max_y));
        }
        if self.min_y < i.min_y {
            strips.push(Rect::new(i.min_x, self.min_y, i.max_x, i.min_y));
        }
        if i.max_y < self.max_y {
            strips.push(Rect::new(i.min_x, i.max_y, i.max_x, self.max_y));
        }
        strips
    }
}

/// A line segment: the geometry of one graph edge on the plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Source-node endpoint.
    pub a: Point,
    /// Target-node endpoint.
    pub b: Point,
}

impl Segment {
    /// Construct a segment.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::from_points(self.a, self.b)
    }

    /// Length.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Exact segment/rectangle intersection: true if any part of the
    /// segment lies inside or on the boundary of `r`.
    ///
    /// Uses the Cohen–Sutherland-style outcode test: trivially accept when
    /// an endpoint is inside; trivially reject when both endpoints share an
    /// outside half-plane; otherwise test the segment against each rectangle
    /// edge.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        if r.contains_point(&self.a) || r.contains_point(&self.b) {
            return true;
        }
        // Trivial reject.
        if (self.a.x < r.min_x && self.b.x < r.min_x)
            || (self.a.x > r.max_x && self.b.x > r.max_x)
            || (self.a.y < r.min_y && self.b.y < r.min_y)
            || (self.a.y > r.max_y && self.b.y > r.max_y)
        {
            return false;
        }
        let corners = [
            Point::new(r.min_x, r.min_y),
            Point::new(r.max_x, r.min_y),
            Point::new(r.max_x, r.max_y),
            Point::new(r.min_x, r.max_y),
        ];
        for i in 0..4 {
            if segments_intersect(&self.a, &self.b, &corners[i], &corners[(i + 1) % 4]) {
                return true;
            }
        }
        false
    }
}

/// Orientation of the ordered triple (p, q, r): >0 counter-clockwise,
/// <0 clockwise, 0 collinear.
fn orient(p: &Point, q: &Point, r: &Point) -> f64 {
    (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
}

fn on_segment(p: &Point, q: &Point, r: &Point) -> bool {
    q.x >= p.x.min(r.x) && q.x <= p.x.max(r.x) && q.y >= p.y.min(r.y) && q.y <= p.y.max(r.y)
}

/// Proper + improper segment intersection test.
pub fn segments_intersect(p1: &Point, p2: &Point, p3: &Point, p4: &Point) -> bool {
    let d1 = orient(p3, p4, p1);
    let d2 = orient(p3, p4, p2);
    let d3 = orient(p1, p2, p3);
    let d4 = orient(p1, p2, p4);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(p3, p1, p4))
        || (d2 == 0.0 && on_segment(p3, p2, p4))
        || (d3 == 0.0 && on_segment(p1, p3, p2))
        || (d4 == 0.0 && on_segment(p1, p4, p2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basic_properties() {
        let r = Rect::new(0.0, 0.0, 4.0, 3.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 3.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), Point::new(2.0, 1.5));
    }

    #[test]
    fn intersects_is_symmetric_and_closed() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 1.0, 2.0, 2.0); // touching corner
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = Rect::new(1.1, 1.1, 2.0, 2.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 0.0, 3.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0.0, 0.0, 3.0, 1.0));
    }

    #[test]
    fn intersection_area() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection_area(&b), 1.0);
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn intersection_some_and_none() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(Rect::new(1.0, 1.0, 2.0, 2.0)));
        // Touching edge: zero-area overlap is None.
        assert_eq!(a.intersection(&Rect::new(2.0, 0.0, 3.0, 2.0)), None);
        assert_eq!(a.intersection(&Rect::new(5.0, 5.0, 6.0, 6.0)), None);
    }

    #[test]
    fn difference_disjoint_is_self() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.difference(&Rect::new(5.0, 5.0, 6.0, 6.0)), vec![a]);
    }

    #[test]
    fn difference_contained_is_empty() {
        let a = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(a.difference(&Rect::new(0.0, 0.0, 3.0, 3.0)).is_empty());
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn difference_pan_right_is_one_strip() {
        // The common case: a pure pan produces one strip on the leading edge.
        let old = Rect::new(0.0, 0.0, 10.0, 10.0);
        let new = Rect::new(2.0, 0.0, 12.0, 10.0);
        let strips = new.difference(&old);
        assert_eq!(strips, vec![Rect::new(10.0, 0.0, 12.0, 10.0)]);
    }

    #[test]
    fn difference_diagonal_pan_is_two_strips() {
        let old = Rect::new(0.0, 0.0, 10.0, 10.0);
        let new = Rect::new(3.0, 4.0, 13.0, 14.0);
        let strips = new.difference(&old);
        assert_eq!(strips.len(), 2);
        let area: f64 = strips.iter().map(Rect::area).sum();
        assert!((area - (new.area() - new.intersection_area(&old))).abs() < 1e-9);
    }

    #[test]
    fn difference_zoom_out_is_four_strips() {
        // Zoom out: the old window sits strictly inside the new one.
        let old = Rect::new(4.0, 4.0, 6.0, 6.0);
        let new = Rect::new(0.0, 0.0, 10.0, 10.0);
        let strips = new.difference(&old);
        assert_eq!(strips.len(), 4);
        for s in &strips {
            assert!(new.contains_rect(s));
            assert_eq!(s.intersection_area(&old), 0.0);
        }
        let area: f64 = strips.iter().map(Rect::area).sum();
        assert!((area - (100.0 - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn centered_window() {
        let w = Rect::centered(Point::new(10.0, 10.0), 4.0, 2.0);
        assert_eq!(w, Rect::new(8.0, 9.0, 12.0, 11.0));
    }

    #[test]
    fn segment_endpoint_inside_rect() {
        let s = Segment::new(Point::new(0.5, 0.5), Point::new(9.0, 9.0));
        assert!(s.intersects_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn segment_crossing_through_rect() {
        // Passes through without either endpoint inside.
        let s = Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5));
        assert!(s.intersects_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn segment_bbox_overlaps_but_segment_misses() {
        // Diagonal near a corner: bbox intersects the rect, segment doesn't.
        let s = Segment::new(Point::new(0.9, 2.0), Point::new(2.0, 0.9));
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(s.bbox().intersects(&r));
        assert!(!s.intersects_rect(&r));
    }

    #[test]
    fn collinear_touching_segments() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, 0.0);
        let d = Point::new(3.0, 0.0);
        assert!(segments_intersect(&a, &b, &c, &d));
        let e = Point::new(2.5, 0.0);
        assert!(!segments_intersect(&a, &b, &e, &d) || e.x <= b.x);
    }

    #[test]
    fn parallel_disjoint_segments() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        let d = Point::new(1.0, 1.0);
        assert!(!segments_intersect(&a, &b, &c, &d));
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let p = Point::new(0.5, 0.5);
        let s = Segment::new(p, p);
        assert!(s.intersects_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
        assert!(!s.intersects_rect(&Rect::new(2.0, 2.0, 3.0, 3.0)));
        assert_eq!(s.length(), 0.0);
    }
}
