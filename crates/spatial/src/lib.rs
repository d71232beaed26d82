//! # gvdb-spatial
//!
//! Geometry primitives — the spatial core of graphVizdb. Every online
//! operation of the platform (window queries for interactive navigation,
//! zoom, focus-on-node) becomes a rectangle intersection query against an
//! R-tree of edge geometries (paper §II-A/B).
//!
//! The R-tree itself is the disk-resident, STR-packed
//! `gvdb-storage::spatial_index::PagedRTree`; this crate supplies the
//! rectangles and segments it indexes, the exact segment/window test its
//! leaf scan runs, and the Morton codes that order the heap.
//!
//! ```
//! use gvdb_spatial::{Point, Rect, Segment};
//!
//! let edge = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
//! // The box overlaps the corner window, the edge itself does not.
//! let corner = Rect::new(0.0, 0.0, 0.5, 0.5);
//! assert!(edge.bbox().intersects(&corner));
//! assert!(!edge.intersects_rect(&corner));
//! ```

pub mod geom;
pub mod morton;

pub use geom::{Point, Rect, Segment};
