//! Morton (Z-order) encoding of plane coordinates.
//!
//! The bulk layer build sorts rows by the Morton code of their edge's
//! center, so rows close on the plane share heap pages. Coordinates are
//! quantized to a 16-bit grid over a caller-provided bounding rectangle
//! and interleaved into a 32-bit code.

use crate::geom::{Point, Rect};

/// Interleave the lower 16 bits of `x` with zeros.
fn spread(mut x: u32) -> u32 {
    x &= 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Morton code of a 16-bit grid cell `(x, y)`.
pub fn morton_encode(x: u16, y: u16) -> u32 {
    spread(x as u32) | (spread(y as u32) << 1)
}

/// Morton code of a point, quantized over `bounds`.
pub fn morton_of_point(p: &Point, bounds: &Rect) -> u32 {
    let qx = quantize(p.x, bounds.min_x, bounds.max_x);
    let qy = quantize(p.y, bounds.min_y, bounds.max_y);
    morton_encode(qx, qy)
}

fn quantize(v: f64, min: f64, max: f64) -> u16 {
    if max <= min {
        return 0;
    }
    let t = ((v - min) / (max - min)).clamp(0.0, 1.0);
    (t * (u16::MAX as f64)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_is_correct_for_small_values() {
        // x=0b11, y=0b01 -> bits: y1 x1 y0 x0 = 0 1 1 1
        assert_eq!(morton_encode(0b11, 0b01), 0b0111);
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
    }

    #[test]
    fn locality_nearby_points_share_prefixes() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let a = morton_of_point(&Point::new(10.0, 10.0), &bounds);
        let b = morton_of_point(&Point::new(10.5, 10.5), &bounds);
        let c = morton_of_point(&Point::new(90.0, 90.0), &bounds);
        assert!((a ^ b).leading_zeros() > (a ^ c).leading_zeros());
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let bounds = Rect::new(0.0, 0.0, 1.0, 1.0);
        let lo = morton_of_point(&Point::new(-5.0, -5.0), &bounds);
        assert_eq!(lo, 0);
        let hi = morton_of_point(&Point::new(5.0, 5.0), &bounds);
        assert_eq!(hi, morton_encode(u16::MAX, u16::MAX));
    }

    #[test]
    fn degenerate_bounds_do_not_panic() {
        let bounds = Rect::new(1.0, 1.0, 1.0, 1.0);
        assert_eq!(morton_of_point(&Point::new(1.0, 1.0), &bounds), 0);
    }
}
