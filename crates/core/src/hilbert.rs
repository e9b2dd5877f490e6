//! Hilbert space-filling curve, used by the Hilbert packing variant.
//!
//! Kamel & Faloutsos' Hilbert-packed R-trees (1993) are a direct
//! descendant of this paper's PACK; ordering by Hilbert value preserves
//! spatial locality better than the paper's plain ascending-x sort while
//! remaining a one-dimensional sort.

use rtree_geom::{Point, Rect};

/// Curve order used when mapping continuous coordinates: a 2^16 × 2^16
/// grid, giving 32-bit Hilbert indices.
pub const DEFAULT_ORDER: u32 = 16;

/// Distance along the Hilbert curve of order `order` for the integer cell
/// `(x, y)`; both coordinates must be `< 2^order`.
pub fn xy_to_d(order: u32, x: u32, y: u32) -> u64 {
    debug_assert!(order <= 31);
    debug_assert!(x < (1 << order) && y < (1 << order));
    let n: i64 = 1 << order;
    let (mut x, mut y) = (x as i64, y as i64);
    let mut d: u64 = 0;
    let mut s: i64 = n / 2;
    while s > 0 {
        let rx = i64::from((x & s) > 0);
        let ry = i64::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse mapping: the integer cell at distance `d` along the curve.
pub fn d_to_xy(order: u32, d: u64) -> (u32, u32) {
    let n: i64 = 1 << order;
    let (mut x, mut y): (i64, i64) = (0, 0);
    let mut t = d as i64;
    let mut s: i64 = 1;
    while s < n {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Hilbert index of a point within `bounds`, discretized to
/// [`DEFAULT_ORDER`] bits per axis.
pub fn point_index(p: Point, bounds: &Rect) -> u64 {
    let side = (1u32 << DEFAULT_ORDER) - 1;
    let fx = if bounds.width() > 0.0 {
        (p.x - bounds.min_x) / bounds.width()
    } else {
        0.0
    };
    let fy = if bounds.height() > 0.0 {
        (p.y - bounds.min_y) / bounds.height()
    } else {
        0.0
    };
    let x = (fx.clamp(0.0, 1.0) * side as f64) as u32;
    let y = (fy.clamp(0.0, 1.0) * side as f64) as u32;
    xy_to_d(DEFAULT_ORDER, x, y)
}

/// Hilbert index of a rectangle's center within `bounds` — the sort key
/// of Hilbert packing ([`crate::grouping::order`]).
#[inline]
pub fn rect_index(r: &Rect, bounds: &Rect) -> u64 {
    point_index(r.center(), bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_order() {
        let order = 4;
        for d in 0..(1u64 << (2 * order)) {
            let (x, y) = d_to_xy(order, d);
            assert_eq!(xy_to_d(order, x, y), d);
        }
    }

    #[test]
    fn curve_visits_every_cell_once() {
        let order = 3;
        let mut seen = [false; 64];
        for d in 0..64u64 {
            let (x, y) = d_to_xy(order, d);
            let idx = (y * 8 + x) as usize;
            assert!(!seen[idx], "cell ({x},{y}) visited twice");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_indices_are_adjacent_cells() {
        let order = 5;
        let mut prev = d_to_xy(order, 0);
        for d in 1..(1u64 << (2 * order)) {
            let cur = d_to_xy(order, d);
            let manhattan =
                (cur.0 as i64 - prev.0 as i64).abs() + (cur.1 as i64 - prev.1 as i64).abs();
            assert_eq!(manhattan, 1, "jump at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn point_index_respects_locality() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let a = point_index(Point::new(10.0, 10.0), &bounds);
        let b = point_index(Point::new(10.5, 10.0), &bounds);
        let far = point_index(Point::new(90.0, 90.0), &bounds);
        assert!(a.abs_diff(b) < a.abs_diff(far));
    }

    #[test]
    fn degenerate_bounds_do_not_panic() {
        let bounds = Rect::new(5.0, 5.0, 5.0, 5.0);
        assert_eq!(point_index(Point::new(5.0, 5.0), &bounds), 0);
    }
}
