//! Exact area computations over sets of rectangles.
//!
//! Section 3.1 defines the two quality measures of an R-tree:
//!
//! * **coverage** — "the total area of all the MBRs of all leaf R-tree
//!   nodes" ([`total_area`]; note this is a *sum*, so it can exceed the
//!   area of the union when leaves overlap);
//! * **overlap** — "the total area contained within two or more leaf
//!   MBRs" ([`overlap_area`]).
//!
//! Both are computed *exactly* by coordinate compression: the distinct x-
//! and y-coordinates of the rectangle corners induce a grid whose cells are
//! each either fully covered or fully uncovered by any input rectangle, so
//! per-cell cover counts (accumulated with a 2-D difference array) give
//! exact areas. This keeps Table 1's `C` and `O` columns exact rather than
//! sampled.

use crate::rect::Rect;

/// Sum of the areas of the rectangles — the paper's **coverage** when
/// applied to the leaf MBRs of an R-tree.
pub fn total_area(rects: &[Rect]) -> f64 {
    rects.iter().map(Rect::area).sum()
}

/// Area of the union of the rectangles (each covered point counted once).
pub fn union_area(rects: &[Rect]) -> f64 {
    area_where(rects, |count| count >= 1)
}

/// Area of the set of points covered by **two or more** rectangles — the
/// paper's **overlap** when applied to leaf MBRs.
pub fn overlap_area(rects: &[Rect]) -> f64 {
    area_where(rects, |count| count >= 2)
}

/// Area of the set of points whose cover count satisfies `pred`.
///
/// Exact up to floating-point rounding; runs in
/// `O(n log n + cells)` where `cells ≤ (2n)²`.
pub fn area_where<F: Fn(u32) -> bool>(rects: &[Rect], pred: F) -> f64 {
    if rects.is_empty() {
        return 0.0;
    }
    // Coordinate compression.
    let mut xs: Vec<f64> = Vec::with_capacity(rects.len() * 2);
    let mut ys: Vec<f64> = Vec::with_capacity(rects.len() * 2);
    for r in rects {
        xs.push(r.min_x);
        xs.push(r.max_x);
        ys.push(r.min_y);
        ys.push(r.max_y);
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    if xs.len() < 2 || ys.len() < 2 {
        return 0.0; // All rectangles degenerate to a line or point.
    }
    let nx = xs.len() - 1; // cell columns
    let ny = ys.len() - 1; // cell rows

    // 2-D difference array over cells; +1 at the low corner of each
    // rectangle's cell range, compensating -1 just past the high corner.
    let mut diff = vec![0i32; (nx + 1) * (ny + 1)];
    let idx = |cx: usize, cy: usize| cy * (nx + 1) + cx;
    for r in rects {
        if r.area() == 0.0 {
            continue; // Degenerate rectangles contribute no area.
        }
        let x0 = xs.partition_point(|&v| v < r.min_x);
        let x1 = xs.partition_point(|&v| v < r.max_x);
        let y0 = ys.partition_point(|&v| v < r.min_y);
        let y1 = ys.partition_point(|&v| v < r.max_y);
        debug_assert!(x0 < x1 && y0 < y1);
        diff[idx(x0, y0)] += 1;
        diff[idx(x1, y0)] -= 1;
        diff[idx(x0, y1)] -= 1;
        diff[idx(x1, y1)] += 1;
    }

    // Prefix-sum into cover counts and accumulate qualifying cell areas.
    let mut area = 0.0;
    let mut counts = vec![0i32; nx]; // running column sums for current row
    let mut row_prefix = vec![0i32; nx];
    for cy in 0..ny {
        // Add this row's diff contributions (prefix over x).
        let mut run = 0i32;
        for cx in 0..nx {
            run += diff[idx(cx, cy)];
            row_prefix[cx] = run;
        }
        let cell_h = ys[cy + 1] - ys[cy];
        for cx in 0..nx {
            counts[cx] += row_prefix[cx];
            let c = counts[cx];
            debug_assert!(c >= 0, "negative cover count");
            if pred(c as u32) {
                area += (xs[cx + 1] - xs[cx]) * cell_h;
            }
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn empty_set() {
        assert_eq!(total_area(&[]), 0.0);
        assert_eq!(union_area(&[]), 0.0);
        assert_eq!(overlap_area(&[]), 0.0);
    }

    #[test]
    fn single_rect() {
        let rs = [r(0.0, 0.0, 2.0, 3.0)];
        assert_eq!(total_area(&rs), 6.0);
        assert_eq!(union_area(&rs), 6.0);
        assert_eq!(overlap_area(&rs), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(2.0, 0.0, 3.0, 1.0)];
        assert_eq!(total_area(&rs), 2.0);
        assert_eq!(union_area(&rs), 2.0);
        assert_eq!(overlap_area(&rs), 0.0);
    }

    #[test]
    fn touching_rects_have_zero_overlap() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(1.0, 0.0, 2.0, 1.0)];
        assert_eq!(union_area(&rs), 2.0);
        assert_eq!(overlap_area(&rs), 0.0);
    }

    #[test]
    fn overlapping_pair() {
        let rs = [r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)];
        assert_eq!(total_area(&rs), 8.0);
        assert_eq!(union_area(&rs), 7.0);
        assert_eq!(overlap_area(&rs), 1.0);
    }

    #[test]
    fn triple_overlap_counted_once_in_overlap_area() {
        // Three identical rects: overlap region covered 3 times but its
        // area counts once.
        let rs = [r(0.0, 0.0, 1.0, 1.0); 3];
        assert_eq!(union_area(&rs), 1.0);
        assert_eq!(overlap_area(&rs), 1.0);
    }

    #[test]
    fn nested_rects() {
        let rs = [r(0.0, 0.0, 4.0, 4.0), r(1.0, 1.0, 2.0, 2.0)];
        assert_eq!(union_area(&rs), 16.0);
        assert_eq!(overlap_area(&rs), 1.0);
    }

    #[test]
    fn degenerate_rects_ignored() {
        let rs = [r(0.0, 0.0, 0.0, 5.0), r(1.0, 1.0, 2.0, 2.0)];
        assert_eq!(union_area(&rs), 1.0);
        assert_eq!(overlap_area(&rs), 0.0);
    }

    #[test]
    fn all_degenerate() {
        let rs = [r(0.0, 0.0, 0.0, 5.0), r(1.0, 1.0, 1.0, 1.0)];
        assert_eq!(union_area(&rs), 0.0);
    }

    #[test]
    fn plus_shape_cross() {
        // Horizontal bar [0,3]x[1,2], vertical bar [1,2]x[0,3].
        let rs = [r(0.0, 1.0, 3.0, 2.0), r(1.0, 0.0, 2.0, 3.0)];
        assert_eq!(union_area(&rs), 3.0 + 3.0 - 1.0);
        assert_eq!(overlap_area(&rs), 1.0);
    }

    #[test]
    fn area_where_exact_counts() {
        // Three stacked rects sharing [1,2]x[0,1].
        let rs = [
            r(0.0, 0.0, 2.0, 1.0),
            r(1.0, 0.0, 3.0, 1.0),
            r(1.0, 0.0, 2.0, 1.0),
        ];
        assert_eq!(area_where(&rs, |c| c >= 3), 1.0);
        assert_eq!(area_where(&rs, |c| c == 1), 2.0);
        assert_eq!(union_area(&rs), 3.0);
    }

    #[test]
    fn matches_monte_carlo_on_random_sets() {
        // Deterministic pseudo-random rects; verify union via a fine grid.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let rects: Vec<Rect> = (0..20)
            .map(|_| {
                let x0 = next() * 80.0;
                let y0 = next() * 80.0;
                Rect::new(x0, y0, x0 + next() * 20.0, y0 + next() * 20.0)
            })
            .collect();
        // Grid check at resolution 0.5 over [0,100]^2.
        let step = 0.5;
        let mut grid_union = 0.0;
        let mut grid_overlap = 0.0;
        let cells = (100.0 / step) as usize;
        for i in 0..cells {
            for j in 0..cells {
                let cx = (i as f64 + 0.5) * step;
                let cy = (j as f64 + 0.5) * step;
                let p = crate::point::Point::new(cx, cy);
                let cnt = rects.iter().filter(|r| r.contains_point(p)).count();
                if cnt >= 1 {
                    grid_union += step * step;
                }
                if cnt >= 2 {
                    grid_overlap += step * step;
                }
            }
        }
        let exact_union = union_area(&rects);
        let exact_overlap = overlap_area(&rects);
        assert!(
            (exact_union - grid_union).abs() < exact_union * 0.05 + 5.0,
            "union {exact_union} vs grid {grid_union}"
        );
        assert!(
            (exact_overlap - grid_overlap).abs() < exact_overlap * 0.05 + 5.0,
            "overlap {exact_overlap} vs grid {grid_overlap}"
        );
    }
}
