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
//! Both are computed *exactly*, up to floating-point rounding, by one
//! sweep over x: between two consecutive rectangle edges the cover counts
//! along y stay constant, and a segment tree over the distinct
//! y-coordinates keeps the length covered at least once and at least
//! twice as rectangles enter and leave the sweep line. That is
//! `O(n log n)` time and `O(n)` memory, so Table 1's `C` and `O` columns
//! stay exact rather than sampled at any tree size.

use crate::rect::Rect;

/// Sum of the areas of the rectangles — the paper's **coverage** when
/// applied to the leaf MBRs of an R-tree.
pub fn total_area(rects: &[Rect]) -> f64 {
    rects.iter().map(Rect::area).sum()
}

/// Area of the union of the rectangles (each covered point counted once).
pub fn union_area(rects: &[Rect]) -> f64 {
    covered_areas(rects).0
}

/// Area of the set of points covered by **two or more** rectangles — the
/// paper's **overlap** when applied to leaf MBRs.
pub fn overlap_area(rects: &[Rect]) -> f64 {
    covered_areas(rects).1
}

/// The union's area and the area covered twice or more, from the sweep
/// over x the module doc describes.
fn covered_areas(rects: &[Rect]) -> (f64, f64) {
    // Degenerate rectangles contribute no area.
    let solid = || rects.iter().filter(|r| r.area() != 0.0);
    let mut ys: Vec<f64> = solid().flat_map(|r| [r.min_y, r.max_y]).collect();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    // (x, +1 entering or -1 leaving, the first and one past the last
    // elementary y-interval the rectangle spans)
    let mut events: Vec<(f64, i32, u32, u32)> = Vec::with_capacity(2 * rects.len());
    for r in solid() {
        let bound = |y: f64| ys.partition_point(|&v| v < y) as u32;
        let (lo, hi) = (bound(r.min_y), bound(r.max_y));
        events.push((r.min_x, 1, lo, hi));
        events.push((r.max_x, -1, lo, hi));
    }
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(mut x, ..)) = events.first() else {
        return (0.0, 0.0);
    };
    let intervals = ys.len() - 1;
    let leaves = intervals.next_power_of_two();
    let mut tree = CoverTree {
        ys: &ys,
        leaves,
        count: vec![0; 2 * leaves],
        covered: vec![[0.0; 2]; 2 * leaves],
    };
    let (mut union, mut overlap) = (0.0, 0.0);
    for (next_x, delta, lo, hi) in events {
        let [once, twice] = tree.covered[1];
        union += once * (next_x - x);
        overlap += twice * (next_x - x);
        x = next_x;
        tree.add(lo as usize, hi as usize, delta);
    }
    (union, overlap)
}

/// Cover counts over the elementary y-intervals `ys[i]..ys[i + 1]`, as a
/// complete binary tree laid out by index: node 1 is the root, node `k`
/// has children `2k` and `2k + 1`, and leaf `leaves + i` is interval `i`
/// (the leaves past the last interval have no length). `count[k]` is how many
/// rectangles on the sweep line span all of node `k` but not all of its
/// parent; `covered[k]` is how much of node `k`'s length its own subtree
/// covers at least once and at least twice.
struct CoverTree<'a> {
    ys: &'a [f64],
    leaves: usize,
    count: Vec<i32>,
    covered: Vec<[f64; 2]>,
}

impl CoverTree<'_> {
    /// Adds `delta` to the cover count of intervals `lo..hi`: to the
    /// fewest nodes that tile them, bottom-up, then recomputes the covered
    /// lengths of their ancestors.
    fn add(&mut self, lo: usize, hi: usize, delta: i32) {
        let (mut l, mut r) = (lo + self.leaves, hi + self.leaves);
        let (mut first, mut last) = (l / 2, (r - 1) / 2);
        while l < r {
            if l % 2 == 1 {
                self.count[l] += delta;
                self.pull(l);
                l += 1;
            }
            if r % 2 == 1 {
                r -= 1;
                self.count[r] += delta;
                self.pull(r);
            }
            (l, r) = (l / 2, r / 2);
        }
        while first > 0 {
            self.pull(first);
            if last != first {
                self.pull(last);
            }
            (first, last) = (first / 2, last / 2);
        }
    }

    /// Recomputes `covered[k]` from node `k`'s count and its children.
    fn pull(&mut self, k: usize) {
        let depth = k.ilog2();
        let width = self.leaves >> depth;
        let lo = (k - (1 << depth)) * width;
        let end = self.ys.len() - 1;
        let length = self.ys[(lo + width).min(end)] - self.ys[lo.min(end)];
        let below = if k >= self.leaves {
            [0.0; 2]
        } else {
            let ([l1, l2], [r1, r2]) = (self.covered[2 * k], self.covered[2 * k + 1]);
            [l1 + r1, l2 + r2]
        };
        self.covered[k] = match self.count[k] {
            0 => below,
            1 => [length, below[0]],
            _ => [length, length],
        };
    }
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
        // Three stacked rects sharing [1,2]x[0,1].
        let rs = [
            r(0.0, 0.0, 2.0, 1.0),
            r(1.0, 0.0, 3.0, 1.0),
            r(1.0, 0.0, 2.0, 1.0),
        ];
        assert_eq!(union_area(&rs), 3.0);
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
