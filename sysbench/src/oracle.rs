//! The benchmark's own answers, computed from its own point array and
//! never from the code under test.
//!
//! A uniform grid answers "how many points lie in this window" in about
//! a microsecond, cheap enough to check every read inline. Full row sets
//! and k-NN answers of a sample of ops are checked against a linear scan
//! after the window.

use rtree_geom::{Point, Rect};

/// Closed-set containment, the semantics of PSQL's `covered-by` and
/// `overlapping` for point objects.
#[inline]
pub fn in_window(p: &Point, w: &Rect) -> bool {
    w.min_x <= p.x && p.x <= w.max_x && w.min_y <= p.y && p.y <= w.max_y
}

/// Points bucketed into square cells, stored cell by cell.
pub struct Grid {
    cell: f64,
    dim: usize,
    /// `starts[c]..starts[c + 1]` indexes `points` for cell `c`.
    starts: Vec<u32>,
    points: Vec<Point>,
}

impl Grid {
    /// Buckets `points`, which must lie in `[0, frame]²`, at about four
    /// points a cell.
    pub fn new(points: &[Point], frame: f64) -> Grid {
        let dim = (((points.len() as f64) / 4.0).sqrt().ceil() as usize).max(1);
        let cell = frame / dim as f64;
        let cell_of = |p: &Point| {
            let cx = ((p.x / cell) as usize).min(dim - 1);
            let cy = ((p.y / cell) as usize).min(dim - 1);
            cy * dim + cx
        };
        let mut starts = vec![0u32; dim * dim + 1];
        for p in points {
            starts[cell_of(p) + 1] += 1;
        }
        for c in 0..dim * dim {
            starts[c + 1] += starts[c];
        }
        let mut next = starts.clone();
        let mut sorted = vec![Point { x: 0.0, y: 0.0 }; points.len()];
        for p in points {
            let c = cell_of(p);
            sorted[next[c] as usize] = *p;
            next[c] += 1;
        }
        Grid {
            cell,
            dim,
            starts,
            points: sorted,
        }
    }

    /// Points inside the closed window.
    pub fn count(&self, w: &Rect) -> usize {
        let clamp = |v: f64| ((v / self.cell).floor().max(0.0) as usize).min(self.dim - 1);
        let (x0, x1) = (clamp(w.min_x), clamp(w.max_x));
        let (y0, y1) = (clamp(w.min_y), clamp(w.max_y));
        let mut n = 0;
        for cy in y0..=y1 {
            let row = cy * self.dim;
            // Cells of one row are adjacent in `points`: one contiguous scan.
            let lo = self.starts[row + x0] as usize;
            let hi = self.starts[row + x1 + 1] as usize;
            n += self.points[lo..hi]
                .iter()
                .filter(|p| in_window(p, w))
                .count();
        }
        n
    }
}

/// Ids (positions in `points`) inside the closed window, by linear scan.
pub fn scan_window(points: &[Point], w: &Rect) -> Vec<u64> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| in_window(p, w))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Squared distance between two points.
#[inline]
pub fn dist_sq(a: &Point, b: &Point) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

/// The `k` smallest squared distances from `q`, ascending, by linear
/// scan. Distances, not ids, are the answer: ties may be broken either
/// way.
pub fn scan_knn(points: &[Point], q: &Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = points.iter().map(|p| dist_sq(p, q)).collect();
    let k = k.min(d.len());
    if k == 0 {
        return Vec::new();
    }
    d.select_nth_unstable_by(k - 1, f64::total_cmp);
    d.truncate(k);
    d.sort_by(f64::total_cmp);
    d
}

/// `true` when `got` (squared distances, any order) matches the oracle's
/// ascending `want` to within rounding.
pub fn same_distances(got: &mut [f64], want: &[f64]) -> bool {
    got.sort_by(f64::total_cmp);
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, SplitMix64, Window, FRAME};

    #[test]
    fn grid_counts_match_brute_force() {
        for n in [0usize, 1, 7, 5000] {
            let pts = gen::points(42, 1, n);
            let grid = Grid::new(&pts, FRAME);
            let mut g = SplitMix64::new(42, 9);
            for _ in 0..500 {
                for half in [0.0, 0.4, gen::SMALL_HALF, gen::SEL_HALF, 180.0] {
                    let w = Window::draw(&mut g, half).rect();
                    assert_eq!(grid.count(&w), scan_window(&pts, &w).len(), "n={n} w={w:?}");
                }
            }
            // Windows reaching past the frame, and the whole frame.
            let all = Rect::new(-5.0, -5.0, FRAME + 5.0, FRAME + 5.0);
            assert_eq!(grid.count(&all), n);
            let edge = Rect::new(990.0, -3.0, 1200.0, 40.0);
            assert_eq!(grid.count(&edge), scan_window(&pts, &edge).len());
        }
    }

    #[test]
    fn grid_counts_points_on_the_boundary() {
        let pts = vec![
            Point { x: 0.0, y: 0.0 },
            Point { x: 10.0, y: 10.0 },
            Point { x: FRAME, y: FRAME },
            Point { x: 10.0, y: 20.0 },
        ];
        let grid = Grid::new(&pts, FRAME);
        assert_eq!(grid.count(&Rect::new(0.0, 0.0, 10.0, 10.0)), 2);
        assert_eq!(grid.count(&Rect::new(10.0, 10.0, 10.0, 20.0)), 2);
        assert_eq!(grid.count(&Rect::new(10.0, 10.0, FRAME, FRAME)), 3);
    }

    #[test]
    fn knn_scan_returns_smallest_distances_ascending() {
        let pts = gen::points(5, 1, 300);
        let q = Point { x: 500.0, y: 500.0 };
        let got = scan_knn(&pts, &q, 10);
        let mut all: Vec<f64> = pts.iter().map(|p| dist_sq(p, &q)).collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(got, all[..10]);
        assert_eq!(scan_knn(&pts[..3], &q, 10).len(), 3);
        assert!(scan_knn(&[], &q, 10).is_empty());
    }

    #[test]
    fn distance_comparison_ignores_order_and_rounding() {
        let want = [1.0, 4.0, 9.0];
        assert!(same_distances(&mut [9.0, 1.0, 4.0 + 1e-12], &want));
        assert!(!same_distances(&mut [1.0, 4.0], &want));
        assert!(!same_distances(&mut [1.0, 4.0, 9.1], &want));
    }
}
