//! Rotations for Lemma 3.1: finding an angle that makes all x-coordinates
//! distinct.
//!
//! Lemma 3.1 proves that for any finite point set `S` there is an angle `α`
//! such that rotating `S` by `α` gives every point a distinct x-coordinate
//! (only finitely many angles are "bad" — one per pair of points — while
//! there are infinitely many angles). Theorem 3.2 then packs the rotated
//! points into disjoint MBRs of 4 in x-order.
//!
//! [`rotation_with_distinct_x`] constructively finds such an angle, and
//! [`all_x_distinct`] is the paper's `Fα(S) = |S|` check.

use crate::point::Point;

/// Returns `true` if all points have pairwise distinct x-coordinates, i.e.
/// the paper's `F(S) = |S|`.
pub fn all_x_distinct(points: &[Point]) -> bool {
    let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Counts distinct x-coordinates — the paper's `F(S)`.
pub fn distinct_x_count(points: &[Point]) -> usize {
    let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    xs.len()
}

/// Finds an angle `α` such that rotating `points` by `α` makes all
/// x-coordinates distinct (Lemma 3.1), or `None` if the input contains
/// duplicate points (for which no rotation can help).
///
/// Strategy: there are at most `|S|·(|S|−1)/2` bad angles (one per point
/// pair, modulo π), so we probe a sequence of candidate angles that cannot
/// all be bad. Probes start at 0 (the common case: data already has
/// distinct x) and continue with small irrational-step offsets to dodge any
/// axis-aligned structure in the data.
pub fn rotation_with_distinct_x(points: &[Point]) -> Option<f64> {
    // Duplicate points can never be separated by a rotation.
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    // n(n-1)/2 bad angles at most; probe more candidates than that.
    let n = points.len();
    let max_probes = n * n.saturating_sub(1) / 2 + 2;
    // Irrational step so that probes never cycle onto a bad-angle lattice.
    let step = std::f64::consts::SQRT_2 / 100.0;
    for k in 0..max_probes {
        let angle = k as f64 * step;
        let rotated: Vec<Point> = points.iter().map(|p| p.rotated(angle)).collect();
        if all_x_distinct(&rotated) {
            return Some(angle);
        }
    }
    // Mathematically unreachable for distinct points, but floating-point
    // coincidences could in principle exhaust the probes.
    None
}

/// Rotates every point counter-clockwise about the origin by `angle`.
pub fn rotate_all(points: &[Point], angle: f64) -> Vec<Point> {
    points.iter().map(|p| p.rotated(angle)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_x_detection() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 0.0),
        ];
        assert!(!all_x_distinct(&pts));
        assert_eq!(distinct_x_count(&pts), 2);
        let ok = [
            Point::new(0.0, 0.0),
            Point::new(0.5, 1.0),
            Point::new(1.0, 0.0),
        ];
        assert!(all_x_distinct(&ok));
        assert_eq!(distinct_x_count(&ok), 3);
    }

    #[test]
    fn rotation_found_for_vertical_line() {
        // All points share x = 0; rotation must separate them.
        let pts: Vec<Point> = (0..10).map(|i| Point::new(0.0, i as f64)).collect();
        let angle = rotation_with_distinct_x(&pts).expect("lemma 3.1");
        let rotated = rotate_all(&pts, angle);
        assert!(all_x_distinct(&rotated));
    }

    #[test]
    fn rotation_found_for_grid() {
        // Grids maximize duplicate x-coordinates and collinear pairs.
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        let angle = rotation_with_distinct_x(&pts).expect("lemma 3.1");
        assert!(all_x_distinct(&rotate_all(&pts, angle)));
    }

    #[test]
    fn duplicate_points_rejected() {
        let pts = [Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert_eq!(rotation_with_distinct_x(&pts), None);
    }

    #[test]
    fn already_distinct_needs_no_rotation() {
        let pts = [
            Point::new(0.0, 5.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 9.0),
        ];
        assert_eq!(rotation_with_distinct_x(&pts), Some(0.0));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(all_x_distinct(&[]));
        assert_eq!(rotation_with_distinct_x(&[]), Some(0.0));
        assert_eq!(rotation_with_distinct_x(&[Point::new(3.0, 4.0)]), Some(0.0));
    }
}
