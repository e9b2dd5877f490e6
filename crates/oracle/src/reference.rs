//! Brute-force reference implementations.
//!
//! Each function answers a query by scanning every item — no tree, no
//! pruning, no shared code with the engine's traversals. The spatial
//! predicates have ground truth of their own: interval arithmetic for
//! rectangles, separating axes for points, segments and convex regions.
//! The engine must agree with these on every input.

use psql::SpatialOp;
use rtree_geom::{Point, Rect, Region, Segment, SpatialObject};
use rtree_index::{ItemId, NodeId, RTree};

// ---------------------------------------------------------------------
// Interval-arithmetic ground truth for the rectangle predicates.
//
// Written against the raw coordinates, independently of `Rect`'s own
// methods, so a sign slip or strict-vs-inclusive mix-up in `Rect` cannot
// hide by appearing on both sides of the comparison. Closed-set
// semantics: rectangles (including zero-area ones) own their boundary.
// ---------------------------------------------------------------------

fn spans_meet(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> bool {
    // Two closed intervals share a point iff neither is strictly past
    // the other.
    !(a_hi < b_lo || b_hi < a_lo)
}

fn span_inside(inner_lo: f64, inner_hi: f64, outer_lo: f64, outer_hi: f64) -> bool {
    outer_lo <= inner_lo && inner_hi <= outer_hi
}

/// Ground truth for [`Rect::intersects`]: the closed rectangles share at
/// least one point (boundary contact counts).
pub fn ref_intersects(a: &Rect, b: &Rect) -> bool {
    spans_meet(a.min_x, a.max_x, b.min_x, b.max_x) && spans_meet(a.min_y, a.max_y, b.min_y, b.max_y)
}

/// Ground truth for [`Rect::covers`]: every point of `b` lies in `a`.
pub fn ref_covers(a: &Rect, b: &Rect) -> bool {
    span_inside(b.min_x, b.max_x, a.min_x, a.max_x)
        && span_inside(b.min_y, b.max_y, a.min_y, a.max_y)
}

// ---------------------------------------------------------------------
// Separating-axis ground truth for the spatial operators.
//
// Points, segments and convex regions, written against raw vertex
// coordinates with no call into the engine's predicates. Two closed
// convex shapes are disjoint iff some axis strictly separates their
// vertex sets; the candidate axes are every edge's normal and direction,
// x and y. On the fuzz grid (quarter-integers up to 12) every product
// below is exact.
// ---------------------------------------------------------------------

/// Calls `f` with the point, a segment's two ends, or a region's
/// boundary vertices.
fn with_vertices<R>(obj: &SpatialObject, f: impl FnOnce(&[Point]) -> R) -> R {
    match obj {
        SpatialObject::Point(p) => f(&[*p]),
        SpatialObject::Segment(s) => f(&[s.a, s.b]),
        SpatialObject::Region(r) => f(r.vertices()),
    }
}

/// `(from, to)` of every edge: none for one vertex, the segment for
/// two, the closed boundary for more.
fn shape_edges(v: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    let n = if v.len() < 3 { v.len() - 1 } else { v.len() };
    (0..n).map(move |i| (v[i], v[(i + 1) % v.len()]))
}

/// Twice the signed area of triangle `o, a, b`: positive when `b` lies
/// left of the line from `o` to `a`.
fn turn(o: Point, a: Point, b: Point) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

/// Ground truth for `overlapping`: the closed shapes share a point
/// unless some candidate axis strictly separates their vertex sets.
pub fn ref_meet(a: &SpatialObject, b: &SpatialObject) -> bool {
    with_vertices(a, |va| with_vertices(b, |vb| !separated(va, vb)))
}

fn separated(va: &[Point], vb: &[Point]) -> bool {
    let span = |v: &[Point], (ax, ay): (f64, f64)| {
        let along = v.iter().map(|p| p.x * ax + p.y * ay);
        along.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
            (lo.min(t), hi.max(t))
        })
    };
    let edge_axes = shape_edges(va).chain(shape_edges(vb)).flat_map(|(p, q)| {
        let (dx, dy) = (q.x - p.x, q.y - p.y);
        [(dx, dy), (-dy, dx)]
    });
    [(1.0, 0.0), (0.0, 1.0)]
        .into_iter()
        .chain(edge_axes)
        .any(|axis| {
            let ((a_lo, a_hi), (b_lo, b_hi)) = (span(va, axis), span(vb, axis));
            a_hi < b_lo || b_hi < a_lo
        })
}

/// Ground truth for `covering`: every vertex of `inner` lies in the
/// convex `outer` — equal to its point, on its segment (collinear and
/// between the ends), or on the inner side of every edge of its region
/// (half-plane sign tests against the winding's sign).
pub fn ref_covers_shape(outer: &SpatialObject, inner: &SpatialObject) -> bool {
    with_vertices(outer, |v| {
        let winding: f64 = shape_edges(v).map(|(p, q)| p.x * q.y - p.y * q.x).sum();
        let holds = |p: Point| match *v {
            [o] => p == o,
            [a, b] => {
                let along = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y);
                let length_sq = (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y);
                turn(a, b, p) == 0.0
                    && 0.0 <= along
                    && along <= length_sq
                    && (length_sq > 0.0 || p == a)
            }
            _ => shape_edges(v).all(|(a, b)| winding.signum() * turn(a, b, p) >= 0.0),
        };
        with_vertices(inner, |vi| vi.iter().all(|&p| holds(p)))
    })
}

/// Ground truth for `a op b`.
pub fn ref_holds(op: SpatialOp, a: &SpatialObject, b: &SpatialObject) -> bool {
    match op {
        SpatialOp::Covering => ref_covers_shape(a, b),
        SpatialOp::CoveredBy => ref_covers_shape(b, a),
        SpatialOp::Overlapping => ref_meet(a, b),
        SpatialOp::Disjoined => !ref_meet(a, b),
    }
}

/// A window as the honest class of its shape: a point when it has no
/// extent, a segment when it has one side, else a rectangle region.
pub fn window_shape(w: &Rect) -> SpatialObject {
    let (lo, hi) = (Point::new(w.min_x, w.min_y), Point::new(w.max_x, w.max_y));
    if lo == hi {
        SpatialObject::Point(lo)
    } else if w.min_x == w.max_x || w.min_y == w.max_y {
        SpatialObject::Segment(Segment::new(lo, hi))
    } else {
        SpatialObject::Region(Region::rectangle(*w))
    }
}

// ---------------------------------------------------------------------
// Linear-scan query references.
// ---------------------------------------------------------------------

/// Reference window search over raw `(mbr, id)` items: `within = true`
/// reproduces the paper's `WITHIN` leaf test (`covered-by`), `false` the
/// intersection semantics. Results are in item order.
pub fn window_items(items: &[(Rect, ItemId)], window: &Rect, within: bool) -> Vec<ItemId> {
    items
        .iter()
        .filter(|(mbr, _)| {
            if within {
                ref_covers(window, mbr)
            } else {
                ref_intersects(mbr, window)
            }
        })
        .map(|&(_, id)| id)
        .collect()
}

/// Reference point query: every item whose MBR contains `p`.
pub fn point_items(items: &[(Rect, ItemId)], p: Point) -> Vec<ItemId> {
    let probe = Rect::from_point(p);
    items
        .iter()
        .filter(|(mbr, _)| ref_intersects(mbr, &probe))
        .map(|&(_, id)| id)
        .collect()
}

/// Reference evaluation of a PSQL spatial operator between every object
/// of a picture and a constant window: ids (by position, matching
/// `Picture` object ids) of objects satisfying `obj op window`, by
/// [`ref_holds`] against the window's [`window_shape`].
pub fn window_objects(objects: &[SpatialObject], op: SpatialOp, window: &Rect) -> Vec<u64> {
    let window = window_shape(window);
    objects
        .iter()
        .enumerate()
        .filter(|(_, obj)| ref_holds(op, obj, &window))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Reference k-nearest-neighbour: the items of the `k` smallest
/// `(min_distance_sq, id)` pairs from `p` to the item MBRs, in that
/// order — ties at the cut-off go to the smaller ids.
pub fn nearest_items(items: &[(Rect, ItemId)], p: Point, k: usize) -> Vec<ItemId> {
    let mut d: Vec<(f64, ItemId)> = items
        .iter()
        .map(|&(mbr, id)| (mbr.min_distance_sq(p), id))
        .collect();
    d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    d.into_iter().take(k).map(|(_, id)| id).collect()
}

/// Reference juxtaposition join at the MBR level, matching the contract
/// of `psql::join::rtree_join`: pairs passing `intersects` +
/// [`SpatialOp::mbr_filter`], or every pair for an operator with no MBR
/// rule (`disjoined`), which the exact test alone decides. Pairs are
/// sorted for set comparison.
pub fn join_pairs(
    a: &[(Rect, ItemId)],
    b: &[(Rect, ItemId)],
    op: SpatialOp,
) -> Vec<(ItemId, ItemId)> {
    let mut out = Vec::new();
    for &(ra, ia) in a {
        for &(rb, ib) in b {
            let keep =
                op.traversal().is_none() || (ref_intersects(&ra, &rb) && op.mbr_filter(&ra, &rb));
            if keep {
                out.push((ia, ib));
            }
        }
    }
    out.sort_unstable_by_key(|&(ItemId(x), ItemId(y))| (x, y));
    out
}

// ---------------------------------------------------------------------
// Reference recursive SEARCH: the paper's §3.1 algorithm written as the
// obvious recursion, with its own visit counters. The engine's iterative
// traversal must report identical results *and* identical counters —
// this is what keeps `avg_nodes_visited` (the paper's Table 1 metric)
// honest.
// ---------------------------------------------------------------------

/// Node-visit counters accumulated by the recursive references, mirroring
/// the fields of [`rtree_index::SearchStats`] for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalCount {
    /// Total nodes visited (the root always counts).
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaf_nodes_visited: u64,
    /// Leaf entries reported.
    pub items_reported: u64,
}

/// The paper's `SEARCH` as a literal recursion: descend every entry whose
/// MBR `INTERSECTS` the window; at the leaves report entries `WITHIN`
/// (`within = true`) or intersecting (`within = false`).
pub fn recursive_window_search(
    tree: &RTree,
    window: &Rect,
    within: bool,
) -> (Vec<ItemId>, TraversalCount) {
    let mut out = Vec::new();
    let mut count = TraversalCount::default();
    recurse_window(tree, tree.root(), window, within, &mut out, &mut count);
    (out, count)
}

fn recurse_window(
    tree: &RTree,
    id: NodeId,
    window: &Rect,
    within: bool,
    out: &mut Vec<ItemId>,
    count: &mut TraversalCount,
) {
    let node = tree.node(id);
    count.nodes_visited += 1;
    if node.is_leaf() {
        count.leaf_nodes_visited += 1;
        for e in &node.entries {
            let hit = if within {
                e.mbr.covered_by(window)
            } else {
                e.mbr.intersects(window)
            };
            if hit {
                count.items_reported += 1;
                out.push(e.child.expect_item());
            }
        }
    } else {
        for e in &node.entries {
            if e.mbr.intersects(window) {
                recurse_window(tree, e.child.expect_node(), window, within, out, count);
            }
        }
    }
}

/// The Table 1 point query as a literal recursion: descend (and report)
/// only entries whose MBR contains the point.
///
/// Written with `contains_point`, not as a window, so it checks the
/// engine's claim that a point query is the window search over the
/// point's rectangle. Matching children are descended, and leaf hits
/// reported, in ascending lane order: leaves come left to right, as a
/// window's do.
pub fn recursive_point_query(tree: &RTree, p: Point) -> (Vec<ItemId>, TraversalCount) {
    let mut out = Vec::new();
    let mut count = TraversalCount::default();
    recurse_point(tree, tree.root(), p, &mut out, &mut count);
    (out, count)
}

fn recurse_point(
    tree: &RTree,
    id: NodeId,
    p: Point,
    out: &mut Vec<ItemId>,
    count: &mut TraversalCount,
) {
    let node = tree.node(id);
    count.nodes_visited += 1;
    if node.is_leaf() {
        count.leaf_nodes_visited += 1;
        for e in node.entries.iter().filter(|e| e.mbr.contains_point(p)) {
            count.items_reported += 1;
            out.push(e.child.expect_item());
        }
    } else {
        for e in &node.entries {
            if e.mbr.contains_point(p) {
                recurse_point(tree, e.child.expect_node(), p, out, count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packed_rtree_core::pack;
    use rtree_index::{RTreeConfig, SearchStats};

    fn grid_items(n: u64) -> Vec<(Rect, ItemId)> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Rect::new(x, y, x + 0.5, y + 0.5), ItemId(i))
            })
            .collect()
    }

    #[test]
    fn interval_references_agree_with_rect() {
        let cases = [
            (Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(2.0, 0.0, 4.0, 2.0)), // edge touch
            (Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(2.0, 2.0, 4.0, 4.0)), // corner touch
            (Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(3.0, 3.0, 4.0, 4.0)), // apart
            (Rect::new(0.0, 0.0, 4.0, 4.0), Rect::new(1.0, 1.0, 2.0, 2.0)), // nested
            (Rect::new(1.0, 1.0, 1.0, 1.0), Rect::new(1.0, 0.0, 1.0, 2.0)), // degenerate
        ];
        for (a, b) in cases {
            assert_eq!(ref_intersects(&a, &b), a.intersects(&b), "{a:?} {b:?}");
            assert_eq!(!ref_intersects(&a, &b), a.disjoint(&b), "{a:?} {b:?}");
            assert_eq!(ref_covers(&a, &b), a.covers(&b), "{a:?} {b:?}");
        }
    }

    #[test]
    fn recursive_search_matches_engine_results_and_counters() {
        let items = grid_items(100);
        let tree = pack(items.clone(), RTreeConfig::PAPER);
        let window = Rect::new(1.25, 1.25, 6.75, 6.75);
        for within in [true, false] {
            let mut stats = SearchStats::default();
            let engine = if within {
                tree.search_within(&window, &mut stats)
            } else {
                tree.search_intersecting(&window, &mut stats)
            };
            let (reference, count) = recursive_window_search(&tree, &window, within);
            // Same sequence, not just the same set.
            assert_eq!(engine, reference, "within={within}");
            assert_eq!(stats.nodes_visited, count.nodes_visited);
            assert_eq!(stats.leaf_nodes_visited, count.leaf_nodes_visited);
            assert_eq!(stats.items_reported, count.items_reported);
            let mut engine_sorted = engine.clone();
            engine_sorted.sort_unstable_by_key(|&ItemId(i)| i);
            let mut expect = window_items(&items, &window, within);
            expect.sort_unstable_by_key(|&ItemId(i)| i);
            assert_eq!(engine_sorted, expect);
        }
    }

    #[test]
    fn nearest_items_are_sorted_prefix() {
        let items = grid_items(30);
        let p = Point::new(3.3, 1.1);
        let near = nearest_items(&items, p, 5);
        assert_eq!(near.len(), 5);
        let key = |&id: &ItemId| (items[id.0 as usize].0.min_distance_sq(p), id);
        assert!(near.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    }
}
