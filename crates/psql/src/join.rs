//! Juxtaposition: the simultaneous R-tree join of §2.2.
//!
//! "Juxtaposition is performed by simultaneous search on the two (or
//! more) spatial organizations which correspond to the same area … The
//! simultaneous use of several spatial organizations is analogous to the
//! use of two or more secondary indexes during the query processing."
//!
//! [`rtree_join`] descends both trees in lock-step, recursing only into
//! node pairs whose MBRs intersect; candidate leaf-entry pairs are
//! emitted for exact refinement by the caller. [`nested_loop_join`] is
//! the baseline the `fig2_2` experiment compares against.

use crate::picture::Picture;
use crate::spatial::SpatialOp;
use rtree_geom::Rect;
use rtree_index::{ItemId, NodeAccess, NodeId};

/// Counters for join executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Node pairs (or node/leaf-entry pairs) examined.
    pub node_pairs_visited: u64,
    /// Candidate item pairs emitted (before exact refinement): every
    /// pair for an operator with no MBR rule.
    pub candidates: u64,
}

/// Joins two R-trees — in any storage form, and any mix of forms —
/// returning item-id pairs whose MBRs pass [`SpatialOp::mbr_filter`].
/// The descent, the emission order and the [`JoinStats`] depend on the
/// trees' structure only, so a frozen arena joins exactly like the
/// pointer tree it was compiled from. An operator with no MBR rule
/// (`disjoined`), which no hierarchy of bounding rectangles can prune,
/// is handed to [`nested_loop_join`]: every pair is a candidate, and
/// the exact test decides.
pub fn rtree_join<A: NodeAccess, B: NodeAccess>(
    a: &A,
    b: &B,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    if op.traversal().is_none() {
        return nested_loop_join(a, b, op, stats);
    }
    let mut out = Vec::new();
    if a.entry_count(a.root()) == 0 || b.entry_count(b.root()) == 0 {
        return out;
    }
    join_subtrees(a, a.root(), b, b.root(), op, stats, &mut out);
    out
}

/// Each arm tests one node's lanes against a single rectangle — the
/// shape [`NodeAccess::mask_intersects`] answers 64 lanes at a time.
fn join_subtrees<A: NodeAccess, B: NodeAccess>(
    a: &A,
    na: NodeId,
    b: &B,
    nb: NodeId,
    op: SpatialOp,
    stats: &mut JoinStats,
    out: &mut Vec<(ItemId, ItemId)>,
) {
    stats.node_pairs_visited += 1;
    match (a.is_leaf(na), b.is_leaf(nb)) {
        (true, true) => {
            for la in 0..a.entry_count(na) {
                let ra = a.lane_mbr(na, la);
                for_each_intersecting(b, nb, &ra, |lb| {
                    if op.mbr_filter(&ra, &b.lane_mbr(nb, lb)) {
                        stats.candidates += 1;
                        out.push((a.child_item(na, la), b.child_item(nb, lb)));
                    }
                });
            }
        }
        (false, true) => {
            // Descend the deeper (left) side.
            if let Some(mb) = b.node_mbr(nb) {
                for_each_intersecting(a, na, &mb, |la| {
                    join_subtrees(a, a.child_node(na, la), b, nb, op, stats, out)
                });
            }
        }
        (true, false) => {
            if let Some(ma) = a.node_mbr(na) {
                for_each_intersecting(b, nb, &ma, |lb| {
                    join_subtrees(a, na, b, b.child_node(nb, lb), op, stats, out)
                });
            }
        }
        (false, false) => {
            for la in 0..a.entry_count(na) {
                let (ra, ca) = (a.lane_mbr(na, la), a.child_node(na, la));
                for_each_intersecting(b, nb, &ra, |lb| {
                    join_subtrees(a, ca, b, b.child_node(nb, lb), op, stats, out)
                });
            }
        }
    }
}

/// Calls `f` with each lane of `node` whose rectangle intersects
/// `rect`, ascending.
fn for_each_intersecting<T: NodeAccess>(
    tree: &T,
    node: NodeId,
    rect: &Rect,
    mut f: impl FnMut(usize),
) {
    for chunk in 0..tree.fanout().div_ceil(64) {
        let mut mask = tree.mask_intersects(node, chunk, rect);
        while mask != 0 {
            f(chunk * 64 + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
    }
}

/// Juxtaposition join between two [`Picture`]s: [`rtree_join`] of each
/// side's frozen arena and Guttman tree, which index disjoint id ranges
/// (DESIGN.md §14), against each of the other's — up to four terms,
/// concatenated in the trees' order, which the executor sorts. A
/// never-packed side has no arena: its Guttman tree holds every object.
pub fn picture_join(
    lp: &Picture,
    rp: &Picture,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    fn against<A: NodeAccess>(
        a: &A,
        rp: &Picture,
        op: SpatialOp,
        stats: &mut JoinStats,
        out: &mut Vec<(ItemId, ItemId)>,
    ) {
        let (frozen, delta) = rp.index_parts();
        if let Some(frozen) = frozen {
            out.extend(rtree_join(a, frozen, op, stats));
        }
        if let Some(delta) = delta {
            out.extend(rtree_join(a, delta, op, stats));
        }
    }
    let mut out = Vec::new();
    let (frozen, delta) = lp.index_parts();
    if let Some(frozen) = frozen {
        against(frozen, rp, op, stats, &mut out);
    }
    if let Some(delta) = delta {
        against(delta, rp, op, stats, &mut out);
    }
    out
}

/// The baseline: compare every item pair's MBRs with
/// [`SpatialOp::mbr_filter`], in the order [`NodeAccess::items`]
/// reports each side — the same for every storage form of one tree. An
/// operator with no MBR rule (`disjoined`) keeps every pair, so
/// [`JoinStats::candidates`] counts the whole cross product.
pub fn nested_loop_join<A: NodeAccess, B: NodeAccess>(
    a: &A,
    b: &B,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    let mut out = Vec::new();
    let b_items = b.items();
    for (ra, ia) in a.items() {
        for &(rb, ib) in &b_items {
            stats.node_pairs_visited += 1;
            if op.mbr_filter(&ra, &rb) {
                stats.candidates += 1;
                out.push((ia, ib));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use packed_rtree_core::pack;
    use rtree_geom::Point;
    use rtree_index::{RTree, RTreeConfig};

    fn tree_of_points(points: &[(f64, f64)]) -> RTree {
        pack(
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (Rect::from_point(Point::new(x, y)), ItemId(i as u64)))
                .collect(),
            RTreeConfig::PAPER,
        )
    }

    fn tree_of_rects(rects: &[Rect]) -> RTree {
        pack(
            rects
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, ItemId(i as u64)))
                .collect(),
            RTreeConfig::PAPER,
        )
    }

    fn grid_points(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| ((i % 10) as f64 * 7.0, (i / 10) as f64 * 7.0))
            .collect()
    }

    fn tiles() -> Vec<Rect> {
        let mut out = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let x = i as f64 * 17.5;
                let y = j as f64 * 17.5;
                out.push(Rect::new(x, y, x + 17.5, y + 17.5));
            }
        }
        out
    }

    #[test]
    fn join_matches_nested_loop() {
        let a = tree_of_points(&grid_points(80));
        let b = tree_of_rects(&tiles());
        for op in [
            SpatialOp::CoveredBy,
            SpatialOp::Overlapping,
            SpatialOp::Covering,
            SpatialOp::Disjoined,
        ] {
            let mut s1 = JoinStats::default();
            let mut s2 = JoinStats::default();
            let mut fast = rtree_join(&a, &b, op, &mut s1);
            let mut slow = nested_loop_join(&a, &b, op, &mut s2);
            fast.sort();
            slow.sort();
            assert_eq!(fast, slow, "{op}");
            if op == SpatialOp::Disjoined {
                // No MBR rule: every pair is a candidate.
                assert_eq!(s1.candidates, 80 * 16);
            }
        }
    }

    #[test]
    fn join_prunes_node_pairs() {
        let a = tree_of_points(&grid_points(100));
        let b = tree_of_rects(&tiles());
        let mut fast = JoinStats::default();
        let mut slow = JoinStats::default();
        rtree_join(&a, &b, SpatialOp::CoveredBy, &mut fast);
        nested_loop_join(&a, &b, SpatialOp::CoveredBy, &mut slow);
        assert!(
            fast.node_pairs_visited < slow.node_pairs_visited,
            "simultaneous search should beat nested loop: {} vs {}",
            fast.node_pairs_visited,
            slow.node_pairs_visited
        );
    }

    /// Every mix of storage forms runs the one descent: exact emission
    /// order and counters, not just the same set. Fan-out 102 (a disk
    /// page's branching) spreads each node over two mask chunks.
    #[test]
    fn join_is_bit_identical_across_storage_forms() {
        use rtree_index::FrozenRTree;
        let wide = RTreeConfig::with_branching(102);
        let scatter = |n: u64, salt: u64| -> Vec<(Rect, ItemId)> {
            (0..n)
                .map(|i| {
                    let x = (i.wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64;
                    let y = (i.wrapping_mul(40503).wrapping_add(salt * 7) % 1000) as f64;
                    (Rect::new(x, y, x + 9.0, y + 6.0), ItemId(i))
                })
                .collect()
        };
        for (a, b) in [
            (tree_of_points(&grid_points(80)), tree_of_rects(&tiles())),
            (pack(scatter(1_500, 1), wide), pack(scatter(1_200, 5), wide)),
        ] {
            let (fa, fb) = (FrozenRTree::freeze(&a), FrozenRTree::freeze(&b));
            for op in [
                SpatialOp::CoveredBy,
                SpatialOp::Overlapping,
                SpatialOp::Covering,
                SpatialOp::Disjoined,
            ] {
                let mut sp = JoinStats::default();
                let pointer = rtree_join(&a, &b, op, &mut sp);
                assert!(op != SpatialOp::Overlapping || !pointer.is_empty());
                let mut stats = [JoinStats::default(); 3];
                assert_eq!(rtree_join(&fa, &fb, op, &mut stats[0]), pointer, "{op}");
                assert_eq!(rtree_join(&fa, &b, op, &mut stats[1]), pointer, "{op}");
                assert_eq!(rtree_join(&a, &fb, op, &mut stats[2]), pointer, "{op}");
                assert_eq!(stats, [sp; 3], "{op} counters");
                let mut nested = [JoinStats::default(); 2];
                assert_eq!(
                    nested_loop_join(&fa, &fb, op, &mut nested[0]),
                    nested_loop_join(&a, &b, op, &mut nested[1]),
                    "{op} nested loop"
                );
                assert_eq!(nested[0], nested[1], "{op} nested-loop counters");
            }
        }
    }

    /// `picture_join` with buffered deltas on one or both sides must
    /// match the pair set of freshly re-packed pictures (pairs compared
    /// as sorted sets; deltas make the emission order differ).
    #[test]
    fn picture_join_merges_deltas() {
        use rtree_geom::SpatialObject;
        let mk = |pts: &[(f64, f64)], extra: &[(f64, f64)]| {
            let mut pic = Picture::new("p", Rect::new(0.0, 0.0, 100.0, 100.0), RTreeConfig::PAPER);
            for &(x, y) in pts {
                pic.add(SpatialObject::Point(Point::new(x, y)), "o");
            }
            pic.pack();
            for &(x, y) in extra {
                pic.add(SpatialObject::Point(Point::new(x, y)), "d");
            }
            pic
        };
        let grid = grid_points(60);
        let shifted: Vec<(f64, f64)> = grid.iter().map(|&(x, y)| (x + 1.0, y + 1.0)).collect();
        let extra_l = [(3.0, 3.0), (50.0, 50.0), (64.0, 8.0)];
        let extra_r = [(2.5, 2.5), (49.0, 51.0)];
        for (el, er) in [
            (&extra_l[..], &extra_r[..]), // deltas on both sides
            (&extra_l[..], &[][..]),      // left only
            (&[][..], &extra_r[..]),      // right only
            (&[][..], &[][..]),           // no deltas: frozen x frozen only
        ] {
            let live_l = mk(&grid, el);
            let live_r = mk(&shifted, er);
            let mut packed_l = live_l.clone();
            let mut packed_r = live_r.clone();
            packed_l.pack();
            packed_r.pack();
            for op in [
                SpatialOp::CoveredBy,
                SpatialOp::Overlapping,
                SpatialOp::Covering,
                SpatialOp::Disjoined,
            ] {
                let mut s1 = JoinStats::default();
                let mut s2 = JoinStats::default();
                let mut merged = picture_join(&live_l, &live_r, op, &mut s1);
                let mut packed = picture_join(&packed_l, &packed_r, op, &mut s2);
                merged.sort_unstable();
                packed.sort_unstable();
                assert_eq!(
                    merged,
                    packed,
                    "{op} diverged (deltas {}/{})",
                    el.len(),
                    er.len()
                );
            }
        }
    }

    #[test]
    fn frozen_join_mixed_depth() {
        use rtree_index::FrozenRTree;
        let a = tree_of_points(&grid_points(100));
        let b = tree_of_rects(&[Rect::new(0.0, 0.0, 70.0, 70.0)]);
        let mut sp = JoinStats::default();
        let mut sf = JoinStats::default();
        assert_eq!(
            rtree_join(
                &FrozenRTree::freeze(&a),
                &FrozenRTree::freeze(&b),
                SpatialOp::CoveredBy,
                &mut sf
            ),
            rtree_join(&a, &b, SpatialOp::CoveredBy, &mut sp)
        );
        assert_eq!(sf, sp);
    }

    #[test]
    fn empty_tree_join() {
        let a = tree_of_points(&[]);
        let b = tree_of_rects(&tiles());
        let mut stats = JoinStats::default();
        assert!(rtree_join(&a, &b, SpatialOp::CoveredBy, &mut stats).is_empty());
        assert!(rtree_join(&b, &a, SpatialOp::CoveredBy, &mut stats).is_empty());
    }

    #[test]
    fn different_heights_join() {
        // One big tree against a tiny one exercises the mixed-depth arms.
        let a = tree_of_points(&grid_points(100));
        let b = tree_of_rects(&[Rect::new(0.0, 0.0, 70.0, 70.0)]);
        let mut stats = JoinStats::default();
        let pairs = rtree_join(&a, &b, SpatialOp::CoveredBy, &mut stats);
        assert_eq!(pairs.len(), 100, "all grid points inside the one tile");
    }
}
