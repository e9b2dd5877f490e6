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
use rtree_index::{FrozenRTree, ItemId, Node, RTree};

/// Counters for join executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Node pairs (or node/leaf-entry pairs) examined.
    pub node_pairs_visited: u64,
    /// Candidate item pairs emitted (before exact refinement).
    pub candidates: u64,
}

/// Joins two R-trees, returning item-id pairs whose MBRs pass
/// [`SpatialOp::mbr_filter`]. For `Disjoined` — which no hierarchy of
/// bounding rectangles can prune — this degrades to the full cross
/// product of MBR-disjoint pairs.
pub fn rtree_join(
    a: &RTree,
    b: &RTree,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    let mut out = Vec::new();
    if a.is_empty() || b.is_empty() {
        return out;
    }
    if op == SpatialOp::Disjoined {
        // No pruning possible: enumerate and filter.
        for &(ra, ia) in &a.items() {
            for &(rb, ib) in &b.items() {
                stats.node_pairs_visited += 1;
                if !ra.intersects(&rb) {
                    stats.candidates += 1;
                    out.push((ia, ib));
                }
            }
        }
        return out;
    }
    join_nodes(a, a.root(), b, b.root(), op, stats, &mut out);
    out
}

fn join_nodes(
    a: &RTree,
    na: rtree_index::NodeId,
    b: &RTree,
    nb: rtree_index::NodeId,
    op: SpatialOp,
    stats: &mut JoinStats,
    out: &mut Vec<(ItemId, ItemId)>,
) {
    stats.node_pairs_visited += 1;
    let node_a = a.node(na);
    let node_b = b.node(nb);
    match (node_a.is_leaf(), node_b.is_leaf()) {
        (true, true) => {
            for ea in &node_a.entries {
                for eb in &node_b.entries {
                    if ea.mbr.intersects(&eb.mbr) && op.mbr_filter(&ea.mbr, &eb.mbr) {
                        stats.candidates += 1;
                        out.push((ea.child.expect_item(), eb.child.expect_item()));
                    }
                }
            }
        }
        (false, true) => {
            // Descend the deeper (left) side.
            for ea in &node_a.entries {
                if intersects_node(&ea.mbr, node_b) {
                    join_nodes(a, ea.child.expect_node(), b, nb, op, stats, out);
                }
            }
        }
        (true, false) => {
            for eb in &node_b.entries {
                if intersects_node(&eb.mbr, node_a) {
                    join_nodes(a, na, b, eb.child.expect_node(), op, stats, out);
                }
            }
        }
        (false, false) => {
            for ea in &node_a.entries {
                for eb in &node_b.entries {
                    if ea.mbr.intersects(&eb.mbr) {
                        join_nodes(
                            a,
                            ea.child.expect_node(),
                            b,
                            eb.child.expect_node(),
                            op,
                            stats,
                            out,
                        );
                    }
                }
            }
        }
    }
}

fn intersects_node(mbr: &Rect, node: &Node) -> bool {
    node.mbr().is_some_and(|m| m.intersects(mbr))
}

/// Juxtaposition join between two [`Picture`]s, composing each side's
/// main tree with its buffered delta (DESIGN.md §14).
///
/// Main and delta index disjoint id ranges on each side, so the pair set
/// decomposes into four terms:
///
/// ```text
/// join(L, R) = join(L.main,  R.main)     frozen when both sides are packed
///            ∪ join(L.main,  R.delta)
///            ∪ join(L.delta, R.main)
///            ∪ join(L.delta, R.delta)
/// ```
///
/// With empty deltas this is exactly the `frozen_join` fast path,
/// bit-identical pairs and counters included. A never-packed side has
/// no delta: its main tree is the Guttman tree over all its objects.
pub fn picture_join(
    lp: &Picture,
    rp: &Picture,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    let mut out = match (lp.frozen(), rp.frozen()) {
        (Some(lf), Some(rf)) => frozen_join(lf, rf, op, stats),
        _ => rtree_join(lp.tree(), rp.tree(), op, stats),
    };
    if let Some(rd) = rp.delta_tree() {
        out.extend(rtree_join(lp.tree(), rd, op, stats));
    }
    if let Some(ld) = lp.delta_tree() {
        out.extend(rtree_join(ld, rp.tree(), op, stats));
        if let Some(rd) = rp.delta_tree() {
            out.extend(rtree_join(ld, rd, op, stats));
        }
    }
    out
}

/// [`rtree_join`] over two frozen trees: the identical simultaneous
/// descent (same recursion structure, same counter increments, same
/// emission order) over the SoA arenas, so pair sequences and
/// [`JoinStats`] match the pointer-tree join bit for bit.
pub fn frozen_join(
    a: &FrozenRTree,
    b: &FrozenRTree,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    let mut out = Vec::new();
    if a.is_empty() || b.is_empty() {
        return out;
    }
    if op == SpatialOp::Disjoined {
        // No pruning possible: enumerate and filter.
        for &(ra, ia) in &a.items() {
            for &(rb, ib) in &b.items() {
                stats.node_pairs_visited += 1;
                if !ra.intersects(&rb) {
                    stats.candidates += 1;
                    out.push((ia, ib));
                }
            }
        }
        return out;
    }
    frozen_join_nodes(a, a.root_index(), b, b.root_index(), op, stats, &mut out);
    out
}

fn frozen_join_nodes(
    a: &FrozenRTree,
    na: u32,
    b: &FrozenRTree,
    nb: u32,
    op: SpatialOp,
    stats: &mut JoinStats,
    out: &mut Vec<(ItemId, ItemId)>,
) {
    stats.node_pairs_visited += 1;
    // Each arm tests one node's lanes against a single rectangle — the
    // shape `FrozenRTree::lane_intersect_mask` vectorizes. Consuming the
    // mask lowest-lane-first reproduces the scalar `0..entry_count` loop
    // exactly (NaN padding lanes never set a bit), so emission order and
    // counters stay bit-identical; fanouts past 64 lanes keep the scalar
    // loop.
    match (a.is_leaf_index(na), b.is_leaf_index(nb)) {
        (true, true) => {
            for la in 0..a.entry_count(na) {
                let ra = a.entry_mbr(na, la);
                if b.fanout() <= 64 {
                    let mut mask = b.lane_intersect_mask(nb, &ra);
                    while mask != 0 {
                        let lb = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let rb = b.entry_mbr(nb, lb);
                        if op.mbr_filter(&ra, &rb) {
                            stats.candidates += 1;
                            out.push((a.entry_child_item(na, la), b.entry_child_item(nb, lb)));
                        }
                    }
                } else {
                    for lb in 0..b.entry_count(nb) {
                        let rb = b.entry_mbr(nb, lb);
                        if ra.intersects(&rb) && op.mbr_filter(&ra, &rb) {
                            stats.candidates += 1;
                            out.push((a.entry_child_item(na, la), b.entry_child_item(nb, lb)));
                        }
                    }
                }
            }
        }
        (false, true) => {
            // Descend the deeper (left) side.
            let mb = b.node_mbr(nb);
            if let (Some(m), true) = (mb, a.fanout() <= 64) {
                let mut mask = a.lane_intersect_mask(na, &m);
                while mask != 0 {
                    let la = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    frozen_join_nodes(a, a.entry_child_node(na, la), b, nb, op, stats, out);
                }
            } else {
                for la in 0..a.entry_count(na) {
                    if mb.is_some_and(|m| m.intersects(&a.entry_mbr(na, la))) {
                        frozen_join_nodes(a, a.entry_child_node(na, la), b, nb, op, stats, out);
                    }
                }
            }
        }
        (true, false) => {
            let ma = a.node_mbr(na);
            if let (Some(m), true) = (ma, b.fanout() <= 64) {
                let mut mask = b.lane_intersect_mask(nb, &m);
                while mask != 0 {
                    let lb = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    frozen_join_nodes(a, na, b, b.entry_child_node(nb, lb), op, stats, out);
                }
            } else {
                for lb in 0..b.entry_count(nb) {
                    if ma.is_some_and(|m| m.intersects(&b.entry_mbr(nb, lb))) {
                        frozen_join_nodes(a, na, b, b.entry_child_node(nb, lb), op, stats, out);
                    }
                }
            }
        }
        (false, false) => {
            for la in 0..a.entry_count(na) {
                let ra = a.entry_mbr(na, la);
                if b.fanout() <= 64 {
                    let mut mask = b.lane_intersect_mask(nb, &ra);
                    while mask != 0 {
                        let lb = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        frozen_join_nodes(
                            a,
                            a.entry_child_node(na, la),
                            b,
                            b.entry_child_node(nb, lb),
                            op,
                            stats,
                            out,
                        );
                    }
                } else {
                    for lb in 0..b.entry_count(nb) {
                        if ra.intersects(&b.entry_mbr(nb, lb)) {
                            frozen_join_nodes(
                                a,
                                a.entry_child_node(na, la),
                                b,
                                b.entry_child_node(nb, lb),
                                op,
                                stats,
                                out,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The baseline: compare every item pair directly.
pub fn nested_loop_join(
    a: &RTree,
    b: &RTree,
    op: SpatialOp,
    stats: &mut JoinStats,
) -> Vec<(ItemId, ItemId)> {
    let mut out = Vec::new();
    for &(ra, ia) in &a.items() {
        for &(rb, ib) in &b.items() {
            stats.node_pairs_visited += 1;
            let keep = if op == SpatialOp::Disjoined {
                !ra.intersects(&rb)
            } else {
                ra.intersects(&rb) && op.mbr_filter(&ra, &rb)
            };
            if keep {
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
    use rtree_index::RTreeConfig;

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

    #[test]
    fn frozen_join_is_bit_identical() {
        use rtree_index::FrozenRTree;
        let a = tree_of_points(&grid_points(80));
        let b = tree_of_rects(&tiles());
        let fa = FrozenRTree::freeze(&a);
        let fb = FrozenRTree::freeze(&b);
        for op in [
            SpatialOp::CoveredBy,
            SpatialOp::Overlapping,
            SpatialOp::Covering,
            SpatialOp::Disjoined,
        ] {
            let mut sp = JoinStats::default();
            let mut sf = JoinStats::default();
            let pointer = rtree_join(&a, &b, op, &mut sp);
            let frozen = frozen_join(&fa, &fb, op, &mut sf);
            // Exact emission order, not just the same set.
            assert_eq!(frozen, pointer, "{op}");
            assert_eq!(sf, sp, "{op} counters");
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
            (&[][..], &[][..]),           // no deltas: frozen fast path
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
            frozen_join(
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
