//! Grouping strategies: how one level's entries are partitioned into
//! nodes.
//!
//! Every packing algorithm in this crate is "sort/select groups of `M`,
//! recurse on the MBRs"; they differ only in this partition step. The
//! [`group`] function dispatches on [`PackStrategy`]
//! (re-exported from the [`mod@crate::pack`] module).

use crate::nn::{NaiveNeighbors, NeighborSet, SweepNeighbors};
use rtree_geom::{Point, Rect};
use std::cmp::Ordering;

/// The available packing strategies (see crate docs for provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackStrategy {
    /// The paper's PACK (§3.3): ascending-x order, groups filled by
    /// repeated nearest-neighbour selection (a sweep along each slab's
    /// longer extent).
    #[default]
    NearestNeighbor,
    /// PACK with the pseudocode's literal O(n²) nearest-neighbour scan;
    /// identical output to [`PackStrategy::NearestNeighbor`] (both break
    /// distance ties towards the lowest slab position).
    NearestNeighborNaive,
    /// Plain ascending-x runs of `M` — the paper's sort criterion without
    /// the NN refinement; poor on the y axis, used as an ablation.
    XSort,
    /// Sort-Tile-Recursive (Leutenegger, Lopez & Edgington 1997).
    SortTileRecursive,
    /// Hilbert-curve order (Kamel & Faloutsos 1993).
    Hilbert,
}

impl PackStrategy {
    /// All strategies, for sweeps and ablations.
    pub const ALL: [PackStrategy; 5] = [
        PackStrategy::NearestNeighbor,
        PackStrategy::NearestNeighborNaive,
        PackStrategy::XSort,
        PackStrategy::SortTileRecursive,
        PackStrategy::Hilbert,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PackStrategy::NearestNeighbor => "pack-nn",
            PackStrategy::NearestNeighborNaive => "pack-nn-naive",
            PackStrategy::XSort => "pack-xsort",
            PackStrategy::SortTileRecursive => "pack-str",
            PackStrategy::Hilbert => "pack-hilbert",
        }
    }
}

/// Target number of groups per slab: slabs hold `SLAB_GROUPS × m`
/// entries (rounded to the strategy's alignment unit), so small inputs
/// fit in a single slab and large levels decompose into many independent
/// grouping problems.
pub const SLAB_GROUPS: usize = 512;

/// A deterministic partition of one level's sorted entries into
/// independent, contiguous *slabs*.
///
/// The boundaries are a pure function of `(strategy, n, m)`, so a packer
/// that sees the level one slab at a time — the external packer streams
/// it off a merge — cuts it exactly where the in-memory packer does.
/// Every slab except possibly the last holds a multiple of `m` entries,
/// so a slab of `e` entries always produces exactly `⌈e/m⌉` groups, all
/// full except possibly the final group of the final slab, and the
/// level's group count is known before any grouping runs.
#[derive(Debug, Clone, Copy)]
pub struct SlabPlan {
    n: usize,
    m: usize,
    slab_len: usize,
    /// STR's own x-slab capacity `s·m` (0 for the other strategies);
    /// `slab_len` is a multiple of it, so slab-local tiling equals
    /// global tiling.
    str_capacity: usize,
}

impl SlabPlan {
    /// Plans the slab decomposition for `n` entries grouped by `m` under
    /// `strategy`. `n` must be non-zero.
    pub fn new(strategy: PackStrategy, n: usize, m: usize) -> SlabPlan {
        assert!(m >= 1, "branching factor must be at least 1");
        assert!(n >= 1, "cannot plan zero entries");
        let (unit, str_capacity) = match strategy {
            PackStrategy::SortTileRecursive => {
                // S = ⌈√⌈n/m⌉⌉ vertical slabs of s·m entries each
                // (Leutenegger et al.), computed from the *global* n.
                let s = (n.div_ceil(m) as f64).sqrt().ceil() as usize;
                (s.max(1) * m, s.max(1) * m)
            }
            _ => (m, 0),
        };
        let target = SLAB_GROUPS.saturating_mul(m);
        let slab_len = (target / unit).max(1).saturating_mul(unit);
        SlabPlan {
            n,
            m,
            slab_len,
            str_capacity,
        }
    }

    /// Number of entries a full slab holds (always a multiple of `m`).
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    /// The grouping arity `m` this plan was built for.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of slabs.
    #[inline]
    pub fn slab_count(&self) -> usize {
        self.n.div_ceil(self.slab_len)
    }

    /// Entry range (into the level's sort order) of slab `k`.
    #[inline]
    pub fn slab_range(&self, k: usize) -> std::ops::Range<usize> {
        let lo = k * self.slab_len;
        lo..((lo + self.slab_len).min(self.n))
    }

    /// Total groups across all slabs: `⌈n/m⌉`.
    #[inline]
    pub fn total_groups(&self) -> usize {
        self.n.div_ceil(self.m)
    }

    /// STR's x-slab capacity (`s·m`), 0 for non-STR plans.
    #[inline]
    pub fn str_capacity(&self) -> usize {
        self.str_capacity
    }
}

/// Partitions `rects` into groups of at most `m` indices each, according
/// to `strategy`. Groups are returned in construction order; every index
/// appears in exactly one group; all groups except possibly the last are
/// full.
///
/// Grouping is slab-local under the [`SlabPlan`]: the level's sort order
/// is cut at deterministic boundaries and each slab is grouped
/// independently, exactly as [`crate::pack_with`] builds a level.
pub fn group(strategy: PackStrategy, rects: &[Rect], m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1);
    if rects.is_empty() {
        return Vec::new();
    }
    let ord = order(strategy, rects);
    let plan = SlabPlan::new(strategy, rects.len(), m);
    let mut groups = Vec::with_capacity(plan.total_groups());
    for k in 0..plan.slab_count() {
        let order = slab_order(strategy, rects, &ord[plan.slab_range(k)], &plan);
        groups.extend(order.chunks(m).map(<[usize]>::to_vec));
    }
    groups
}

/// The level's global sort order under `strategy`: ascending center x
/// (ties by y then index) for the paper-family strategies — "Order
/// objects of DLIST by some spatial criterion, e.g. ascending
/// x-coordinate" (§3.3) — or Hilbert-curve order of the centers.
///
/// The sort keys are extracted once — `(center.x, center.y, index)` or
/// `(hilbert key, index)` — and sorted as values; no two are equal, so
/// the permutation does not depend on the sort algorithm.
pub fn order(strategy: PackStrategy, rects: &[Rect]) -> Vec<usize> {
    match strategy {
        PackStrategy::Hilbert => {
            let bounds = Rect::mbr_of_rects(rects.iter().copied()).expect("non-empty");
            let mut keys: Vec<(u64, usize)> = rects
                .iter()
                .enumerate()
                .map(|(i, r)| (crate::hilbert::rect_index(r, &bounds), i))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|(_, i)| i).collect()
        }
        _ => {
            let mut keys: Vec<CenterKey> = rects
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let c = r.center();
                    (c.x, c.y, i)
                })
                .collect();
            keys.sort_unstable_by(key_cmp);
            keys.into_iter().map(|k| k.2).collect()
        }
    }
}

/// A center's sort key: `(primary, secondary, index)`.
type CenterKey = (f64, f64, usize);

/// Orders [`CenterKey`]s: a total order with no equal elements, so every
/// sort of the same keys yields the same permutation.
#[inline]
fn key_cmp(a: &CenterKey, b: &CenterKey) -> Ordering {
    a.0.total_cmp(&b.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.cmp(&b.2))
}

/// Groups one slab of the level's sort order (global indices into
/// `rects`, already ordered by [`order`]) and returns the groups laid
/// end to end: group `g` is the `g`-th of the result's
/// `chunks(plan.m())`, since every group but the slab's last is full —
/// `⌈ord.len()/m⌉` groups in all.
pub fn slab_order(
    strategy: PackStrategy,
    rects: &[Rect],
    ord: &[usize],
    plan: &SlabPlan,
) -> Vec<usize> {
    let m = plan.m();
    match strategy {
        PackStrategy::NearestNeighbor => {
            nearest_neighbor_order(ord, m, SweepNeighbors::new(&centers(rects, ord)))
        }
        PackStrategy::NearestNeighborNaive => {
            nearest_neighbor_order(ord, m, NaiveNeighbors::new(centers(rects, ord)))
        }
        PackStrategy::XSort | PackStrategy::Hilbert => ord.to_vec(),
        PackStrategy::SortTileRecursive => {
            // slab_len is a multiple of str_capacity, and str_capacity of
            // m, so slab-local tiling cuts at the same boundaries as
            // global tiling and every x-slab ends on a group boundary.
            let mut out = Vec::with_capacity(ord.len());
            for x_slab in ord.chunks(plan.str_capacity().max(1)) {
                let mut keys: Vec<CenterKey> = x_slab
                    .iter()
                    .map(|&i| {
                        let c = rects[i].center();
                        (c.y, c.x, i)
                    })
                    .collect();
                keys.sort_unstable_by(key_cmp);
                out.extend(keys.iter().map(|k| k.2));
            }
            out
        }
    }
}

/// The centers of `ord`'s rects, in slab order.
fn centers(rects: &[Rect], ord: &[usize]) -> Vec<Point> {
    ord.iter().map(|&i| rects[i].center()).collect()
}

/// The paper's grouping loop over one slab: take the first remaining
/// object `I1` (in slab order, i.e. ascending x), then `NN(DLIST, I1)`
/// until the node is full.
///
/// `set` indexes the slab locally (0..ord.len() in slab order); the
/// groups, laid end to end, carry the global indices from `ord`.
fn nearest_neighbor_order<S: NeighborSet>(ord: &[usize], m: usize, mut set: S) -> Vec<usize> {
    let mut out = Vec::with_capacity(ord.len());
    for i1 in 0..ord.len() {
        if !set.remove(i1) {
            continue; // already consumed as someone's neighbour
        }
        out.push(ord[i1]);
        // I2 = NN(DLIST, I1); I3 = NN(DLIST, I1); … — all relative to I1.
        for _ in 1..m {
            match set.take_nearest(i1) {
                Some(j) => out.push(ord[j]),
                None => break,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(points: &[(f64, f64)]) -> Vec<Rect> {
        points
            .iter()
            .map(|&(x, y)| Rect::from_point(Point::new(x, y)))
            .collect()
    }

    fn check_partition(groups: &[Vec<usize>], n: usize, m: usize) {
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "not a partition");
        for g in groups {
            assert!(!g.is_empty() && g.len() <= m);
        }
    }

    fn scatter(n: usize) -> Vec<Rect> {
        let mut s = 12345u64;
        pts(&(0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 1000) as f64;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 1000) as f64;
                (x, y)
            })
            .collect::<Vec<_>>())
    }

    #[test]
    fn all_strategies_partition_correctly() {
        let rects = scatter(103);
        for strategy in PackStrategy::ALL {
            let groups = group(strategy, &rects, 4);
            check_partition(&groups, 103, 4);
            assert_eq!(
                groups.len(),
                103usize.div_ceil(4),
                "{strategy:?} group count"
            );
        }
    }

    #[test]
    fn empty_input_gives_no_groups() {
        for strategy in PackStrategy::ALL {
            assert!(group(strategy, &[], 4).is_empty());
        }
    }

    #[test]
    fn fewer_items_than_m_gives_one_group() {
        let rects = scatter(3);
        for strategy in PackStrategy::ALL {
            let groups = group(strategy, &rects, 4);
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[0].len(), 3);
        }
    }

    #[test]
    fn nn_grouping_matches_paper_example_shape() {
        // Figure 3.4a's eight points: two tight clusters of four; the NN
        // grouping must recover exactly the two clusters (Figure 3.4b).
        let rects = pts(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (10.0, 10.0),
            (11.0, 10.0),
            (10.0, 11.0),
            (11.0, 11.0),
        ]);
        for strategy in [
            PackStrategy::NearestNeighbor,
            PackStrategy::NearestNeighborNaive,
        ] {
            let mut groups = group(strategy, &rects, 4);
            for g in &mut groups {
                g.sort_unstable();
            }
            groups.sort();
            assert_eq!(
                groups,
                vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn sweep_and_naive_nn_group_identically() {
        // Tie-free scatter and a lattice full of distance ties: both NN
        // providers break ties to the lowest slab position, so the groups
        // are identical either way.
        let lattice: Vec<(f64, f64)> = (0..300)
            .map(|i| ((i % 17) as f64, (i / 17) as f64))
            .collect();
        for rects in [scatter(64), pts(&lattice)] {
            let a = group(PackStrategy::NearestNeighbor, &rects, 4);
            let b = group(PackStrategy::NearestNeighborNaive, &rects, 4);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rect_items_use_centers() {
        // NN distance is center to center. Rect 1 reaches to within 0.5 of
        // rect 0 (its lower-left corner is 1.5 away) but its center is 11
        // away; rect 2's center is 5 away. By centers, 0 pairs with 2.
        let rects = vec![
            Rect::new(-0.5, -0.5, 0.5, 0.5), // center (0,0)
            Rect::new(1.0, -0.5, 21.0, 0.5), // center (11,0)
            Rect::new(4.5, -0.5, 5.5, 0.5),  // center (5,0)
        ];
        for strategy in [
            PackStrategy::NearestNeighbor,
            PackStrategy::NearestNeighborNaive,
        ] {
            assert_eq!(
                group(strategy, &rects, 2),
                vec![vec![0, 2], vec![1]],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn xsort_respects_x_order() {
        let rects = pts(&[(5.0, 0.0), (1.0, 9.0), (3.0, 2.0), (9.0, 1.0), (2.0, 8.0)]);
        let groups = group(PackStrategy::XSort, &rects, 2);
        // x-order: 1 (x=1), 4 (x=2), 2 (x=3), 0 (x=5), 3 (x=9)
        assert_eq!(groups, vec![vec![1, 4], vec![2, 0], vec![3]]);
    }

    #[test]
    fn str_tiles_grid_perfectly() {
        // A 4x4 grid with m=4 should tile into 4 disjoint groups.
        let mut g = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                g.push((i as f64, j as f64));
            }
        }
        let rects = pts(&g);
        let groups = group(PackStrategy::SortTileRecursive, &rects, 4);
        assert_eq!(groups.len(), 4);
        // Group MBRs must be pairwise disjoint (perfect tiling).
        let mbrs: Vec<Rect> = groups
            .iter()
            .map(|grp| Rect::mbr_of_rects(grp.iter().map(|&i| rects[i])).unwrap())
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(mbrs[i].intersection_area(&mbrs[j]), 0.0);
            }
        }
    }

    #[test]
    fn large_branching_factor() {
        let rects = scatter(1000);
        for strategy in PackStrategy::ALL {
            let groups = group(strategy, &rects, 50);
            check_partition(&groups, 1000, 50);
            assert_eq!(groups.len(), 20);
        }
    }
}
