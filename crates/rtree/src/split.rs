//! Node splitting: Guttman's linear, quadratic, and exhaustive algorithms.
//!
//! A split receives the `M + 1` entries of an overflowing node and returns
//! two groups, each with at least `m` entries, chosen to keep total area
//! (and hence dead space) small. These are the "requirement (1)" splits of
//! §3.2 whose dead-space pathology (Figure 3.4c) motivates PACK.

use crate::config::{RTreeConfig, SplitPolicy};
use crate::node::Entry;
use rtree_geom::Rect;

/// Splits `entries` (length `M + 1`) into two groups per the configured
/// policy. Both groups are non-empty and respect the minimum fill.
///
/// # Panics
///
/// Panics (in debug builds) if `entries.len() ≤ M` or a policy produces
/// an illegal partition.
pub(crate) fn split_entries(config: &RTreeConfig, entries: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    debug_assert!(entries.len() > config.max_entries);
    let (a, b) = match config.split {
        SplitPolicy::Linear => linear_split(config, entries),
        SplitPolicy::Quadratic => quadratic_split(config, entries),
        SplitPolicy::Exhaustive => exhaustive_split(config, entries),
    };
    debug_assert!(a.len() >= config.min_entries && b.len() >= config.min_entries);
    debug_assert!(a.len() <= config.max_entries && b.len() <= config.max_entries);
    (a, b)
}

#[cfg(test)]
fn group_mbr(entries: &[Entry]) -> Rect {
    Rect::mbr_of_rects(entries.iter().map(|e| e.mbr)).expect("non-empty group")
}

/// Guttman's `LinearPickSeeds`: the pair with the greatest separation,
/// normalized by the spread on each dimension; remaining entries are
/// assigned in input order to the group needing the least enlargement.
fn linear_split(config: &RTreeConfig, entries: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    // Per dimension: highest low side and lowest high side, plus spread.
    let (mut best_norm_sep, mut seed_a, mut seed_b) = (f64::NEG_INFINITY, 0, 1);
    for dim in 0..2 {
        let low = |r: &Rect| if dim == 0 { r.min_x } else { r.min_y };
        let high = |r: &Rect| if dim == 0 { r.max_x } else { r.max_y };
        let mut highest_low = (0usize, f64::NEG_INFINITY);
        let mut lowest_high = (0usize, f64::INFINITY);
        let mut min_low = f64::INFINITY;
        let mut max_high = f64::NEG_INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let r = e.mbr;
            let (l, h) = (low(&r), high(&r));
            if l > highest_low.1 {
                highest_low = (i, l);
            }
            if h < lowest_high.1 {
                lowest_high = (i, h);
            }
            min_low = min_low.min(l);
            max_high = max_high.max(h);
        }
        let spread = (max_high - min_low).max(f64::MIN_POSITIVE);
        let sep = (highest_low.1 - lowest_high.1) / spread;
        if sep > best_norm_sep && highest_low.0 != lowest_high.0 {
            best_norm_sep = sep;
            seed_a = lowest_high.0;
            seed_b = highest_low.0;
        }
    }
    if seed_a == seed_b {
        // All entries identical on both dimensions; any pair will do.
        seed_b = (seed_a + 1) % n;
    }
    distribute_by_enlargement(config, entries, seed_a, seed_b)
}

/// Guttman's quadratic `PickSeeds` + `PickNext`.
fn quadratic_split(config: &RTreeConfig, entries: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    // PickSeeds: the pair that wastes the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let (ri, rj) = (entries[i].mbr, entries[j].mbr);
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut mbr_a = entries[seed_a].mbr;
    let mut mbr_b = entries[seed_b].mbr;
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    let mut rest: Vec<Entry> = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if i == seed_a {
            group_a.push(e);
        } else if i == seed_b {
            group_b.push(e);
        } else {
            rest.push(e);
        }
    }

    while !rest.is_empty() {
        // If one group must absorb everything to reach minimum fill, do it.
        if group_a.len() + rest.len() == config.min_entries {
            group_a.append(&mut rest);
            break;
        }
        if group_b.len() + rest.len() == config.min_entries {
            group_b.append(&mut rest);
            break;
        }
        // PickNext: the entry with the greatest preference difference.
        let (mut best_idx, mut best_diff) = (0, f64::NEG_INFINITY);
        for (i, e) in rest.iter().enumerate() {
            let r = e.mbr;
            let d1 = mbr_a.enlargement(&r);
            let d2 = mbr_b.enlargement(&r);
            let diff = (d1 - d2).abs();
            if diff > best_diff {
                best_diff = diff;
                best_idx = i;
            }
        }
        let e = rest.swap_remove(best_idx);
        let r = e.mbr;
        let d1 = mbr_a.enlargement(&r);
        let d2 = mbr_b.enlargement(&r);
        // Resolve by enlargement, then area, then count.
        let to_a = if group_a.len() >= config.max_entries {
            false
        } else if group_b.len() >= config.max_entries || d1 < d2 {
            true
        } else if d2 < d1 {
            false
        } else if mbr_a.area() != mbr_b.area() {
            mbr_a.area() < mbr_b.area()
        } else {
            group_a.len() <= group_b.len()
        };
        if to_a {
            mbr_a = mbr_a.union(&r);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.union(&r);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

/// Distributes non-seed entries (in input order) to the group whose MBR
/// needs the least enlargement — the cheap assignment Guttman pairs with
/// linear seed picking.
fn distribute_by_enlargement(
    config: &RTreeConfig,
    entries: Vec<Entry>,
    seed_a: usize,
    seed_b: usize,
) -> (Vec<Entry>, Vec<Entry>) {
    let mut mbr_a = entries[seed_a].mbr;
    let mut mbr_b = entries[seed_b].mbr;
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    let mut rest: Vec<Entry> = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if i == seed_a {
            group_a.push(e);
        } else if i == seed_b {
            group_b.push(e);
        } else {
            rest.push(e);
        }
    }
    let total = rest.len() + 2;
    for (k, e) in rest.into_iter().enumerate() {
        let r = e.mbr;
        let remaining = total - 2 - k - 1;
        if group_a.len() + remaining + 1 == config.min_entries {
            mbr_a = mbr_a.union(&r);
            group_a.push(e);
            continue;
        }
        if group_b.len() + remaining + 1 == config.min_entries {
            mbr_b = mbr_b.union(&r);
            group_b.push(e);
            continue;
        }
        let to_a = if group_a.len() >= config.max_entries {
            false
        } else if group_b.len() >= config.max_entries {
            true
        } else {
            mbr_a.enlargement(&r) <= mbr_b.enlargement(&r)
        };
        if to_a {
            mbr_a = mbr_a.union(&r);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.union(&r);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

/// Exhaustive split: enumerate all 2-partitions (via bitmask) honouring
/// minimum fill, keep the one minimizing total MBR area, breaking ties by
/// overlap between the halves.
fn exhaustive_split(config: &RTreeConfig, entries: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    assert!(n <= 16, "exhaustive split limited to 16 entries");
    let mut best: Option<(f64, f64, u32)> = None;
    // Fix entry 0 in group A to halve the search space.
    for mask in 0u32..(1 << (n - 1)) {
        let mask = mask << 1; // entry 0 always in A (bit 0 = 0)
        let count_b = mask.count_ones() as usize;
        let count_a = n - count_b;
        if count_a < config.min_entries
            || count_b < config.min_entries
            || count_a > config.max_entries
            || count_b > config.max_entries
        {
            continue;
        }
        let mut mbr_a: Option<Rect> = None;
        let mut mbr_b: Option<Rect> = None;
        for (i, e) in entries.iter().enumerate() {
            let er = e.mbr;
            let target = if mask & (1 << i) == 0 {
                &mut mbr_a
            } else {
                &mut mbr_b
            };
            *target = Some(match target {
                Some(r) => r.union(&er),
                None => er,
            });
        }
        let (ra, rb) = (mbr_a.unwrap(), mbr_b.unwrap());
        let score = ra.area() + rb.area();
        let tie = ra.intersection_area(&rb);
        if best.is_none_or(|(s, t, _)| score < s || (score == s && tie < t)) {
            best = Some((score, tie, mask));
        }
    }
    let (_, _, mask) = best.expect("some legal partition exists");
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if mask & (1 << i) == 0 {
            group_a.push(e);
        } else {
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ItemId;
    use rtree_geom::Point;

    fn entries_at(points: &[(f64, f64)]) -> Vec<Entry> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Entry::item(Rect::from_point(Point::new(x, y)), ItemId(i as u64)))
            .collect()
    }

    fn check_partition(config: &RTreeConfig, before: &[Entry], a: &[Entry], b: &[Entry]) {
        assert_eq!(a.len() + b.len(), before.len());
        assert!(a.len() >= config.min_entries && b.len() >= config.min_entries);
        assert!(a.len() <= config.max_entries && b.len() <= config.max_entries);
        // Every original entry appears exactly once.
        let mut ids: Vec<u64> = a.iter().chain(b).map(|e| e.child.expect_item().0).collect();
        ids.sort_unstable();
        let mut expect: Vec<u64> = before.iter().map(|e| e.child.expect_item().0).collect();
        expect.sort_unstable();
        assert_eq!(ids, expect);
    }

    fn two_clusters() -> Vec<Entry> {
        entries_at(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (0.5, 0.5),
            (100.0, 100.0),
            (101.0, 99.0),
        ])
    }

    #[test]
    fn all_policies_produce_legal_partitions() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::Exhaustive,
        ] {
            let config = RTreeConfig::new(4, 2, policy);
            let entries = two_clusters();
            let (a, b) = split_entries(&config, entries.clone());
            check_partition(&config, &entries, &a, &b);
        }
    }

    #[test]
    fn clusters_separate_cleanly() {
        // Quadratic and exhaustive must put the far cluster in its own
        // group (linear may too, but its distribution is order-dependent).
        for policy in [SplitPolicy::Quadratic, SplitPolicy::Exhaustive] {
            let config = RTreeConfig::new(4, 2, policy);
            let (a, b) = split_entries(&config, two_clusters());
            let ra = group_mbr(&a);
            let rb = group_mbr(&b);
            assert_eq!(
                ra.intersection_area(&rb),
                0.0,
                "{policy:?} should separate distant clusters"
            );
        }
    }

    #[test]
    fn identical_entries_still_split_legally() {
        let config = RTreeConfig::new(4, 2, SplitPolicy::Linear);
        let entries = entries_at(&[(5.0, 5.0); 5]);
        let (a, b) = split_entries(&config, entries.clone());
        check_partition(&config, &entries, &a, &b);
        let config_q = RTreeConfig::new(4, 2, SplitPolicy::Quadratic);
        let (a, b) = split_entries(&config_q, entries.clone());
        check_partition(&config_q, &entries, &a, &b);
    }

    #[test]
    fn exhaustive_is_optimal_on_small_case() {
        // Unit squares at x = 0,1,2,10,11: optimal 2-partition by total
        // MBR area is {0,1,2} (area 3) + {10,11} (area 2).
        let config = RTreeConfig::new(4, 2, SplitPolicy::Exhaustive);
        let entries: Vec<Entry> = [0.0, 1.0, 2.0, 10.0, 11.0]
            .iter()
            .enumerate()
            .map(|(i, &x)| Entry::item(Rect::new(x, 0.0, x + 1.0, 1.0), ItemId(i as u64)))
            .collect();
        let (a, b) = split_entries(&config, entries.clone());
        check_partition(&config, &entries, &a, &b);
        let total_area = group_mbr(&a).area() + group_mbr(&b).area();
        assert_eq!(total_area, 5.0);
    }

    #[test]
    fn min_fill_is_forced() {
        // Adversarial: one far outlier; with m=2 the outlier group must
        // still end up with 2 entries.
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::Exhaustive,
        ] {
            let config = RTreeConfig::new(4, 2, policy);
            let entries =
                entries_at(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0), (0.3, 0.1), (99.0, 99.0)]);
            let (a, b) = split_entries(&config, entries.clone());
            check_partition(&config, &entries, &a, &b);
        }
    }

    #[test]
    fn larger_branching_factor_split() {
        let config = RTreeConfig::new(10, 4, SplitPolicy::Quadratic);
        let entries = entries_at(
            &(0..11)
                .map(|i| (i as f64 * 3.0, (i % 3) as f64))
                .collect::<Vec<_>>(),
        );
        let (a, b) = split_entries(&config, entries.clone());
        check_partition(&config, &entries, &a, &b);
    }
}
