//! Nearest-neighbour providers for PACK's `NN(DLIST, I)` function.
//!
//! The paper specifies: "`NN(DLIST, I)` returns the item in the list DLIST
//! which is spatially closest to item `I` and has the additional effect of
//! deleting that item from DLIST." Distances are between MBR centers
//! (exact point distance when the items are points). Both providers break
//! a distance tie towards the lowest index — the literal scan's
//! first-found rule — so they return the same item on every input.
//!
//! Two implementations:
//! * [`NaiveNeighbors`] — the literal O(n) scan per query, kept as the
//!   fidelity reference (`pack_naive`);
//! * [`SweepNeighbors`] — the centers as a doubly linked list sorted
//!   along the set's longer extent; a query walks outward from the
//!   anchor and stops once the gap along that axis alone exceeds the best
//!   distance found, making `pack` usable at realistic sizes.

use rtree_geom::{Point, Rect};

/// A removable set of items answering nearest queries against one of its
/// own (already removed) items — the shape of PACK's grouping loop.
pub trait NeighborSet {
    /// Removes item `index`. Returns `false` if it was already gone.
    fn remove(&mut self, index: usize) -> bool;
    /// Removes and returns the remaining item whose center is closest to
    /// removed item `anchor`'s (ties to the lowest index), or `None` if
    /// none remains.
    fn take_nearest(&mut self, anchor: usize) -> Option<usize>;
}

/// O(n)-per-query scan over MBR centers.
pub struct NaiveNeighbors {
    centers: Vec<Point>,
    alive: Vec<bool>,
}

impl NaiveNeighbors {
    /// Builds from the items' MBR centers.
    pub fn new(centers: Vec<Point>) -> Self {
        let alive = vec![true; centers.len()];
        NaiveNeighbors { centers, alive }
    }
}

impl NeighborSet for NaiveNeighbors {
    fn remove(&mut self, index: usize) -> bool {
        std::mem::replace(&mut self.alive[index], false)
    }

    fn take_nearest(&mut self, anchor: usize) -> Option<usize> {
        let query = self.centers[anchor];
        let mut best: Option<(f64, usize)> = None;
        for (i, (&c, &alive)) in self.centers.iter().zip(&self.alive).enumerate() {
            if !alive {
                continue;
            }
            let d = c.distance_sq(query);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        let (_, idx) = best?;
        self.remove(idx);
        Some(idx)
    }
}

/// End of the sweep list.
const NIL: u32 = u32::MAX;

/// One center in sweep order: its coordinate along the sweep axis and
/// across it, its index, and its list links.
#[derive(Clone, Copy)]
struct Slot {
    along: f64,
    across: f64,
    index: u32,
    prev: u32,
    next: u32,
    alive: bool,
}

/// Nearest-neighbour sweep over MBR centers.
///
/// The centers sit in a doubly linked list sorted along the set's longer
/// extent (ties by index). A query walks the list outward from the
/// anchor's slot in both directions and stops each walk once the squared
/// gap along the axis exceeds the best distance so far. At a gap equal to
/// it, an item further along could still tie, and a tie goes to the lower
/// index, so the walk stops there only if no item from there to that
/// end of the list has a lower index than the best — which is what makes
/// a run of identical centers cost O(1) per query instead of a scan. A
/// taken item is unlinked in O(1); the anchor keeps the links it had when
/// it was removed, and every item between it and the live item they
/// reach has been removed since, so a walk skips those and shortens the
/// link.
///
/// Sweeping the *longer* extent is what keeps the walks short: a PACK
/// slab is a strip of the level's x order, so on spread-out data it is
/// tall and narrow and the sweep runs along y, and on data lying along
/// one horizontal line it runs along x.
pub struct SweepNeighbors {
    slots: Vec<Slot>,
    slot_of: Vec<u32>,
    /// Lowest index at or after each slot, and at or before it (removed
    /// items included, so a bound on the live ones).
    lowest_after: Vec<u32>,
    lowest_before: Vec<u32>,
}

impl SweepNeighbors {
    /// Builds from the items' MBR centers.
    pub fn new(centers: &[Point]) -> Self {
        assert!(centers.len() < NIL as usize, "too many items for one sweep");
        let along_y =
            Rect::mbr_of_points(centers.iter().copied()).is_some_and(|b| b.height() > b.width());
        let along = |c: &Point| if along_y { c.y } else { c.x };
        let mut order: Vec<(f64, u32)> = centers
            .iter()
            .enumerate()
            .map(|(i, c)| (along(c), i as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut slot_of = vec![0; centers.len()];
        let slots = order
            .iter()
            .enumerate()
            .map(|(s, &(along, index))| {
                slot_of[index as usize] = s as u32;
                let c = centers[index as usize];
                Slot {
                    along,
                    across: if along_y { c.x } else { c.y },
                    index,
                    prev: if s == 0 { NIL } else { s as u32 - 1 },
                    next: if s + 1 == order.len() {
                        NIL
                    } else {
                        s as u32 + 1
                    },
                    alive: true,
                }
            })
            .collect();
        let running_min = |low: &mut u32, &(_, index): &(f64, u32)| {
            *low = (*low).min(index);
            Some(*low)
        };
        let mut lowest_after: Vec<u32> = order.iter().rev().scan(u32::MAX, running_min).collect();
        lowest_after.reverse();
        SweepNeighbors {
            slots,
            slot_of,
            lowest_after,
            lowest_before: order.iter().scan(u32::MAX, running_min).collect(),
        }
    }

    fn unlink(&mut self, s: usize) {
        let Slot { prev, next, .. } = self.slots[s];
        self.slots[s].alive = false;
        if prev != NIL {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// The first live slot after (`forward`) or before removed slot `s`,
    /// stored back into `s`'s link so the next walk starts there.
    fn live_neighbour(&mut self, s: usize, forward: bool) -> u32 {
        let step = |slot: &Slot| if forward { slot.next } else { slot.prev };
        let mut j = step(&self.slots[s]);
        while j != NIL && !self.slots[j as usize].alive {
            j = step(&self.slots[j as usize]);
        }
        if forward {
            self.slots[s].next = j;
        } else {
            self.slots[s].prev = j;
        }
        j
    }
}

impl NeighborSet for SweepNeighbors {
    fn remove(&mut self, index: usize) -> bool {
        let s = self.slot_of[index] as usize;
        let alive = self.slots[s].alive;
        if alive {
            self.unlink(s);
        }
        alive
    }

    fn take_nearest(&mut self, anchor: usize) -> Option<usize> {
        let a = self.slot_of[anchor] as usize;
        debug_assert!(!self.slots[a].alive, "the anchor must be removed first");
        let query = self.slots[a];
        let (mut best_d, mut best_index, mut best_slot) = (f64::INFINITY, u32::MAX, NIL);
        for forward in [true, false] {
            let mut j = self.live_neighbour(a, forward);
            let lowest = if forward {
                &self.lowest_after
            } else {
                &self.lowest_before
            };
            while j != NIL {
                let slot = &self.slots[j as usize];
                let gap = slot.along - query.along;
                let gap_sq = gap * gap;
                if gap_sq > best_d || (gap_sq == best_d && lowest[j as usize] > best_index) {
                    break;
                }
                // The same sum `Point::distance_sq` forms, in either axis
                // order: the naive scan sees bit-identical distances.
                let off = slot.across - query.across;
                let d = gap_sq + off * off;
                if d < best_d || (d == best_d && slot.index < best_index) {
                    (best_d, best_index, best_slot) = (d, slot.index, j);
                }
                j = if forward { slot.next } else { slot.prev };
            }
        }
        if best_slot == NIL {
            return None;
        }
        self.unlink(best_slot as usize);
        Some(best_index as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(points: &[(f64, f64)]) -> Vec<Point> {
        points.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 100_000) as f64 / 100.0;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 100_000) as f64 / 100.0;
                (x, y)
            })
            .collect()
    }

    /// Drains both providers with PACK's own loop shape (anchor = first
    /// remaining index, then `m − 1` takes) and requires the same item
    /// at every step.
    fn assert_sweep_matches_naive(centers: &[Point], m: usize) {
        let mut naive = NaiveNeighbors::new(centers.to_vec());
        let mut sweep = SweepNeighbors::new(centers);
        for anchor in 0..centers.len() {
            let removed = naive.remove(anchor);
            assert_eq!(sweep.remove(anchor), removed, "remove({anchor})");
            if !removed {
                continue;
            }
            for _ in 1..m {
                let expect = naive.take_nearest(anchor);
                assert_eq!(sweep.take_nearest(anchor), expect, "anchor {anchor}");
                if expect.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn naive_take_nearest_order() {
        let mut nn = NaiveNeighbors::new(at(&[(0.0, 0.0), (5.0, 0.0), (1.0, 0.0), (9.0, 0.0)]));
        assert!(nn.remove(0));
        assert_eq!(nn.take_nearest(0), Some(2));
        assert_eq!(nn.take_nearest(0), Some(1));
        assert_eq!(nn.take_nearest(0), Some(3));
        assert_eq!(nn.take_nearest(0), None);
        assert!(!nn.remove(0));
    }

    #[test]
    fn sweep_matches_naive_on_random_data() {
        let centers = at(&pseudo_random_points(500, 7));
        for m in [2, 4, 16] {
            assert_sweep_matches_naive(&centers, m);
        }
    }

    #[test]
    fn sweep_breaks_ties_to_the_lowest_index() {
        // Every neighbour of the anchor is at distance 1: lowest index wins.
        let mut sweep = SweepNeighbors::new(&at(&[
            (5.0, 5.0),
            (6.0, 5.0),
            (5.0, 4.0),
            (4.0, 5.0),
            (5.0, 6.0),
        ]));
        assert!(sweep.remove(0));
        assert_eq!(sweep.take_nearest(0), Some(1));
        assert_eq!(sweep.take_nearest(0), Some(2));
        assert_eq!(sweep.take_nearest(0), Some(3));
        assert_eq!(sweep.take_nearest(0), Some(4));
        assert_eq!(sweep.take_nearest(0), None);
    }

    #[test]
    fn sweep_matches_naive_on_a_lattice() {
        let lattice: Vec<(f64, f64)> = (0..400)
            .map(|i| ((i % 20) as f64, (i / 20) as f64))
            .collect();
        assert_sweep_matches_naive(&at(&lattice), 4);
        // A lattice wider than tall sweeps along x instead.
        let wide: Vec<(f64, f64)> = (0..300)
            .map(|i| ((i % 50) as f64, (i / 50) as f64))
            .collect();
        assert_sweep_matches_naive(&at(&wide), 4);
    }

    #[test]
    fn sweep_handles_identical_points() {
        let centers = at(&[(5.0, 5.0); 10]);
        assert_sweep_matches_naive(&centers, 4);
        let mut sweep = SweepNeighbors::new(&centers);
        assert!(sweep.remove(0));
        let taken: Vec<usize> = std::iter::from_fn(|| sweep.take_nearest(0)).collect();
        assert_eq!(taken, (1..10).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_handles_horizontal_and_vertical_lines() {
        let line: Vec<(f64, f64)> = pseudo_random_points(300, 3)
            .into_iter()
            .map(|(x, _)| (x, 7.0))
            .collect();
        assert_sweep_matches_naive(&at(&line), 4);
        let column: Vec<(f64, f64)> = line.iter().map(|&(x, y)| (y, x)).collect();
        assert_sweep_matches_naive(&at(&column), 4);
    }

    #[test]
    fn sweep_single_item() {
        let mut sweep = SweepNeighbors::new(&at(&[(1.0, 2.0)]));
        assert!(sweep.remove(0));
        assert!(!sweep.remove(0));
        assert_eq!(sweep.take_nearest(0), None);
    }

    #[test]
    fn sweep_anchor_far_outside_the_rest() {
        let centers = at(&[
            (-1000.0, -1000.0),
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0),
            (1000.0, 3.0),
        ]);
        let mut sweep = SweepNeighbors::new(&centers);
        assert!(sweep.remove(0));
        assert_eq!(sweep.take_nearest(0), Some(1));
        assert!(sweep.remove(4));
        assert_eq!(sweep.take_nearest(4), Some(3));
        assert_sweep_matches_naive(&centers, 3);
    }
}
