//! Multi-threaded PACK: the bulk-loading pipeline run level-parallel.
//!
//! The sequential packers ([`crate::pack`]) and this module share one
//! engine. Each level is built in three steps:
//!
//! 1. **Order** — the level's entries are sorted by the strategy's
//!    spatial criterion (chunk-sorted across threads and merged; the
//!    comparators are total orders with an index tie-break, so the
//!    permutation is independent of the chunking).
//! 2. **Plan** — the sorted sequence is cut into slabs at boundaries
//!    that are a pure function of `(strategy, n, m)`
//!    ([`SlabPlan`](crate::grouping::SlabPlan)). Every slab holds a
//!    multiple of `m` entries (except the last), so its group count —
//!    and therefore the arena id of every node it will produce — is
//!    known before any grouping runs.
//! 3. **Materialize** — one contiguous arena range is reserved for the
//!    level ([`BottomUpBuilder::reserve`]); the per-slab sub-slices are
//!    split off (`split_at_mut`) and handed to scoped worker threads,
//!    each of which groups its slabs and writes the finished nodes and
//!    `(NodeId, Rect)` handles in place.
//!
//! Because slab boundaries, group counts and arena ids never depend on
//! the thread count, `pack_parallel(items, config, t)` is **bit-identical
//! to `pack(items, config)` for every `t`** — the determinism suite in
//! `tests/parallel_determinism.rs` asserts structural equality across
//! thread counts and strategies.

use crate::grouping::{self, PackStrategy, SlabPlan};
use rtree_geom::Rect;
use rtree_index::builder::{BottomUpBuilder, ReservedRange};
use rtree_index::{Entry, ItemId, Node, NodeId, RTree, RTreeConfig};
use std::cmp::Ordering;

/// Inputs below this size are sorted and grouped inline even when more
/// threads are available: spawn overhead would dominate.
const PARALLEL_CUTOFF: usize = 4096;

/// Minimum items each worker must have before another thread pays for
/// itself: below this, the merge cascade and spawn overhead outweigh the
/// parallel sort/group work.
const MIN_ITEMS_PER_THREAD: usize = PARALLEL_CUTOFF;

/// The default worker count: one per available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Clamps a requested worker count to what the input size and the
/// hardware can actually use.
///
/// Two caps apply: (1) never more threads than hardware threads —
/// oversubscription only adds scheduling overhead and the extra merge
/// passes of the sort cascade (measured at ~0.74× on a 1-core host at
/// `threads = 2`); (2) never fewer than [`MIN_ITEMS_PER_THREAD`] items
/// per worker, so small inputs fall back toward sequential packing.
/// The clamp never changes the output: the pipeline is bit-identical at
/// every thread count, so dropping to fewer workers is purely a
/// scheduling decision.
pub fn effective_threads(requested: usize, n: usize) -> usize {
    let by_work = n / MIN_ITEMS_PER_THREAD;
    requested.min(default_threads()).min(by_work).max(1)
}

/// Packs `items` with the paper's algorithm (ascending-x order +
/// nearest-neighbour grouping) across `threads` worker threads.
///
/// `threads = 0` selects [`default_threads`]. The resulting tree is
/// bit-identical to [`pack`](crate::pack) at every thread count.
pub fn pack_parallel(items: Vec<(Rect, ItemId)>, config: RTreeConfig, threads: usize) -> RTree {
    pack_parallel_with(items, config, PackStrategy::NearestNeighbor, threads)
}

/// [`pack_parallel`] with an explicit [`PackStrategy`].
pub fn pack_parallel_with(
    items: Vec<(Rect, ItemId)>,
    config: RTreeConfig,
    strategy: PackStrategy,
    threads: usize,
) -> RTree {
    let threads = effective_threads(
        if threads == 0 {
            default_threads()
        } else {
            threads
        },
        items.len(),
    );
    let mut builder = BottomUpBuilder::new(config);
    if items.is_empty() {
        return builder.finish_empty();
    }
    let m = config.max_entries;

    // Leaf level: entries point at the data items.
    let rects: Vec<Rect> = items.iter().map(|&(r, _)| r).collect();
    let make_leaf = |i: usize| Entry::item(items[i].0, items[i].1);
    let mut handles = build_level(&mut builder, strategy, m, 0, &rects, &make_leaf, threads);

    // Internal levels, "working ever backwards, until the root is
    // finally reached and created" (§3.3).
    let mut level = 1;
    while handles.len() > 1 {
        handles = build_internal_level(&mut builder, strategy, m, level, &handles, threads);
        level += 1;
    }
    builder.finish(handles[0].0)
}

fn build_internal_level(
    builder: &mut BottomUpBuilder,
    strategy: PackStrategy,
    m: usize,
    level: u32,
    prev: &[(NodeId, Rect)],
    threads: usize,
) -> Vec<(NodeId, Rect)> {
    let rects: Vec<Rect> = prev.iter().map(|&(_, r)| r).collect();
    let make = |i: usize| Entry::node(prev[i].1, prev[i].0);
    build_level(builder, strategy, m, level, &rects, &make, threads)
}

/// One slab's slice of work: its sort-order window plus the disjoint
/// output sub-slices (arena slots and `(NodeId, Rect)` handles) it owns.
struct SlabJob<'a> {
    k: usize,
    ord: &'a [usize],
    slots: &'a mut [Option<Node>],
    handles: &'a mut [(NodeId, Rect)],
}

/// Builds one tree level: orders the entries, reserves the level's arena
/// range, and materializes every slab's nodes — across `threads` workers
/// when the level is large enough. Returns the `(NodeId, Rect)` handles
/// in group order (the next level's input).
fn build_level(
    builder: &mut BottomUpBuilder,
    strategy: PackStrategy,
    m: usize,
    level: u32,
    rects: &[Rect],
    make_entry: &(dyn Fn(usize) -> Entry + Sync),
    threads: usize,
) -> Vec<(NodeId, Rect)> {
    let n = rects.len();
    let threads = if n < PARALLEL_CUTOFF {
        1
    } else {
        threads.max(1)
    };
    let ord = level_order(strategy, rects, threads);
    let plan = SlabPlan::new(strategy, n, m);
    let range = builder.reserve(plan.total_groups());
    let mut handles: Vec<(NodeId, Rect)> =
        vec![(range.id(0), Rect::new(0.0, 0.0, 0.0, 0.0)); plan.total_groups()];

    {
        // Cut the outputs into per-slab disjoint sub-slices.
        let mut jobs: Vec<SlabJob<'_>> = Vec::with_capacity(plan.slab_count());
        let mut slots_rest = builder.reserved_slots_mut(&range);
        let mut handles_rest = handles.as_mut_slice();
        let mut ord_rest = ord.as_slice();
        for k in 0..plan.slab_count() {
            let groups = plan.groups_in_slab(k);
            let entries = plan.slab_range(k).len();
            let (slots, s_rest) = slots_rest.split_at_mut(groups);
            let (hs, h_rest) = handles_rest.split_at_mut(groups);
            let (ord, o_rest) = ord_rest.split_at(entries);
            slots_rest = s_rest;
            handles_rest = h_rest;
            ord_rest = o_rest;
            jobs.push(SlabJob {
                k,
                ord,
                slots,
                handles: hs,
            });
        }

        let workers = threads.min(jobs.len());
        if workers <= 1 {
            for job in jobs {
                fill_slab(strategy, &plan, rects, level, make_entry, &range, job);
            }
        } else {
            // Stripe slabs over workers (slab k → worker k mod w) so a
            // skewed tail doesn't land on one thread.
            let mut buckets: Vec<Vec<SlabJob<'_>>> = (0..workers).map(|_| Vec::new()).collect();
            for job in jobs {
                let w = job.k % workers;
                buckets[w].push(job);
            }
            std::thread::scope(|scope| {
                for bucket in buckets {
                    scope.spawn(move || {
                        for job in bucket {
                            fill_slab(strategy, &plan, rects, level, make_entry, &range, job);
                        }
                    });
                }
            });
        }
    }

    builder.commit_reserved(&range, level);
    handles
}

/// Groups one slab and writes its nodes and handles into the slab's
/// pre-assigned output slices.
fn fill_slab(
    strategy: PackStrategy,
    plan: &SlabPlan,
    rects: &[Rect],
    level: u32,
    make_entry: &(dyn Fn(usize) -> Entry + Sync),
    range: &ReservedRange,
    job: SlabJob<'_>,
) {
    let order = grouping::slab_order(strategy, rects, job.ord, plan);
    let groups = order.chunks(plan.m());
    debug_assert_eq!(groups.len(), job.slots.len(), "slab group-count invariant");
    let base = plan.group_offset(job.k);
    for (g, grp) in groups.enumerate() {
        let mut node = Node::new(level);
        node.entries = grp.iter().map(|&i| make_entry(i)).collect();
        let mbr = node.mbr().expect("non-empty group");
        job.handles[g] = (range.id(base + g), mbr);
        job.slots[g] = Some(node);
    }
}

/// The level's sort order under `strategy` ([`grouping::order`]),
/// computed with up to `threads` workers. The sort keys are extracted
/// once — `(center.x, center.y, index)` or `(hilbert key, index)` — and
/// sorted as values; they have no equal elements, so every thread count
/// and merge schedule produces the same permutation.
pub(crate) fn level_order(strategy: PackStrategy, rects: &[Rect], threads: usize) -> Vec<usize> {
    match strategy {
        PackStrategy::Hilbert => {
            let mut keys: Vec<(u64, usize)> = hilbert_keys(rects, threads)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i))
                .collect();
            par_sort_values(&mut keys, threads, Ord::cmp);
            keys.into_iter().map(|(_, i)| i).collect()
        }
        _ => {
            let mut keys: Vec<grouping::CenterKey> = rects
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let c = r.center();
                    (c.x, c.y, i)
                })
                .collect();
            par_sort_values(&mut keys, threads, grouping::key_cmp);
            keys.into_iter().map(|k| k.2).collect()
        }
    }
}

/// Hilbert keys of all centers (within the level's MBR), computed in
/// `threads` chunks.
fn hilbert_keys(rects: &[Rect], threads: usize) -> Vec<u64> {
    let bounds = Rect::mbr_of_rects(rects.iter().copied()).expect("non-empty");
    let mut keys = vec![0u64; rects.len()];
    let chunk = rects.len().div_ceil(threads.max(1)).max(1);
    let fill = |keys: &mut [u64], rects: &[Rect]| {
        for (k, r) in keys.iter_mut().zip(rects) {
            *k = crate::hilbert::rect_index(r, &bounds);
        }
    };
    if chunk >= rects.len() {
        fill(&mut keys, rects);
        return keys;
    }
    std::thread::scope(|scope| {
        for (keys_chunk, rects_chunk) in keys.chunks_mut(chunk).zip(rects.chunks(chunk)) {
            let fill = &fill;
            scope.spawn(move || fill(keys_chunk, rects_chunk));
        }
    });
    keys
}

/// Sorts a slice of values across up to `threads` workers: chunk-sort
/// concurrently, then a bottom-up merge cascade over the sorted runs.
/// With a tie-free comparator the result is independent of the chunk
/// boundaries — hence of `threads` — and equals `sort_unstable_by`.
///
/// The in-memory packer's level sort runs on it, and so do external
/// packers (the `rtree-extpack` crate), which sort spill-run record
/// buffers by the same pack key.
pub fn par_sort_values<T, F>(data: &mut [T], threads: usize, cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    if threads <= 1 || chunk >= n || n < PARALLEL_CUTOFF {
        data.sort_unstable_by(&cmp);
        return;
    }
    std::thread::scope(|scope| {
        for part in data.chunks_mut(chunk) {
            let cmp = &cmp;
            scope.spawn(move || part.sort_unstable_by(cmp));
        }
    });
    let mut buf: Vec<T> = data.to_vec();
    let mut src_is_data = true;
    let mut width = chunk;
    while width < n {
        {
            let (src, dst): (&[T], &mut [T]) = if src_is_data {
                (&*data, &mut buf)
            } else {
                (&*buf, data)
            };
            let mut lo = 0;
            while lo < n {
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                merge_value_runs(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi], &cmp);
                lo = hi;
            }
        }
        src_is_data = !src_is_data;
        width *= 2;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
    }
}

/// Stable two-run merge over values (left run wins ties).
fn merge_value_runs<T: Copy>(
    left: &[T],
    right: &[T],
    out: &mut [T],
    cmp: &(dyn Fn(&T, &T) -> Ordering + Sync),
) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        *slot = if i < left.len()
            && (j >= right.len() || cmp(&left[i], &right[j]) != Ordering::Greater)
        {
            i += 1;
            left[i - 1]
        } else {
            j += 1;
            right[j - 1]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;

    fn points(n: u64, seed: u64) -> Vec<(Rect, ItemId)> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 1_000_000) as f64 / 1000.0;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 1_000_000) as f64 / 1000.0;
                (Rect::from_point(Point::new(x, y)), ItemId(i))
            })
            .collect()
    }

    #[test]
    fn empty_and_single() {
        let t = pack_parallel(Vec::new(), RTreeConfig::PAPER, 4);
        assert!(t.is_empty());
        t.assert_valid();
        let t = pack_parallel(points(1, 7), RTreeConfig::PAPER, 4);
        assert_eq!(t.len(), 1);
        t.validate_with(false).unwrap();
    }

    #[test]
    fn parallel_output_is_valid_at_scale() {
        // Enough items to exceed the cutoff and spread over real slabs.
        let items = points(10_000, 3);
        for strategy in PackStrategy::ALL {
            let t = pack_parallel_with(items.clone(), RTreeConfig::PAPER, strategy, 4);
            t.validate_with(false)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(t.len(), 10_000);
        }
    }

    #[test]
    fn matches_sequential_pack_exactly() {
        let items = points(10_000, 11);
        let seq = crate::pack(items.clone(), RTreeConfig::PAPER);
        for threads in [1, 2, 4, 8] {
            let par = pack_parallel(items.clone(), RTreeConfig::PAPER, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn oversubscription_is_clamped() {
        let hw = default_threads();
        // Requests beyond the hardware thread count are capped.
        assert_eq!(effective_threads(1024, 1_000_000), hw);
        // Small inputs fall back to sequential regardless of the request.
        assert_eq!(effective_threads(8, 100), 1);
        assert_eq!(effective_threads(8, MIN_ITEMS_PER_THREAD - 1), 1);
        // Each worker must have at least MIN_ITEMS_PER_THREAD items.
        assert_eq!(
            effective_threads(8, 2 * MIN_ITEMS_PER_THREAD),
            hw.min(2),
            "two slabs of work can use at most two workers"
        );
        // Zero never escapes the clamp.
        assert_eq!(effective_threads(0, 1_000_000), 1);
    }

    #[test]
    fn clamped_thread_counts_keep_bit_identical_output() {
        // The clamp is a scheduling decision only: requesting far more
        // threads than the host has must not change the tree.
        let items = points(10_000, 19);
        let seq = crate::pack(items.clone(), RTreeConfig::PAPER);
        let par = pack_parallel(items, RTreeConfig::PAPER, 1024);
        assert_eq!(par, seq);
    }

    #[test]
    fn zero_threads_means_auto() {
        let items = points(5_000, 13);
        let auto = pack_parallel(items.clone(), RTreeConfig::PAPER, 0);
        let one = pack_parallel(items, RTreeConfig::PAPER, 1);
        assert_eq!(auto, one);
    }

    #[test]
    fn par_sort_values_matches_sequential_at_every_thread_count() {
        let mut s = 41u64;
        let base: Vec<(u64, u64)> = (0..9_000u64)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Duplicate primary keys force the tie-break to matter.
                ((s >> 33) % 512, i)
            })
            .collect();
        let cmp = |a: &(u64, u64), b: &(u64, u64)| a.0.cmp(&b.0).then(a.1.cmp(&b.1));
        let mut expect = base.clone();
        expect.sort_unstable_by(cmp);
        for threads in [1, 2, 3, 4, 8] {
            let mut got = base.clone();
            par_sort_values(&mut got, threads, cmp);
            assert_eq!(got, expect, "threads={threads}");
        }
        // Tiny and empty inputs take the inline path.
        let mut tiny: Vec<(u64, u64)> = vec![(3, 0), (1, 1), (2, 2)];
        par_sort_values(&mut tiny, 4, cmp);
        assert_eq!(tiny, vec![(1, 1), (2, 2), (3, 0)]);
        let mut empty: Vec<(u64, u64)> = Vec::new();
        par_sort_values(&mut empty, 4, cmp);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_sort_matches_sequential_order() {
        let items = points(9_731, 17); // not a multiple of anything relevant
        let rects: Vec<Rect> = items.iter().map(|&(r, _)| r).collect();
        for strategy in PackStrategy::ALL {
            let seq = grouping::order(strategy, &rects);
            for threads in [2, 3, 4, 8] {
                assert_eq!(
                    level_order(strategy, &rects, threads),
                    seq,
                    "{strategy:?} threads={threads}"
                );
            }
        }
    }
}
