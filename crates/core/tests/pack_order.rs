//! The order of PACK's allocations is a contract: a tree's long-lived
//! planes are allocated before any n-sized temporary. The sink allocates
//! them when a level opens (`ArenaBuilder` allocates the whole arena when
//! the leaves open), so the level loop must open the leaves before it
//! reads a single item, and open every level before it sorts that
//! level's entries.
//!
//! A recording sink wraps each real sink and logs, in one sequence, each
//! `begin_level` and `push` beside the first `next()` on the items: the
//! leaves must open before that first read, and so before their sort.
//! A sort leaves nothing a sink can see, so for the levels above the log
//! pins what it can: each opens right after the last push of the level
//! below, whose MBRs are its entries.

use packed_rtree_core::grouping::PackStrategy;
use packed_rtree_core::pack::pack_into;
use packed_rtree_core::{pack_frozen, pack_with};
use rtree_geom::{Point, Rect};
use rtree_index::builder::{ArenaBuilder, BottomUpBuilder, PackSink};
use rtree_index::{FrozenRTree, ItemId, RTree, RTreeConfig};
use std::cell::RefCell;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// `begin_level(nodes)`.
    Begin(usize),
    /// A `push` of this many entries.
    Push(usize),
    /// The first `next()` on the items.
    FirstRead,
}

thread_local! {
    static LOG: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
}

fn log(event: Event) {
    LOG.with(|log| log.borrow_mut().push(event));
}

fn take_log() -> Vec<Event> {
    LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// A sink that logs every call before passing it to `S`.
struct Recording<S>(S);

impl<S: PackSink> PackSink for Recording<S> {
    type Output = S::Output;

    fn new(config: RTreeConfig) -> Self {
        Recording(S::new(config))
    }

    fn begin_level(&mut self, nodes: usize) {
        log(Event::Begin(nodes));
        self.0.begin_level(nodes);
    }

    fn push(&mut self, entries: impl ExactSizeIterator<Item = (Rect, u64)>) -> Rect {
        log(Event::Push(entries.len()));
        self.0.push(entries)
    }

    fn finish(self) -> S::Output {
        self.0.finish()
    }
}

/// The items, logging the first `next()`.
struct Items<'a> {
    inner: std::slice::Iter<'a, (Rect, ItemId)>,
    read: bool,
}

impl Iterator for Items<'_> {
    type Item = (Rect, ItemId);

    fn next(&mut self) -> Option<Self::Item> {
        if !std::mem::replace(&mut self.read, true) {
            log(Event::FirstRead);
        }
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Items<'_> {}

fn logged(items: &[(Rect, ItemId)]) -> Items<'_> {
    Items {
        inner: items.iter(),
        read: false,
    }
}

fn points(n: u64, seed: u64) -> Vec<(Rect, ItemId)> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % 1_000_000) as f64 / 1000.0
    };
    (0..n)
        .map(|i| (Rect::from_point(Point::new(next(), next())), ItemId(i)))
        .collect()
}

/// The log of a pack of `n` items at fan-out `m`: the leaves open with
/// `⌈n/m⌉` nodes, then the first item is read; each level's nodes are
/// full but its last, and each level above opens with `⌈k/m⌉` nodes, `k`
/// the level below's node count, right after the level below's last
/// push — before the loop touches the entries it is about to sort.
fn expected(n: usize, m: usize) -> Vec<Event> {
    let mut log = vec![Event::Begin(n.div_ceil(m)), Event::FirstRead];
    let mut entries = n;
    loop {
        let nodes = entries.div_ceil(m);
        log.extend((0..nodes).map(|g| Event::Push(m.min(entries - g * m))));
        if nodes == 1 {
            return log;
        }
        log.push(Event::Begin(nodes.div_ceil(m)));
        entries = nodes;
    }
}

fn assert_levels_open_first(log: &[Event], n: usize, m: usize, what: &str) {
    assert_eq!(
        log[..2],
        [Event::Begin(n.div_ceil(m)), Event::FirstRead],
        "{what}: the leaves must open before any item is read"
    );
    assert!(log == expected(n, m), "{what}: {log:?}");
}

/// For `pack_with` and `pack_frozen`, every strategy, the paper's fan-out
/// and a page's, and sizes from one item to three leaf slabs: the level
/// loop opens each level before it reads or sorts its entries, and the
/// recorded packs build exactly what `pack_with` and `pack_frozen` do.
#[test]
fn levels_open_before_their_entries_are_read() {
    for m in [4usize, 102] {
        let config = RTreeConfig::with_branching(m);
        for n in [1, m, m + 1, 257, 5_000] {
            let items = points(n as u64, 1985);
            for strategy in PackStrategy::ALL {
                let what = format!("{strategy:?}, M = {m}, n = {n}");

                take_log();
                let tree: RTree =
                    pack_into::<Recording<BottomUpBuilder>>(logged(&items), config, strategy);
                assert_levels_open_first(&take_log(), n, m, &format!("pack_with: {what}"));
                assert!(
                    tree == pack_with(logged(&items), config, strategy),
                    "{what}"
                );

                take_log();
                let arena: FrozenRTree =
                    pack_into::<Recording<ArenaBuilder>>(logged(&items), config, strategy);
                assert_levels_open_first(&take_log(), n, m, &format!("pack_frozen: {what}"));
                assert!(
                    arena == pack_frozen(logged(&items), config, strategy),
                    "{what}"
                );
            }
        }
    }
}

/// No items: no level opens, and nothing is read past the end.
#[test]
fn an_empty_pack_opens_no_level() {
    take_log();
    let tree: RTree = pack_into::<Recording<BottomUpBuilder>>(
        logged(&[]),
        RTreeConfig::PAPER,
        PackStrategy::NearestNeighbor,
    );
    assert!(tree.is_empty());
    assert_eq!(take_log(), []);
}
