//! The seeded differential fuzz driver.
//!
//! Generates random pictorial datasets — points, rectangles, segments,
//! including degenerate, touching, and zero-area shapes, and for the
//! mixed-geometry level triangles too — plus random query streams, then
//! runs engine and oracle side by side at five levels of the stack (see
//! the crate docs). A divergence is shrunk by greedy deletion to a
//! minimal counterexample and reported with the seed and case index
//! that reproduce it:
//!
//! ```text
//! cargo run --release -p rtree-oracle --bin differential_fuzz
//! ORACLE_FUZZ_SEEDS=42 ORACLE_FUZZ_CASES=500 cargo run ...
//! ```
//!
//! Everything is deterministic in the seed: the generator is the
//! workspace's xoshiro-based [`StdRng`] and the case index counts
//! top-level generations, so `(seed, case_index)` pins one exact input.

use crate::image::TreeImage;
use crate::invariant::{validate_deep, DeepChecks};
use crate::reference;
use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::functions::FunctionRegistry;
use psql::{exec, parse_query, PictorialDatabase, SpatialOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_geom::{Point, Rect, Region, Segment, SpatialObject};
use rtree_index::{
    FrozenRTree, ItemId, NodeAccess, RTree, RTreeConfig, SearchScratch, SearchStats,
};
use rtree_storage::{BufferPool, DiskRTree, Pager};

/// Mixed into a run's seed for the mixed-geometry level's own stream.
const SHAPE_STREAM: u64 = 0x5348_4150_4553; // "SHAPES"

const ALL_OPS: [SpatialOp; 4] = [
    SpatialOp::Covering,
    SpatialOp::CoveredBy,
    SpatialOp::Overlapping,
    SpatialOp::Disjoined,
];

/// One generated input: a dataset plus a query stream.
#[derive(Debug, Clone)]
pub struct Case {
    /// The objects of the picture, in insertion order (object ids are
    /// positions).
    pub objects: Vec<SpatialObject>,
    /// Query windows (degenerate rectangles allowed).
    pub windows: Vec<Rect>,
    /// Point-query probes.
    pub probes: Vec<Point>,
    /// k-nearest-neighbour queries.
    pub knn: Vec<(Point, usize)>,
    /// Which objects the dynamic-tree phase removes (aligned with
    /// `objects`).
    pub remove_mask: Vec<bool>,
    /// Whether to also run the disk representation (`DiskRTree`) for
    /// this case.
    pub check_disk: bool,
    /// Whether the PSQL database packs its picture before querying
    /// (exercises the packed path; otherwise the dynamic insert path).
    pub pack_db: bool,
    /// Mixed read/write split: the first `pack_prefix` objects load
    /// before the pack, the rest arrive as dynamic inserts that buffer
    /// in the delta tree while the frozen main tree keeps serving.
    pub pack_prefix: usize,
    /// The mixed-geometry level's objects: points, segments, rectangles
    /// and triangles, drawn from a stream of their own so that the other
    /// levels' draws do not depend on them.
    pub shapes: Vec<SpatialObject>,
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// RNG seed; every divergence reports it back.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
}

/// A reproducible engine-vs-oracle disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the run that found it.
    pub seed: u64,
    /// Index of the generated case within that run.
    pub case_index: usize,
    /// What disagreed, human-readable.
    pub detail: String,
    /// The (shrunken) input that still reproduces the disagreement.
    pub case: Case,
    /// Whether shrinking reached a fixpoint within its budget.
    pub minimized: bool,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "divergence (seed {}, case {}{}):",
            self.seed,
            self.case_index,
            if self.minimized { ", minimized" } else { "" }
        )?;
        writeln!(f, "  {}", self.detail)?;
        write!(f, "  input: {:?}", self.case)
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// A coordinate on the fuzz grid: usually an integer in `0..=12`,
/// sometimes a quarter step. Both are exact binary fractions, so they
/// survive the `Display` → PSQL-lexer round trip bit-for-bit and window
/// centre/half-extent arithmetic stays exact.
fn coord(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.25) {
        rng.gen_range(0..=48u32) as f64 / 4.0
    } else {
        rng.gen_range(0..=12u32) as f64
    }
}

fn rect(rng: &mut StdRng) -> Rect {
    let (x0, x1) = minmax(coord(rng), coord(rng));
    let (y0, y1) = minmax(coord(rng), coord(rng));
    Rect::new(x0, y0, x1, y1)
}

fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn object(rng: &mut StdRng) -> SpatialObject {
    let roll = rng.gen_range(0..100u32);
    if roll < 45 {
        SpatialObject::Point(Point::new(coord(rng), coord(rng)))
    } else if roll < 85 {
        // Rectangle-shaped regions; degenerate rectangles collapse to
        // the honest class so `Region` always has positive area.
        let r = rect(rng);
        if r.width() == 0.0 && r.height() == 0.0 {
            SpatialObject::Point(Point::new(r.min_x, r.min_y))
        } else if r.is_degenerate() {
            SpatialObject::Segment(Segment::new(
                Point::new(r.min_x, r.min_y),
                Point::new(r.max_x, r.max_y),
            ))
        } else {
            SpatialObject::Region(Region::rectangle(r))
        }
    } else {
        SpatialObject::Segment(Segment::new(
            Point::new(coord(rng), coord(rng)),
            Point::new(coord(rng), coord(rng)),
        ))
    }
}

/// A triangle (three times in ten) or one of [`object`]'s classes. A
/// triangle whose corners fall on one line becomes a segment, so every
/// region has positive area.
fn shape(rng: &mut StdRng) -> SpatialObject {
    if !rng.gen_bool(0.3) {
        return object(rng);
    }
    let [a, b, c] = [(); 3].map(|_| Point::new(coord(rng), coord(rng)));
    match Region::new(vec![a, b, c]) {
        Ok(triangle) if triangle.area() > 0.0 => SpatialObject::Region(triangle),
        _ => SpatialObject::Segment(Segment::new(a, c)),
    }
}

/// One case: everything but `shapes` from `rng`, `shapes` from
/// `shape_rng`.
fn generate(rng: &mut StdRng, shape_rng: &mut StdRng) -> Case {
    let n = rng.gen_range(0..=48usize);
    let objects: Vec<SpatialObject> = (0..n).map(|_| object(rng)).collect();
    let windows = (0..rng.gen_range(1..=6usize)).map(|_| rect(rng)).collect();
    let probes = (0..rng.gen_range(0..=4usize))
        .map(|_| Point::new(coord(rng), coord(rng)))
        .collect();
    let knn = (0..rng.gen_range(0..=3usize))
        .map(|_| {
            let p = Point::new(coord(rng), coord(rng));
            let k = rng.gen_range(0..=n + 2);
            (p, k)
        })
        .collect();
    let remove_mask = (0..n).map(|_| rng.gen_bool(0.4)).collect();
    let pack_prefix = rng.gen_range(0..=n);
    Case {
        objects,
        windows,
        probes,
        knn,
        remove_mask,
        check_disk: rng.gen_bool(0.3),
        pack_db: rng.gen_bool(0.5),
        pack_prefix,
        shapes: (0..shape_rng.gen_range(0..=24usize))
            .map(|_| shape(shape_rng))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Level 1: geometry predicates
// ---------------------------------------------------------------------

/// Complement, flip symmetry and the separating-axis ground truth
/// ([`reference::ref_holds`]) on every pair of `objects` and `shapes`
/// (numbered on from the objects), whatever their classes, and on every
/// such object against every window as the rectangle region a window
/// query refines against.
fn check_geom(case: &Case) -> Option<String> {
    let all: Vec<&SpatialObject> = case.objects.iter().chain(&case.shapes).collect();
    for (i, &a) in all.iter().enumerate() {
        for (j, &b) in all.iter().enumerate() {
            let over = SpatialOp::Overlapping.eval_objects(a, b);
            if over == SpatialOp::Disjoined.eval_objects(a, b) {
                return Some(format!(
                    "objects {i},{j}: overlapping and disjoined are both {over} \
                     ({a:?} vs {b:?})"
                ));
            }
            for op in ALL_OPS {
                if op.eval_objects(a, b) != op.flip().eval_objects(b, a) {
                    return Some(format!(
                        "objects {i},{j}: `a {op} b` != `b {} a` ({a:?} vs {b:?})",
                        op.flip()
                    ));
                }
            }
            // Flip symmetry holds, so one order of each pair suffices.
            let wrong = (i <= j).then(|| against_reference((a, b), (a, b)));
            if let Some(d) = wrong.flatten() {
                return Some(format!("objects {i},{j}: {d}"));
            }
        }
    }
    for (wi, w) in case.windows.iter().enumerate() {
        let window = SpatialObject::Region(Region::rectangle(*w));
        let shape = reference::window_shape(w);
        for (i, &obj) in all.iter().enumerate() {
            if let Some(d) = against_reference((obj, &window), (obj, &shape)) {
                return Some(format!("object {i}, window {wi}: {d}"));
            }
        }
    }
    None
}

/// Every operator on the engine's operands against
/// [`reference::ref_holds`] on the reference's, which may hold a window
/// as its honest class.
fn against_reference(
    (a, b): (&SpatialObject, &SpatialObject),
    (ra, rb): (&SpatialObject, &SpatialObject),
) -> Option<String> {
    ALL_OPS.into_iter().find_map(|op| {
        let engine = op.eval_objects(a, b);
        (engine != reference::ref_holds(op, ra, rb))
            .then(|| format!("{op}={engine}, ground truth {} ({a:?} vs {b:?})", !engine))
    })
}

// ---------------------------------------------------------------------
// Level 2: tree queries
// ---------------------------------------------------------------------

fn sorted(mut ids: Vec<ItemId>) -> Vec<ItemId> {
    ids.sort_unstable_by_key(|&ItemId(i)| i);
    ids
}

/// `SEARCH` and the point query on `tree`, checked in exact result
/// order: windows against [`reference::recursive_window_search`], points
/// against [`reference::recursive_point_query`] (children descended
/// highest-lane-first), counters against both, and result sets against
/// a linear scan. The stats path and the scratch path must agree too.
fn check_search_order(tree: &RTree, items: &[(Rect, ItemId)], case: &Case) -> Option<String> {
    let mut scratch = SearchScratch::new();
    for (wi, w) in case.windows.iter().enumerate() {
        for within in [true, false] {
            let mut stats = SearchStats::default();
            let engine = if within {
                tree.search_within(w, &mut stats)
            } else {
                tree.search_intersecting(w, &mut stats)
            };
            let fast = if within {
                tree.search_within_into(w, &mut scratch).to_vec()
            } else {
                tree.search_intersecting_into(w, &mut scratch).to_vec()
            };
            if engine != fast {
                return Some(format!(
                    "window {wi} within={within}: stats path {engine:?} != \
                     scratch path {fast:?}"
                ));
            }
            let expect = sorted(reference::window_items(items, w, within));
            if sorted(engine.clone()) != expect {
                return Some(format!(
                    "window {wi} within={within}: engine {engine:?} != linear scan {expect:?}"
                ));
            }
            let (rec, count) = reference::recursive_window_search(tree, w, within);
            if rec != engine {
                return Some(format!(
                    "window {wi} within={within}: engine order {engine:?} != \
                     recursive reference {rec:?}"
                ));
            }
            if (
                stats.nodes_visited,
                stats.leaf_nodes_visited,
                stats.items_reported,
            ) != (
                count.nodes_visited,
                count.leaf_nodes_visited,
                count.items_reported,
            ) {
                return Some(format!(
                    "window {wi} within={within}: engine counters \
                     ({}, {}, {}) != recursive counters ({}, {}, {}) — \
                     avg_nodes_visited accounting is off",
                    stats.nodes_visited,
                    stats.leaf_nodes_visited,
                    stats.items_reported,
                    count.nodes_visited,
                    count.leaf_nodes_visited,
                    count.items_reported
                ));
            }
        }
    }

    for (pi, &p) in case.probes.iter().enumerate() {
        let mut stats = SearchStats::default();
        let engine = tree.point_query(p, &mut stats);
        let fast = tree.point_query_into(p, &mut scratch).to_vec();
        if engine != fast {
            return Some(format!(
                "probe {pi}: stats path {engine:?} != scratch path {fast:?}"
            ));
        }
        let expect = sorted(reference::point_items(items, p));
        if sorted(engine.clone()) != expect {
            return Some(format!(
                "probe {pi}: engine {engine:?} != linear scan {expect:?}"
            ));
        }
        let (rec, count) = reference::recursive_point_query(tree, p);
        if rec != engine {
            return Some(format!(
                "probe {pi}: engine order {engine:?} != recursive reference {rec:?}"
            ));
        }
        if (
            stats.nodes_visited,
            stats.leaf_nodes_visited,
            stats.items_reported,
        ) != (
            count.nodes_visited,
            count.leaf_nodes_visited,
            count.items_reported,
        ) {
            return Some(format!("probe {pi}: point-query counters disagree"));
        }
    }
    None
}

fn check_tree(case: &Case) -> Option<String> {
    let items: Vec<(Rect, ItemId)> = case
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| (o.mbr(), ItemId(i as u64)))
        .collect();
    let packed = packed_rtree_core::pack(items.clone(), RTreeConfig::PAPER);
    if let Err(e) = validate_deep(&TreeImage::of_rtree(&packed), DeepChecks::packed()) {
        return Some(format!("packed tree fails validate_deep: {e}"));
    }

    // M = 102 runs the two-chunk instantiation of every traversal.
    let wide = packed_rtree_core::pack(items.clone(), RTreeConfig::with_branching(102));
    for (label, tree) in [("packed", &packed), ("packed M=102", &wide)] {
        if let Some(d) = check_search_order(tree, &items, case) {
            return Some(format!("{label} tree: {d}"));
        }
    }

    for (ki, &(p, k)) in case.knn.iter().enumerate() {
        let mut stats = SearchStats::default();
        let engine: Vec<ItemId> = packed
            .nearest_neighbors(p, k, &mut stats)
            .iter()
            .map(|n| n.item)
            .collect();
        let expect = reference::nearest_items(&items, p, k);
        if engine != expect {
            return Some(format!(
                "knn {ki} (k={k}): engine {engine:?} != reference (distance, id) order {expect:?}"
            ));
        }
    }

    // Juxtaposition joins: split the dataset in two and join.
    let a_items: Vec<_> = items.iter().copied().step_by(2).collect();
    let b_items: Vec<_> = items.iter().copied().skip(1).step_by(2).collect();
    let tree_a = packed_rtree_core::pack(a_items.clone(), RTreeConfig::PAPER);
    let tree_b = packed_rtree_core::pack(b_items.clone(), RTreeConfig::PAPER);
    for op in ALL_OPS {
        let expect = reference::join_pairs(&a_items, &b_items, op);
        let mut js = psql::join::JoinStats::default();
        let mut fast = psql::join::rtree_join(&tree_a, &tree_b, op, &mut js);
        fast.sort_unstable_by_key(|&(ItemId(x), ItemId(y))| (x, y));
        if fast != expect {
            return Some(format!(
                "join {op}: rtree_join {fast:?} != nested reference {expect:?}"
            ));
        }
        let mut ns = psql::join::JoinStats::default();
        let mut naive = psql::join::nested_loop_join(&tree_a, &tree_b, op, &mut ns);
        naive.sort_unstable_by_key(|&(ItemId(x), ItemId(y))| (x, y));
        if naive != expect {
            return Some(format!("join {op}: nested_loop_join disagrees"));
        }
    }

    // Dynamic tree: Guttman inserts, then removes per mask, validating
    // the deep invariants after every mutation batch.
    let mut dynamic = RTree::new(RTreeConfig::PAPER);
    for &(r, id) in &items {
        dynamic.insert(r, id);
    }
    if let Err(e) = validate_deep(&TreeImage::of_rtree(&dynamic), DeepChecks::dynamic()) {
        return Some(format!(
            "dynamic tree fails validate_deep after inserts: {e}"
        ));
    }
    if let Some(d) = check_search_order(&dynamic, &items, case) {
        return Some(format!("guttman tree: {d}"));
    }
    let mut survivors = Vec::new();
    for (i, &(r, id)) in items.iter().enumerate() {
        if case.remove_mask.get(i).copied().unwrap_or(false) {
            if !dynamic.remove(r, id) {
                return Some(format!("dynamic remove of item {i} returned false"));
            }
            if let Err(e) = validate_deep(&TreeImage::of_rtree(&dynamic), DeepChecks::dynamic()) {
                return Some(format!(
                    "dynamic tree fails validate_deep after removing item {i}: {e}"
                ));
            }
        } else {
            survivors.push((r, id));
        }
    }
    for (wi, w) in case.windows.iter().enumerate() {
        let mut stats = SearchStats::default();
        let got = sorted(dynamic.search_intersecting(w, &mut stats));
        let expect = sorted(reference::window_items(&survivors, w, false));
        if got != expect {
            return Some(format!(
                "window {wi} on post-remove dynamic tree: {got:?} != {expect:?}"
            ));
        }
    }
    // A tree reshaped by Guttman deletes still freezes: same answers,
    // dynamic (not packed) fill invariants.
    let frozen = FrozenRTree::freeze(&dynamic);
    if let Err(e) = validate_deep(&TreeImage::of_frozen(&frozen), DeepChecks::dynamic()) {
        return Some(format!(
            "frozen dynamic tree fails validate_deep after removes: {e}"
        ));
    }
    for (wi, w) in case.windows.iter().enumerate() {
        let got = sorted(frozen.search_within(w, &mut SearchStats::default()));
        let expect = sorted(reference::window_items(&survivors, w, true));
        if got != expect {
            return Some(format!(
                "frozen dynamic tree window {wi} after removes: diverges from oracle"
            ));
        }
    }

    // Level 4: the frozen arena must be bit-identical to the pointer
    // tree — same result order, same counters, on every query path.
    if let Some(d) = check_frozen(case, &items, &packed, &tree_a, &tree_b) {
        return Some(d);
    }

    if case.check_disk {
        if let Some(d) = check_disk_trees(case, &items, &packed) {
            return Some(d);
        }
    }
    None
}

/// Frozen-vs-pointer bit-identity: every query path must return the
/// same items in the same order with the same [`SearchStats`] /
/// [`psql::join::JoinStats`] counters, because the frozen arena is a
/// layout change, not an algorithm change. The arena checked is the one
/// PACK writes directly ([`packed_rtree_core::pack_frozen`]), which must
/// also equal `freeze` of the pointer tree `packed`.
fn check_frozen(
    case: &Case,
    items: &[(Rect, ItemId)],
    packed: &RTree,
    tree_a: &RTree,
    tree_b: &RTree,
) -> Option<String> {
    let strategy = packed_rtree_core::PackStrategy::NearestNeighbor;
    let frozen = packed_rtree_core::pack_frozen(items.to_vec(), RTreeConfig::PAPER, strategy);
    if frozen != FrozenRTree::freeze(packed) {
        return Some("pack_frozen's arena differs from freeze of the pointer tree".into());
    }
    if let Err(e) = validate_deep(&TreeImage::of_frozen(&frozen), DeepChecks::packed()) {
        return Some(format!("frozen tree fails validate_deep: {e}"));
    }
    if frozen.items() != packed.items() {
        return Some("frozen items() enumeration differs from pointer tree".into());
    }

    let mut scratch = SearchScratch::new();
    for (wi, w) in case.windows.iter().enumerate() {
        for within in [true, false] {
            let mut ps = SearchStats::default();
            let mut fs = SearchStats::default();
            let (pointer, frozen_got) = if within {
                (
                    packed.search_within(w, &mut ps),
                    frozen.search_within(w, &mut fs),
                )
            } else {
                (
                    packed.search_intersecting(w, &mut ps),
                    frozen.search_intersecting(w, &mut fs),
                )
            };
            if frozen_got != pointer {
                return Some(format!(
                    "frozen window {wi} within={within}: {frozen_got:?} != pointer {pointer:?}"
                ));
            }
            if fs != ps {
                return Some(format!(
                    "frozen window {wi} within={within}: stats {fs:?} != pointer {ps:?}"
                ));
            }
            let fast = if within {
                frozen.search_within_into(w, &mut scratch).to_vec()
            } else {
                frozen.search_intersecting_into(w, &mut scratch).to_vec()
            };
            if fast != pointer {
                return Some(format!(
                    "frozen window {wi} within={within}: scratch path diverges"
                ));
            }
        }
    }

    for (pi, &p) in case.probes.iter().enumerate() {
        let mut ps = SearchStats::default();
        let mut fs = SearchStats::default();
        let pointer = packed.point_query(p, &mut ps);
        let frozen_got = frozen.point_query(p, &mut fs);
        if frozen_got != pointer || fs != ps {
            return Some(format!(
                "frozen probe {pi}: {frozen_got:?}/{fs:?} != pointer {pointer:?}/{ps:?}"
            ));
        }
        if frozen.point_query_into(p, &mut scratch) != pointer.as_slice() {
            return Some(format!("frozen probe {pi}: scratch path diverges"));
        }
    }

    for (ki, &(p, k)) in case.knn.iter().enumerate() {
        let mut ps = SearchStats::default();
        let mut fs = SearchStats::default();
        let pointer = packed.nearest_neighbors(p, k, &mut ps);
        let frozen_got = frozen.nearest_neighbors(p, k, &mut fs);
        if frozen_got != pointer || fs != ps {
            return Some(format!(
                "frozen knn {ki} (k={k}): neighbors or stats diverge from pointer tree"
            ));
        }
        if frozen.nearest_neighbors_into(p, k, scratch.knn()) != pointer.as_slice() {
            return Some(format!("frozen knn {ki} (k={k}): scratch path diverges"));
        }
    }

    // One join over every mix of storage forms: each must reproduce the
    // pointer x pointer pair sequence and counters (which the tree level
    // above holds to `reference::join_pairs`).
    let frozen_a = FrozenRTree::freeze(tree_a);
    let frozen_b = FrozenRTree::freeze(tree_b);
    for op in ALL_OPS {
        let mut ps = psql::join::JoinStats::default();
        let pointer = psql::join::rtree_join(tree_a, tree_b, op, &mut ps);
        let mut stats = [psql::join::JoinStats::default(); 3];
        let forms = [
            (
                "frozen x frozen",
                psql::join::rtree_join(&frozen_a, &frozen_b, op, &mut stats[0]),
            ),
            (
                "frozen x pointer",
                psql::join::rtree_join(&frozen_a, tree_b, op, &mut stats[1]),
            ),
            (
                "pointer x frozen",
                psql::join::rtree_join(tree_a, &frozen_b, op, &mut stats[2]),
            ),
        ];
        for ((form, got), fs) in forms.iter().zip(stats) {
            if *got != pointer {
                return Some(format!(
                    "{form} join {op}: pairs {got:?} != pointer {pointer:?}"
                ));
            }
            if fs != ps {
                return Some(format!("{form} join {op}: stats {fs:?} != pointer {ps:?}"));
            }
        }
    }
    None
}

/// Same differential checks against the on-disk representation.
fn check_disk_trees(case: &Case, items: &[(Rect, ItemId)], packed: &RTree) -> Option<String> {
    let pager = match Pager::temp() {
        Ok(p) => p,
        Err(e) => return Some(format!("Pager::temp failed: {e}")),
    };
    let disk = match DiskRTree::store(packed, &pager) {
        Ok(d) => d,
        Err(e) => return Some(format!("DiskRTree::store failed: {e}")),
    };
    let pool = BufferPool::new(&pager, 64);
    let cfg = RTreeConfig::PAPER;
    match TreeImage::of_disk_tree(&disk, &pool, cfg.max_entries, cfg.min_entries) {
        Ok(img) => {
            if let Err(e) = validate_deep(&img, DeepChecks::packed()) {
                return Some(format!("DiskRTree image fails validate_deep: {e}"));
            }
        }
        Err(e) => return Some(format!("DiskRTree image dump failed: {e}")),
    }
    for (wi, w) in case.windows.iter().enumerate() {
        let mut stats = SearchStats::default();
        match disk.search_within(&pool, w, &mut stats) {
            Ok(got) => {
                let expect = sorted(reference::window_items(items, w, true));
                if sorted(got) != expect {
                    return Some(format!("DiskRTree window {wi}: within search diverges"));
                }
            }
            Err(e) => return Some(format!("DiskRTree search failed: {e}")),
        }
    }
    for (pi, &p) in case.probes.iter().enumerate() {
        let mut stats = SearchStats::default();
        match disk.point_query(&pool, p, &mut stats) {
            Ok(got) => {
                if sorted(got) != sorted(reference::point_items(items, p)) {
                    return Some(format!("DiskRTree probe {pi}: point query diverges"));
                }
            }
            Err(e) => return Some(format!("DiskRTree point query failed: {e}")),
        }
    }
    None
}

// ---------------------------------------------------------------------
// Level 3: PSQL text end-to-end
// ---------------------------------------------------------------------

/// Adds a picture and a relation `(name, loc)` over it to `db`, one
/// tuple per named object.
fn load<'a>(
    db: &mut PictorialDatabase,
    relation: &str,
    picture: &str,
    objects: impl Iterator<Item = (String, &'a SpatialObject)>,
) -> Result<(), psql::PsqlError> {
    db.create_picture(picture, Rect::new(-1.0, -1.0, 14.0, 14.0))?;
    let schema = Schema::new(vec![
        Column::new("name", ColumnType::Str),
        Column::new("loc", ColumnType::Pointer),
    ])?;
    db.catalog_mut().create_relation(relation, schema)?;
    db.associate(relation, "loc", picture)?;
    for (name, obj) in objects {
        let ptr = db.add_object(picture, obj.clone(), &name)?;
        db.insert(relation, vec![Value::str(&name), Value::Pointer(ptr)])?;
    }
    Ok(())
}

/// `w` as a PSQL window literal, `{cx +- dx, cy +- dy}`: exact on the
/// fuzz grid, whose coordinates are quarter-integers.
fn window_text(w: &Rect) -> String {
    let (cx, cy) = ((w.min_x + w.max_x) / 2.0, (w.min_y + w.max_y) / 2.0);
    let (dx, dy) = ((w.max_x - w.min_x) / 2.0, (w.max_y - w.min_y) / 2.0);
    format!("{{{cx} +- {dx}, {cy} +- {dy}}}")
}

fn check_psql(case: &Case) -> Option<String> {
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    let named = case.objects.iter().enumerate();
    if let Err(e) = load(
        &mut db,
        "objs",
        "pic",
        named.map(|(i, o)| (i.to_string(), o)),
    ) {
        return Some(format!("PSQL setup failed: {e}"));
    }
    if case.pack_db {
        db.pack_all();
    }

    let functions = FunctionRegistry::with_builtins();
    let mut scratch = SearchScratch::new();
    for (wi, w) in case.windows.iter().enumerate() {
        for op in ALL_OPS {
            let text = format!(
                "select name from objs on pic at loc {op} {}",
                window_text(w)
            );
            let query = match parse_query(&text) {
                Ok(q) => q,
                Err(e) => return Some(format!("window {wi} {op}: parse failed for {text:?}: {e}")),
            };
            let rs = match exec::execute_with_scratch(&db, &query, &functions, &mut scratch) {
                Ok(rs) => rs,
                Err(e) => return Some(format!("window {wi} {op}: execution failed: {e}")),
            };
            let got = positions(&rs);
            let expect: Vec<Vec<usize>> = reference::window_objects(&case.objects, op, w)
                .into_iter()
                .map(|id| vec![id as usize])
                .collect();
            if got != expect {
                return Some(format!(
                    "window {wi} {op} (pack={}): PSQL rows {got:?} != oracle {expect:?} \
                     for query {text:?}",
                    case.pack_db
                ));
            }
            if rs.highlights.len() != rs.rows.len() {
                return Some(format!(
                    "window {wi} {op}: {} highlights for {} rows",
                    rs.highlights.len(),
                    rs.rows.len()
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Level 4: mixed read/write (frozen main ∪ delta)
// ---------------------------------------------------------------------

/// The sustained-write path: load a prefix of the objects, pack (so the
/// picture carries a frozen main tree), then insert the rest dynamically
/// so they buffer in the delta tree. Both query paths — stats and
/// scratch — must be bit-identical to brute force over *all* objects
/// (packed ∪ delta), both before and after `merge_deltas` folds the
/// delta back into a freshly packed main tree — and, before the pack,
/// over the loaded prefix, which a never-packed picture indexes only
/// once the first of these queries arrives.
fn check_mixed(case: &Case) -> Option<String> {
    let split = case.pack_prefix.min(case.objects.len());
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    if let Err(e) = db.create_picture("pic", Rect::new(-1.0, -1.0, 14.0, 14.0)) {
        return Some(format!("mixed setup failed: {e}"));
    }
    // Before the first pack the picture has no index until a query asks
    // for one: check at the query that builds the tree, and again after
    // one more add, which must land in the tree now built.
    let unqueried = split.saturating_sub(1);
    for (at, obj) in case.objects[..split].iter().enumerate() {
        if at == unqueried {
            if let Some(d) = check_never_packed(case, &db, at) {
                return Some(d);
            }
        }
        if let Err(e) = db.add_object("pic", obj.clone(), "loaded") {
            return Some(format!("mixed load failed: {e}"));
        }
    }
    if let Some(d) = check_never_packed(case, &db, split) {
        return Some(d);
    }
    db.pack_all();
    for obj in &case.objects[split..] {
        if let Err(e) = db.add_object("pic", obj.clone(), "delta") {
            return Some(format!("mixed insert failed: {e}"));
        }
    }
    {
        let pic = db.picture("pic").expect("pic");
        if pic.packed_len() != split || pic.delta_len() != case.objects.len() - split {
            return Some(format!(
                "mixed partition wrong: packed_len {} / delta_len {} for split \
                 {split} of {} objects",
                pic.packed_len(),
                pic.delta_len(),
                case.objects.len()
            ));
        }
        if !db.frozen_intact() {
            return Some("dynamic inserts dropped a frozen tree".into());
        }
        if let Some(d) = check_mixed_queries(case, pic, "pre-merge") {
            return Some(d);
        }
    }

    // Folding the delta into a fresh pack must not change one answer.
    let merged = db.merge_deltas();
    let pic = db.picture("pic").expect("pic");
    if (merged > 0) != (split < case.objects.len()) {
        return Some(format!(
            "merge_deltas folded {merged} pictures with a delta of {}",
            case.objects.len() - split
        ));
    }
    if pic.delta_len() != 0 || pic.packed_len() != case.objects.len() {
        return Some(format!(
            "post-merge partition wrong: packed_len {} / delta_len {}",
            pic.packed_len(),
            pic.delta_len()
        ));
    }
    check_mixed_queries(case, pic, "post-merge")
}

/// [`check_mixed_queries`] on a never-packed picture holding the first
/// `loaded` objects of `case`.
fn check_never_packed(case: &Case, db: &PictorialDatabase, loaded: usize) -> Option<String> {
    let mut prefix = case.clone();
    prefix.objects.truncate(loaded);
    check_mixed_queries(&prefix, db.picture("pic").expect("pic"), "never-packed")
}

/// Every picture query path against brute force over all objects.
fn check_mixed_queries(case: &Case, pic: &psql::picture::Picture, stage: &str) -> Option<String> {
    let mut scratch = SearchScratch::new();
    for (wi, w) in case.windows.iter().enumerate() {
        for op in ALL_OPS {
            let expect = reference::window_objects(&case.objects, op, w);
            let mut stats = SearchStats::default();
            let mut got = pic.search_window(op, w, &mut stats);
            got.sort_unstable();
            if got != expect {
                return Some(format!(
                    "mixed {stage} window {wi} {op}: engine {got:?} != brute \
                     force {expect:?}"
                ));
            }
            let mut fast = pic.search_window_fast(op, w, &mut scratch);
            fast.sort_unstable();
            if fast != expect {
                return Some(format!(
                    "mixed {stage} window {wi} {op}: scratch path {fast:?} != \
                     brute force {expect:?}"
                ));
            }
        }
    }

    // k-NN: the `k` smallest (distance, id) pairs, in that order.
    let items: Vec<(Rect, ItemId)> = case
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| (o.mbr(), ItemId(i as u64)))
        .collect();
    for (ki, &(p, k)) in case.knn.iter().enumerate() {
        let expect: Vec<u64> = reference::nearest_items(&items, p, k)
            .into_iter()
            .map(|ItemId(id)| id)
            .collect();
        let mut stats = SearchStats::default();
        let got = pic.nearest(p, k, &mut stats);
        if got != expect {
            return Some(format!(
                "mixed {stage} knn {ki} (k={k}): {got:?} != brute force {expect:?}"
            ));
        }
        let fast = pic.nearest_fast(p, k, &mut scratch);
        if fast != expect {
            return Some(format!(
                "mixed {stage} knn {ki} (k={k}): scratch path diverges from \
                 brute force"
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Level 5: mixed geometry (points, segments, rectangles, triangles)
// ---------------------------------------------------------------------

/// A juxtaposition and a nested mapping of two pictures, and window
/// queries over each: `case.shapes` at even positions go to `lefts` on
/// `left-map`, the rest to `rights` on `right-map` (level 1 checks the
/// shapes' operator algebra), and `case.windows` to `wins` on `win-map`
/// as rectangle regions. Every answer is checked against
/// [`reference::ref_holds`] over every pair, and a window query must
/// answer as the nested mapping whose inner location is that window.
fn check_shapes(case: &Case) -> Option<String> {
    let (lefts, rights): (Vec<_>, Vec<_>) = case
        .shapes
        .iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let windows: Vec<SpatialObject> = case
        .windows
        .iter()
        .map(|w| SpatialObject::Region(Region::rectangle(*w)))
        .collect();
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    let sides = [
        ("lefts", "left-map", &lefts),
        ("rights", "right-map", &rights),
    ];
    for (relation, picture, side) in sides {
        let named = side.iter().map(|&(i, obj)| (i.to_string(), obj));
        if let Err(e) = load(&mut db, relation, picture, named) {
            return Some(format!("mixed-geometry setup failed: {e}"));
        }
    }
    if let Err(e) = load(
        &mut db,
        "wins",
        "win-map",
        windows.iter().enumerate().map(|(i, w)| (i.to_string(), w)),
    ) {
        return Some(format!("mixed-geometry setup failed: {e}"));
    }

    for packed in [false, true] {
        if packed {
            db.pack_all();
        }
        let mut covered = 0;
        for op in ALL_OPS {
            let pairs: Vec<Vec<usize>> = lefts
                .iter()
                .flat_map(|&(l, a)| {
                    let meets = rights
                        .iter()
                        .filter(move |&&(_, b)| reference::ref_holds(op, a, b));
                    meets.map(move |&(r, _)| vec![l, r])
                })
                .collect();
            // A juxtaposition answers by the first `from` relation's ids.
            let mut by_right = pairs.clone();
            by_right.sort_unstable_by_key(|pair| (pair[1], pair[0]));
            let mut outer: Vec<Vec<usize>> = pairs.iter().map(|pair| vec![pair[0]]).collect();
            outer.dedup();
            if matches!(op, SpatialOp::Overlapping | SpatialOp::Disjoined) {
                covered += pairs.len();
            }
            let juxtapose = |from: &str| {
                format!("select lefts.name, rights.name from {from} at lefts.loc {op} rights.loc")
            };
            for (text, expect) in [
                (juxtapose("lefts, rights on left-map, right-map"), &pairs),
                (juxtapose("rights, lefts on right-map, left-map"), &by_right),
                (
                    format!(
                        "select name from lefts on left-map at loc {op} \
                         (select rights.loc from rights on right-map)"
                    ),
                    &outer,
                ),
            ] {
                let got = match exec::query(&db, &text) {
                    Ok(rs) => positions(&rs),
                    Err(e) => return Some(format!("{text:?} failed: {e}")),
                };
                if got != *expect {
                    return Some(format!(
                        "{text:?} (packed {packed}): rows {got:?} != exact {expect:?}"
                    ));
                }
            }
        }
        // Each pair set equals the exact one, so this holds if and only
        // if overlapping and disjoined partition the cross product.
        if covered != lefts.len() * rights.len() {
            return Some(format!("overlapping and disjoined cover {covered} pairs"));
        }
        for (relation, picture, side) in sides {
            for (wi, w) in case.windows.iter().enumerate() {
                let shape = reference::window_shape(w);
                for op in ALL_OPS {
                    let expect: Vec<Vec<usize>> = side
                        .iter()
                        .filter(|&&(_, obj)| reference::ref_holds(op, obj, &shape))
                        .map(|&(i, _)| vec![i])
                        .collect();
                    let at = format!("select name from {relation} on {picture} at loc {op}");
                    for text in [
                        format!("{at} {}", window_text(w)),
                        format!("{at} (select wins.loc from wins on win-map where name = '{wi}')"),
                    ] {
                        let got = match exec::query(&db, &text) {
                            Ok(rs) => positions(&rs),
                            Err(e) => return Some(format!("{text:?} failed: {e}")),
                        };
                        if got != expect {
                            return Some(format!(
                                "{text:?} (packed {packed}, window {w:?}): rows {got:?} != \
                                 exact {expect:?}"
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// A result's rows in the order they came, each name parsed back to the
/// position of its object in the case. Positions ascend with object ids
/// in every picture, so a reference listed by position is in the order
/// PSQL answers in.
fn positions(rs: &psql::ResultSet) -> Vec<Vec<usize>> {
    let position = |v: &Value| {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .unwrap_or(usize::MAX)
    };
    rs.rows
        .iter()
        .map(|row| row.iter().map(position).collect())
        .collect()
}

/// Runs the full differential check — geometry predicates, tree paths,
/// PSQL end-to-end, the mixed read/write delta level and the
/// mixed-geometry level — returning the first disagreement found.
pub fn check_case(case: &Case) -> Option<String> {
    check_geom(case)
        .or_else(|| check_tree(case))
        .or_else(|| check_psql(case))
        .or_else(|| check_mixed(case))
        .or_else(|| check_shapes(case))
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedy deletion shrinking: repeatedly drop one object / window /
/// probe / knn query; keep any smaller case that still diverges. Returns
/// `(smallest case, detail, reached fixpoint)`.
fn shrink(case: Case, detail: String, budget: usize) -> (Case, String, bool) {
    let mut best = case;
    let mut best_detail = detail;
    let mut checks = 0usize;
    loop {
        let mut improved = false;
        let candidates = removal_candidates(&best);
        for cand in candidates {
            if checks >= budget {
                return (best, best_detail, false);
            }
            checks += 1;
            if let Some(d) = check_case(&cand) {
                best = cand;
                best_detail = d;
                improved = true;
                break; // restart from the smaller case
            }
        }
        if !improved {
            return (best, best_detail, true);
        }
    }
}

fn removal_candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for i in 0..case.objects.len() {
        let mut c = case.clone();
        c.objects.remove(i);
        c.remove_mask.remove(i);
        if i < c.pack_prefix {
            c.pack_prefix -= 1;
        }
        out.push(c);
    }
    for i in 0..case.windows.len() {
        if case.windows.len() > 1 {
            let mut c = case.clone();
            c.windows.remove(i);
            out.push(c);
        }
    }
    for i in 0..case.probes.len() {
        let mut c = case.clone();
        c.probes.remove(i);
        out.push(c);
    }
    for i in 0..case.knn.len() {
        let mut c = case.clone();
        c.knn.remove(i);
        out.push(c);
    }
    for i in 0..case.shapes.len() {
        let mut c = case.clone();
        c.shapes.remove(i);
        out.push(c);
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Runs `config.cases` generated cases, shrinking and collecting
/// divergences (stopping after five — a stuck run reports the pattern,
/// not ten thousand copies of it).
pub fn run(config: &FuzzConfig) -> Vec<Divergence> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut shape_rng = StdRng::seed_from_u64(config.seed ^ SHAPE_STREAM);
    let mut out = Vec::new();
    for case_index in 0..config.cases {
        let case = generate(&mut rng, &mut shape_rng);
        if let Some(detail) = check_case(&case) {
            let (case, detail, minimized) = shrink(case, detail, 2000);
            out.push(Divergence {
                seed: config.seed,
                case_index,
                detail,
                case,
                minimized,
            });
            if out.len() >= 5 {
                break;
            }
        }
    }
    out
}

/// Runs several seeds, concatenating their divergences.
pub fn run_seeds(seeds: &[u64], cases: usize) -> Vec<Divergence> {
    seeds
        .iter()
        .flat_map(|&seed| run(&FuzzConfig { seed, cases }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_is_clean() {
        let divergences = run(&FuzzConfig { seed: 7, cases: 25 });
        assert!(
            divergences.is_empty(),
            "engine diverged from oracle:\n{}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn wide_trees_keep_the_recursive_order() {
        // Enough objects that an M = 102 node has children in both
        // 64-lane chunks, so the two-chunk traversal orders children,
        // not just leaf hits.
        let mut rng = StdRng::seed_from_u64(1985);
        let objects: Vec<SpatialObject> = (0..7_000).map(|_| object(&mut rng)).collect();
        let items: Vec<(Rect, ItemId)> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.mbr(), ItemId(i as u64)))
            .collect();
        let case = Case {
            remove_mask: vec![false; objects.len()],
            objects,
            windows: (0..24).map(|_| rect(&mut rng)).collect(),
            probes: (0..24)
                .map(|_| Point::new(coord(&mut rng), coord(&mut rng)))
                .collect(),
            knn: Vec::new(),
            check_disk: false,
            pack_db: false,
            pack_prefix: 0,
            shapes: Vec::new(),
        };
        let config = RTreeConfig::with_branching(102);
        let packed = packed_rtree_core::pack(items.clone(), config);
        let mut guttman = RTree::new(config);
        for &(r, id) in &items {
            guttman.insert(r, id);
        }
        for tree in [&packed, &guttman] {
            assert!(tree.depth() >= 1, "the tree must have internal levels");
            assert_eq!(check_search_order(tree, &items, &case), None);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let rngs = || (StdRng::seed_from_u64(99), StdRng::seed_from_u64(100));
        let ((mut a, mut a_shapes), (mut b, mut b_shapes)) = (rngs(), rngs());
        let ca = generate(&mut a, &mut a_shapes);
        let cb = generate(&mut b, &mut b_shapes);
        assert_eq!(format!("{ca:?}"), format!("{cb:?}"));
    }

    #[test]
    fn shrinking_reduces_a_planted_divergence() {
        // Plant a fake "divergence": any case whose object list contains
        // a point at (3, 3) "fails". The shrinker should strip everything
        // else.
        let case = Case {
            objects: vec![
                SpatialObject::Point(Point::new(1.0, 1.0)),
                SpatialObject::Point(Point::new(3.0, 3.0)),
                SpatialObject::Point(Point::new(5.0, 5.0)),
            ],
            windows: vec![Rect::new(0.0, 0.0, 8.0, 8.0), Rect::new(1.0, 1.0, 2.0, 2.0)],
            probes: vec![Point::new(0.0, 0.0)],
            knn: vec![(Point::new(2.0, 2.0), 1)],
            remove_mask: vec![false, false, false],
            check_disk: false,
            pack_db: false,
            pack_prefix: 2,
            shapes: Vec::new(),
        };
        let fails = |c: &Case| {
            c.objects
                .iter()
                .any(|o| matches!(o, SpatialObject::Point(p) if p.x == 3.0 && p.y == 3.0))
        };
        // Reuse the production shrink loop against the planted predicate.
        let mut best = case;
        loop {
            let mut improved = false;
            for cand in removal_candidates(&best) {
                if fails(&cand) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        assert_eq!(best.objects.len(), 1);
        assert!(best.probes.is_empty());
        assert!(best.knn.is_empty());
        assert_eq!(best.windows.len(), 1);
    }
}
