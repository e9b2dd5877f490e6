//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see `DESIGN.md` §3 for the index); this library holds
//! the measurement code they share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use packed_rtree_core::{pack_with, PackStrategy};
use rand::rngs::StdRng;
use rtree_geom::{Point, Rect};
use rtree_index::{
    FrozenRTree, ItemId, RTree, RTreeConfig, SearchScratch, SearchStats, SplitPolicy, TreeMetrics,
};
use rtree_workload::{points, queries, rng, PAPER_UNIVERSE};

/// Seed used by all experiments (fixed for reproducibility; vary with
/// `PACKED_RTREE_SEED` to check robustness).
pub fn experiment_seed() -> u64 {
    std::env::var("PACKED_RTREE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1985)
}

/// Salt XORed into the base seed to derive the query stream, so query
/// geometry is decorrelated from the data while both flow from the one
/// experiment seed.
pub const QUERY_SEED_SALT: u64 = 0x5eed_cafe;

/// The seeded uniform workload over [`PAPER_UNIVERSE`] (the paper's
/// `[0,1000]²` space) that every experiment binary draws from.
///
/// Data and queries come from two independent streams derived from one
/// seed: the data stream is `rng(seed)`, the query stream
/// `rng(seed ^ QUERY_SEED_SALT)`. Each generator method starts its
/// stream fresh, so the same `SeededWorkload` always hands out
/// bit-identical geometry regardless of call order — that property is
/// what keeps Table 1's structural assertions (e.g. PACK `N=302, D=4`
/// at `J=900`) reproducible across binaries.
#[derive(Debug, Clone, Copy)]
pub struct SeededWorkload {
    /// Base seed for the data stream.
    pub seed: u64,
}

impl SeededWorkload {
    /// Workload for an explicit seed.
    pub fn new(seed: u64) -> Self {
        SeededWorkload { seed }
    }

    /// Workload for [`experiment_seed`] (the `PACKED_RTREE_SEED`-
    /// overridable default).
    pub fn from_env() -> Self {
        SeededWorkload::new(experiment_seed())
    }

    /// A fresh data-stream RNG — for generators beyond plain uniform
    /// points (clustered/skewed/diagonal sweeps draw from this
    /// sequentially).
    pub fn data_rng(&self) -> StdRng {
        rng(self.seed)
    }

    /// A fresh query-stream RNG.
    pub fn query_rng(&self) -> StdRng {
        rng(self.seed ^ QUERY_SEED_SALT)
    }

    /// `j` uniform points in the paper universe.
    pub fn uniform_points(&self, j: usize) -> Vec<Point> {
        points::uniform(&mut self.data_rng(), &PAPER_UNIVERSE, j)
    }

    /// `j` uniform points as `(mbr, id)` items ready for tree building.
    pub fn uniform_items(&self, j: usize) -> Vec<(Rect, ItemId)> {
        points::as_items(&self.uniform_points(j))
    }

    /// `n` random point queries.
    pub fn point_queries(&self, n: usize) -> Vec<Point> {
        queries::point_queries(&mut self.query_rng(), &PAPER_UNIVERSE, n)
    }

    /// `n` random window queries, each covering `selectivity` of the
    /// universe's area.
    pub fn window_queries(&self, n: usize, selectivity: f64) -> Vec<Rect> {
        queries::window_queries(&mut self.query_rng(), &PAPER_UNIVERSE, n, selectivity)
    }
}

/// ns/op of `run` over `n` operations: one untimed full pass (warm-up),
/// then the best of three timed passes. `layout_bench` writes its
/// baselines and `bench_guard` re-measures them with this one function,
/// so committed numbers and guard measurements are comparable and
/// shared-box noise inflates neither side of a ratio.
pub fn best_of_three_ns<T>(n: usize, mut run: impl FnMut() -> T) -> f64 {
    std::hint::black_box(run());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        std::hint::black_box(run());
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// The window-query profile `BENCH_layout.json` records: `n` uniform
/// points packed once (M = 4) and held in both physical forms, 2 000
/// windows of selectivity 0.0001, and ns per window on the two paths
/// `bench_guard` holds to that file.
#[derive(Debug)]
pub struct WindowPaths {
    /// The packed points, in generation order.
    pub points: Vec<Point>,
    /// PACK's pointer tree over them.
    pub tree: RTree,
    /// The same tree frozen into the SoA arena.
    pub frozen: FrozenRTree,
    /// The windows every path answers.
    pub windows: Vec<Rect>,
    /// The query stream just past the windows, for the caller's further
    /// draws (probes, k-NN points, delta points).
    pub query_rng: StdRng,
    /// `RTree::search_within_into` per window.
    pub pointer_scratch_ns_per_op: f64,
    /// `FrozenRTree::search_within_into` per window.
    pub frozen_scratch_ns_per_op: f64,
}

/// Measures [`WindowPaths`]. `layout_bench` writes the two figures to
/// `BENCH_layout.json` and `bench_guard` re-measures them through this
/// one function, so the guard compares like with like by construction.
pub fn window_paths(n: usize, seed: u64) -> WindowPaths {
    let points = points::uniform(&mut rng(seed ^ 0x9e3779b97f4a7c15), &PAPER_UNIVERSE, n);
    let tree = pack_with(
        points::as_items(&points),
        RTreeConfig::PAPER,
        PackStrategy::NearestNeighbor,
    );
    let frozen = FrozenRTree::freeze(&tree);
    let mut query_rng = rng(seed ^ 0x5851f42d4c957f2d);
    let windows = queries::window_queries(&mut query_rng, &PAPER_UNIVERSE, 2_000, 0.0001);

    let mut scratch = SearchScratch::new();
    let pointer_scratch_ns_per_op = best_of_three_ns(windows.len(), || {
        for w in &windows {
            std::hint::black_box(tree.search_within_into(w, &mut scratch));
        }
    });
    let frozen_scratch_ns_per_op = best_of_three_ns(windows.len(), || {
        for w in &windows {
            std::hint::black_box(frozen.search_within_into(w, &mut scratch));
        }
    });
    WindowPaths {
        points,
        tree,
        frozen,
        windows,
        query_rng,
        pointer_scratch_ns_per_op,
        frozen_scratch_ns_per_op,
    }
}

/// What the PSQL executor adds between the picture search and the
/// `ResultSet`, measured on the shape the query service serves.
#[derive(Debug, Clone, Copy)]
pub struct RowPipeline {
    /// Objects in the picture = tuples in the relation.
    pub n: usize,
    /// Window queries per timed pass.
    pub queries: usize,
    /// Mean rows (= highlights) a query answers.
    pub rows_per_query: f64,
    /// `execute_plan_with_scratch` time per answered row, search
    /// included.
    pub execute_ns_per_row: f64,
}

/// Measures [`RowPipeline`]: loads `points` as picture `site-map` and
/// relation `sites(site, weight, loc)`, packs, and executes 2 000
/// prepared `covered-by` windows sized to answer ~20 rows each — two
/// projected columns and one highlight per row, so backlinks, tuple
/// fetch, projection and highlight construction all run.
pub fn row_pipeline(points: &[Point], seed: u64) -> RowPipeline {
    use pictorial_relational::{Column, ColumnType, Schema, Value};
    use psql::database::PictorialDatabase;
    use rtree_geom::SpatialObject;

    const ROWS: f64 = 20.0;
    let n = points.len();
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", PAPER_UNIVERSE)
        .expect("fresh picture");
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("weight", ColumnType::Int),
        Column::new("loc", ColumnType::Pointer),
    ])
    .expect("valid schema");
    db.catalog_mut()
        .create_relation("sites", schema)
        .expect("fresh relation");
    db.associate("sites", "loc", "site-map")
        .expect("association");
    for (i, p) in points.iter().enumerate() {
        let site = format!("s{i}");
        let object = db
            .add_object("site-map", SpatialObject::Point(*p), &site)
            .expect("picture exists");
        let tuple = vec![
            site.into(),
            (i as i64 % 1000).into(),
            Value::Pointer(object),
        ];
        db.insert("sites", tuple).expect("valid tuple");
    }
    db.pack_all();

    let selectivity = (ROWS / n.max(1) as f64).min(1.0);
    let plans: Vec<psql::plan::Plan> =
        queries::window_queries(&mut rng(seed), &PAPER_UNIVERSE, 2_000, selectivity)
            .iter()
            .map(|w| {
                let (dx, dy) = ((w.max_x - w.min_x) / 2.0, (w.max_y - w.min_y) / 2.0);
                let text = format!(
                    "select site, weight from sites on site-map \
                     at loc covered-by {{{} +- {dx}, {} +- {dy}}}",
                    w.min_x + dx,
                    w.min_y + dy
                );
                let query = psql::parse_query(&text).expect("generated text parses");
                psql::plan::plan(&db, &query).expect("generated query plans")
            })
            .collect();

    let functions = psql::functions::FunctionRegistry::with_builtins();
    let mut scratch = rtree_index::SearchScratch::new();
    let mut rows = 0usize;
    let ns_per_query = best_of_three_ns(plans.len(), || {
        rows = 0;
        for plan in &plans {
            let result = psql::exec::execute_plan_with_scratch(&db, plan, &functions, &mut scratch)
                .expect("generated query executes");
            assert_eq!(result.highlights.len(), result.len());
            rows += result.len();
            std::hint::black_box(result);
        }
    });
    let rows_per_query = rows as f64 / plans.len() as f64;
    RowPipeline {
        n,
        queries: plans.len(),
        rows_per_query,
        execute_ns_per_row: ns_per_query / rows_per_query.max(1.0),
    }
}

/// What the storage layer itself costs per page, device aside: the
/// checksum, a buffer-pool miss and a node visited on the disk tree.
#[derive(Debug, Clone, Copy)]
pub struct PagePath {
    /// Points in the packed disk tree searched.
    pub points: usize,
    /// `crc32` over the sealed span of a node page as PACK writes them
    /// under M = 4 (4 % full).
    pub crc_ns_per_page: f64,
    /// A `BufferPool::with_page` that misses, over a [`Pager`] file in
    /// the OS page cache, at [`PAGE_PATH_FRAMES`] frames: a `pread`, a
    /// verify and a frame replacement.
    ///
    /// [`Pager`]: rtree_storage::Pager
    pub pool_miss_ns_per_page: f64,
    /// The same miss at 64 and at 4 096 frames over the same pages, for
    /// the frames-independence tripwire: replacement must not scan.
    pub pool_miss_ns_at_64_frames: f64,
    /// See [`pool_miss_ns_at_64_frames`](PagePath::pool_miss_ns_at_64_frames).
    pub pool_miss_ns_at_4096_frames: f64,
    /// `DiskRTree::search_within` time per node visited, through a
    /// [`PAGE_PATH_FRAMES`]-frame pool far smaller than the tree.
    pub disk_search_ns_per_node: f64,
    /// Mean nodes a window visits.
    pub nodes_per_query: f64,
    /// Share of those page requests the pool served from memory.
    pub pool_hit_ratio: f64,
}

/// Pool size of the [`PagePath`] measurements: the `bulk_load`
/// workload's.
pub const PAGE_PATH_FRAMES: usize = 1024;

/// Measures [`PagePath`] on the first 200 000 of `points`, packed with
/// M = 4 and stored one node a page. `layout_bench` writes the result to
/// `BENCH_layout.json`; `bench_guard` re-measures it against that.
pub fn page_path(points: &[Point], seed: u64) -> PagePath {
    use rtree_storage::page::CRC_OFFSET;
    use rtree_storage::{BufferPool, DiskRTree, NodePageWriter, PageId, Pager};

    // Pages the miss loops cycle over: twice the largest pool, so under
    // strict LRU every access of every pass misses at every pool size.
    const MISS_PAGES: u32 = 2 * 4096;

    let points = &points[..points.len().min(200_000)];
    let items = points::as_items(points);
    let tree = build_pack(&items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    let pager = Pager::temp().expect("temp page file");
    let disk = DiskRTree::store(&tree, &pager).expect("store packed tree");

    let leaf = pager.read_page(PageId(0)).expect("first leaf");
    let crc_ns_per_page = best_of_three_ns(100_000, || {
        for _ in 0..100_000 {
            std::hint::black_box(rtree_storage::crc::crc32(std::hint::black_box(
                &leaf.bytes()[..CRC_OFFSET],
            )));
        }
    });

    let scratch = Pager::temp().expect("temp page file");
    let mut writer = NodePageWriter::new(&scratch, 64);
    let entries: Vec<_> = rtree_storage::codec::decode(&leaf)
        .expect("leaf decodes")
        .entries;
    for _ in 0..MISS_PAGES {
        writer.push(0, &entries).expect("write page");
    }
    writer.finish().expect("flush pages");
    // Both files go to the device now, not in the background of the
    // timed loops below.
    pager.sync().expect("sync tree file");
    scratch.sync().expect("sync page file");
    let miss_ns = |frames: usize| {
        let pool = BufferPool::new(&scratch, frames);
        let ns = best_of_three_ns(MISS_PAGES as usize, || {
            for id in (0..MISS_PAGES).map(PageId) {
                pool.with_page(id, |p| std::hint::black_box(p.tag()))
                    .expect("page reads");
            }
        });
        assert_eq!(pool.stats().hits, 0, "the cyclic scan must always miss");
        ns
    };
    // The tripwire's two sides alternate, so a burst of noise from the
    // shared box falls on both or on neither.
    let (mut pool_miss_ns_at_64_frames, mut pool_miss_ns_at_4096_frames) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        pool_miss_ns_at_64_frames = pool_miss_ns_at_64_frames.min(miss_ns(64));
        pool_miss_ns_at_4096_frames = pool_miss_ns_at_4096_frames.min(miss_ns(4096));
    }
    let pool_miss_ns_per_page = miss_ns(PAGE_PATH_FRAMES);

    let windows = queries::window_queries(&mut rng(seed), &PAPER_UNIVERSE, 2_000, 0.0001);
    let pool = BufferPool::new(&pager, PAGE_PATH_FRAMES);
    let mut stats = SearchStats::default();
    let ns_per_query = best_of_three_ns(windows.len(), || {
        stats = SearchStats::default();
        for w in &windows {
            std::hint::black_box(disk.search_within(&pool, w, &mut stats).expect("search"));
        }
    });
    let nodes_per_query = stats.avg_nodes_visited();
    PagePath {
        points: points.len(),
        crc_ns_per_page,
        pool_miss_ns_per_page,
        pool_miss_ns_at_64_frames,
        pool_miss_ns_at_4096_frames,
        disk_search_ns_per_node: ns_per_query / nodes_per_query.max(1.0),
        nodes_per_query,
        pool_hit_ratio: pool.stats().hit_ratio(),
    }
}

/// Exact overlap area (the paper's `O`) of a large rectangle set.
///
/// [`rtree_geom::rectset::overlap_area`] compresses coordinates into a
/// dense `(2n)²`-cell grid — exact, but quadratic in memory, which rules
/// it out beyond a few thousand rectangles. This variant partitions the
/// set's bounding box into `grid × grid` disjoint tiles, clips every
/// rectangle to each tile it touches and sums the per-tile overlap. The
/// tiles partition the plane (shared edges have zero area), so the sum
/// equals the global overlap exactly while each per-tile grid stays
/// small.
pub fn tiled_overlap_area(rects: &[Rect], grid: usize) -> f64 {
    use rtree_geom::rectset;
    let grid = grid.max(1);
    let Some(bounds) = Rect::mbr_of_rects(rects.iter().copied()) else {
        return 0.0;
    };
    let w = bounds.max_x - bounds.min_x;
    let h = bounds.max_y - bounds.min_y;
    if w <= 0.0 || h <= 0.0 {
        return 0.0;
    }
    let mut tiles: Vec<Vec<Rect>> = vec![Vec::new(); grid * grid];
    let clamp_idx = |t: f64| (t as isize).clamp(0, grid as isize - 1) as usize;
    for r in rects {
        if r.area() == 0.0 {
            continue;
        }
        let tx0 = clamp_idx((r.min_x - bounds.min_x) / w * grid as f64);
        let tx1 = clamp_idx((r.max_x - bounds.min_x) / w * grid as f64);
        let ty0 = clamp_idx((r.min_y - bounds.min_y) / h * grid as f64);
        let ty1 = clamp_idx((r.max_y - bounds.min_y) / h * grid as f64);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                tiles[ty * grid + tx].push(*r);
            }
        }
    }
    let tile_rect = |tx: usize, ty: usize| {
        Rect::new(
            bounds.min_x + w * tx as f64 / grid as f64,
            bounds.min_y + h * ty as f64 / grid as f64,
            bounds.min_x + w * (tx + 1) as f64 / grid as f64,
            bounds.min_y + h * (ty + 1) as f64 / grid as f64,
        )
    };
    let mut total = 0.0;
    let mut clipped = Vec::new();
    for ty in 0..grid {
        for tx in 0..grid {
            let bucket = &tiles[ty * grid + tx];
            if bucket.len() < 2 {
                continue;
            }
            let t = tile_rect(tx, ty);
            clipped.clear();
            for r in bucket {
                let c = Rect::new(
                    r.min_x.max(t.min_x),
                    r.min_y.max(t.min_y),
                    r.max_x.min(t.max_x),
                    r.max_y.min(t.max_y),
                );
                if c.area() > 0.0 {
                    clipped.push(c);
                }
            }
            total += rectset::overlap_area(&clipped);
        }
    }
    total
}

/// One measured configuration: the columns of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Number of data objects.
    pub j: usize,
    /// Coverage `C` (sum of leaf MBR areas).
    pub coverage: f64,
    /// Overlap `O` (area covered by ≥ 2 leaf MBRs).
    pub overlap: f64,
    /// Depth `D`.
    pub depth: u32,
    /// Node count `N`.
    pub nodes: usize,
    /// Average nodes visited per point query, `A`.
    pub avg_visited: f64,
}

/// Measures one tree against the paper's 1000-random-point-query
/// workload.
pub fn measure(tree: &RTree, query_points: &[Point]) -> Table1Row {
    let m = TreeMetrics::measure(tree);
    let mut stats = SearchStats::default();
    for &q in query_points {
        tree.point_query(q, &mut stats);
    }
    Table1Row {
        j: tree.len(),
        coverage: m.coverage,
        overlap: m.overlap,
        depth: m.depth,
        nodes: m.nodes,
        avg_visited: stats.avg_nodes_visited(),
    }
}

/// Builds the paper's INSERT-side tree: Guttman insertion of `items` in
/// generation order with the given split policy (Table 1 uses
/// [`SplitPolicy::Linear`], the policy whose behaviour best matches the
/// 1985 numbers; `ablation_split` sweeps the rest).
pub fn build_insert(items: &[(Rect, ItemId)], split: SplitPolicy, branching: RTreeConfig) -> RTree {
    let mut tree = RTree::new(branching.with_split(split));
    for &(mbr, id) in items {
        tree.insert(mbr, id);
    }
    tree
}

/// Builds the PACK-side tree.
pub fn build_pack(items: &[(Rect, ItemId)], strategy: PackStrategy, config: RTreeConfig) -> RTree {
    pack_with(items.to_vec(), config, strategy)
}

/// The paper's §3.5 experiment for one `J`: same point set for both
/// algorithms, 1000 identical random queries. Returns
/// `(insert_row, pack_row)`.
pub fn table1_experiment(j: usize, seed: u64) -> (Table1Row, Table1Row) {
    let workload = SeededWorkload::new(seed);
    let items = workload.uniform_items(j);
    let query_points = workload.point_queries(1000);

    let insert_tree = build_insert(&items, SplitPolicy::Linear, RTreeConfig::PAPER);
    let pack_tree = build_pack(&items, PackStrategy::NearestNeighbor, RTreeConfig::PAPER);
    (
        measure(&insert_tree, &query_points),
        measure(&pack_tree, &query_points),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_workload_matches_the_historic_inline_pattern() {
        // The helper must be bit-exact with the pattern the binaries
        // used to inline — the Table 1 structural assertions depend on
        // this exact stream.
        let w = SeededWorkload::new(1985);
        let mut data_rng = rng(1985);
        assert_eq!(
            w.uniform_points(900),
            points::uniform(&mut data_rng, &PAPER_UNIVERSE, 900)
        );
        let mut query_rng = rng(1985 ^ 0x5eed_cafe);
        assert_eq!(
            w.point_queries(1000),
            queries::point_queries(&mut query_rng, &PAPER_UNIVERSE, 1000)
        );
        let mut query_rng = rng(1985 ^ QUERY_SEED_SALT);
        assert_eq!(
            w.window_queries(300, 0.01),
            queries::window_queries(&mut query_rng, &PAPER_UNIVERSE, 300, 0.01)
        );
        // Streams restart per call: generation order can't skew results.
        assert_eq!(w.uniform_points(100), w.uniform_points(100));
    }

    #[test]
    fn tiled_overlap_matches_dense_overlap() {
        use rand::Rng;
        let mut r = rng(7);
        let rects: Vec<Rect> = (0..400)
            .map(|_| {
                let x = r.gen_range(0.0..900.0);
                let y = r.gen_range(0.0..900.0);
                let w = r.gen_range(0.0..80.0);
                let h = r.gen_range(0.0..80.0);
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let dense = rtree_geom::rectset::overlap_area(&rects);
        for grid in [1, 3, 8, 17] {
            let tiled = tiled_overlap_area(&rects, grid);
            assert!(
                (tiled - dense).abs() <= 1e-6 * dense.max(1.0),
                "grid {grid}: {tiled} vs {dense}"
            );
        }
        assert_eq!(tiled_overlap_area(&[], 8), 0.0);
    }

    #[test]
    fn table1_experiment_is_deterministic() {
        let (a1, b1) = table1_experiment(100, 7);
        let (a2, b2) = table1_experiment(100, 7);
        assert_eq!(a1.nodes, a2.nodes);
        assert_eq!(b1.nodes, b2.nodes);
        assert_eq!(a1.avg_visited, a2.avg_visited);
        assert_eq!(b1.coverage, b2.coverage);
    }

    #[test]
    fn pack_side_matches_paper_structure() {
        // The paper reports N=302, D=4 for PACK at J=900 — structural
        // values independent of the RNG (⌈900/4⌉ = 225 leaves, etc.).
        let (_, pack) = table1_experiment(900, experiment_seed());
        assert_eq!(pack.nodes, 302);
        assert_eq!(pack.depth, 4);
        assert_eq!(pack.j, 900);
    }

    #[test]
    fn table1_direction_holds() {
        let (insert, pack) = table1_experiment(900, experiment_seed());
        assert!(pack.coverage < insert.coverage);
        assert!(pack.overlap < insert.overlap);
        assert!(pack.depth <= insert.depth);
        assert!(pack.nodes < insert.nodes);
        assert!(pack.avg_visited < insert.avg_visited);
    }
}
