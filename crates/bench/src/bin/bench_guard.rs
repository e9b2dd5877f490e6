//! Performance regression guard for the window-query hot paths.
//!
//! Re-measures the 1M-point window-query profile of `layout_bench`
//! (`rtree_bench::window_paths`: same seeds, same tree, same 2000
//! windows, same loops) against the committed `BENCH_layout.json` on
//! two paths —
//!
//! 1. the pointer-tree scratch path (`pointer_scratch_ns_per_op`);
//! 2. the frozen-arena scratch path (`frozen_scratch_ns_per_op`);
//!
//! — and two `Picture` read paths against a reference measured in the
//! same run, so they are immune to machine variance:
//!
//! 3. the `Picture` read path with a **nonempty delta** (buffered
//!    dynamic writes awaiting the background merge), against the same
//!    picture freshly packed. Before the write-path fix a single
//!    dynamic insert silently dropped the frozen arena and roughly
//!    doubled query latency; this is the tripwire against that class
//!    of regression;
//! 4. a **Table-1-scale picture** (J = 900, M = 4) answering windows
//!    and k-NN from its arena, against the same queries on its own
//!    pointer `tree()`: every packed picture serves the arena whatever
//!    its size, and this row is what says small ones lose nothing by it.
//!
//! — and the layer downstream of the tree, against the same file:
//!
//! 5. the PSQL executor's **row pipeline** (`execute_ns_per_row` of the
//!    `row_pipeline` entry): 20-row `covered-by` windows through
//!    `execute_plan_with_scratch` on a `sites`-shaped relation —
//!    backlinks, tuple fetch, projection and highlights per answered
//!    row, so materialisation is guarded the way traversal is.
//!
//! — and the layer under the disk tree, the storage crate's per-page
//! software cost (the `page_path` entry, on a 200 000-point tree):
//!
//! 6. the page **checksum** (`crc_ns_per_page`), a buffer-pool **miss**
//!    over a page file at 1 024 frames (`pool_miss_ns_per_page`) and a
//!    **node visited** by `DiskRTree::search_within`
//!    (`disk_search_ns_per_node`), each against the same file;
//! 7. one machine-independent tripwire measured in this run: a pool
//!    miss at 4 096 frames may cost at most 1.5× a miss at 64 frames
//!    over the same pages — replacement that scans its frames fails it
//!    on any machine.
//!
//! — and the cost of holding a picture at all, both machine-independent:
//!
//! 8. **load + first pack vs repack**: adding the delta guard's points to
//!    a fresh picture and packing it may cost at most 1.6× a repack of
//!    that picture. A loader that builds an index the pack throws away
//!    (every `add` a Guttman INSERT: ≈ 3.0×) fails it on any machine;
//! 9. **packed bytes per object**: the same picture's packed
//!    `estimated_bytes` per object stays under a committed ceiling —
//!    the arena PACK wrote and a columnar store, not a pointer tree
//!    beside them, nor an enum and a `String` each;
//! 10. **relation bytes per tuple**: a `sites(site, weight, loc)`
//!     relation of as many tuples, each name ≤ 7 bytes, holds its
//!     `estimated_bytes` per tuple under a committed ceiling — one typed
//!     plane per column, not a boxed row of `Value`s and a `String` each.
//!
//! — and three more machine-independent tripwires, on PACK itself and
//! on the arena and the leaves it ends in:
//!
//! 11. **PACK horizontal line vs uniform**: packing the delta guard's
//!     points moved onto one horizontal line may cost at most 2× packing
//!     them where they are. The nearest-neighbour sweep runs along each
//!     slab's longer extent; one that always swept y would scan the whole
//!     slab per neighbour on such a line (≈ 13×) and fails it on any
//!     machine;
//! 12. **freeze vs the pack that built it**: compiling all `n` points'
//!     packed tree into the frozen arena may cost at most 0.3× the PACK
//!     that built it. The freeze is two passes of copying and reads
//!     ≈ 0.06 at n = 200 000 and ≈ 0.2 at 1M. A freeze through a hashed
//!     node map and a per-node entry copy reads ≈ 0.2–0.26 and ≈ 0.38:
//!     the default n fails it on any machine, n = 200 000 only a freeze
//!     several times slower than that;
//! 13. **exact overlap vs the pack that built its tree**: the paper's
//!     `C` and `O` over the leaves of that tree (`TreeMetrics::measure`,
//!     250 000 leaves at the default n) may cost at most 4× the PACK that
//!     built it. The sweep over x reads ≈ 1.1–1.4, and ≈ 0.6 at
//!     n = 200 000; a `(2n)²` cell grid cannot even allocate at either
//!     size, and a quadratic overlap takes minutes, so both fail on any
//!     machine.
//!
//! It fails (exit code 1) if any measured figure exceeds its
//! baseline by more than the allowed factor. The factor defaults to
//! 2.0: CI runners are slower and noisier than the machine that wrote
//! the baselines, so the guard only trips on gross regressions (an
//! accidentally quadratic traversal, a reintroduced per-query
//! allocation storm), never on scheduler jitter.
//!
//! Environment knobs:
//! - `BENCH_GUARD_FACTOR`  — allowed slowdown factor (default `2.0`)
//! - `BENCH_GUARD_N`       — dataset size (default `1000000`)
//!
//! Run with: `cargo run --release -p rtree-bench --bin bench_guard`

use packed_rtree_core::pack;
use pictorial_relational::{Column, ColumnType, Relation, Schema, Value};
use psql::picture::Picture;
use psql::SpatialOp;
use rtree_bench::{
    best_of_three_ns as best_of_three, experiment_seed, page_path, row_pipeline, window_paths,
    WindowPaths,
};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::{FrozenRTree, ItemId, RTreeConfig, SearchScratch, TreeMetrics};
use rtree_workload::{points, queries, PAPER_UNIVERSE};

/// The committed baseline, written by `layout_bench` at the repo root.
const LAYOUT_BASELINE: &str = "BENCH_layout.json";

fn main() {
    let factor: f64 = std::env::var("BENCH_GUARD_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let n: usize = std::env::var("BENCH_GUARD_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    let layout = match std::fs::read_to_string(LAYOUT_BASELINE) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_guard: cannot read {LAYOUT_BASELINE}: {e}");
            std::process::exit(1);
        }
    };
    // A guard that silently skips is no guard: a missing key fails.
    let baseline = |key: &str| {
        json_number(&layout, key).unwrap_or_else(|| {
            eprintln!("bench_guard: no {key} in {LAYOUT_BASELINE}");
            std::process::exit(1);
        })
    };
    let pointer_baseline = baseline("pointer_scratch_ns_per_op");
    let frozen_baseline = baseline("frozen_scratch_ns_per_op");
    let row_baseline = baseline("execute_ns_per_row");
    let crc_baseline = baseline("crc_ns_per_page");
    let miss_baseline = baseline("pool_miss_ns_per_page");
    let node_baseline = baseline("disk_search_ns_per_node");

    let seed = experiment_seed();
    let WindowPaths {
        points: pts,
        windows,
        query_rng: mut q_rng,
        pointer_scratch_ns_per_op: pointer_ns,
        frozen_scratch_ns_per_op: frozen_ns,
        ..
    } = window_paths(n, seed);
    let mut scratch = SearchScratch::new();

    // The delta read guard: a packed picture with buffered dynamic
    // writes must answer windows at packed-picture speed (the delta
    // tree is tiny; the frozen main tree keeps serving).
    let delta_n = (n / 4).clamp(250_000.min(n), 400_000);
    let load_and_pack = || {
        let mut picture = Picture::new("guard", PAPER_UNIVERSE, RTreeConfig::PAPER);
        for (i, p) in pts.iter().take(delta_n).enumerate() {
            picture.add(SpatialObject::Point(*p), &format!("g{i}"));
        }
        picture.pack();
        picture
    };
    // The load guard: what the picture costs per object to load and
    // pack once, against packing it again; and what it then holds.
    let load_pack_ns = best_of_three(delta_n, load_and_pack);
    let mut picture = load_and_pack();
    let repack_ns = best_of_three(delta_n, || picture.pack());
    let packed_bytes_per_object = picture.estimated_bytes().0 as f64 / delta_n as f64;
    let packed_picture_ns = picture_window_ns(&picture, &windows, &mut scratch);
    let relation_bytes_per_tuple =
        sites_relation(delta_n).estimated_bytes() as f64 / delta_n as f64;
    let delta_pts = points::uniform(&mut q_rng, &PAPER_UNIVERSE, 1_024);
    for (i, p) in delta_pts.iter().enumerate() {
        picture.add(SpatialObject::Point(*p), &format!("d{i}"));
    }
    assert!(picture.delta_len() > 0, "delta must be nonempty");
    assert!(picture.frozen().is_some(), "picture lost its arena");
    let delta_picture_ns = picture_window_ns(&picture, &windows, &mut scratch);

    // The small-picture guard: Table 1's J = 900 picture, served from
    // its arena, against its own pointer tree on the same queries.
    let mut small = Picture::new("table1", PAPER_UNIVERSE, RTreeConfig::PAPER);
    for (i, p) in pts.iter().take(900).enumerate() {
        small.add(SpatialObject::Point(*p), &format!("t{i}"));
    }
    small.pack();
    assert!(small.frozen().is_some() && small.delta_len() == 0);
    let small_windows = queries::window_queries(&mut q_rng, &PAPER_UNIVERSE, 2_000, 0.01);
    let small_window_ns = picture_window_ns(&small, &small_windows, &mut scratch);
    let small_window_tree_ns = best_of_three(small_windows.len(), || {
        for w in &small_windows {
            let hits = small.tree().search_within_into(w, &mut scratch);
            std::hint::black_box(hits.iter().map(|item| item.0).collect::<Vec<u64>>());
        }
    });
    let small_knn_ns = best_of_three(small_windows.len(), || {
        for w in &small_windows {
            std::hint::black_box(small.nearest_fast(w.center(), 10, &mut scratch));
        }
    });
    let small_knn_tree_ns = best_of_three(small_windows.len(), || {
        for w in &small_windows {
            let near = small
                .tree()
                .nearest_neighbors_into(w.center(), 10, scratch.knn());
            std::hint::black_box(near.iter().map(|n| n.item.0).collect::<Vec<u64>>());
        }
    });

    // The distribution tripwire: the same points, then on one line.
    let line_y = PAPER_UNIVERSE.center().y;
    let pack_ns = |at: &dyn Fn(&Point) -> Point| {
        let items: Vec<(Rect, ItemId)> = (0u64..)
            .zip(&pts[..delta_n])
            .map(|(i, p)| (Rect::from_point(at(p)), ItemId(i)))
            .collect();
        best_of_three(delta_n, || pack(items.clone(), RTreeConfig::PAPER))
    };
    let pack_uniform_ns = pack_ns(&|p| *p);
    let pack_line_ns = pack_ns(&|p| Point::new(p.x, line_y));

    // The freeze and overlap tripwires: all `n` points packed, then that
    // tree frozen, and its leaves' exact `C` and `O` measured.
    let all_items = points::as_items(&pts);
    let pack_all_ns = best_of_three(n, || pack(all_items.clone(), RTreeConfig::PAPER));
    let packed = pack(all_items, RTreeConfig::PAPER);
    let freeze_ns = best_of_three(n, || FrozenRTree::freeze(&packed));
    let overlap_ns = best_of_three(n, || TreeMetrics::measure(&packed));
    drop(packed);

    let rows = row_pipeline(&pts, seed ^ 0x5851f42d4c957f2d);
    assert!(rows.rows_per_query > 10.0, "windows stopped answering rows");

    let pages = page_path(&pts, seed ^ 0x5851f42d4c957f2d);
    assert!(
        pages.nodes_per_query > 10.0,
        "windows stopped visiting nodes"
    );

    /// What a pool miss may cost at 4 096 frames, in misses at 64.
    const FRAMES_FACTOR: f64 = 1.5;
    /// What loading a picture and packing it once may cost, in repacks.
    const LOAD_FACTOR: f64 = 1.6;
    /// Packed `estimated_bytes` per point with a ≤ 7-byte label: ≈ 55 of
    /// arena, ≈ 27 of slot, label and offset. A packed pointer tree
    /// (≈ 75 more) fails it.
    const PACKED_BYTES_CEILING: f64 = 100.0;
    /// `estimated_bytes` per sites tuple with a ≤ 7-byte name: ≤ 27 B of
    /// data, and spare capacity under 2× that at any n (≈ 29.5 at the
    /// default n, ≈ 37 at n = 200 000, ≈ 48 just past a power of two). A
    /// slot, a boxed row of three `Value`s and a `String` (≈ 130) fails it.
    const RELATION_BYTES_CEILING: f64 = 56.0;
    /// What packing points on one line may cost, in uniform packs.
    const LINE_FACTOR: f64 = 2.0;
    /// What freezing a packed tree may cost, in packs that built it.
    const FREEZE_FACTOR: f64 = 0.3;
    /// What the exact `C` and `O` of a packed tree may cost, in packs.
    const OVERLAP_FACTOR: f64 = 4.0;

    let mut failed = false;
    let held_to_factor = [
        ("pointer scratch window", pointer_ns, pointer_baseline),
        ("frozen scratch window", frozen_ns, frozen_baseline),
        ("nonempty delta window", delta_picture_ns, packed_picture_ns),
        (
            "J=900 picture window",
            small_window_ns,
            small_window_tree_ns,
        ),
        ("J=900 picture k-NN", small_knn_ns, small_knn_tree_ns),
        (
            "row pipeline (per row)",
            rows.execute_ns_per_row,
            row_baseline,
        ),
        ("page checksum", pages.crc_ns_per_page, crc_baseline),
        (
            "pool miss (1024 frames)",
            pages.pool_miss_ns_per_page,
            miss_baseline,
        ),
        (
            "disk search (per node)",
            pages.disk_search_ns_per_node,
            node_baseline,
        ),
    ]
    .map(|(name, measured, baseline)| (name, measured, baseline, factor, "ns/op"));
    let tripwires = [
        (
            "pool miss, 4096 vs 64 frames",
            pages.pool_miss_ns_at_4096_frames,
            pages.pool_miss_ns_at_64_frames,
            FRAMES_FACTOR,
            "ns/op",
        ),
        (
            "load + first pack vs repack",
            load_pack_ns,
            repack_ns,
            LOAD_FACTOR,
            "ns/op",
        ),
        (
            "packed bytes per object",
            packed_bytes_per_object,
            PACKED_BYTES_CEILING,
            1.0,
            "B",
        ),
        (
            "relation bytes per tuple",
            relation_bytes_per_tuple,
            RELATION_BYTES_CEILING,
            1.0,
            "B",
        ),
        (
            "PACK horizontal line vs uniform",
            pack_line_ns,
            pack_uniform_ns,
            LINE_FACTOR,
            "ns/op",
        ),
        (
            "freeze vs the pack that built it",
            freeze_ns,
            pack_all_ns,
            FREEZE_FACTOR,
            "ns/op",
        ),
        (
            "exact overlap vs the pack that built its tree",
            overlap_ns,
            pack_all_ns,
            OVERLAP_FACTOR,
            "ns/op",
        ),
    ];
    for (name, measured, baseline, factor, unit) in held_to_factor.into_iter().chain(tripwires) {
        let limit = baseline * factor;
        println!(
            "bench_guard: {name} path {measured:.0} {unit} \
             (baseline {baseline:.0}, limit {limit:.0} = {factor}x, n = {n})"
        );
        if measured > limit {
            eprintln!(
                "bench_guard: FAIL — {name} at {measured:.0} {unit} exceeds {factor}x \
                 its baseline; the guarded path has regressed"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

/// A `sites(site, weight, loc)` relation of `n` tuples, shaped as the
/// served benchmark loads it.
fn sites_relation(n: usize) -> Relation {
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("weight", ColumnType::Int),
        Column::new("loc", ColumnType::Pointer),
    ])
    .expect("valid schema");
    let mut sites = Relation::new("sites", schema);
    for i in 0..n as u64 {
        let tuple = vec![
            format!("g{i}").into(),
            (i as i64 % 1000).into(),
            Value::Pointer(i),
        ];
        sites.insert(tuple).expect("valid tuple");
    }
    sites
}

/// ns per window of `picture`'s served `covered-by` path.
fn picture_window_ns(picture: &Picture, windows: &[Rect], scratch: &mut SearchScratch) -> f64 {
    best_of_three(windows.len(), || {
        for w in windows {
            std::hint::black_box(picture.search_window_fast(SpatialOp::CoveredBy, w, scratch));
        }
    })
}

/// Extracts `"key": <number>` from a JSON document by string scan — the
/// workspace deliberately has no JSON dependency, and the baseline file
/// is machine-written with this exact shape.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
