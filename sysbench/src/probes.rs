//! Per-layer measurements of a traced run: direct calls into one layer
//! at a time, on the same structures and op texts the workload used.
//!
//! Every probe runs a fixed, seeded set of calls, so the counts it
//! reports (nodes per window, rows per query) repeat exactly from run to
//! run, and the times it reports do not depend on how many ops the
//! measured window happened to complete.

use crate::dataset::PICTURE;
use crate::gen::{self, stream, Query, SplitMix64, Window, KNN_K};
use crate::json::Json;
use crate::report::Layers;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use psql::database::PictorialDatabase;
use psql::functions::FunctionRegistry;
use psql::SpatialOp;
use psql_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use psql_server::Client;
use rtree_geom::{Point, Rect};
use rtree_index::{
    BatchScratch, FrozenRTree, ItemId, RTree, RTreeConfig, SearchScratch, SearchStats,
};
use rtree_storage::{BufferPool, DiskRTree, StorageResult};
use std::hint::black_box;
use std::time::Instant;

/// Calls a probe makes per timed repetition.
const CALLS: usize = 4096;

/// Runs `body` (which makes `calls` calls) five times and returns the
/// median time per call, µs.
fn per_call_us(calls: usize, mut body: impl FnMut()) -> f64 {
    let per_rep: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&per_rep).expect("five repetitions")
}

/// The items `pack` takes for a point dataset.
pub fn point_items(points: &[Point]) -> Vec<(Rect, ItemId)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (Rect::from_point(*p), ItemId(i as u64)))
        .collect()
}

/// `rtree.*`: every traversal entry point on the frozen tree, the
/// pointer-tree window search beside it, the dynamic insert the delta
/// tree pays, and `freeze`.
pub fn rtree(frozen: &FrozenRTree, tree: &RTree, points: &[Point], seed: u64, layers: &mut Layers) {
    let mut g = SplitMix64::new(seed, stream::PROBE);
    let windows: Vec<Rect> = (0..CALLS)
        .map(|_| Window::draw(&mut g, gen::SEL_HALF).rect())
        .collect();
    let at: Vec<Point> = (0..CALLS)
        .map(|_| points[g.below(points.len() as u64) as usize])
        .collect();
    let mut scratch = SearchScratch::new();

    layers.set(
        "rtree.window_us",
        per_call_us(CALLS, || {
            for w in &windows {
                black_box(frozen.search_within_into(black_box(w), &mut scratch).len());
            }
        }),
    );
    layers.set(
        "rtree.window_pointer_us",
        per_call_us(CALLS, || {
            for w in &windows {
                black_box(tree.search_within_into(black_box(w), &mut scratch).len());
            }
        }),
    );
    layers.set(
        "rtree.point_us",
        per_call_us(CALLS, || {
            for p in &at {
                black_box(frozen.point_query_into(black_box(*p), &mut scratch).len());
            }
        }),
    );
    layers.set(
        "rtree.knn_us",
        per_call_us(CALLS, || {
            for w in &windows {
                let p = Point {
                    x: w.min_x,
                    y: w.min_y,
                };
                black_box(
                    frozen
                        .nearest_neighbors_into(black_box(p), KNN_K, scratch.knn())
                        .len(),
                );
            }
        }),
    );
    let mut batch = BatchScratch::new();
    layers.set(
        "rtree.batch_window_us",
        per_call_us(CALLS, || {
            for pack in windows.chunks(64) {
                black_box(
                    frozen
                        .batch_windows(black_box(pack), true, &mut batch)
                        .len(),
                );
            }
        }),
    );

    // The paper's A: exact counts from the stats path.
    let mut stats = SearchStats::default();
    for w in &windows {
        black_box(frozen.search_within(w, &mut stats));
    }
    layers.set("rtree.nodes_per_window", stats.avg_nodes_visited());
    layers.set("rtree.hits_per_window", stats.avg_items_reported());

    // Guttman INSERT into a tree the size of a half-full delta.
    let seeded = 8192.min(points.len());
    let extra = 1024.min(points.len() - seeded);
    if extra > 0 {
        let mut base = RTree::new(RTreeConfig::PAPER);
        for (i, p) in points[..seeded].iter().enumerate() {
            base.insert(Rect::from_point(*p), ItemId(i as u64));
        }
        let per_rep: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = base.clone();
                let started = Instant::now();
                for (i, p) in points[seeded..seeded + extra].iter().enumerate() {
                    t.insert(Rect::from_point(*p), ItemId((seeded + i) as u64));
                }
                black_box(t.len());
                started.elapsed().as_secs_f64() * 1e6 / extra as f64
            })
            .collect();
        layers.set(
            "rtree.insert_us",
            median(&per_rep).expect("five repetitions"),
        );
    }

    let t = Instant::now();
    black_box(FrozenRTree::freeze(tree).node_count());
    layers.set("rtree.freeze_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// The Table 1 columns of a packed tree, computed so that 250 000 leaves
/// are affordable. `TreeMetrics::measure` is not: its overlap routine
/// allocates a grid quadratic in the leaf count (a terabyte at 1M
/// objects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeQuality {
    /// `C`: the sum of leaf-MBR areas, as `TreeMetrics::coverage`.
    pub coverage: f64,
    /// The sum over leaf pairs of their intersection area. It equals the
    /// paper's `O` wherever no point lies in three leaves, and is an upper
    /// bound on it everywhere.
    pub overlap: f64,
    pub nodes: usize,
    pub depth: u32,
}

impl TreeQuality {
    pub fn measure(tree: &RTree) -> TreeQuality {
        TreeQuality::of_leaves(tree.leaf_mbrs(), tree.node_count(), tree.depth())
    }

    /// The same figures of a page-resident tree, every page read through
    /// `pool` once.
    pub fn measure_disk(disk: &DiskRTree, pool: &BufferPool<'_>) -> StorageResult<TreeQuality> {
        let nodes = disk.dump_nodes(pool)?;
        let leaves = nodes
            .iter()
            .filter(|(_, node)| node.is_leaf() && !node.entries.is_empty())
            .map(|(_, node)| {
                let first = node.entries[0].mbr;
                node.entries[1..].iter().fold(first, |m, e| m.union(&e.mbr))
            })
            .collect();
        Ok(TreeQuality::of_leaves(leaves, nodes.len(), disk.depth()))
    }

    fn of_leaves(mut leaves: Vec<Rect>, nodes: usize, depth: u32) -> TreeQuality {
        // A total order, so equal trees sum in the same order whatever
        // order their arenas list the leaves in.
        let key = |r: &Rect| [r.min_x, r.min_y, r.max_x, r.max_y];
        leaves.sort_by(|a, b| {
            let (ka, kb) = (key(a), key(b));
            ka.iter()
                .zip(&kb)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut overlap = 0.0;
        for (i, a) in leaves.iter().enumerate() {
            // Sorted by min_x: nothing past the first leaf starting right
            // of `a` can touch it.
            for b in leaves[i + 1..].iter().take_while(|b| b.min_x <= a.max_x) {
                overlap += a.intersection_area(b);
            }
        }
        TreeQuality {
            coverage: leaves.iter().map(Rect::area).sum(),
            overlap,
            nodes,
            depth,
        }
    }

    /// Fills the `core.*` quality rows. If a faster packer moves these,
    /// `rtree.nodes_per_window` moves next.
    pub fn record(&self, layers: &mut Layers) {
        layers.set("core.coverage", self.coverage);
        layers.set("core.overlap", self.overlap);
        layers.set("core.node_count", self.nodes as f64);
        layers.set("core.depth", self.depth as f64);
    }
}

/// Replays `ops` (op index, query) through the layers one call at a
/// time, recording a span per call, and fills `psql.*` and the
/// self-time rows from the spans' medians.
///
/// Each op opens a `replay` span around parse, plan and execute. The
/// picture search is then run again on its own as a child of execute,
/// and the bare tree search as a child of that: self time of execute is
/// what the executor adds around the picture (row materialisation), and
/// self time of the picture search is the exact-geometry refine.
pub fn replay_psql(
    db: &PictorialDatabase,
    ops: &[(u64, Query)],
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let functions = FunctionRegistry::with_builtins();
    let picture = db.picture(PICTURE).expect("served picture");
    let frozen = picture.frozen().expect("packed picture");
    let mut scratch = SearchScratch::new();
    let (mut rows, mut window_rows) = (0u64, 0u64);
    // Execute and picture-search times of the window ops alone, µs.
    let (mut window_exec, mut window_search) = (Vec::new(), Vec::new());
    let first = tracer.len() as SpanId;

    for &(op, query) in ops {
        let text = query.text();
        let root = tracer.open("replay", "client", op);
        let (ast, _) = tracer.span("psql.parse", "psql", op, Some(root), || {
            psql::parse_query(&text).expect("generated text parses")
        });
        let (plan, _) = tracer.span("psql.plan", "psql", op, Some(root), || {
            psql::plan::plan(db, &ast).expect("generated query plans")
        });
        let (result, exec) = tracer.span("psql.execute", "psql", op, Some(root), || {
            psql::exec::execute_plan_with_scratch(db, &plan, &functions, &mut scratch)
                .expect("generated query executes")
        });
        tracer.close(root);
        rows += result.len() as u64;
        match query {
            Query::Small(w) | Query::Overlap(w) => {
                window_rows += result.len() as u64;
                let within = matches!(query, Query::Small(_));
                let sop = if within {
                    SpatialOp::CoveredBy
                } else {
                    SpatialOp::Overlapping
                };
                let rect = w.rect();
                let (_, search) =
                    tracer.span("psql.picture_search", "psql", op, Some(exec), || {
                        black_box(picture.search_window_fast(sop, &rect, &mut scratch).len())
                    });
                window_exec.push(tracer.duration_ns(exec) as f64 / 1e3);
                window_search.push(tracer.duration_ns(search) as f64 / 1e3);
                tracer.span("rtree.search", "rtree", op, Some(search), || {
                    black_box(if within {
                        frozen.search_within_into(&rect, &mut scratch).len()
                    } else {
                        frozen.search_intersecting_into(&rect, &mut scratch).len()
                    })
                });
            }
            Query::Nearest(w) => {
                let (_, knn) = tracer.span("psql.knn", "psql", op, Some(exec), || {
                    black_box(picture.nearest_fast(w.center(), KNN_K, &mut scratch).len())
                });
                tracer.span("rtree.knn", "rtree", op, Some(knn), || {
                    black_box(
                        frozen
                            .nearest_neighbors_into(w.center(), KNN_K, scratch.knn())
                            .len(),
                    )
                });
            }
        }
    }

    let med = |name: &str| tracer.median_us(name, first);
    layers.set("psql.parse_us", med("psql.parse"));
    layers.set("psql.plan_us", med("psql.plan"));
    layers.set("psql.execute_us", med("psql.execute"));
    layers.set("psql.picture_search_us", med("psql.picture_search"));
    layers.set("psql.knn_us", med("psql.knn"));
    layers.set("psql.rows_per_query", rows as f64 / ops.len().max(1) as f64);
    if window_rows > 0 {
        let exec = median(&window_exec).expect("window ops");
        let search = median(&window_search).expect("window ops");
        layers.set(
            "psql.row_materialise_us",
            (exec - search).max(0.0) / (window_rows as f64 / window_exec.len() as f64),
        );
    }
    let totals = tracer.totals();
    let self_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / 1e3)
    };
    layers.set("self.psql_execute_us", self_us("psql.execute"));
    layers.set(
        "self.psql_picture_search_us",
        self_us("psql.picture_search"),
    );
    layers.set("self.rtree_search_us", self_us("rtree.search"));
    layers.set("trace.replayed_ops", ops.len() as f64);

    // The batched executor, 32 queries a pack as the server forms them.
    let asts: Vec<psql::ast::Query> = ops
        .iter()
        .map(|(_, q)| psql::parse_query(&q.text()).expect("generated text parses"))
        .collect();
    let mut batch = BatchScratch::new();
    layers.set(
        "psql.execute_batch_us",
        per_call_us(asts.len(), || {
            for pack in asts.chunks(32) {
                black_box(psql::exec::execute_batch_with_scratch(
                    db, pack, &functions, &mut batch,
                ));
            }
        }),
    );
}

/// The first `count` ops of a connection's stream taken every 64th op:
/// the replay sample. It does not depend on how far the window got.
pub fn sample_unique_ops(seed: u64, connection: u64, count: usize) -> Vec<(u64, Query)> {
    let mut g = SplitMix64::new(seed, stream::CONNECTION + connection);
    (0..count as u64 * 64)
        .map(|i| (i, gen::unique_window(&mut g)))
        .filter(|(i, _)| i % 64 == 0)
        .collect()
}

/// `relational.tuple_fetch_us`: fetch by tuple id.
pub fn tuple_fetch(
    db: &PictorialDatabase,
    tids: &[pictorial_relational::TupleId],
    layers: &mut Layers,
) {
    if tids.is_empty() {
        return;
    }
    let relation = db
        .catalog()
        .relation(crate::dataset::RELATION)
        .expect("sites relation");
    layers.set(
        "relational.tuple_fetch_us",
        per_call_us(tids.len(), || {
            for &tid in tids {
                black_box(relation.get(black_box(tid)).expect("live tuple").len());
            }
        }),
    );
}

/// `psql.db_clone_ms`: the deep copy every snapshot publication pays.
pub fn db_clone(db: &PictorialDatabase, layers: &mut Layers) {
    let t = Instant::now();
    let copy = db.clone();
    layers.set("psql.db_clone_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(copy);
}

/// `server.ping_rtt_us` and `server.codec_us`: the wire with no query
/// behind it, and framing a request plus a `rows`-row reply in process.
pub fn wire(client: &mut Client, sample: &psql::ResultSet, text: &str, layers: &mut Layers) {
    let mut rtts: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            client.ping().expect("ping");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rtts.drain(..200); // connection warm-up
    layers.set("server.ping_rtt_us", median(&rtts).expect("pings"));

    let request = Request::Query {
        id: 7,
        timeout_ms: 0,
        text: text.to_owned(),
    };
    let response = Response::Result {
        id: 7,
        epoch: 1,
        result: sample.clone(),
    };
    layers.set(
        "server.codec_us",
        per_call_us(2000, || {
            for _ in 0..2000 {
                let req = encode_request(black_box(&request));
                black_box(decode_request(&req).expect("own request decodes"));
                let resp = encode_response(black_box(&response));
                black_box(decode_response(&resp).expect("own response decodes"));
            }
        }),
    );
}

/// The server's counters, read through the public `STATS` request.
pub struct ServerStats(Json);

impl ServerStats {
    pub fn fetch(client: &mut Client) -> ServerStats {
        let text = client.stats().expect("STATS");
        ServerStats(Json::parse(&text).expect("STATS is JSON"))
    }

    /// `group.key` as a number (0 when absent).
    pub fn get(&self, group: &str, key: &str) -> f64 {
        self.0
            .get(group)
            .and_then(|g| g.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    pub fn top(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// Fills the `server.*` counts. `before` is a reading taken when the
    /// measured window opened, so set-up traffic is left out.
    pub fn record(&self, before: &ServerStats, layers: &mut Layers) {
        let delta = |g: &str, k: &str| self.get(g, k) - before.get(g, k);
        let queries = delta("requests", "queries");
        if queries > 0.0 {
            layers.set(
                "server.batched_share",
                delta("batching", "batched_queries") / queries,
            );
        }
        let probes = delta("plan_cache", "hits")
            + delta("plan_cache", "parse_hits")
            + delta("plan_cache", "misses");
        if probes > 0.0 {
            layers.set(
                "server.plan_cache_hit_share",
                (delta("plan_cache", "hits") + delta("plan_cache", "parse_hits")) / probes,
            );
        }
        let inserts = delta("write_path", "inserts");
        if inserts > 0.0 {
            layers.set(
                "server.snapshots_per_insert",
                (self.top("snapshots_published") - before.top("snapshots_published")) / inserts,
            );
            layers.set(
                "server.wal_syncs_per_insert",
                delta("write_path", "wal_syncs") / inserts,
            );
        }
        layers.set("server.queue_high_water", self.get("queue", "high_water"));
        layers.set("server.merges", self.get("write_path", "merges"));
        layers.set(
            "server.wal_recovered",
            self.get("write_path", "wal_recovered"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_quality_agrees_with_tree_metrics_on_a_small_tree() {
        let points = gen::points(9, stream::DATASET, 3000);
        let tree = packed_rtree_core::pack(point_items(&points), RTreeConfig::PAPER);
        let (ours, theirs) = (TreeQuality::measure(&tree), tree.metrics());
        assert!((ours.coverage - theirs.coverage).abs() <= 1e-9 * theirs.coverage);
        assert_eq!((ours.nodes, ours.depth), (theirs.nodes, theirs.depth));
        // Pairwise intersections count a triply covered point twice.
        assert!(ours.overlap >= theirs.overlap - 1e-9);
        assert!(
            ours.overlap <= 2.0 * theirs.overlap + 1e-9,
            "{ours:?} vs {theirs:?}"
        );
        let parallel =
            packed_rtree_core::pack_parallel(point_items(&points), RTreeConfig::PAPER, 2);
        assert_eq!(TreeQuality::measure(&parallel), ours);
    }

    #[test]
    fn replay_sample_is_every_64th_op_of_the_stream() {
        let sample = sample_unique_ops(5, 0, 8);
        let mut g = SplitMix64::new(5, stream::CONNECTION);
        let stream: Vec<Query> = (0..8 * 64).map(|_| gen::unique_window(&mut g)).collect();
        assert_eq!(sample.len(), 8);
        for (i, (op, q)) in sample.iter().enumerate() {
            assert_eq!((*op, *q), (i as u64 * 64, stream[i * 64]));
        }
    }
}
