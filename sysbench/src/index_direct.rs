//! `index_direct`: the library path. `pack`, `freeze`, then one thread
//! issues the seeded 60/20/20 window / point / k-NN mix straight at the
//! frozen tree. No PSQL, no server: traversal is the op.

use crate::gen::{self, stream, IndexOp, SplitMix64, FRAME, KNN_K};
use crate::json::Json;
use crate::oracle::{self, Grid};
use crate::probes;
use crate::report::{EndToEndValues, Layers, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, ClientOp, Clock, Ctx, Phases, Run, VERIFIED_OPS};
use packed_rtree_core::{pack, pack_parallel};
use rtree_geom::{Point, Rect};
use rtree_index::{FrozenRTree, ItemId, RTreeConfig, SearchScratch, SearchStats};
use std::time::Instant;

/// In-memory packs a run makes; the median counts.
const PACKS: usize = 3;

/// One op in this many is timed on its own; all are counted. A clock
/// read costs a few percent of a 1 µs op, and eight million samples a
/// window would be the process's largest allocation.
const TIMED_EVERY: u64 = 8;

/// One op in this many gets a span in the traced half of the window.
const SPAN_EVERY: u64 = 64;

/// Runs one op and checks what can be checked in about a microsecond:
/// a window's hit count against the grid, a point query for the point
/// it was aimed at, a k-NN answer for size and order. Returns the time
/// the index call returned and whether the answer passed.
#[inline]
fn run_op(
    frozen: &FrozenRTree,
    grid: &Grid,
    points: &[Point],
    op: IndexOp,
    scratch: &mut SearchScratch,
    clock: &Clock,
) -> (u64, bool) {
    match op {
        IndexOp::Window(w) => {
            let rect = w.rect();
            let hits = frozen.search_within_into(&rect, scratch).len();
            let end = clock.now_ns();
            (end, hits == grid.count(&rect))
        }
        IndexOp::Point(i) => {
            let hits = frozen.point_query_into(points[i], scratch);
            let end = clock.now_ns();
            (end, hits.contains(&ItemId(i as u64)))
        }
        IndexOp::Knn(p) => {
            let found = frozen.nearest_neighbors_into(p, KNN_K, scratch.knn());
            let end = clock.now_ns();
            let ordered = found
                .windows(2)
                .all(|w| w[0].distance_sq <= w[1].distance_sq);
            (end, found.len() == KNN_K.min(points.len()) && ordered)
        }
    }
}

/// Checks an op's full answer against a linear scan of the point array.
fn verify_op(frozen: &FrozenRTree, points: &[Point], op: IndexOp) -> Result<(), String> {
    let mut stats = SearchStats::default();
    let same_ids = |mut got: Vec<u64>, want: Vec<u64>| {
        got.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{op:?}: {} ids, the scan finds {}",
                got.len(),
                want.len()
            ))
        }
    };
    let ids = |items: Vec<ItemId>| items.into_iter().map(|ItemId(i)| i).collect::<Vec<u64>>();
    match op {
        IndexOp::Window(w) => {
            let rect = w.rect();
            same_ids(
                ids(frozen.search_within(&rect, &mut stats)),
                oracle::scan_window(points, &rect),
            )
        }
        IndexOp::Point(i) => same_ids(
            ids(frozen.point_query(points[i], &mut stats)),
            oracle::scan_window(points, &Rect::from_point(points[i])),
        ),
        IndexOp::Knn(p) => {
            let found = frozen.nearest_neighbors(p, KNN_K, &mut stats);
            let honest = found.iter().all(|n| {
                let d = oracle::dist_sq(&points[n.item.0 as usize], &p);
                (d - n.distance_sq).abs() <= 1e-9 * d.max(1.0)
            });
            let mut got: Vec<f64> = found.iter().map(|n| n.distance_sq).collect();
            if honest && oracle::same_distances(&mut got, &oracle::scan_knn(points, &p, KNN_K)) {
                Ok(())
            } else {
                Err(format!("{op:?}: neighbours differ from the scan's"))
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    let mut tracer = ctx.trace.then(Tracer::new);
    let config = RTreeConfig::PAPER;

    let setup_from = Instant::now();
    let points = gen::points(ctx.seed, stream::DATASET, ctx.n);
    let generate_s = setup_from.elapsed().as_secs_f64();
    let grid = Grid::new(&points, FRAME);

    // PACK three times, each tree dropped before the next is built; the
    // median time counts, in `setup_s` as in `ingest_items_s`, and the
    // last tree is the one searched.
    let ingest_from = Instant::now();
    let mut packs_s = Vec::new();
    let mut tree = None;
    for _ in 0..PACKS {
        drop(tree.take());
        let t = Instant::now();
        tree = Some(pack(probes::point_items(&points), config));
        packs_s.push(t.elapsed().as_secs_f64());
    }
    let ingest = (ingest_from, Instant::now());
    let tree = tree.expect("three packs");
    let pack_s = median(&packs_s).expect("three packs");

    // Ready: packed tree to first correct answer.
    let mut ops = SplitMix64::new(ctx.seed, stream::CONNECTION);
    let mut scratch = SearchScratch::new();
    let t = Instant::now();
    let frozen = FrozenRTree::freeze(&tree);
    let freeze_s = t.elapsed().as_secs_f64();
    let warm = Clock::opening_soon(ctx.window);
    let (_, ok) = run_op(
        &frozen,
        &grid,
        &points,
        gen::index_op(&mut ops, ctx.n),
        &mut scratch,
        &warm,
    );
    let ready_s = t.elapsed().as_secs_f64();
    tally.check(ok, || "first op answered wrongly".into());

    let setup = (setup_from, Instant::now());
    ctx.rss.mark();

    // The measured window.
    let clock = Clock::opening_soon(ctx.window);
    let mut reads = clock.recorder();
    let mut client_ops = Vec::new();
    let trace_from = if ctx.trace {
        clock.traced_from_ns()
    } else {
        u64::MAX
    };
    let mut i = 1u64; // op 0 was the ready probe
    clock.wait_for_start();
    loop {
        let op = gen::index_op(&mut ops, ctx.n);
        let timed = i.is_multiple_of(TIMED_EVERY);
        let started = if timed { clock.now_ns() } else { 0 };
        let (end, ok) = run_op(&frozen, &grid, &points, op, &mut scratch, &clock);
        if timed {
            reads.timed(end, end - started);
            if end >= trace_from && i.is_multiple_of(SPAN_EVERY) {
                client_ops.push(ClientOp {
                    op: i,
                    start_ns: started,
                    end_ns: end,
                });
            }
        } else {
            reads.op(end);
        }
        tally.check(ok, || format!("op {i} ({op:?}) failed its inline check"));
        i += 1;
        if end >= clock.window_ns {
            break;
        }
    }

    let window = clock.span();

    // Full answers of a fixed sample of the stream, against a linear scan.
    let mut replay = SplitMix64::new(ctx.seed, stream::CONNECTION);
    for k in 0..VERIFIED_OPS * 16 {
        let op = gen::index_op(&mut replay, ctx.n);
        if k % 16 == 0 {
            let verdict = verify_op(&frozen, &points, op);
            tally.check(verdict.is_ok(), || verdict.unwrap_err());
        }
    }

    let summary = reads.summary();
    let mut e2e = EndToEndValues {
        setup_s: generate_s + pack_s + ready_s,
        ingest_items_s: ctx.n as f64 / pack_s,
        ..EndToEndValues::default()
    };
    workload::record_reads(&summary, &mut e2e, &mut layers);
    layers.set("setup.generate_ms", generate_s * 1e3);
    layers.set("setup.pack_ms", pack_s * 1e3);
    layers.set("setup.first_answer_ms", (ready_s - freeze_s) * 1e3);
    layers.set("core.pack_ms", pack_s * 1e3);

    if let Some(t) = tracer.as_mut() {
        workload::push_client_spans(t, "index.op", client_ops, &clock);
        workload::record_trace_overhead(&reads, &mut layers);
        probes::rtree(&frozen, &tree, &points, ctx.seed, &mut layers);
        let quality = probes::TreeQuality::measure(&tree);
        quality.record(&mut layers);
        let started = Instant::now();
        let parallel = pack_parallel(probes::point_items(&points), config, ctx.threads);
        layers.set(
            "core.pack_parallel_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        tally.check(probes::TreeQuality::measure(&parallel) == quality, || {
            "pack_parallel built a different tree from pack".into()
        });
        layers.set("trace.spans", t.len() as f64);
    }

    Run {
        e2e,
        phases: Phases {
            setup,
            ingest,
            window,
        },
        tally,
        layers,
        tracer,
        info: Json::obj()
            .with("reads", workload::reads_info(&summary))
            .with(
                "pack_s",
                Json::Arr(packs_s.iter().map(|&s| s.into()).collect()),
            )
            .with("timed_every", TIMED_EVERY)
            .with("verified_ops", VERIFIED_OPS),
    }
}
