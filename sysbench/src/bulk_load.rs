//! `bulk_load`: the operator path. Load and pack the database, pack the
//! same objects externally under a 4 MiB budget into the benchmark's own
//! page store, read the disk tree through a buffer pool far smaller than
//! it, write a 50 000-record WAL and start a server over it.
//!
//! Queries do almost no work here; `core`, `extpack` and `storage` do.

use crate::dataset::{self, Loaded, PICTURE};
use crate::gen::{self, stream, Query, SplitMix64, FRAME};
use crate::json::Json;
use crate::memstore::MemStore;
use crate::oracle::{self, Grid};
use crate::probes::{self, ServerStats};
use crate::report::{EndToEndValues, Layers, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, ClientOp, Clock, Ctx, Phases, Run, VERIFIED_OPS};
use psql_server::{Client, Response, Server};
use rtree_extpack::{pack_external_into, ExtPackConfig};
use rtree_index::{ItemId, RTreeConfig, SearchStats};
use rtree_storage::{BufferPool, Page, PageType, Pager};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Memory budget of the external pack.
const BUDGET_BYTES: u64 = 4 << 20;

/// External packs a run makes; the median counts.
const EXT_PACKS: usize = 3;

/// Frames of the buffer pool the disk tree is read through: 1 024 pages
/// over a tree of 333 000 at 1M objects.
const POOL_FRAMES: usize = 1024;

/// WAL records the recovery replays at 1M objects (scaled with N below).
const WAL_RECORDS: usize = 50_000;

/// `storage.page_write_us` / `page_read_us`: single-page calls on a page
/// file of the benchmark's own (4 MiB).
fn page_io(dir: &dataset::RunDir, layers: &mut Layers) {
    const PAGES: u32 = 1024;
    let pager = Pager::create(dir.file("page_io.db")).expect("create page file");
    let ids: Vec<_> = (0..PAGES).map(|_| pager.allocate()).collect();
    let mut page = Page::zeroed();
    page.set_type(PageType::Node);
    let t = Instant::now();
    for (i, id) in ids.iter().enumerate() {
        page.bytes_mut()[0] = i as u8;
        pager.write_page(*id, &page).expect("write page");
    }
    layers.set(
        "storage.page_write_us",
        t.elapsed().as_secs_f64() * 1e6 / PAGES as f64,
    );
    let t = Instant::now();
    for id in &ids {
        black_box(pager.read_page(*id).expect("read page").tag());
    }
    layers.set(
        "storage.page_read_us",
        t.elapsed().as_secs_f64() * 1e6 / PAGES as f64,
    );
}

pub fn run(ctx: &Ctx) -> Run {
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    let mut tracer = ctx.trace.then(Tracer::new);
    let config = RTreeConfig::PAPER;
    let ext_threads = ctx.threads.min(2);

    // Set-up: generate and load (add_object + insert per object, pack_all).
    let setup_from = Instant::now();
    let points = gen::points(ctx.seed, stream::DATASET, ctx.n);
    let generate_s = setup_from.elapsed().as_secs_f64();
    let grid = Grid::new(&points, FRAME);
    let Loaded { db, times, .. } = dataset::load(&points, &mut layers);
    let setup_s = generate_s + times.total_s();
    let setup = (setup_from, Instant::now());
    ctx.rss.mark();

    layers.set("core.pack_ms", times.pack_s * 1e3);
    let memory_tree = db.picture(PICTURE).expect("loaded picture").tree();
    let (memory_nodes, memory_depth) = (memory_tree.node_count(), memory_tree.depth());
    let memory_quality = ctx.trace.then(|| probes::TreeQuality::measure(memory_tree));

    // External PACK into the benchmark's own page store, three times; the
    // median counts, and the last pack's tree is the one read below.
    let cfg = ExtPackConfig {
        threads: ext_threads,
        tree: config,
        ..ExtPackConfig::new(BUDGET_BYTES)
    };
    let ingest_from = Instant::now();
    let pack_once = || {
        let (dest, spill) = (MemStore::new(), MemStore::new());
        let t = Instant::now();
        let (disk, ext) = pack_external_into(probes::point_items(&points), &cfg, &dest, &spill)
            .expect("external pack");
        (t.elapsed().as_secs_f64(), dest, disk, ext)
    };
    let mut ext_packs_s = Vec::new();
    for _ in 1..EXT_PACKS {
        ext_packs_s.push(pack_once().0);
    }
    let (last_s, dest, disk, ext) = pack_once();
    ext_packs_s.push(last_s);
    let ext_s = median(&ext_packs_s).expect("three packs");
    let ingest = (ingest_from, Instant::now());
    tally.check(
        disk.len() == ctx.n && disk.pages() as usize == memory_nodes && disk.depth() == memory_depth,
        || {
            format!(
                "external tree: {} items, {} pages, depth {}; in-memory tree: {} items, {memory_nodes} nodes, depth {memory_depth}",
                disk.len(), disk.pages(), disk.depth(), ctx.n
            )
        },
    );
    let phases_ms = [
        ext.produce_us,
        ext.sort_us,
        ext.spill_us,
        ext.merge_us,
        ext.emit_us,
    ]
    .map(|us| us as f64 / 1e3);
    // The phase rows are the last pack's, so they go with its wall time.
    layers.set("extpack.pack_ms", last_s * 1e3);
    layers.set("extpack.produce_ms", phases_ms[0]);
    layers.set("extpack.sort_ms", phases_ms[1]);
    layers.set("extpack.spill_ms", phases_ms[2]);
    layers.set("extpack.merge_ms", phases_ms[3]);
    layers.set("extpack.emit_ms", phases_ms[4]);
    layers.set(
        "extpack.unattributed_ms",
        last_s * 1e3 - phases_ms.iter().sum::<f64>(),
    );
    layers.set(
        "extpack.spill_bytes_per_item",
        ext.spill_bytes as f64 / ctx.n.max(1) as f64,
    );
    layers.set("extpack.peak_budget_bytes", ext.peak_budget_bytes as f64);
    layers.set("extpack.initial_runs", ext.initial_runs as f64);
    layers.set(
        "storage.pages_written_per_item",
        dest.writes() as f64 / ctx.n.max(1) as f64,
    );

    // The measured window: window searches on the disk tree, one thread,
    // through a pool that holds a sliver of it.
    let pool = BufferPool::new(&dest, POOL_FRAMES);
    let mut ops = SplitMix64::new(ctx.seed, stream::CONNECTION);
    let clock = Clock::opening_soon(ctx.window / 2);
    let trace_from = if ctx.trace {
        clock.traced_from_ns()
    } else {
        u64::MAX
    };
    let mut reads = clock.recorder();
    let mut client_ops = Vec::new();
    let mut stats = SearchStats::default();
    dest.reset_stats();
    clock.wait_for_start();
    for i in 0u64.. {
        let rect = gen::small_window(&mut ops).rect();
        let started = clock.now_ns();
        let found = disk.search_within(&pool, &rect, &mut stats);
        let end = clock.now_ns();
        reads.timed(end, end - started);
        let want = grid.count(&rect);
        tally.check(found.as_ref().is_ok_and(|ids| ids.len() == want), || {
            format!(
                "disk search of {rect:?}: {:?}, the grid counts {want}",
                found.map(|ids| ids.len())
            )
        });
        if end >= trace_from {
            client_ops.push(ClientOp {
                op: i,
                start_ns: started,
                end_ns: end,
            });
        }
        if end >= clock.window_ns {
            break;
        }
    }
    let window = clock.span();
    layers.set("storage.pool_hit_ratio", pool.stats().hit_ratio());
    layers.set(
        "storage.page_reads_per_query",
        dest.reads() as f64 / stats.queries.max(1) as f64,
    );

    // The external tree answers exactly as a linear scan does.
    let mut replay = SplitMix64::new(ctx.seed, stream::CONNECTION);
    for _ in 0..VERIFIED_OPS {
        let rect = gen::small_window(&mut replay).rect();
        let mut got: Vec<u64> = disk
            .search_within(&pool, &rect, &mut stats)
            .map(|ids| ids.into_iter().map(|ItemId(i)| i).collect())
            .unwrap_or_default();
        got.sort_unstable();
        let want = oracle::scan_window(&points, &rect);
        tally.check(got == want, || {
            format!(
                "disk search of {rect:?}: {} ids, the scan finds {}",
                got.len(),
                want.len()
            )
        });
    }
    if ctx.trace {
        // The external tree is the in-memory tree, leaf for leaf.
        let external_quality = probes::TreeQuality::measure_disk(&disk, &pool);
        tally.check(
            external_quality.as_ref().ok() == memory_quality.as_ref(),
            || format!("external PACK built {external_quality:?}, PACK built {memory_quality:?}"),
        );
        if let Some(quality) = memory_quality {
            quality.record(&mut layers);
        }
        page_io(ctx.dir, &mut layers);
        let t = Instant::now();
        let parallel =
            packed_rtree_core::pack_parallel(probes::point_items(&points), config, ctx.threads);
        layers.set("core.pack_parallel_ms", t.elapsed().as_secs_f64() * 1e3);
        tally.check(
            Some(probes::TreeQuality::measure(&parallel)) == memory_quality,
            || "pack_parallel built a different tree from pack".into(),
        );
    }

    drop(pool);
    let stored_bytes = dest.stored_bytes();
    drop(dest);

    // Recovery: a WAL of inserts, then a server started over it until it
    // answers a query correctly and reports every record replayed.
    let wal_records = (WAL_RECORDS * ctx.n / 1_000_000).max(64);
    let wal_path = ctx.dir.file("bulk_load.wal");
    let wal_points = gen::points(ctx.seed, stream::INSERTS, wal_records);
    dataset::write_wal(&wal_path, &wal_points, "r", &mut layers);
    let reopened = dataset::reopen_wal(&wal_path, &mut layers);
    tally.check(reopened == wal_records as u64, || {
        format!("WAL holds {reopened} records, {wal_records} were written")
    });

    let first = gen::small_window(&mut SplitMix64::new(ctx.seed, stream::PROBE));
    let want_rows = grid.count(&first.rect());
    let first = Query::Small(first);
    let t = Instant::now();
    let server = Server::start(db, "127.0.0.1:0", dataset::server_config(Some(wal_path)))
        .expect("start server over the WAL");
    let mut client = Client::connect_timeout(server.local_addr(), Duration::from_secs(60))
        .expect("connect to own server");
    client.ping().expect("first ping");
    let start_to_pong_s = t.elapsed().as_secs_f64();
    let answer = client.query(&first.text());
    let ready_s = t.elapsed().as_secs_f64();
    tally.check(
        matches!(&answer, Ok(Response::Result { result, .. }) if result.len() == want_rows),
        || format!("first answer after recovery: {answer:?}, expected {want_rows} rows"),
    );
    let stats_now = ServerStats::fetch(&mut client);
    let recovered = stats_now.get("write_path", "wal_recovered");
    tally.check(recovered == wal_records as f64, || {
        format!("server recovered {recovered} WAL records, {wal_records} were written")
    });
    layers.set("server.start_ms", start_to_pong_s * 1e3);
    layers.set("setup.start_to_pong_ms", start_to_pong_s * 1e3);
    layers.set("setup.first_answer_ms", (ready_s - start_to_pong_s) * 1e3);

    if ctx.trace && wal_records >= dataset::MERGE_THRESHOLD {
        // The replayed delta is over the merge threshold: time the
        // background merge from server start until the delta is folded.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let s = ServerStats::fetch(&mut client);
            if s.get("write_path", "merges") >= 1.0 && s.get("write_path", "delta_items") == 0.0 {
                layers.set("server.merge_ms", t.elapsed().as_secs_f64() * 1e3);
                break;
            }
            if Instant::now() > deadline {
                tally.check(false, || "background merge did not finish in 120 s".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    ServerStats::fetch(&mut client).record(&stats_now, &mut layers);
    drop(client);
    server.stop();

    let summary = reads.summary();
    let mut e2e = EndToEndValues {
        setup_s,
        ingest_items_s: ctx.n as f64 / ext_s,
        ..EndToEndValues::default()
    };
    workload::record_reads(&summary, &mut e2e, &mut layers);
    layers.set("server.ready_ms", ready_s * 1e3);
    layers.set("setup.generate_ms", generate_s * 1e3);
    if let Some(t) = tracer.as_mut() {
        workload::push_client_spans(t, "disk.search", client_ops, &clock);
        workload::record_trace_overhead(&reads, &mut layers);
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
            .with("wal_records", wal_records)
            .with(
                "extpack_s",
                Json::Arr(ext_packs_s.iter().map(|&s| s.into()).collect()),
            )
            .with("extpack_budget_bytes", BUDGET_BYTES)
            .with("extpack_threads", ext_threads)
            .with("extpack_stored_bytes", stored_bytes)
            .with("pool_frames", POOL_FRAMES)
            .with("verified_ops", VERIFIED_OPS),
    }
}
