//! Shared set-up: the per-run temp dir, the `site-map` / `sites`
//! database, the fixed server config, and WAL seeding.

use crate::report::{rss_bytes, Layers};
use pictorial_relational::{Column, ColumnType, Schema, TupleId, Value};
use psql::database::PictorialDatabase;
use psql::InsertRecord;
use psql_server::ServerConfig;
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::RTreeConfig;
use rtree_storage::{Pager, Wal};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const PICTURE: &str = "site-map";
pub const RELATION: &str = "sites";

/// Inserts the server folds into the packed tree at once. The default
/// 128 suits the 49-city toy map; at 1M objects each merge re-packs the
/// whole picture.
pub const MERGE_THRESHOLD: usize = 16_384;

/// Times `load` packs the database; the median counts.
pub const PACKS: usize = 3;

/// Records per group commit when the benchmark writes a WAL itself.
pub const WAL_GROUP: usize = 64;

/// One directory for everything a run writes (WAL files, the ext-pack
/// destination, spill files), removed when dropped: on success, on a
/// failed check and on unwinding alike.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `<root>/sysbench-run-<pid>` and points `TMPDIR` at it, so the
    /// layers' own temp files (`Pager::temp`, `SpillDir::create`) land
    /// there too. Call before any thread is started.
    pub fn create(root: &Path) -> std::io::Result<RunDir> {
        // A run that was killed or aborted (allocation failure does not
        // unwind) could not remove its directory; the next run does.
        for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix("sysbench-run-"))
                .and_then(|pid| pid.parse::<u32>().ok())
                .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = root.join(format!("sysbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let path = path.canonicalize()?;
        std::env::set_var("TMPDIR", &path);
        Ok(RunDir(path))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The site name (and picture label) of dataset point `i`.
pub fn site_name(i: u64) -> String {
    format!("s{i}")
}

/// The `weight` column of dataset point `i`.
pub fn site_weight(i: u64) -> i64 {
    (i % 1000) as i64
}

/// Seconds each part of loading took.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    pub add_object_s: f64,
    pub relation_insert_s: f64,
    pub pack_s: f64,
}

impl LoadTimes {
    pub fn total_s(&self) -> f64 {
        self.add_object_s + self.relation_insert_s + self.pack_s
    }
}

/// A loaded database with what loading cost.
pub struct Loaded {
    pub db: PictorialDatabase,
    pub times: LoadTimes,
    /// Tuple ids of every 256th site, for the fetch probe.
    pub sample_tids: Vec<TupleId>,
}

/// Loads `points` as picture `site-map` (one `add_object` each) and
/// relation `sites(site, weight, loc)` (one `insert` each), then packs,
/// [`PACKS`] times over: the median pack is the one `pack_s` reports.
/// Records the load's per-layer costs.
pub fn load(points: &[Point], layers: &mut Layers) -> Loaded {
    let rss_before = rss_bytes();
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture(
        PICTURE,
        Rect::new(0.0, 0.0, crate::gen::FRAME, crate::gen::FRAME),
    )
    .expect("fresh picture");
    let schema = Schema::new(vec![
        Column::new("site", ColumnType::Str),
        Column::new("weight", ColumnType::Int),
        Column::new("loc", ColumnType::Pointer),
    ])
    .expect("valid schema");
    db.catalog_mut()
        .create_relation(RELATION, schema)
        .expect("fresh relation");
    db.associate(RELATION, "loc", PICTURE).expect("association");

    let t = Instant::now();
    for (i, p) in points.iter().enumerate() {
        let id = db
            .add_object(PICTURE, SpatialObject::Point(*p), &site_name(i as u64))
            .expect("picture exists");
        assert_eq!(id, i as u64, "object ids follow load order");
    }
    let add_object_s = t.elapsed().as_secs_f64();

    let mut sample_tids = Vec::new();
    let t = Instant::now();
    for i in 0..points.len() as u64 {
        let tid = db
            .insert(
                RELATION,
                vec![
                    site_name(i).into(),
                    site_weight(i).into(),
                    Value::Pointer(i),
                ],
            )
            .expect("valid tuple");
        if i % 256 == 0 {
            sample_tids.push(tid);
        }
    }
    let relation_insert_s = t.elapsed().as_secs_f64();

    let packs_s: Vec<f64> = (0..PACKS)
        .map(|_| {
            let t = Instant::now();
            db.pack_all();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let pack_s = crate::stats::median(&packs_s).expect("at least one pack");

    let n = points.len().max(1) as f64;
    layers.set("setup.add_object_ms", add_object_s * 1e3);
    layers.set("setup.relation_insert_ms", relation_insert_s * 1e3);
    layers.set("setup.pack_ms", pack_s * 1e3);
    layers.set("psql.picture_pack_ms", pack_s * 1e3);
    layers.set("psql.picture_add_us", add_object_s * 1e6 / n);
    layers.set("relational.insert_us", relation_insert_s * 1e6 / n);
    layers.set(
        "psql.bytes_per_object",
        (rss_bytes() - rss_before).max(0.0) / n,
    );
    Loaded {
        db,
        times: LoadTimes {
            add_object_s,
            relation_insert_s,
            pack_s,
        },
        sample_tids,
    }
}

/// The fixed server config of every `serve_*` workload and of
/// `bulk_load`'s recovery: two workers, a 30 s deadline so a
/// multi-second write stall shows as latency and not as a `Timeout`,
/// the raised merge threshold, everything else default.
pub fn server_config(wal_path: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        default_deadline: Duration::from_secs(30),
        merge_threshold: MERGE_THRESHOLD,
        wal_path,
        ..ServerConfig::default()
    }
}

/// The config as recorded in every run's context.
pub fn server_config_json() -> crate::json::Json {
    let c = server_config(None);
    crate::json::Json::obj()
        .with("workers", c.workers)
        .with("queue_capacity", c.queue_capacity)
        .with("default_deadline_s", c.default_deadline.as_secs())
        .with("max_batch", c.max_batch)
        .with("merge_threshold", c.merge_threshold)
        .with("merge_interval_ms", c.merge_interval.as_millis() as u64)
        .with("plan_cache_capacity", c.plan_cache_capacity)
}

/// Writes one insert record per point to a fresh WAL at `path`, group
/// committed [`WAL_GROUP`] at a time, and records the storage layer's
/// append and sync cost and its write amplification. Returns the seconds
/// it took.
pub fn write_wal(path: &Path, points: &[Point], label: &str, layers: &mut Layers) -> f64 {
    let started = Instant::now();
    let pager = Pager::create(path).expect("create WAL file");
    let mut wal = Wal::create(pager);
    let (mut append_ns, mut sync_ns, mut user_bytes) = (0u64, 0u64, 0u64);
    for (group_no, group) in points.chunks(WAL_GROUP).enumerate() {
        for (i, p) in group.iter().enumerate() {
            let bytes = InsertRecord {
                picture: PICTURE.to_owned(),
                label: format!("{label}{}", group_no * WAL_GROUP + i),
                object: SpatialObject::Point(*p),
            }
            .encode()
            .expect("encodable record");
            user_bytes += bytes.len() as u64;
            let t = Instant::now();
            wal.append(&bytes).expect("WAL append");
            append_ns += t.elapsed().as_nanos() as u64;
        }
        let t = Instant::now();
        wal.sync().expect("WAL sync");
        sync_ns += t.elapsed().as_nanos() as u64;
    }
    assert_eq!(wal.record_count(), points.len() as u64);
    if !points.is_empty() {
        layers.set(
            "storage.wal_append_us",
            append_ns as f64 / 1e3 / points.len() as f64,
        );
        layers.set(
            "storage.wal_sync_us",
            sync_ns as f64 / 1e3 / wal.syncs().max(1) as f64,
        );
        layers.set(
            "storage.wal_bytes_per_user_byte",
            (wal.pages_written() * rtree_storage::PAGE_SIZE as u64) as f64 / user_bytes as f64,
        );
    }
    started.elapsed().as_secs_f64()
}

/// Reopens the WAL at `path` and returns how many intact records it
/// holds, recording how long the replay scan took.
pub fn reopen_wal(path: &Path, layers: &mut Layers) -> u64 {
    let t = Instant::now();
    let pager = Pager::open(path).expect("open WAL file");
    let (_wal, records) = Wal::open(pager).expect("WAL replay");
    layers.set("storage.wal_open_ms", t.elapsed().as_secs_f64() * 1e3);
    records.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dir_is_removed_on_drop_and_sweeps_dead_runs() {
        let root = std::env::temp_dir().join(format!("sysbench-test-{}", std::process::id()));
        // No process has pid u32::MAX: a run that died without cleaning up.
        let dead = root.join(format!("sysbench-run-{}", u32::MAX));
        std::fs::create_dir_all(dead.join("spill")).unwrap();
        let bystander = root.join("sysbench-run-notes");
        std::fs::create_dir_all(&bystander).unwrap();

        // The one test that touches TMPDIR, so nothing races it.
        let dir = RunDir::create(&root).unwrap();
        assert!(!dead.exists(), "a dead run's directory is swept");
        assert!(bystander.exists(), "anything else is left alone");
        let wal = dir.file("x.wal");
        assert_eq!(std::env::temp_dir(), wal.parent().unwrap());

        // A WAL written through the storage layer reopens whole.
        let mut layers = Layers::new();
        write_wal(&wal, &crate::gen::points(3, 1, 200), "t", &mut layers);
        assert_eq!(reopen_wal(&wal, &mut layers), 200);
        assert!(layers.get("storage.wal_bytes_per_user_byte") > 1.0);

        drop(dir);
        assert!(!wal.exists() && !wal.parent().unwrap().exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
