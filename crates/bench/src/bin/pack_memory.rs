//! Guard on what repeated PACKs leave resident.
//!
//! Loads a `site-map` picture of `N` uniform points and a
//! `sites(site, weight, loc)` relation over them, one `add_object` and
//! one `insert` per site, as `sysbench`'s loader does (the points stay
//! alive, as its caller keeps them), then packs the database three times
//! (`pack_all`) and reads this process's resident set (`VmRSS` in
//! `/proc/self/status`) after each pack. The second and third packs
//! free a generation as large as the one they build, so a PACK whose
//! long-lived planes are allocated before its temporaries holds the
//! third generation in about the memory of the first: the resident set
//! after the third pack may exceed the one after the first by at most
//! [`CEILING_BYTES_PER_OBJECT`] per object. A pack that allocates the
//! arena it keeps above freed temporaries leaves those temporaries
//! resident, and fails it.
//!
//! It runs in a process of its own, since the resident set is the
//! process's. It exits 1 on failure, and 2 where `/proc/self/status`
//! cannot be read.
//!
//! Run with: `cargo run --release -p rtree-bench --bin pack_memory`

use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::database::PictorialDatabase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtree_bench::experiment_seed;
use rtree_geom::{Rect, SpatialObject};
use rtree_index::RTreeConfig;
use rtree_workload::points;

/// Sites in the picture and the relation.
const N: usize = 500_000;
/// Times the database is packed.
const PACKS: usize = 3;
/// Resident growth from the first pack to the last that passes, per
/// object.
const CEILING_BYTES_PER_OBJECT: f64 = 40.0;

/// This process's resident set, bytes.
fn rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

fn main() {
    let frame = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut rng = StdRng::seed_from_u64(experiment_seed());
    let sites = points::uniform(&mut rng, &frame, N);

    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", frame).expect("fresh picture");
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
    for (i, p) in (0u64..).zip(&sites) {
        let name = format!("s{i}");
        let id = db
            .add_object("site-map", SpatialObject::Point(*p), &name)
            .expect("picture exists");
        let tuple = vec![name.into(), ((i % 1000) as i64).into(), Value::Pointer(id)];
        db.insert("sites", tuple).expect("valid tuple");
    }

    let mut after = Vec::with_capacity(PACKS);
    for pack in 1..=PACKS {
        db.pack_all();
        let Some(rss) = rss_bytes() else {
            eprintln!("pack_memory: cannot read VmRSS from /proc/self/status");
            std::process::exit(2);
        };
        println!(
            "pack_memory: resident after pack {pack}: {:.1} MiB",
            rss / (1024.0 * 1024.0)
        );
        after.push(rss);
    }
    let growth = (after[PACKS - 1] - after[0]) / N as f64;
    println!(
        "pack_memory: resident growth, pack 1 to pack {PACKS}: {growth:+.1} B/object \
         (ceiling {CEILING_BYTES_PER_OBJECT:.0}, n = {N})"
    );
    if growth > CEILING_BYTES_PER_OBJECT {
        eprintln!(
            "pack_memory: FAIL — the third pack left {growth:.1} B/object more resident \
             than the first; freed PACK temporaries are held under a live generation"
        );
        std::process::exit(1);
    }
    println!("pack_memory: OK");
}
