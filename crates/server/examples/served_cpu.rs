//! On-CPU time per served read, split between the reactor and its
//! clients.
//!
//! Loads `N` uniform `sites(site, weight, loc)` into a 1000 × 1000
//! `site-map` (seed 1985), packs it, serves it, and lets two client
//! threads read it closed-loop for `SECONDS`, each on its own
//! connection, each read a `covered-by` window of ≈ 20 rows that no
//! other read repeats — the read `sysbench`'s `serve_read` sends. Each
//! thread's on-CPU time is the first field of its `schedstat`: the
//! clients read their own (`/proc/thread-self/schedstat`) before and
//! after, and the reactor's is read through `/proc/self/task/<tid>`,
//! the one thread of this process named `psql-reactor`. Printed: reads,
//! reactor µs and client µs per read, and their ratio, which does not
//! move with the host's speed as the absolute figures do.
//!
//! The ratio compares two builds only when their answers are
//! byte-identical: the client's share moves with the size of what it
//! decodes, so a build whose answers are smaller raises the ratio even
//! while it cuts the reactor's CPU (EXPERIMENTS.md, EXT-41). Otherwise
//! a gate on the reactor's CPU reads `reactor_us_per_read` against an
//! A/A control, the parent against a second build of itself, as EXT-41
//! ran one.
//!
//! ```text
//! taskset -c 1 cargo run --release -p psql-server --example served_cpu -- [N] [SECONDS]
//! ```
//!
//! `N` defaults to 1 000 000 and `SECONDS` to 5. `taskset` pins the
//! process to one hardware thread, as `sysbench` pins itself.

use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::database::PictorialDatabase;
use psql_server::client::Client;
use psql_server::server::{Server, ServerConfig};
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::RTreeConfig;
use std::time::{Duration, Instant};

const FRAME: f64 = 1000.0;
/// Half the side of a window holding ≈ 20 of 1M uniform points.
const HALF: f64 = 2.236;

/// SplitMix64: a fixed-seed stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// On-CPU nanoseconds of the thread whose `schedstat` is at `path`.
fn on_cpu_ns(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let first = stat.split_whitespace().next().expect("schedstat field");
    first.parse().expect("nanoseconds")
}

/// The `schedstat` of this process's thread named `name`, once that
/// thread has started and named itself.
fn thread_schedstat(name: &str) -> String {
    for _ in 0..1000 {
        for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
            let dir = task.expect("task entry").path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.trim_end() == name {
                return dir.join("schedstat").display().to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no thread named {name}");
}

fn load(n: u64) -> PictorialDatabase {
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("site-map", Rect::new(0.0, 0.0, FRAME, FRAME))
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
    let mut rng = Rng(1985);
    for i in 0..n {
        let at = Point::new(rng.unit() * FRAME, rng.unit() * FRAME);
        let name = format!("s{i}");
        let object = db
            .add_object("site-map", SpatialObject::Point(at), &name)
            .expect("picture exists");
        let tuple = vec![
            name.into(),
            ((i % 1000) as i64).into(),
            Value::Pointer(object),
        ];
        db.insert("sites", tuple).expect("valid tuple");
    }
    db.pack_all();
    db
}

/// One closed-loop client: reads until `until`, and returns its reads
/// and its own on-CPU nanoseconds meanwhile.
fn client(server: std::net::SocketAddr, seed: u64, until: Instant) -> (u64, u64) {
    let mut c = Client::connect(server).expect("connect");
    let mut rng = Rng(seed);
    let before = on_cpu_ns("/proc/thread-self/schedstat");
    let mut reads = 0;
    while Instant::now() < until {
        let (cx, cy) = (
            HALF + rng.unit() * (FRAME - 2.0 * HALF),
            HALF + rng.unit() * (FRAME - 2.0 * HALF),
        );
        let text = format!(
            "select site, weight from sites on site-map \
             at loc covered-by {{{cx:.6} +- {HALF}, {cy:.6} +- {HALF}}}"
        );
        c.query_expect_result(&text).expect("a result");
        reads += 1;
    }
    (reads, on_cpu_ns("/proc/thread-self/schedstat") - before)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().map_or(1_000_000, |a| a.parse().expect("N"));
    let seconds: u64 = args.next().map_or(5, |a| a.parse().expect("SECONDS"));

    let started = Instant::now();
    let db = load(n);
    eprintln!("loaded and packed {n} sites in {:.1?}", started.elapsed());
    let config = ServerConfig {
        workers: 1,
        merge_threshold: usize::MAX,
        ..ServerConfig::default()
    };
    let server = Server::start(db, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let reactor = thread_schedstat("psql-reactor");

    // A second of warm-up, then the measured run.
    let warm = Instant::now() + Duration::from_secs(1);
    std::thread::scope(|s| {
        for seed in [1, 2] {
            s.spawn(move || client(addr, seed, warm));
        }
    });
    let reactor_before = on_cpu_ns(&reactor);
    let until = Instant::now() + Duration::from_secs(seconds);
    let clients: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = [1985, 2718]
            .into_iter()
            .map(|seed| s.spawn(move || client(addr, seed, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let reactor_ns = on_cpu_ns(&reactor) - reactor_before;
    server.stop();

    let reads: u64 = clients.iter().map(|c| c.0).sum();
    let client_ns: u64 = clients.iter().map(|c| c.1).sum();
    let per_read = |ns: u64| ns as f64 / 1e3 / reads.max(1) as f64;
    println!("n {n}  seconds {seconds}  reads {reads}");
    println!("reactor_us_per_read {:.2}", per_read(reactor_ns));
    println!("client_us_per_read {:.2}", per_read(client_ns));
    println!(
        "reactor_over_client {:.3}",
        reactor_ns as f64 / client_ns.max(1) as f64
    );
    println!(
        "(the ratio compares two builds only if their answers are byte-identical; \
         otherwise compare reactor_us_per_read against an A/A control)"
    );
}
