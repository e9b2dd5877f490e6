//! The metric tables (names, units, directions, bounds) and the result
//! one workload run prints. `BENCHMARK.json` at the repository root
//! repeats these tables; a test holds the two together.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The five workloads, in suite order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "index_direct",
        "library path, no PSQL or server: traversal is ~100% of the op, so only rtree/core changes move it",
    ),
    (
        "serve_read",
        "TCP latency path at depth 1, every query text unique: 100% plan-cache miss, traversal under 5% of the round trip",
    ),
    (
        "serve_pipelined",
        "TCP throughput path, 16 requests in flight per connection from a 128-text pool that fits the plan cache: batching and cache hits",
    ),
    (
        "serve_mixed",
        "one reader beside one writer over a pre-seeded WAL: group commit, snapshot publish and frozen+delta reads",
    ),
    (
        "bulk_load",
        "operator path: load, external PACK under a 4 MiB budget, disk-tree reads through a small buffer pool, WAL replay",
    ),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every run, of every workload, reports each of these. See the README
/// for what each means on each workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_items_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_ops_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric. A traced
/// run prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, bool); 95] = [
    // rtree: traversal and the dynamic tree.
    ("rtree.window_us", "us", false),
    ("rtree.window_pointer_us", "us", false),
    ("rtree.point_us", "us", false),
    ("rtree.knn_us", "us", false),
    ("rtree.batch_window_us", "us", false),
    ("rtree.insert_us", "us", false),
    ("rtree.freeze_ms", "ms", false),
    ("rtree.nodes_per_window", "count", false),
    ("rtree.hits_per_window", "count", true),
    // core: in-memory PACK and the tree it builds.
    ("core.pack_ms", "ms", false),
    ("core.pack_parallel_ms", "ms", false),
    ("core.coverage", "area", false),
    ("core.overlap", "area", false),
    ("core.node_count", "count", false),
    ("core.depth", "count", false),
    // extpack: external PACK phases.
    ("extpack.pack_ms", "ms", false),
    ("extpack.produce_ms", "ms", false),
    ("extpack.sort_ms", "ms", false),
    ("extpack.spill_ms", "ms", false),
    ("extpack.merge_ms", "ms", false),
    ("extpack.emit_ms", "ms", false),
    ("extpack.unattributed_ms", "ms", false),
    ("extpack.spill_bytes_per_item", "B", false),
    ("extpack.peak_budget_bytes", "B", false),
    ("extpack.initial_runs", "count", false),
    // storage: WAL, pager, buffer pool.
    ("storage.wal_append_us", "us", false),
    ("storage.wal_sync_us", "us", false),
    ("storage.wal_bytes_per_user_byte", "B/B", false),
    ("storage.wal_open_ms", "ms", false),
    ("storage.page_write_us", "us", false),
    ("storage.page_read_us", "us", false),
    ("storage.pages_written_per_item", "pages", false),
    ("storage.pool_hit_ratio", "ratio", true),
    ("storage.page_reads_per_query", "count", false),
    // relational: the alphanumeric side.
    ("relational.insert_us", "us", false),
    ("relational.tuple_fetch_us", "us", false),
    // psql: parse, plan, execute, and the picture.
    ("psql.parse_us", "us", false),
    ("psql.plan_us", "us", false),
    ("psql.execute_us", "us", false),
    ("psql.execute_batch_us", "us", false),
    ("psql.picture_search_us", "us", false),
    ("psql.knn_us", "us", false),
    ("psql.rows_per_query", "count", true),
    ("psql.row_materialise_us", "us", false),
    ("psql.db_clone_ms", "ms", false),
    ("psql.picture_add_us", "us", false),
    ("psql.picture_pack_ms", "ms", false),
    ("psql.bytes_per_object", "B", false),
    // server: the wire, the snapshot cell, the write path.
    ("server.ping_rtt_us", "us", false),
    ("server.codec_us", "us", false),
    ("server.unattributed_us", "us", false),
    ("server.publish_us", "us", false),
    ("server.start_ms", "ms", false),
    ("server.ready_ms", "ms", false),
    ("server.merge_ms", "ms", false),
    ("server.batched_share", "ratio", true),
    ("server.plan_cache_hit_share", "ratio", true),
    ("server.snapshots_per_insert", "count", false),
    ("server.wal_syncs_per_insert", "count", false),
    ("server.queue_high_water", "count", false),
    ("server.merges", "count", true),
    ("server.wal_recovered", "count", true),
    // Client-visible figures that are not end-to-end metrics: the tail,
    // whole-window values, which see every stall, and the write side
    // that only serve_mixed has.
    ("slices.read_p99_us", "us", false),
    ("window.read_ops_s", "1/s", true),
    ("window.read_p50_us", "us", false),
    ("window.read_p99_us", "us", false),
    ("window.read_max_us", "us", false),
    ("window.read_samples", "count", true),
    ("window.write_ops_s", "1/s", true),
    ("window.write_p50_us", "us", false),
    ("window.write_max_us", "us", false),
    ("window.write_samples", "count", true),
    // Set-up broken down, so work moved between its parts shows.
    ("setup.generate_ms", "ms", false),
    ("setup.add_object_ms", "ms", false),
    ("setup.relation_insert_ms", "ms", false),
    ("setup.pack_ms", "ms", false),
    ("setup.wal_seed_ms", "ms", false),
    ("setup.start_to_pong_ms", "ms", false),
    ("setup.first_answer_ms", "ms", false),
    // Self time of the replayed spans, and what tracing cost.
    ("self.psql_execute_us", "us", false),
    ("self.psql_picture_search_us", "us", false),
    ("self.rtree_search_us", "us", false),
    ("trace.spans", "count", true),
    ("trace.replayed_ops", "count", true),
    ("trace.overhead_share", "ratio", false),
    // The end-to-end figures as measured, and the box's speed (share of
    // nominal) in the phase each was measured in.
    ("raw.setup_s", "s", false),
    ("raw.ingest_items_s", "1/s", true),
    ("raw.read_ops_s", "1/s", true),
    ("raw.read_p50_us", "us", false),
    ("run.speed_setup", "ratio", true),
    ("run.speed_ingest", "ratio", true),
    ("run.speed_window", "ratio", true),
    ("run.peak_rss_mb", "MiB", false),
    ("run.n", "count", true),
    ("run.hardware_threads", "count", true),
];

/// Per-layer values of one run, every name present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every per-layer metric at 0.
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    /// Sets one metric. Panics on a name missing from [`PER_LAYER`], so a
    /// typo cannot invent a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Ops attempted and failed, with the first few reasons kept.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one op; `problem` is evaluated only when it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    /// Records a failure of an op already counted as attempted.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 16 {
            self.problems.push(problem);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// End-to-end values of one run, in [`END_TO_END`] order.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEndValues {
    pub setup_s: f64,
    pub ingest_items_s: f64,
    pub read_ops_s: f64,
    pub read_p50_us: f64,
    pub rss_mb: f64,
}

impl EndToEndValues {
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.ingest_items_s,
            self.read_ops_s,
            self.read_p50_us,
            self.rss_mb,
        ]
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// The object a run prints as its last line of standard output: exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, e2e: &EndToEndValues, layers: Option<&Layers>) -> Json {
    let mut metrics = Json::obj();
    match layers {
        None => {
            for (m, v) in END_TO_END.iter().zip(e2e.as_array()) {
                metrics.set(m.name, metric(v, m.unit));
            }
        }
        Some(layers) => {
            for (name, unit, _) in PER_LAYER {
                metrics.set(name, metric(layers.get(name), unit));
            }
        }
    }
    Json::obj()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics)
}

/// Keeps the end-to-end figures as measured in the `raw.*` rows and
/// replaces each by what it would have read on a box of nominal speed:
/// times multiplied, rates divided, by the box's speed in their phase.
/// `rss_mb` is no timing and stays.
pub fn correct_by_speed(run: &mut crate::workload::Run, speeds: &crate::speed::Speeds) {
    let (setup, ingest, window) = (
        speeds.share(run.phases.setup),
        speeds.share(run.phases.ingest),
        speeds.share(run.phases.window),
    );
    let (e2e, layers) = (&mut run.e2e, &mut run.layers);
    layers.set("raw.setup_s", e2e.setup_s);
    layers.set("raw.ingest_items_s", e2e.ingest_items_s);
    layers.set("raw.read_ops_s", e2e.read_ops_s);
    layers.set("raw.read_p50_us", e2e.read_p50_us);
    layers.set("run.speed_setup", setup);
    layers.set("run.speed_ingest", ingest);
    layers.set("run.speed_window", window);
    e2e.setup_s *= setup;
    e2e.ingest_items_s /= ingest;
    e2e.read_ops_s /= window;
    e2e.read_p50_us *= window;
}

/// Samples this process's resident set every 20 ms on its own thread and
/// reports the time average since the last [`mark`](RssSampler::mark).
///
/// The peak (`VmHWM`) of a server that deep-copies its database per
/// write depends on how many copies happen to be alive at one instant;
/// the time average of the same run does not jump with that luck.
pub struct RssSampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct SamplerShared {
    stop: AtomicBool,
    /// Sum of sampled resident bytes, and the number of samples.
    sum: Mutex<(f64, u64)>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let shared = Arc::new(SamplerShared::default());
        let theirs = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            while !theirs.stop.load(Ordering::SeqCst) {
                let rss = rss_bytes();
                let mut sum = theirs.sum.lock().expect("sampler lock");
                *sum = (sum.0 + rss, sum.1 + 1);
                drop(sum);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        RssSampler {
            shared,
            thread: Some(thread),
        }
    }

    /// Forgets the samples so far: call when set-up ends.
    pub fn mark(&self) {
        *self.shared.sum.lock().expect("sampler lock") = (0.0, 0);
    }

    /// Stops sampling and returns the mean resident set since the mark,
    /// MiB (the current resident set if no sample fell in between).
    pub fn finish(mut self) -> f64 {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("sampler thread");
        }
        let (sum, n) = *self.shared.sum.lock().expect("sampler lock");
        let bytes = if n == 0 { rss_bytes() } else { sum / n as f64 };
        bytes / (1024.0 * 1024.0)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), bytes.
pub fn rss_bytes() -> f64 {
    proc_status_kb("VmRSS:") * 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && names.insert(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}");
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables the program prints from.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |j: &Json, k: &str| j.get(k).unwrap().as_str().unwrap().to_owned();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|&(n, w)| (n.to_owned(), w.to_owned()))
            .collect();
        assert_eq!(workloads, want);
        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.fields().unwrap().len(), 4);
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_owned();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    better(m.higher_is_better),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.fields().unwrap().len(), 3);
                (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better"))
            })
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, h)| (n.to_owned(), u.to_owned(), better(h)))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        for _ in 0..9 {
            tally.check(true, || unreachable!());
        }
        tally.check(false, || "mismatch".into());
        let e2e = EndToEndValues {
            setup_s: 0.8127,
            read_p50_us: 1.2034,
            rss_mb: 640.5,
            ..EndToEndValues::default()
        };
        let line = result_line(&tally, &e2e, None);
        let keys: Vec<&str> = line
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(10.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().unwrap().len(), END_TO_END.len());
        assert!(line
            .render()
            .contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));

        let mut layers = Layers::new();
        layers.set("rtree.window_us", 0.75);
        let traced = result_line(&tally, &e2e, Some(&layers));
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(metrics.fields().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .get("rtree.window_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_metric_is_refused() {
        Layers::new().set("rtree.typo_us", 1.0);
    }

    #[test]
    fn reads_own_memory_figures() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0.0);
    }
}
