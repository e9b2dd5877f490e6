//! Zero-dependency metrics registry for the query service.
//!
//! Plain atomics: counters and log₂-bucketed latency histograms.
//! Everything is lock-free on the record path and snapshot-consistent
//! *enough* for operational use (the `STATS` command reads each atomic
//! independently; counts may be momentarily skewed by in-flight
//! requests, never torn).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` — one atomic op for a whole batch of events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. Used to mirror values that are kept
    /// elsewhere (the published snapshot, the plan cache); `STATS` just
    /// republishes the latest observation.
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts samples with
/// `latency_µs < 2^i`, the last bucket is unbounded (≳ 34 minutes).
const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        // Bucket index = position of the highest set bit + 1 (1µs lands
        // in bucket 1 `< 2`, 0µs in bucket 0), clamped to the last bucket.
        let idx = ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds.
    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// The bucket counts as a JSON array, trailing empty buckets
    /// trimmed: element `i` counts samples with `latency_µs < 2^i`.
    pub fn buckets_json(&self) -> String {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let used = counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        let cells: Vec<String> = counts[..used].iter().map(u64::to_string).collect();
        format!("[{}]", cells.join(","))
    }

    /// Upper bound (µs) of the bucket containing quantile `q ∈ [0, 1]`.
    /// Resolution is a factor of two — good enough to tell 100µs from
    /// 10ms, which is what operational percentiles are for.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// One picture's size in the published snapshot: how many objects sit in
/// the shared packed generation and how many in the per-snapshot delta,
/// with `Picture::estimated_bytes` for each part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PictureGauge {
    /// Picture name.
    pub name: String,
    /// Objects in the packed generation.
    pub packed_objects: u64,
    /// Objects buffered in the delta since the last pack.
    pub delta_objects: u64,
    /// Estimated bytes of the packed generation (shared by snapshots).
    pub packed_bytes: u64,
    /// Estimated bytes of the delta (copied per publication).
    pub delta_bytes: u64,
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The server's metrics registry, exposed via the `STATS` command.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted since start.
    pub connections_opened: Counter,
    /// Connections that have ended (any reason).
    pub connections_closed: Counter,
    /// Query requests received.
    pub queries: Counter,
    /// Stats/ping/admin requests received.
    pub control_requests: Counter,
    /// Requests answered with a result.
    pub ok: Counter,
    /// Requests answered with a typed PSQL error.
    pub query_errors: Counter,
    /// Malformed frames / undecodable payloads answered with a protocol
    /// error.
    pub protocol_errors: Counter,
    /// Requests whose deadline expired.
    pub timeouts: Counter,
    /// Requests rejected with `Overloaded` because the queue was full.
    pub overloads: Counter,
    /// Worker panics contained and answered as internal errors.
    pub internal_errors: Counter,
    /// Snapshot publications since start.
    pub snapshots_published: Counter,
    /// End-to-end latency of executed queries (µs buckets).
    pub query_latency: Histogram,
    /// Duration of rebuilds (`REPACK` or background merge), pack and
    /// publication together.
    pub admin_latency: Histogram,
    /// Time inside one snapshot publication under the writer lock: the
    /// clone-mutate-publish of an insert batch, or the locked tail of a
    /// rebuild. O(delta) by design; a long tail here means a
    /// writer is copying something it should be sharing.
    pub publish_latency: Histogram,
    /// Dynamic inserts applied and acknowledged (`Done`).
    pub inserts: Counter,
    /// WAL records appended (one per acknowledged insert when a WAL is
    /// configured).
    pub wal_appends: Counter,
    /// WAL record payload bytes appended.
    pub wal_bytes: Counter,
    /// WAL group commits (one fsync per worker ingest batch).
    pub wal_syncs: Counter,
    /// WAL records replayed into delta trees at startup.
    pub wal_recovered: Counter,
    /// Objects currently buffered in delta trees — mirrored from the
    /// published snapshot when `STATS` is served.
    pub delta_items: Counter,
    /// Rebuild publications — background merges and `REPACK`s, which are
    /// forced merges (deltas folded into freshly packed + frozen main
    /// trees).
    pub merges: Counter,
    /// Rebuilds whose result was discarded because another pack replaced
    /// a packed generation while they packed.
    pub merges_discarded: Counter,
    /// Per-picture sizes, sorted by name — mirrored from the published
    /// snapshot at every publication.
    pub pictures: Mutex<Vec<PictureGauge>>,
    /// `1` while every packed picture is served from its arena (dynamic
    /// writes buffer in deltas instead of dropping it) — mirrored from
    /// the snapshot at every publication.
    pub serves_frozen_queries: Counter,
    /// Plan-cache probes that found a plan stamped with the executing
    /// epoch (parse *and* plan skipped).
    pub plan_cache_hits: Counter,
    /// Plan-cache probes that found no plan stamped with the executing
    /// epoch (parsed, planned and restamped).
    pub plan_cache_misses: Counter,
    /// Entries evicted by LRU pressure.
    pub plan_cache_evictions: Counter,
    /// Entries currently cached — mirrored when `STATS` is served.
    pub plan_cache_entries: Counter,
}

impl Metrics {
    /// Renders the registry as a JSON object (the `STATS` payload).
    /// `queue` is the request queue's depth and high-water mark, which
    /// the queue keeps itself ([`BoundedQueue::depth`]).
    ///
    /// [`BoundedQueue::depth`]: crate::queue::BoundedQueue::depth
    pub fn to_json(
        &self,
        snapshot_epoch: u64,
        queue: (usize, usize),
        queue_capacity: usize,
        workers: usize,
    ) -> String {
        let q = &self.query_latency;
        let a = &self.admin_latency;
        let p = &self.publish_latency;
        let mut pictures = String::new();
        for (i, g) in self
            .pictures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
        {
            let _ = write!(
                pictures,
                "{}{}:{{\"packed_objects\":{},\"delta_objects\":{},\"packed_bytes\":{},\"delta_bytes\":{}}}",
                if i == 0 { "" } else { "," },
                json_string(&g.name),
                g.packed_objects,
                g.delta_objects,
                g.packed_bytes,
                g.delta_bytes,
            );
        }
        format!(
            concat!(
                "{{",
                "\"workers\":{},",
                "\"queue_capacity\":{},",
                "\"snapshot_epoch\":{},",
                "\"connections\":{{\"opened\":{},\"closed\":{}}},",
                "\"requests\":{{\"queries\":{},\"control\":{}}},",
                "\"responses\":{{\"ok\":{},\"query_error\":{},\"protocol_error\":{},",
                "\"timeout\":{},\"overloaded\":{},\"internal_error\":{}}},",
                "\"snapshots_published\":{},",
                "\"queue\":{{\"depth\":{},\"high_water\":{}}},",
                "\"query_latency_us\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{}}},",
                "\"admin_latency_us\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{}}},",
                "\"publish_latency_us\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},",
                "\"log2_buckets\":{}}},",
                "\"write_path\":{{\"inserts\":{},\"wal_appends\":{},\"wal_bytes\":{},",
                "\"wal_syncs\":{},\"wal_recovered\":{},\"delta_items\":{},\"merges\":{},",
                "\"merges_discarded\":{},\"serves_frozen_queries\":{}}},",
                "\"pictures\":{{{}}},",
                "\"plan_cache\":{{\"hits\":{},\"misses\":{},",
                "\"evictions\":{},\"entries\":{}}}",
                "}}"
            ),
            workers,
            queue_capacity,
            snapshot_epoch,
            self.connections_opened.get(),
            self.connections_closed.get(),
            self.queries.get(),
            self.control_requests.get(),
            self.ok.get(),
            self.query_errors.get(),
            self.protocol_errors.get(),
            self.timeouts.get(),
            self.overloads.get(),
            self.internal_errors.get(),
            self.snapshots_published.get(),
            queue.0,
            queue.1,
            q.count(),
            q.mean_micros(),
            q.quantile_micros(0.50),
            q.quantile_micros(0.90),
            q.quantile_micros(0.99),
            a.count(),
            a.mean_micros(),
            a.quantile_micros(0.50),
            a.quantile_micros(0.99),
            p.count(),
            p.mean_micros(),
            p.quantile_micros(0.50),
            p.quantile_micros(0.99),
            p.buckets_json(),
            self.inserts.get(),
            self.wal_appends.get(),
            self.wal_bytes.get(),
            self.wal_syncs.get(),
            self.wal_recovered.get(),
            self.delta_items.get(),
            self.merges.get(),
            self.merges_discarded.get(),
            self.serves_frozen_queries.get() != 0,
            pictures,
            self.plan_cache_hits.get(),
            self.plan_cache_misses.get(),
            self.plan_cache_evictions.get(),
            self.plan_cache_entries.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket < 128
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10)); // 10_000µs, bucket < 16384
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_micros(0.5), 127);
        assert_eq!(h.quantile_micros(0.90), 127);
        assert_eq!(h.quantile_micros(0.99), 16383);
        assert!(h.mean_micros() > 100.0 && h.mean_micros() < 10_000.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn stats_json_is_parsable_shape() {
        let m = Metrics::default();
        m.queries.incr();
        m.ok.incr();
        m.query_latency.record(Duration::from_micros(500));
        let json = m.to_json(3, (2, 5), 64, 4);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queue\":{\"depth\":2,\"high_water\":5}"));
        assert!(json.contains("\"snapshot_epoch\":3"));
        assert!(json.contains("\"queries\":1"));
        assert!(json.contains("\"p99\":"));
        // Write-path section renders, with the frozen flag as a bool.
        assert!(json.contains("\"write_path\":{\"inserts\":0"));
        assert!(json.contains("\"serves_frozen_queries\":false"));
        m.serves_frozen_queries.store(1);
        m.inserts.add(7);
        m.wal_bytes.add(321);
        let json = m.to_json(3, (0, 0), 64, 4);
        assert!(json.contains("\"serves_frozen_queries\":true"));
        assert!(json.contains("\"inserts\":7"));
        assert!(json.contains("\"wal_bytes\":321"));
        // Plan-cache section renders.
        m.plan_cache_hits.add(9);
        m.plan_cache_entries.store(2);
        let json = m.to_json(3, (0, 0), 64, 4);
        assert!(json.contains("\"plan_cache\":{\"hits\":9,"));
        assert!(json.contains("\"entries\":2"));
        // Balanced braces (cheap well-formedness check without a JSON dep).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
