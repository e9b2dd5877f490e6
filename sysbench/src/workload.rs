//! What every workload is given and what it hands back.

use crate::dataset::RunDir;
use crate::json::Json;
use crate::report::{EndToEndValues, Layers, Tally};
use crate::stats::{Recorder, Summary};
use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};

/// Slices a measured window is cut into.
pub const SLICES: usize = 10;

/// Sampled ops whose full answers are checked against a linear scan
/// after the window.
pub const VERIFIED_OPS: usize = 256;

/// Inputs of one workload run.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Objects in the dataset.
    pub n: usize,
    /// Length of the measured window.
    pub window: Duration,
    /// Record spans and take the per-layer measurements.
    pub trace: bool,
    pub dir: &'a RunDir,
    /// Hardware threads of this machine.
    pub threads: usize,
    /// Resident-set sampler; the workload marks the end of its set-up.
    pub rss: &'a crate::report::RssSampler,
}

/// When the work behind the end-to-end metrics was done, so that each
/// can be corrected by the box's speed at the time.
pub struct Phases {
    /// `setup_s`.
    pub setup: (Instant, Instant),
    /// `ingest_items_s`.
    pub ingest: (Instant, Instant),
    /// `read_ops_s` and `read_p50_us`.
    pub window: (Instant, Instant),
}

/// What one workload run produced.
pub struct Run {
    /// As measured; `main` corrects them by the box's speed.
    pub e2e: EndToEndValues,
    pub phases: Phases,
    pub tally: Tally,
    pub layers: Layers,
    pub tracer: Option<Tracer>,
    /// Sample counts and other facts for the run's context line.
    pub info: Json,
}

/// A measured window shared by the load threads: they all start at
/// `start` and stop issuing at `start + window`.
#[derive(Clone, Copy)]
pub struct Clock {
    pub start: Instant,
    pub window_ns: u64,
}

impl Clock {
    /// A window that opens shortly from now, leaving the load threads
    /// time to reach their starting line.
    pub fn opening_soon(window: Duration) -> Clock {
        Clock {
            start: Instant::now() + Duration::from_millis(30),
            window_ns: window.as_nanos() as u64,
        }
    }

    /// Blocks until the window opens.
    pub fn wait_for_start(&self) {
        let now = Instant::now();
        if now < self.start {
            std::thread::sleep(self.start - now);
        }
    }

    /// Nanoseconds since the window opened.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// From the window's opening until now.
    pub fn span(&self) -> (Instant, Instant) {
        (self.start, Instant::now())
    }

    pub fn recorder(&self) -> Recorder {
        Recorder::new(self.window_ns / SLICES as u64, SLICES)
    }

    /// A traced run records spans in the second half of its window only;
    /// the first half is the untraced reference for the overhead figure.
    pub fn traced_from_ns(&self) -> u64 {
        self.window_ns / 2
    }
}

/// A client op as a load thread saw it, relative to the window's start.
pub struct ClientOp {
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns the load threads' op records into `client` spans on the
/// tracer's time line (the tracer was made before the window opened).
pub fn push_client_spans(
    tracer: &mut Tracer,
    name: &'static str,
    ops: Vec<ClientOp>,
    clock: &Clock,
) {
    let offset_ns = clock
        .start
        .saturating_duration_since(tracer.origin())
        .as_nanos() as u64;
    for o in ops {
        tracer.push(Span {
            name,
            layer: "client",
            op: o.op,
            parent: None,
            start_ns: offset_ns + o.start_ns,
            end_ns: offset_ns + o.end_ns,
        });
    }
}

/// Copies the read side's summary into the end-to-end values and the
/// whole-window rows.
pub fn record_reads(reads: &Summary, e2e: &mut EndToEndValues, layers: &mut Layers) {
    e2e.read_ops_s = reads.ops_s;
    e2e.read_p50_us = reads.p50_us;
    layers.set("slices.read_p99_us", reads.p99_us);
    layers.set("window.read_ops_s", reads.window_ops_s);
    layers.set("window.read_p50_us", reads.window_p50_us);
    layers.set("window.read_p99_us", reads.window_p99_us);
    layers.set("window.read_max_us", reads.max_us);
    layers.set("window.read_samples", reads.samples as f64);
}

/// `trace.overhead_share`: how much slower the traced half of the window
/// read than the untraced half, as a share of the untraced p50.
pub fn record_trace_overhead(reads: &Recorder, layers: &mut Layers) {
    let half = reads.slices() / 2;
    let untraced = reads.p50_us_of(0..half);
    let traced = reads.p50_us_of(half..reads.slices());
    if untraced > 0.0 {
        layers.set("trace.overhead_share", (traced - untraced) / untraced);
    }
}

/// The read side's sample counts for the context line.
pub fn reads_info(reads: &Summary) -> Json {
    Json::obj()
        .with("ops", reads.ops)
        .with("latency_samples", reads.samples)
        .with("slices", SLICES)
}
