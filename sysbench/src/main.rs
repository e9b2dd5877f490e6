//! `sysbench`: a five-workload system benchmark of the packed R-tree
//! stack at 1M objects, end to end and per layer.
//!
//! ```text
//! sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sysbench --workload all [--trace 1] [--smoke]
//! sysbench compare a.json b.json
//! ```
//!
//! One workload run prints a context line and then, as the last line of
//! its standard output, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. It exits
//! non-zero when any answer disagreed with the benchmark's own oracle.
//! See `README.md` beside this crate for what each metric means.

mod bulk_load;
mod compare;
mod dataset;
mod gen;
mod index_direct;
mod json;
mod memstore;
mod oracle;
mod probes;
mod report;
mod serve;
mod speed;
mod stats;
mod sys;
mod trace;
mod workload;

use json::Json;
use report::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Objects in the full benchmark and under `--smoke`.
const FULL_N: usize = 1_000_000;
const SMOKE_N: usize = 20_000;

/// Default length of a measured window, the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    spans: Option<PathBuf>,
    tmp_root: PathBuf,
}

const USAGE: &str = "usage: sysbench [--workload <name>|all] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--spans <file>] [--tmp-root <dir>]\n       sysbench compare <a.json> <b.json>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1985,
        seconds: None,
        trace: false,
        smoke: false,
        spans: None,
        tmp_root: std::env::temp_dir(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--spans" => args.spans = Some(value()?.into()),
            "--tmp-root" => args.tmp_root = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

impl Args {
    fn n(&self) -> usize {
        if self.smoke {
            SMOKE_N
        } else {
            FULL_N
        }
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.unwrap_or(if self.smoke {
            1.0
        } else {
            DEFAULT_SECONDS
        }))
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload in this process. Returns the exit code.
fn run_workload(args: &Args) -> i32 {
    let started = Instant::now();
    let dir = match dataset::RunDir::create(&args.tmp_root) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!(
                "sysbench: cannot create a run directory under {:?}: {e}",
                args.tmp_root
            );
            return 2;
        }
    };
    // Before any thread is started: they inherit the confinement.
    let threads = hardware_threads();
    let pinned_to = sys::pin_to_one_hardware_thread();
    let monitor = speed::Monitor::start();
    let rss = report::RssSampler::start();
    let ctx = workload::Ctx {
        seed: args.seed,
        n: args.n(),
        window: args.window(),
        trace: args.trace,
        dir: &dir,
        threads,
        rss: &rss,
    };
    let mut run = match args.workload.as_str() {
        "index_direct" => index_direct::run(&ctx),
        "serve_read" => serve::run(&ctx, serve::Kind::Read),
        "serve_pipelined" => serve::run(&ctx, serve::Kind::Pipelined),
        "serve_mixed" => serve::run(&ctx, serve::Kind::Mixed),
        "bulk_load" => bulk_load::run(&ctx),
        other => unreachable!("{other} passed argument checking"),
    };
    let (n, window) = (ctx.n, ctx.window);
    run.e2e.rss_mb = rss.finish();
    let speeds = monitor.finish();
    report::correct_by_speed(&mut run, &speeds);
    run.layers.set("run.peak_rss_mb", report::peak_rss_mb());
    run.layers.set("run.n", n as f64);
    run.layers.set("run.hardware_threads", threads as f64);

    if let (Some(path), Some(tracer)) = (&args.spans, &run.tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_json().render()) {
            eprintln!("sysbench: cannot write spans to {path:?}: {e}");
            return 2;
        }
    }
    drop(dir);

    let context = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("n", n)
        .with("window_s", window.as_secs_f64())
        .with("traced", args.trace)
        .with("smoke", args.smoke)
        .with("hardware_threads", threads)
        .with("pinned_to", pinned_to.map_or(Json::Null, Json::from))
        .with("speed_readings", speeds.len())
        .with("speed", {
            // The box's speed per phase (share of nominal) and the
            // end-to-end figures before they were corrected by it.
            let mut o = Json::obj();
            for name in [
                "run.speed_setup",
                "run.speed_ingest",
                "run.speed_window",
                "raw.setup_s",
                "raw.ingest_items_s",
                "raw.read_ops_s",
                "raw.read_p50_us",
            ] {
                o.set(name, run.layers.get(name));
            }
            o
        })
        .with("wall_s", started.elapsed().as_secs_f64())
        .with("server_config", dataset::server_config_json())
        .with("samples", run.info)
        .with(
            "problems",
            Json::Arr(
                run.tally
                    .problems
                    .iter()
                    .map(|p| p.as_str().into())
                    .collect(),
            ),
        );
    println!("{}", Json::obj().with("context", context).render());
    for p in &run.tally.problems {
        eprintln!("sysbench: FAILED: {p}");
    }
    let layers = args.trace.then_some(&run.layers);
    println!(
        "{}",
        report::result_line(&run.tally, &run.e2e, layers).render()
    );
    (run.tally.failed > 0) as i32
}

/// Runs this executable again for one workload and returns its context
/// and result lines.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.window().as_secs_f64().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--tmp-root")
        .arg(&args.tmp_root);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (its own and the server's chatter) passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let context = lines
        .next()
        .ok_or_else(|| format!("{workload}: no context line"))?;
    let result = Json::parse(result).map_err(|e| format!("{workload}: {e}"))?;
    let context = Json::parse(context).map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        eprintln!("sysbench: {workload} exited with {}", out.status);
    }
    Ok((context, result))
}

/// Runs all five workloads, each in its own process so `peak_rss_mb` is
/// its own, and prints one JSON document.
fn run_suite(args: &Args) -> i32 {
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut entry = Json::obj();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            eprintln!("sysbench: {name}{}", if trace { " (traced)" } else { "" });
            match run_child(args, name, trace) {
                Ok((context, result)) => {
                    all_correct &= result.get("correct") == Some(&Json::Bool(true));
                    if !trace {
                        entry.set(
                            "context",
                            context.get("context").cloned().unwrap_or(Json::Null),
                        );
                    }
                    entry.set(if trace { "per_layer" } else { "end_to_end" }, result);
                }
                Err(e) => {
                    eprintln!("sysbench: {e}");
                    return 2;
                }
            }
        }
        workloads.set(name, entry);
    }
    let doc = Json::obj()
        .with("benchmark", "sysbench")
        .with("seed", args.seed)
        .with("n", args.n())
        .with("window_s", args.window().as_secs_f64())
        .with("hardware_threads", hardware_threads())
        .with("correct", all_correct)
        .with("workloads", workloads);
    println!("{}", doc.pretty());
    !all_correct as i32
}

fn real_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) if args.workload == "all" => run_suite(&args),
        Ok(args) => run_workload(&args),
        Err(e) => {
            eprintln!("sysbench: {e}\n{USAGE}");
            2
        }
    }
}

fn main() {
    // Everything with a destructor (the run directory above all) lives
    // inside `real_main`; `exit` runs none.
    std::process::exit(real_main());
}
