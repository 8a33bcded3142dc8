//! The GraphZ benchmark: one workload per process.
//!
//! `graphz-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! [--reps N]` sets the workload up, repeats its operation, checks every
//! output against an oracle and prints each metric by name; the last line of
//! standard output is the one-line JSON result `BENCHMARK.json` describes.
//! `run.sh` builds this and is the front door; README.md has the design.

mod child;
mod inputs;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use graphz_io::IoStats;
use graphz_storage::DosGraph;

use json::Json;
use layers::Layers;
use stats::{percentile, summarize, Summary};
use workloads::{Inputs, OpOutcome, Oracle, Workload, WORKLOADS};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Res<T> = Result<T, Error>;

/// Set-up runs this many times per untraced run; `setup_s` is the median.
const SETUPS: usize = 3;
/// An untraced run repeats the operation until `--seconds` have passed, and
/// at least this often (README, "Scale rule": never below 3).
const MIN_OPS: usize = 3;
/// A traced run alternates untraced and traced operations, at least this
/// many of each.
const MIN_TRACED_OPS: usize = 2;
/// Everything the benchmark writes goes here, under the checkout.
const OUT_DIR: &str = "target/benchmark";

struct Config {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    /// Exactly this many operations instead of filling `--seconds`.
    reps: Option<usize>,
}

impl Config {
    fn parse(args: &[String]) -> Res<Config> {
        let mut config = Config {
            workload: &WORKLOADS[0],
            seed: 42,
            seconds: Duration::from_secs(10),
            traced: false,
            reps: None,
        };
        let mut workload = None;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let found = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}`; known: {}", known.join(", "))
                    })?;
                    workload = Some(found);
                }
                "--seed" => config.seed = value()?.parse()?,
                "--seconds" => config.seconds = Duration::from_secs(value()?.parse()?),
                "--trace" => config.traced = value()?.parse::<u8>()? != 0,
                "--traced" => config.traced = true,
                "--reps" => config.reps = Some(value()?.parse()?),
                other => return Err(format!("unknown argument `{other}`").into()),
            }
        }
        config.workload = workload.ok_or("--workload NAME is required (run.sh runs all six)")?;
        Ok(config)
    }

    fn wants_more(&self, done: usize, least: usize, started: Instant) -> bool {
        match self.reps {
            Some(reps) => done < reps.max(1),
            None => done < least || started.elapsed() < self.seconds,
        }
    }
}

/// One reported metric: its samples within this run and the value the
/// result line carries.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: stats::median(&samples),
            samples,
        }
    }
}

struct Report {
    metrics: Vec<Metric>,
    /// Printed and filed, but not part of the result line (README,
    /// "serve-mixed latency").
    extras: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    graph: Json,
}

fn per_edge(ops: &[OpOutcome], edges: u64, pick: impl Fn(&OpOutcome) -> u64) -> Vec<f64> {
    ops.iter()
        .map(|op| pick(op) as f64 / edges as f64)
        .collect()
}

/// The end-to-end metrics of `BENCHMARK.json`, from the untraced operations.
fn end_to_end(setup_s: Vec<f64>, ops: &[OpOutcome], edges: u64) -> Vec<Metric> {
    // Operation walls on this sandbox are often bimodal within one run (the
    // same command is fast or slow in streaks), and a median of two modes
    // flips between them from run to run; the mean is what repeats (README,
    // "Bounds and repeatability").
    let walls: Vec<f64> = ops.iter().map(|op| op.wall_s).collect();
    vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric {
            name: "op_s",
            unit: "s",
            value: stats::mean(&walls),
            samples: walls,
        },
        Metric::median_of(
            "io_bytes_per_edge",
            "B/edge",
            per_edge(ops, edges, |op| op.io_bytes),
        ),
        Metric::median_of(
            "image_bytes_per_edge",
            "B/edge",
            per_edge(ops, edges, |op| op.image_bytes),
        ),
        Metric::median_of(
            "peak_rss_mib",
            "MiB",
            ops.iter()
                .map(|op| op.peak_rss_kib as f64 / 1024.0)
                .collect(),
        ),
    ]
}

/// What a user of `graphz serve` sees, per query: only `serve-mixed` has it.
fn serve_extras(ops: &[OpOutcome]) -> Vec<Metric> {
    let latencies: Vec<f64> = ops
        .iter()
        .flat_map(|op| op.latencies_us.iter().copied())
        .collect();
    if latencies.is_empty() {
        return Vec::new();
    }
    let qps: Vec<f64> = ops
        .iter()
        .map(|op| op.latencies_us.len() as f64 / op.wall_s)
        .collect();
    let bytes: Vec<f64> = ops
        .iter()
        .map(|op| op.response_bytes as f64 / op.latencies_us.len() as f64)
        .collect();
    vec![
        Metric::median_of("serve_qps", "1/s", qps),
        Metric {
            name: "query_p50_us",
            unit: "us",
            value: percentile(&latencies, 50.0),
            samples: latencies.clone(),
        },
        Metric {
            name: "query_p99_us",
            unit: "us",
            value: percentile(&latencies, 99.0),
            samples: latencies,
        },
        Metric::median_of("response_bytes", "B", bytes),
    ]
}

fn graph_stats(workload: &Workload, inputs: &Inputs) -> Res<Json> {
    let meta = DosGraph::open(&inputs.dos, IoStats::new())?.meta();
    Ok(Json::obj([
        (
            "generator",
            Json::str("graphz_gen::rmat_edges, default parameters"),
        ),
        ("scale", Json::Int(u64::from(workload.graph.scale))),
        ("edges", Json::Int(meta.num_edges)),
        ("vertices", Json::Int(meta.num_vertices)),
        ("unique_degrees", Json::Int(meta.unique_degrees)),
        ("max_degree", Json::Int(meta.max_degree)),
    ]))
}

fn measure(config: &Config, work: &Path) -> Res<Report> {
    let workload = config.workload;
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if config.traced { 1 } else { SETUPS } {
        let started = Instant::now();
        inputs = Some(workloads::setup(workload, config.seed, work)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");
    let oracle = Oracle::prepare(workload, &inputs, config.seed)?;

    let mut ops = Vec::new();
    let mut layers = Layers::new();
    let started = Instant::now();
    let least = if config.traced {
        MIN_TRACED_OPS
    } else {
        MIN_OPS
    };
    while config.wants_more(ops.len(), least, started) {
        ops.push(workloads::run_op(workload, &inputs, &oracle)?);
        if config.traced {
            layers.run_op(workload, &inputs, &oracle)?;
        }
    }

    let untraced = end_to_end(setup_s, &ops, inputs.num_edges());
    let (metrics, extras) = if config.traced {
        let walls: Vec<f64> = ops.iter().map(|op| op.wall_s).collect();
        // A serve wall is the closed loop, not the server's lifetime.
        let inside: Vec<f64> = match workload.kind {
            workloads::Kind::Serve => Vec::new(),
            _ => ops.iter().map(|op| op.inside_s).collect(),
        };
        let layered: Vec<Metric> = layers
            .metrics(&walls, &inside)
            .into_iter()
            .map(|(name, unit, value)| Metric {
                name,
                unit,
                value,
                samples: vec![value],
            })
            .collect();
        let spilled = layered
            .iter()
            .find(|m| m.name == "core.spilled")
            .map_or(0.0, |m| m.value);
        workloads::guard_spill(workload, spilled)?;
        let trace = layers.tracer().to_json(workload.name).render();
        std::fs::write(
            Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name)),
            trace,
        )?;
        (layered, untraced)
    } else {
        (untraced, serve_extras(&ops))
    };
    Ok(Report {
        metrics,
        extras,
        attempted: ops.iter().map(|op| op.checks).sum(),
        failures: ops
            .iter()
            .flat_map(|op| op.failures.iter().cloned())
            .collect(),
        graph: graph_stats(workload, &inputs)?,
    })
}

fn metric_json(m: &Metric, with_samples: bool) -> Json {
    let Summary { min, max, n, .. } = summarize(&m.samples);
    let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
    if with_samples {
        fields.extend([
            ("min", Json::Num(min)),
            ("max", Json::Num(max)),
            ("n", Json::Int(n as u64)),
        ]);
        // The full per-query latency list would bury the file.
        if n <= 1000 {
            fields.push(("samples", Json::nums(&m.samples)));
        }
    }
    Json::obj(fields)
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|m| (m.name, metric_json(m, with_samples))),
    )
}

fn env_or_unknown(name: &str) -> Json {
    Json::str(std::env::var(name).unwrap_or_else(|_| "unknown".into()))
}

fn print_table(config: &Config, report: &Report) {
    let w = config.workload;
    println!(
        "workload {}  seed {}  {}",
        w.name,
        config.seed,
        if config.traced { "traced" } else { "untraced" }
    );
    println!("  why: {}", w.why);
    println!(
        "  {:<26} {:>8}  {:>14}  {:>31}  {:>6}",
        "metric", "unit", "value", "min .. max", "n"
    );
    for m in report.metrics.iter().chain(&report.extras) {
        let s = summarize(&m.samples);
        println!(
            "  {:<26} {:>8}  {:>14.6}  {:>14.6} .. {:>13.6}  {:>6}",
            m.name, m.unit, m.value, s.min, s.max, s.n
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        report.attempted,
        report.failures.len()
    );
}

fn run(config: &Config) -> Res<bool> {
    std::fs::create_dir_all(OUT_DIR)?;
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", config.workload.name));
    let measured = measure(config, &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = measured?;

    let failed = report.failures.len() as u64;
    let correct = failed == 0;
    for failure in report.failures.iter().take(10) {
        eprintln!("FAILED: {failure}");
    }
    print_table(config, &report);

    let w = config.workload;
    let file = Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Int(config.seed)),
        ("traced", Json::Bool(config.traced)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("commit", env_or_unknown("GRAPHZ_BENCH_COMMIT")),
        ("rustc", env_or_unknown("GRAPHZ_BENCH_RUSTC")),
        (
            "note",
            Json::str(
                "reads come from the OS page cache; times are this sandbox's, not a device's",
            ),
        ),
        ("graph", report.graph.clone()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(failed)),
        (
            "failures",
            Json::Arr(report.failures.iter().take(10).map(Json::str).collect()),
        ),
        ("metrics", metrics_json(&report.metrics, true)),
        ("extras", metrics_json(&report.extras, true)),
    ]);
    let kind = if config.traced { "traced" } else { "result" };
    std::fs::write(
        Path::new(OUT_DIR).join(format!("{kind}-{}.json", w.name)),
        file.render() + "\n",
    )?;

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(&report.metrics, false)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "cli") {
        return child::cli_main(&args[1..]);
    }
    match Config::parse(&args).and_then(|config| run(&config)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("graphz-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = Config::parse(&args(
            "--workload serve-mixed --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload.name, "serve-mixed");
        assert_eq!(
            (c.seed, c.seconds, c.traced, c.reps),
            (7, Duration::from_secs(5), true, None)
        );
        let c = Config::parse(&args("--workload ingest-text --trace 0 --reps 4")).unwrap();
        assert_eq!((c.seed, c.traced, c.reps), (42, false, Some(4)));
        assert!(
            Config::parse(&args("--seed 7")).is_err(),
            "a workload is required"
        );
        let unknown = Config::parse(&args("--workload nope"))
            .err()
            .expect("unknown workload");
        assert!(unknown.to_string().contains("pagerank-ooc"), "{unknown}");
        assert!(Config::parse(&args("--workload ingest-text --banana")).is_err());
    }

    #[test]
    fn repetition_rule_fills_the_time_but_never_goes_under_the_floor() {
        let mut c = Config::parse(&args("--workload ingest-text --seconds 0")).unwrap();
        let started = Instant::now();
        assert!(c.wants_more(2, 3, started), "under the floor");
        assert!(
            !c.wants_more(3, 3, started),
            "time is up and the floor is met"
        );
        c.seconds = Duration::from_secs(3600);
        assert!(c.wants_more(50, 3, started), "time left");
        c.reps = Some(5);
        assert!(c.wants_more(4, 3, started));
        assert!(!c.wants_more(5, 3, started), "--reps is exact");
    }

    /// The names in BENCHMARK.json, in order, per section.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let from = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[from..from + text[from..].find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared("workloads"), workloads);
        let op = OpOutcome {
            wall_s: 1.0,
            ..OpOutcome::default()
        };
        let reported: Vec<&str> = end_to_end(vec![1.0], &[op], 1)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(declared("end_to_end"), reported);
        let layers: Vec<&str> = Layers::new()
            .metrics(&[], &[])
            .iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let metrics = vec![Metric::median_of("op_s", "s", vec![1.5, 2.5, 3.5])];
        assert_eq!(
            metrics_json(&metrics, false).render(),
            r#"{"op_s": {"value": 2.5, "unit": "s"}}"#
        );
        assert_eq!(
            metrics_json(&metrics, true).render(),
            r#"{"op_s": {"value": 2.5, "unit": "s", "min": 1.5, "max": 3.5, "n": 3, "samples": [1.5, 2.5, 3.5]}}"#
        );
    }
}
