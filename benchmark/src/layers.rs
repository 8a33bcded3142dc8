//! The traced run: the one file that calls into each crate's public
//! functions with a span around every call. Nothing inside `crates/` is
//! instrumented; what a crate already reports about its inside
//! (`IngestTimings`, `StageTimes`, `IoStats`, `PrefetchSnapshot`) is attached
//! to the span of the call that produced it.
//!
//! Each function here mirrors one arm of `graphz_cli::execute`, taking its
//! defaults from `graphz_cli::parse` of the very argument list the untraced
//! run spawns, so a changed CLI default changes both runs alike. The public
//! functions pinned this way are listed in README.md; a PR that changes one
//! of them has to touch this file and nothing else of the benchmark.

use std::sync::Arc;
use std::time::Instant;

use graphz_algos::{runner, AlgoParams};
use graphz_cli::Command;
use graphz_io::{IoSnapshot, IoStats};
use graphz_serve::{parse_request, GraphView, Request, ServeOptions, Server, Session};
use graphz_storage::{DosGraph, IngestPipeline, IngestTimings};
use graphz_types::{EngineOptions, MemoryBudget, VertexId};

use crate::child::proc_io_bytes;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Connection, Inputs, Kind, Oracle, Workload, WARMUP_QUERIES};
use crate::Res;

/// Per-query samples of the `serve-mixed` traced passes.
#[derive(Default)]
struct ServeSamples {
    /// `GraphView` call alone, in process.
    view_us: Vec<f64>,
    /// `Session::handle` (parse + view + render), in process.
    session_us: Vec<f64>,
    /// Round trip over TCP against an in-process `Server`.
    round_trip_us: Vec<f64>,
    response_bytes: Vec<f64>,
    /// Wall of each closed loop's timed part.
    loop_s: Vec<f64>,
}

pub struct Layers {
    tracer: Tracer,
    serve: ServeSamples,
    /// Per operation: the wall that is comparable to the untraced `op_s`.
    walls: Vec<f64>,
}

fn command(args: &[String]) -> Res<Command> {
    Ok(graphz_cli::parse(args)?)
}

fn attach_io(t: &mut Tracer, span: usize, io: IoSnapshot) {
    t.counter(span, "io.bytes_read", io.bytes_read as f64);
    t.counter(span, "io.bytes_written", io.bytes_written as f64);
    t.counter(span, "io.read_ops", io.read_ops as f64);
    t.counter(span, "io.write_ops", io.write_ops as f64);
    t.counter(span, "io.seeks", io.seeks as f64);
}

/// `graphz convert`, as `execute` runs it, with `IngestTimings` attached.
fn traced_convert(t: &mut Tracer, args: &[String]) -> Res<()> {
    let Command::Convert {
        edges,
        dos_dir,
        budget_mib,
        ingest_threads,
        resume,
        ..
    } = command(args)?
    else {
        return Err("not a convert command".into());
    };
    let stats = IoStats::new();
    let timings = IngestTimings::new();
    let pipeline = IngestPipeline::builder()
        .budget(MemoryBudget::from_mib(budget_mib))
        .stats(Arc::clone(&stats))
        .threads(ingest_threads)
        .resume(resume)
        .timings(Arc::clone(&timings))
        .build()?;
    let span = t.enter("storage.ingest");
    let ran = pipeline.run(&edges, &dos_dir);
    t.exit(span);
    ran?;
    let (form, merge) = (timings.sort().form(), timings.sort().merge());
    t.counter(span, "parse_s", timings.import().as_secs_f64());
    t.counter(span, "form_s", form.as_secs_f64());
    t.counter(span, "merge_s", merge.as_secs_f64());
    t.counter(
        span,
        "emit_s",
        timings.convert().saturating_sub(form + merge).as_secs_f64(),
    );
    attach_io(t, span, stats.snapshot());
    Ok(())
}

/// `graphz run <algo>`, as `execute` runs it, with the engine's own stage
/// times and counters attached.
fn traced_run(t: &mut Tracer, args: &[String]) -> Res<()> {
    let Command::Run {
        algo,
        dos_dir,
        budget_mib,
        source,
        iterations,
        checkpoint_dir,
        checkpoint_every,
        resume,
        threads,
        prefetch,
        ..
    } = command(args)?
    else {
        return Err("not a run command".into());
    };
    let stats = IoStats::new();
    let dos = t.span("storage.open", |_| {
        DosGraph::open(&dos_dir, Arc::clone(&stats))
    })?;
    let params = AlgoParams::new(algo)
        .with_source(source)
        .with_max_iterations(iterations);
    let checkpoints = runner::CheckpointSpec {
        dir: checkpoint_dir,
        every: checkpoint_every,
        resume,
    };
    let mut options = if threads > 1 {
        EngineOptions::with_parallel_workers(threads)
    } else {
        EngineOptions::full()
    };
    options.prefetch = prefetch;
    let span = t.enter("algos.run");
    let ran = runner::run_graphz_configured(
        &dos,
        &params,
        MemoryBudget::from_mib(budget_mib),
        options,
        &checkpoints,
        Arc::clone(&stats),
    );
    t.exit(span);
    let outcome = ran?;
    let stages = outcome.stages.unwrap_or_default();
    let prefetched = outcome.prefetch.unwrap_or_default();
    let engine_s = outcome.wall.as_secs_f64();
    t.counter(span, "compute_s", stages.compute.as_secs_f64());
    t.counter(span, "replay_s", stages.replay.as_secs_f64());
    t.counter(span, "load_s", stages.load.as_secs_f64());
    t.counter(span, "flush_s", stages.flush.as_secs_f64());
    t.counter(
        span,
        "other_s",
        (engine_s - stages.total().as_secs_f64()).max(0.0),
    );
    t.counter(
        span,
        "overhead_s",
        (t.spans()[span].duration_ns() as f64 / 1e9 - engine_s).max(0.0),
    );
    t.counter(span, "iterations", f64::from(outcome.iterations));
    t.counter(span, "partitions", f64::from(outcome.partitions));
    t.counter(span, "spilled", outcome.spilled as f64);
    t.counter(span, "messages", outcome.messages as f64);
    t.counter(span, "prefetch_hits", prefetched.hits as f64);
    t.counter(
        span,
        "prefetch_loads",
        (prefetched.hits + prefetched.stalls) as f64,
    );
    attach_io(t, span, stats.snapshot());
    Ok(())
}

/// The `GraphView` call `Session::handle` makes for this request.
fn view_call(view: &mut GraphView, request: Request, scratch: &mut Vec<VertexId>) -> Res<()> {
    match request {
        Request::Degree(v) => {
            std::hint::black_box(view.degree(v)?);
        }
        Request::Neighbors(v) => {
            view.neighbors_into(v, scratch)?;
        }
        Request::Khop(v, k) => {
            view.khop_into(v, k, scratch)?;
        }
        Request::Value(v) => {
            std::hint::black_box(view.value_bytes(v)?);
        }
        other => return Err(format!("the query script holds no {other:?}").into()),
    }
    Ok(())
}

/// `graphz serve`, as `execute` runs it, up to the listening server; `open`
/// and `pin` are timed on a view of their own first (`Server::start` does
/// both again inside, a few milliseconds the trace counts twice).
fn traced_serve_start(t: &mut Tracer, args: &[String]) -> Res<(Server, GraphView, Arc<IoStats>)> {
    let Command::Serve {
        dos_dir,
        addr,
        threads,
        checkpoint_dir,
        generation,
        ..
    } = command(args)?
    else {
        return Err("not a serve command".into());
    };
    let stats = IoStats::new();
    let mut view = t.span("storage.open", |_| {
        GraphView::open(&dos_dir, Arc::clone(&stats))
    })?;
    let mut builder = ServeOptions::builder(&dos_dir)
        .addr(&addr)
        .threads(threads)
        .stats(Arc::clone(&stats));
    if let Some(dir) = &checkpoint_dir {
        t.span("serve.pin", |_| view.pin_snapshot(dir, generation))?;
        builder = builder.checkpoint_dir(dir);
    }
    if let Some(g) = generation {
        builder = builder.generation(g);
    }
    let options = builder.build()?;
    let server = t.span("serve.start", |_| Server::start(options))?;
    Ok((server, view, stats))
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            tracer: Tracer::new(),
            serve: ServeSamples::default(),
            walls: Vec::new(),
        }
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Run the workload's operation once through the library, traced.
    pub fn run_op(&mut self, workload: &Workload, inputs: &Inputs, oracle: &Oracle) -> Res<()> {
        workloads::reset_outputs(workload, inputs)?;
        self.tracer.set_op(self.walls.len() as u32);
        let io_before = proc_io_bytes()?;
        let root = self.tracer.enter("op");
        let ran = self.dispatch(workload, inputs, oracle);
        self.tracer.exit(root);
        let wall = ran?.unwrap_or(self.tracer.spans()[root].duration_ns() as f64 / 1e9);
        self.walls.push(wall);
        self.tracer
            .counter(root, "proc_io_bytes", (proc_io_bytes()? - io_before) as f64);
        Ok(())
    }

    /// Returns the wall comparable to the untraced `op_s` when that is not
    /// the whole operation span.
    fn dispatch(
        &mut self,
        workload: &Workload,
        inputs: &Inputs,
        oracle: &Oracle,
    ) -> Res<Option<f64>> {
        if workload.kind == Kind::Serve {
            return self.serve_mixed(inputs, oracle).map(Some);
        }
        let t = &mut self.tracer;
        if matches!(workload.kind, Kind::Ingest | Kind::Pipeline) {
            traced_convert(t, &workloads::convert_args(inputs))?;
        }
        if matches!(workload.kind, Kind::Pagerank { .. } | Kind::Pipeline) {
            traced_run(t, &workloads::pagerank_args(workload, inputs))?;
        }
        if workload.kind == Kind::Traversal {
            for step in &oracle.traversal {
                traced_run(t, &workloads::traversal_args(&inputs.dos, step))?;
            }
        }
        if workload.kind == Kind::Pipeline {
            let (server, _view, stats) = traced_serve_start(t, &workloads::serve_args(inputs, 1))?;
            let asked = t.span("serve.first_query", |_| {
                let mut conn = Connection::open(&server.addr().to_string())?;
                conn.ask("value 0")?;
                conn.ask("quit")
            });
            let span = t.enter("serve.shutdown");
            let stopped = server.shutdown();
            t.exit(span);
            asked?;
            stopped?;
            attach_io(t, span, stats.snapshot());
        }
        Ok(None)
    }

    /// Three passes over the same script: the view call alone, the whole
    /// `Session::handle`, and the round trip through a listening server.
    /// Returns the wall of the closed loop's timed part.
    fn serve_mixed(&mut self, inputs: &Inputs, oracle: &Oracle) -> Res<f64> {
        let t = &mut self.tracer;
        let args = workloads::serve_args(inputs, oracle.scripts.len());
        let (server, mut view, stats) = traced_serve_start(t, &args)?;
        let timed = &oracle.scripts[0][WARMUP_QUERIES..];

        let samples = &mut self.serve;
        t.span("storage.view_pass", |_| -> Res<()> {
            let mut scratch = Vec::new();
            for line in timed {
                let request = parse_request(line)?;
                let started = Instant::now();
                view_call(&mut view, request, &mut scratch)?;
                samples.view_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            Ok(())
        })?;

        let mut session = Session::new(view);
        t.span("serve.session_pass", |_| {
            for line in timed {
                let started = Instant::now();
                session.handle(line);
                samples
                    .session_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                samples
                    .response_bytes
                    .push(session.response().len() as f64 + 1.0);
            }
        });

        let span = t.enter("serve.tcp_pass");
        let looped = workloads::closed_loop(&server.addr().to_string(), &oracle.scripts);
        t.exit(span);
        let span = t.enter("serve.shutdown");
        let stopped = server.shutdown();
        t.exit(span);
        let (wall, logs) = looped?;
        stopped?;
        attach_io(t, span, stats.snapshot());
        for log in &logs {
            samples.round_trip_us.extend(&log.latencies_us);
        }
        samples.loop_s.push(wall.as_secs_f64());
        Ok(wall.as_secs_f64())
    }

    /// Every per-layer metric `(name, unit, value)`, in report order: the
    /// median over the traced operations, 0 where the workload never enters
    /// the layer. `untraced_walls` are the `op_s` samples of the untraced
    /// operations of the same run and `untraced_inside` what their commands
    /// clocked inside themselves. `BENCHMARK.json` lists the same names (a
    /// unit test compares).
    pub fn metrics(
        &self,
        untraced_walls: &[f64],
        untraced_inside: &[f64],
    ) -> Vec<(&'static str, &'static str, f64)> {
        let t = &self.tracer;
        let mid = |samples: Vec<f64>| {
            if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            }
        };
        let count = |key: &str| mid(t.counter_per_op(key));
        // Median over operations of sum(a) / sum(b).
        let ratio = |a: Vec<f64>, b: Vec<f64>| {
            mid(a
                .into_iter()
                .zip(b)
                .filter(|&(_, b)| b > 0.0)
                .map(|(a, b)| a / b)
                .collect())
        };
        let counted_io: Vec<f64> = t
            .counter_per_op("io.bytes_read")
            .into_iter()
            .zip(t.counter_per_op("io.bytes_written"))
            .map(|(r, w)| r + w)
            .collect();
        // The runs of one operation share one partition count; do not add.
        let partitions = t
            .spans()
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(k, _)| *k == "partitions")
            .fold(0.0, |most, (_, v)| v.max(most));

        let s = &self.serve;
        let avg = |samples: &[f64]| {
            if samples.is_empty() {
                0.0
            } else {
                mean(samples)
            }
        };
        let pct = |p: f64| {
            if s.round_trip_us.is_empty() {
                0.0
            } else {
                percentile(&s.round_trip_us, p)
            }
        };
        let (view_us, session_us, trip_us) =
            (avg(&s.view_us), avg(&s.session_us), avg(&s.round_trip_us));
        let loop_s: f64 = s.loop_s.iter().sum();

        let traced = mid(self.walls.clone());
        let untraced = mid(untraced_walls.to_vec());
        let inside = mid(untraced_inside.to_vec());
        vec![
            ("storage.parse_s", "s", count("parse_s")),
            ("extsort.form_s", "s", count("form_s")),
            ("extsort.merge_s", "s", count("merge_s")),
            ("storage.emit_s", "s", count("emit_s")),
            ("storage.open_s", "s", mid(t.seconds_per_op("storage.open"))),
            ("core.compute_s", "s", count("compute_s")),
            ("core.replay_s", "s", count("replay_s")),
            ("core.load_s", "s", count("load_s")),
            ("core.flush_s", "s", count("flush_s")),
            ("core.other_s", "s", count("other_s")),
            ("core.iterations", "count", count("iterations")),
            ("core.partitions", "count", partitions),
            ("core.spilled", "count", count("spilled")),
            (
                "core.spill_ratio",
                "ratio",
                ratio(t.counter_per_op("spilled"), t.counter_per_op("messages")),
            ),
            (
                "core.prefetch_hit_ratio",
                "ratio",
                ratio(
                    t.counter_per_op("prefetch_hits"),
                    t.counter_per_op("prefetch_loads"),
                ),
            ),
            ("algos.overhead_s", "s", count("overhead_s")),
            ("io.bytes_read", "B", count("io.bytes_read")),
            ("io.bytes_written", "B", count("io.bytes_written")),
            ("io.read_ops", "count", count("io.read_ops")),
            ("io.write_ops", "count", count("io.write_ops")),
            ("io.seeks", "count", count("io.seeks")),
            (
                "io.accounted_ratio",
                "ratio",
                ratio(counted_io, t.counter_per_op("proc_io_bytes")),
            ),
            // Means, so that the three add up to the mean round trip.
            ("storage.adj_read_us", "us", view_us),
            ("serve.session_us", "us", (session_us - view_us).max(0.0)),
            (
                "serve.tcp_us",
                "us",
                if trip_us > 0.0 {
                    (trip_us - session_us).max(0.0)
                } else {
                    0.0
                },
            ),
            ("serve.resp_bytes", "B", avg(&s.response_bytes)),
            ("serve.pin_s", "s", mid(t.seconds_per_op("serve.pin"))),
            (
                "serve.qps",
                "1/s",
                if loop_s > 0.0 {
                    s.round_trip_us.len() as f64 / loop_s
                } else {
                    0.0
                },
            ),
            ("serve.query_p50_us", "us", pct(50.0)),
            ("serve.query_p99_us", "us", pct(99.0)),
            ("serve.queries", "count", s.round_trip_us.len() as f64),
            // Untraced wall = process start/exit + (execute - library) + library.
            (
                "cli.process_s",
                "s",
                if inside > 0.0 { untraced - inside } else { 0.0 },
            ),
            ("cli.overhead_s", "s", untraced - traced),
            (
                "trace_delta",
                "ratio",
                if untraced > 0.0 {
                    traced / untraced - 1.0
                } else {
                    0.0
                },
            ),
            ("traced_op_s", "s", traced),
            ("traced_ops", "count", self.walls.len() as f64),
        ]
    }
}
