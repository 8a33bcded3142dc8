//! The six workloads: what each sets up, the `graphz` commands its timed
//! operation runs (each as its own process, default flags), and the oracle
//! that checks what those commands printed or wrote — always outside the
//! timed region.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use graphz_algos::{runner, AlgoParams, AlgoValues, Algorithm};
use graphz_io::IoStats;
use graphz_serve::{GraphView, Session};
use graphz_storage::{verify_dos, CsrGraph, DosGraph};
use graphz_types::{Edge, VertexId};

use crate::child::{self, Finished, Running};
use crate::inputs::{self, GraphSpec, TraversalStep};
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Pagerank { budget_mib: u64 },
    Traversal,
    Serve,
    Pipeline,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: GraphSpec,
    pub kind: Kind,
}

/// Scale 19 spans 524k vertex ids: at `--budget-mib 1` half the budget holds
/// 65 536 eight-byte PageRank states, which makes 8 partitions. The edge
/// count is what fits the driver's time cap (README, "Scale rule").
const MAIN_GRAPH: GraphSpec = GraphSpec {
    scale: 19,
    edges: 2_000_000,
};
const PIPELINE_GRAPH: GraphSpec = GraphSpec {
    scale: 17,
    edges: 1_000_000,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ingest-text",
        why: "text -> graphz convert: parse, external sort, merge and image emit do all the work; engine and server do none",
        graph: MAIN_GRAPH,
        kind: Kind::Ingest,
    },
    Workload {
        name: "pagerank-ooc",
        why: "run pr --budget-mib 1: 8 partitions, every edge messages every iteration, so spill, replay, Sio and prefetch all carry load",
        graph: MAIN_GRAPH,
        kind: Kind::Pagerank { budget_mib: 1 },
    },
    Workload {
        name: "pagerank-fit",
        why: "same image, --budget-mib 64: one partition, so spill, cross-partition replay and prefetch are bypassed (predict no change)",
        graph: MAIN_GRAPH,
        kind: Kind::Pagerank { budget_mib: 64 },
    },
    Workload {
        name: "traversal-ooc",
        why: "4 BFS + 2 SSSP + 1 CC at --budget-mib 1: sparse frontiers and few messages, so partition load/flush dominate, not message volume",
        graph: MAIN_GRAPH,
        kind: Kind::Traversal,
    },
    Workload {
        name: "serve-mixed",
        why: "graphz serve, closed loop, degree/neighbors/value/khop mix: random access into the adjacency the PageRank workloads stream",
        graph: MAIN_GRAPH,
        kind: Kind::Serve,
    },
    Workload {
        name: "pipeline-cold",
        why: "text -> convert -> run pr with checkpoints -> serve -> first value answer: the only one paying checkpoint writes, open and pin",
        graph: PIPELINE_GRAPH,
        kind: Kind::Pipeline,
    },
];

/// Client connections of the closed loop: one per core, two at most (the
/// workloads are sized for a 2-core machine).
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}
pub const WARMUP_QUERIES: usize = 2_000;
pub const TIMED_QUERIES: usize = 10_000;
/// `serve-mixed` must do real work per query, not measure the scheduler.
const MIN_MEAN_RESPONSE_BYTES: f64 = 256.0;

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("benchmark paths are UTF-8")
}

/// `graphz <args>` in this process — set-up only, never timed as an
/// operation.
fn graphz_here(args: &[&str]) -> Res<String> {
    Ok(graphz_cli::parse(&strings(args)).and_then(graphz_cli::execute)?)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything that exists before the first timed region.
pub struct Inputs {
    pub edges: Vec<Edge>,
    pub text: PathBuf,
    /// The DOS image: an input for the run and serve workloads, the output
    /// of the operation for `ingest-text` and `pipeline-cold`.
    pub dos: PathBuf,
    /// Checkpoint root: pinned BFS generations for `serve-mixed`, written by
    /// the operation for `pipeline-cold`.
    pub checkpoints: PathBuf,
    pub port_file: PathBuf,
}

impl Inputs {
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }
}

fn remove_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display()).into()),
    }
}

/// Generate the graph, export it as text and — where the image is an input —
/// build the image (and for `serve-mixed` the BFS checkpoint to pin).
pub fn setup(workload: &Workload, seed: u64, dir: &Path) -> Res<Inputs> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir)?;
    let edges = inputs::generate(workload.graph, seed);
    let inputs = Inputs {
        text: dir.join("edges.txt"),
        dos: dir.join("dos"),
        checkpoints: dir.join("checkpoints"),
        port_file: dir.join("port.txt"),
        edges,
    };
    inputs::write_text(&inputs.edges, &inputs.text)?;
    if matches!(
        workload.kind,
        Kind::Pagerank { .. } | Kind::Traversal | Kind::Serve
    ) {
        graphz_here(&["convert", path_str(&inputs.text), path_str(&inputs.dos)])?;
    }
    if workload.kind == Kind::Serve {
        let source = inputs::traversal_script(seed, &inputs.edges)[0]
            .source
            .expect("bfs has a source");
        graphz_here(&[
            "run",
            "bfs",
            path_str(&inputs.dos),
            "--source",
            &source.to_string(),
            "--checkpoint-dir",
            path_str(&inputs.checkpoints),
        ])?;
    }
    Ok(inputs)
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Expected outputs, computed by code that shares nothing with the engine:
/// the in-memory reference algorithms over the raw generated edges, and an
/// in-process [`Session`] for the serve protocol.
pub struct Oracle {
    /// Reference PageRank by original id (PageRank and pipeline workloads).
    ranks: Vec<f32>,
    /// The reference's `TOP_RANKS`-th largest rank.
    rank_floor: f32,
    pub traversal: Vec<TraversalStep>,
    /// Reached-vertex count (BFS, SSSP) or component count (CC) per step.
    traversal_counts: Vec<u64>,
    /// Per connection: warm-up then timed request lines.
    pub scripts: Vec<Vec<String>>,
    /// Per connection: the response to every line of the script.
    responses: Vec<Vec<String>>,
}

fn reference_graph(inputs: &Inputs) -> Res<CsrGraph> {
    let n = usize::try_from(inputs::id_span(&inputs.edges))?;
    Ok(CsrGraph::from_edges(n, &inputs.edges))
}

/// What `graphz run cc` computes on a directed image: every vertex ends with
/// the smallest *storage* id among the vertices that reach it, and the CLI
/// counts distinct labels. The fixed point is unique, so a plain sweep over
/// the raw edges (relabelled through `old2new`) must land on the same count.
fn directed_label_count(edges: &[Edge], old2new: &[VertexId]) -> u64 {
    let mut label: Vec<VertexId> = old2new.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for e in edges {
            let from = label[e.src as usize];
            if from < label[e.dst as usize] {
                label[e.dst as usize] = from;
                changed = true;
            }
        }
    }
    // A label is the storage id of a vertex that kept its own id.
    label
        .iter()
        .zip(old2new)
        .filter(|(l, own)| l == own)
        .count() as u64
}

impl Oracle {
    pub fn prepare(workload: &Workload, inputs: &Inputs, seed: u64) -> Res<Oracle> {
        let mut oracle = Oracle {
            ranks: Vec::new(),
            rank_floor: 0.0,
            traversal: Vec::new(),
            traversal_counts: Vec::new(),
            scripts: Vec::new(),
            responses: Vec::new(),
        };
        match workload.kind {
            Kind::Ingest => {}
            Kind::Pagerank { .. } | Kind::Pipeline => {
                let reference = reference_graph(inputs)?;
                let params = AlgoParams::new(Algorithm::PageRank);
                match runner::run_reference(&reference, &params)?.values {
                    AlgoValues::Ranks(ranks) => {
                        oracle.rank_floor = rank_floor(&ranks);
                        oracle.ranks = ranks;
                    }
                    other => return Err(format!("reference PageRank returned {other:?}").into()),
                }
            }
            Kind::Traversal => {
                let reference = reference_graph(inputs)?;
                oracle.traversal = inputs::traversal_script(seed, &inputs.edges);
                for step in &oracle.traversal {
                    let count = match (step.algo, step.source) {
                        ("bfs", Some(s)) => {
                            let params = AlgoParams::new(Algorithm::Bfs).with_source(s);
                            match runner::run_reference(&reference, &params)?.values {
                                AlgoValues::Hops(h) => {
                                    h.iter().filter(|&&d| d != u32::MAX).count() as u64
                                }
                                other => {
                                    return Err(format!("reference BFS returned {other:?}").into())
                                }
                            }
                        }
                        ("sssp", Some(s)) => {
                            let params = AlgoParams::new(Algorithm::Sssp).with_source(s);
                            match runner::run_reference(&reference, &params)?.values {
                                AlgoValues::Costs(c) => {
                                    c.iter().filter(|d| d.is_finite()).count() as u64
                                }
                                other => {
                                    return Err(format!("reference SSSP returned {other:?}").into())
                                }
                            }
                        }
                        _ => {
                            let dos = DosGraph::open(&inputs.dos, IoStats::new())?;
                            let old2new = dos.load_old2new(IoStats::new())?;
                            directed_label_count(&inputs.edges, &old2new)
                        }
                    };
                    oracle.traversal_counts.push(count);
                }
            }
            Kind::Serve => {
                let mut view = GraphView::open(&inputs.dos, IoStats::new())?;
                view.pin_snapshot(&inputs.checkpoints, None)?;
                let n = view.num_vertices();
                let mut session = Session::new(view);
                for c in 0..connections() as u64 {
                    let mut script = inputs::query_script(seed, 2 * c, n, WARMUP_QUERIES);
                    script.extend(inputs::query_script(seed, 2 * c + 1, n, TIMED_QUERIES));
                    let responses = script
                        .iter()
                        .map(|line| {
                            session.handle(line);
                            session.response().to_string()
                        })
                        .collect();
                    oracle.scripts.push(script);
                    oracle.responses.push(responses);
                }
            }
        }
        Ok(oracle)
    }
}

// ---------------------------------------------------------------------------
// Reading what the CLI printed
// ---------------------------------------------------------------------------

fn number_before(text: &str, word: &str) -> Option<u64> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let at = tokens.iter().position(|t| *t == word)?;
    tokens.get(at.checked_sub(1)?)?.parse().ok()
}

fn number_after(text: &str, word: &str) -> Option<u64> {
    let mut tokens = text.split_whitespace().skip_while(|t| *t != word);
    tokens.nth(1)?.parse().ok()
}

/// The `--top K` rank listing: `(original id, rank)` rows.
fn listed_ranks(output: &str) -> Vec<(usize, f64)> {
    output
        .lines()
        .skip_while(|l| !l.starts_with("top vertices by rank"))
        .skip(1)
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            Some((words.next()?.parse().ok()?, words.next()?.parse().ok()?))
        })
        .collect()
}

/// How many rows of the rank listing the oracle checks.
const TOP_RANKS: usize = 100;

/// The `TOP_RANKS`-th largest reference rank (the smallest, if there are fewer).
fn rank_floor(reference: &[f32]) -> f32 {
    let mut sorted = reference.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted
        .get(TOP_RANKS - 1)
        .or(sorted.last())
        .copied()
        .unwrap_or(0.0)
}

/// Top-100 ranks within 1e-3 relative of the reference (plus half a unit of
/// the four decimals the CLI prints), and really the top: the last listed
/// rank is not below `floor`, the reference's 100th.
fn check_ranks(output: &str, reference: &[f32], floor: f32) -> Vec<String> {
    let within = |got: f64, want: f64| (got - want).abs() <= 1e-3 * want.abs() + 5e-5;
    let listed = listed_ranks(output);
    if listed.len() != TOP_RANKS.min(reference.len()) {
        return vec![format!(
            "PageRank listed {} rows, expected {TOP_RANKS}",
            listed.len()
        )];
    }
    let mut failures: Vec<String> = listed
        .iter()
        .filter_map(|&(id, got)| match reference.get(id) {
            Some(&want) if within(got, f64::from(want)) => None,
            Some(&want) => Some(format!("rank of vertex {id}: {got}, reference {want}")),
            None => Some(format!("PageRank listed unknown vertex {id}")),
        })
        .collect();
    if let Some(&(_, last)) = listed.last() {
        if last < f64::from(floor) && !within(last, f64::from(floor)) {
            failures.push(format!(
                "lowest listed rank {last} is below the reference's {floor}"
            ));
        }
    }
    if !output.contains("(converged)") {
        failures.push("PageRank hit the iteration cap".into());
    }
    failures
}

/// The image passes `verify_dos` and holds the generated graph.
fn check_image(inputs: &Inputs) -> Res<Vec<String>> {
    let mut failures = Vec::new();
    let report = verify_dos(&inputs.dos, IoStats::new())?;
    failures.extend(report.violations.iter().map(|v| format!("verify_dos: {v}")));
    let meta = DosGraph::open(&inputs.dos, IoStats::new())?.meta();
    if meta.num_edges != inputs.num_edges() || meta.num_vertices != inputs::id_span(&inputs.edges) {
        failures.push(format!(
            "image holds {} edges over {} vertices, generated {} over {}",
            meta.num_edges,
            meta.num_vertices,
            inputs.num_edges(),
            inputs::id_span(&inputs.edges)
        ));
    }
    Ok(failures)
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// The closed-loop client
// ---------------------------------------------------------------------------

/// One client connection speaking the line protocol.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    pub fn open(addr: &str) -> Res<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Send one request line and wait for its one-line answer; returns the
    /// answer (without the newline) and the round trip in microseconds.
    pub fn ask(&mut self, line: &str) -> Res<(String, f64)> {
        let sent = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(format!("server closed the connection on `{line}`").into());
        }
        let micros = sent.elapsed().as_secs_f64() * 1e6;
        answer.truncate(answer.trim_end().len());
        Ok((answer, micros))
    }
}

/// One connection's record of a closed loop.
pub struct ClientLog {
    /// Round trips of the timed queries.
    pub latencies_us: Vec<f64>,
    /// Responses to the whole script, warm-up included.
    pub responses: Vec<String>,
    started: Instant,
    ended: Instant,
}

fn client(addr: &str, script: &[String], start_together: &Barrier) -> Res<ClientLog> {
    let (warmup, timed) = script.split_at(WARMUP_QUERIES);
    let mut responses = Vec::with_capacity(script.len());
    // Reach the barrier even when connecting or warming up failed, or the
    // other clients would wait there forever.
    let warmed = (|| {
        let mut conn = Connection::open(addr)?;
        for line in warmup {
            responses.push(conn.ask(line)?.0);
        }
        Ok::<_, crate::Error>(conn)
    })();
    start_together.wait();
    let mut conn = warmed?;
    let mut latencies_us = Vec::with_capacity(timed.len());
    let started = Instant::now();
    for line in timed {
        let (answer, micros) = conn.ask(line)?;
        responses.push(answer);
        latencies_us.push(micros);
    }
    let ended = Instant::now();
    conn.ask("quit")?;
    Ok(ClientLog {
        latencies_us,
        responses,
        started,
        ended,
    })
}

/// Drive one connection per script against `addr`, each sending its next
/// request only after the previous answer arrived. Every connection first
/// warms up with `WARMUP_QUERIES` lines; the timed part starts on all of
/// them together. Returns the wall of the timed part and the logs.
pub fn closed_loop(addr: &str, scripts: &[Vec<String>]) -> Res<(Duration, Vec<ClientLog>)> {
    let start_together = Barrier::new(scripts.len());
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| scope.spawn(|| client(addr, script, &start_together)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Res<_>>()
    })?;
    let first = logs
        .iter()
        .map(|l| l.started)
        .min()
        .ok_or("closed loop without connections")?;
    let last = logs
        .iter()
        .map(|l| l.ended)
        .max()
        .ok_or("closed loop without connections")?;
    Ok((last - first, logs))
}

/// Wait until `graphz serve --port-file` has written its address.
fn served_address(server: &mut Running, port_file: &Path) -> Res<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if text.ends_with('\n') {
                return Ok(text.trim().to_string());
            }
        }
        if server.exited()? || Instant::now() > deadline {
            return Err("graphz serve never wrote its port file".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Start `graphz serve`, hand its address to `client`, then wait for the
/// server to end by itself (its `--max-conns` used up). If the client fails
/// the server is killed, so that no process outlives the benchmark.
fn with_server<T>(
    inputs: &Inputs,
    connections: usize,
    client: impl FnOnce(&str) -> Res<T>,
) -> Res<(T, Finished)> {
    let mut server = child::spawn(&serve_args(inputs, connections))?;
    match served_address(&mut server, &inputs.port_file).and_then(|addr| client(&addr)) {
        Ok(out) => Ok((out, server.finish()?)),
        Err(e) => {
            server.kill();
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Timed operations
// ---------------------------------------------------------------------------

/// One repetition of a workload's operation, with its verdicts.
#[derive(Debug, Default)]
pub struct OpOutcome {
    pub wall_s: f64,
    /// `/proc/self/io` traffic of the commands, summed.
    pub io_bytes: u64,
    /// Largest `VmHWM` among the commands.
    pub peak_rss_kib: u64,
    /// Parse + execute + print as the commands clocked it themselves, summed.
    pub inside_s: f64,
    pub image_bytes: u64,
    pub checks: u64,
    pub failures: Vec<String>,
    /// `serve-mixed` only: one entry per timed query.
    pub latencies_us: Vec<f64>,
    pub response_bytes: u64,
}

impl OpOutcome {
    fn charge(&mut self, done: &Finished) {
        self.io_bytes += done.io_bytes;
        self.peak_rss_kib = self.peak_rss_kib.max(done.peak_rss_kib);
        self.inside_s += done.inside.as_secs_f64();
    }

    fn check(&mut self, failures: Vec<String>) {
        self.checks += 1;
        self.failures.extend(failures);
    }
}

/// `graphz run pr` as the workload runs it: defaults but for the budget, for
/// `pipeline-cold` the checkpoint directory `serve` pins from, and `--top 100`
/// so that the listing is long enough for the oracle.
pub fn pagerank_args(workload: &Workload, inputs: &Inputs) -> Vec<String> {
    let budget_mib = match workload.kind {
        Kind::Pagerank { budget_mib } => budget_mib,
        _ => 1,
    };
    let mut args = strings(&[
        "run",
        "pr",
        path_str(&inputs.dos),
        "--top",
        "100",
        "--budget-mib",
        &budget_mib.to_string(),
    ]);
    if workload.kind == Kind::Pipeline {
        args.extend(strings(&[
            "--checkpoint-dir",
            path_str(&inputs.checkpoints),
        ]));
    }
    args
}

pub fn traversal_args(dos: &Path, step: &TraversalStep) -> Vec<String> {
    let mut args = strings(&["run", step.algo, path_str(dos), "--budget-mib", "1"]);
    if let Some(s) = step.source {
        args.extend(strings(&["--source", &s.to_string()]));
    }
    args
}

pub fn convert_args(inputs: &Inputs) -> Vec<String> {
    strings(&["convert", path_str(&inputs.text), path_str(&inputs.dos)])
}

pub fn serve_args(inputs: &Inputs, connections: usize) -> Vec<String> {
    strings(&[
        "serve",
        path_str(&inputs.dos),
        "--checkpoint-dir",
        path_str(&inputs.checkpoints),
        "--port-file",
        path_str(&inputs.port_file),
        "--max-conns",
        &connections.to_string(),
    ])
}

/// Remove what a previous repetition's operation wrote.
pub fn reset_outputs(workload: &Workload, inputs: &Inputs) -> Res<()> {
    if matches!(workload.kind, Kind::Ingest | Kind::Pipeline) {
        remove_dir(&inputs.dos)?;
    }
    if workload.kind == Kind::Pipeline {
        remove_dir(&inputs.checkpoints)?;
    }
    let _ = std::fs::remove_file(&inputs.port_file);
    Ok(())
}

/// Regime guards: fail loudly instead of measuring the wrong thing.
pub fn guard_partitions(workload: &Workload, partitions: u64) -> Res<()> {
    let ok = match workload.kind {
        Kind::Pagerank { budget_mib: 1 } => partitions >= 8,
        Kind::Pagerank { .. } => partitions == 1,
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: wrong regime, the run used {partitions} partition(s)",
            workload.name
        )
        .into())
    }
}

/// `pagerank-ooc` must spill, or it is not the out-of-core regime. Only the
/// traced run sees the engine's spill counter; the untraced run is guarded
/// by its partition count.
pub fn guard_spill(workload: &Workload, spilled: f64) -> Res<()> {
    if workload.kind == (Kind::Pagerank { budget_mib: 1 }) && spilled <= 0.0 {
        return Err(format!(
            "{}: wrong regime, the run spilled no messages",
            workload.name
        )
        .into());
    }
    Ok(())
}

pub fn guard_response_size(response_bytes: u64, queries: usize) -> Res<()> {
    let mean = response_bytes as f64 / queries as f64;
    if mean >= MIN_MEAN_RESPONSE_BYTES {
        Ok(())
    } else {
        Err(
            format!("serve-mixed: mean response is {mean:.0} B, under {MIN_MEAN_RESPONSE_BYTES} B")
                .into(),
        )
    }
}

/// Run the workload's operation once, untraced, through the CLI surface.
pub fn run_op(workload: &Workload, inputs: &Inputs, oracle: &Oracle) -> Res<OpOutcome> {
    reset_outputs(workload, inputs)?;
    let mut op = OpOutcome::default();
    match workload.kind {
        Kind::Ingest => {
            let done = child::run(&convert_args(inputs))?;
            op.wall_s = done.wall.as_secs_f64();
            op.charge(&done);
            op.check(check_image(inputs)?);
        }
        Kind::Pagerank { .. } => {
            let done = child::run(&pagerank_args(workload, inputs))?;
            op.wall_s = done.wall.as_secs_f64();
            op.charge(&done);
            let partitions = number_before(&done.stdout, "partitions,")
                .ok_or_else(|| format!("no partition count in: {}", done.stdout))?;
            guard_partitions(workload, partitions)?;
            op.check(check_ranks(&done.stdout, &oracle.ranks, oracle.rank_floor));
        }
        Kind::Traversal => {
            let started = Instant::now();
            let done: Vec<Finished> = oracle
                .traversal
                .iter()
                .map(|step| child::run(&traversal_args(&inputs.dos, step)))
                .collect::<Res<_>>()?;
            op.wall_s = started.elapsed().as_secs_f64();
            for ((step, done), &want) in oracle
                .traversal
                .iter()
                .zip(&done)
                .zip(&oracle.traversal_counts)
            {
                op.charge(done);
                let got = match step.algo {
                    "cc" => number_before(&done.stdout, "components;"),
                    _ => number_after(&done.stdout, "reached"),
                };
                op.check(if got == Some(want) {
                    Vec::new()
                } else {
                    vec![format!(
                        "{} from {:?}: got {got:?}, reference {want}",
                        step.algo, step.source
                    )]
                });
            }
        }
        Kind::Serve => {
            let ((wall, logs), served) = with_server(inputs, oracle.scripts.len(), |addr| {
                closed_loop(addr, &oracle.scripts)
            })?;
            op.wall_s = wall.as_secs_f64();
            op.charge(&served);
            for (log, want) in logs.iter().zip(&oracle.responses) {
                for (i, (got, want)) in log.responses.iter().zip(want).enumerate() {
                    op.checks += 1;
                    if got != want {
                        op.failures.push(format!(
                            "query {i}: got `{got}`, in-process session `{want}`"
                        ));
                    }
                }
                op.response_bytes += log.responses[WARMUP_QUERIES..]
                    .iter()
                    .map(|r| r.len() as u64 + 1)
                    .sum::<u64>();
                op.latencies_us.extend(&log.latencies_us);
            }
            guard_response_size(op.response_bytes, op.latencies_us.len())?;
        }
        Kind::Pipeline => {
            let started = Instant::now();
            let converted = child::run(&convert_args(inputs))?;
            let ran = child::run(&pagerank_args(workload, inputs))?;
            let ((wall, answer), served) = with_server(inputs, 1, |addr| {
                let mut conn = Connection::open(addr)?;
                let (answer, _) = conn.ask("value 0")?;
                let wall = started.elapsed();
                conn.ask("quit")?;
                Ok((wall, answer))
            })?;
            op.wall_s = wall.as_secs_f64();
            for done in [&converted, &ran, &served] {
                op.charge(done);
            }
            op.check(check_image(inputs)?);
            op.check(check_ranks(&ran.stdout, &oracle.ranks, oracle.rank_floor));
            let mut view = GraphView::open(&inputs.dos, IoStats::new())?;
            view.pin_snapshot(&inputs.checkpoints, None)?;
            let mut session = Session::new(view);
            session.handle("value 0");
            op.check(
                if session.response() == answer && answer.starts_with("OK ") {
                    Vec::new()
                } else {
                    vec![format!(
                        "first answer `{answer}`, in-process session `{}`",
                        session.response()
                    )]
                },
            );
        }
    }
    op.image_bytes = dir_bytes(&inputs.dos)?;
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_OUTPUT: &str =
        "PR on dos: 54 iterations (converged), 8 partitions, 108000000 messages\n\
        io: 811166544 read / 382842968 written / 217 seeks, wall 2.44s\n\
        top vertices by rank:\n        5  3.5000\n        2  1.2500\n";

    #[test]
    fn reads_numbers_off_cli_output() {
        assert_eq!(number_before(RUN_OUTPUT, "partitions,"), Some(8));
        assert_eq!(number_before(RUN_OUTPUT, "iterations"), Some(54));
        assert_eq!(
            number_after("reached 1234 of 5000 vertices; nearest:", "reached"),
            Some(1234)
        );
        assert_eq!(
            number_before("17 components; largest:", "components;"),
            Some(17)
        );
        assert_eq!(number_before(RUN_OUTPUT, "absent"), None);
        assert_eq!(listed_ranks(RUN_OUTPUT), vec![(5, 3.5), (2, 1.25)]);
    }

    #[test]
    fn rank_check_accepts_close_and_rejects_far_or_missing() {
        let mut reference = vec![0.15f32; 8];
        reference[5] = 3.5001;
        reference[2] = 1.2502;
        let head = "PR: 3 iterations (converged), 1 partitions\ntop vertices by rank:\n";
        // Only 8 vertices, so "top 100" is all 8 rows.
        let rest: String = [0, 1, 3, 4, 6, 7]
            .iter()
            .map(|v| format!("  {v}  0.1500\n"))
            .collect();
        let good = format!("{head}  5  3.5000\n  2  1.2500\n{rest}");
        assert_eq!(
            check_ranks(&good, &reference, rank_floor(&reference)),
            Vec::<String>::new()
        );
        let off = good.replace("3.5000", "3.6000");
        assert_eq!(
            check_ranks(&off, &reference, rank_floor(&reference)).len(),
            1
        );
        let short = format!("{head}  5  3.5000\n");
        assert_eq!(
            check_ranks(&short, &reference, rank_floor(&reference)).len(),
            1
        );
        let capped = good.replace("(converged)", "(hit iteration cap)");
        assert_eq!(
            check_ranks(&capped, &reference, rank_floor(&reference)).len(),
            1
        );
    }

    #[test]
    fn directed_labels_follow_reachability_in_storage_order() {
        // 0 -> 1 -> 2, 3 isolated; storage ids reverse the original ones.
        let edges = [Edge::new(0, 1), Edge::new(1, 2)];
        let old2new = [3, 2, 1, 0];
        // Vertex 0 (storage 3) reaches 1 and 2, but their own ids are
        // smaller, so nothing changes: four labels.
        assert_eq!(directed_label_count(&edges, &old2new), 4);
        // With the identity order 0's label floods the chain: {0,1,2}, {3}.
        assert_eq!(directed_label_count(&edges, &[0, 1, 2, 3]), 2);
    }

    #[test]
    fn regime_guards_name_the_workload() {
        let ooc = &WORKLOADS[1];
        let fit = &WORKLOADS[2];
        assert!(guard_partitions(ooc, 8).is_ok());
        assert!(guard_partitions(ooc, 4)
            .unwrap_err()
            .to_string()
            .contains("pagerank-ooc"));
        assert!(guard_partitions(fit, 1).is_ok());
        assert!(guard_partitions(fit, 2).is_err());
        assert!(guard_spill(ooc, 0.0).is_err());
        assert!(guard_spill(ooc, 5.0).is_ok());
        assert!(guard_spill(fit, 0.0).is_ok());
        assert!(guard_response_size(300 * 10, 10).is_ok());
        assert!(guard_response_size(100 * 10, 10).is_err());
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
