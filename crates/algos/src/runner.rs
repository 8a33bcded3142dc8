//! Uniform harness layer: prepare a graph for any engine, run any of the
//! six algorithms on it, and get back comparable values plus run metrics.
//!
//! The benchmark binaries in `graphz-bench` drive everything through this
//! module so that every engine is measured through exactly the same code
//! path and IO accounting.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphz_baselines::graphchi::{ChiEngine, ChiEngineConfig, ChiShards, ShardingConfig};
use graphz_baselines::gridgraph::{GridEngine, GridEngineConfig, GridPartitions};
use graphz_baselines::xstream::{XsEngine, XsEngineConfig, XsPartitions};
use graphz_baselines::BaselineRun;
use graphz_core::{
    ActivityCounters, CheckpointTimes, DenseStore, DosStore, Engine, EngineConfig, GraphStore,
    RunSummary, StageTimes, VertexProgram,
};
use graphz_io::{IoSnapshot, IoStats, PrefetchSnapshot};
use graphz_storage::{CsrFiles, CsrGraph, DosConverter, DosGraph, EdgeListFile};
use graphz_types::prelude::*;

use crate::common::{
    canonicalize_labels, AlgoParams, Algorithm, AlgoValues, ResultStream, ValueStream,
};
use crate::{graphchi as chi, graphz as gz, reference, xstream as xs};

/// Which system executes the algorithm (paper Fig. 5–7 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Full GraphZ: degree-ordered storage + dynamic messages.
    GraphZ,
    /// Fig. 7 ablation: GraphZ engine, dense-indexed original order, DM on.
    GraphZNoDos,
    /// Fig. 7 ablation: dense-indexed original order, DM off (all messages
    /// buffered like a static-message system).
    GraphZNoDosNoDm,
    /// GraphChi-class parallel sliding windows.
    GraphChi,
    /// X-Stream-class edge-centric streaming.
    XStream,
    /// GridGraph-class 2-level grid streaming (extension beyond the paper's
    /// comparisons — see `graphz_baselines::gridgraph`).
    GridGraph,
    /// Plain in-memory implementation (Tables I–II's "C" rows).
    Reference,
}

impl EngineKind {
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::GraphZ => "GraphZ",
            EngineKind::GraphZNoDos => "GraphZ w/o DOS",
            EngineKind::GraphZNoDosNoDm => "GraphZ w/o DOS and DM",
            EngineKind::GraphChi => "GraphChi",
            EngineKind::XStream => "X-Stream",
            EngineKind::GridGraph => "GridGraph",
            EngineKind::Reference => "C (in-memory)",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a benchmark needs to report about one run. `V` is what the
/// run's values became: [`AlgoValues`] for every collecting entry point,
/// the report's result for [`run_graphz_reported`].
#[derive(Debug, Clone)]
pub struct AlgoOutcome<V = AlgoValues> {
    pub engine: EngineKind,
    pub algorithm: Algorithm,
    pub iterations: u32,
    pub converged: bool,
    pub partitions: u32,
    /// Messages / updates / edge-writes that crossed the engine's
    /// communication layer.
    pub messages: u64,
    /// Messages queued for a non-resident partition (GraphZ engines;
    /// baselines report 0).
    pub buffered: u64,
    /// Buffered messages that overflowed to spill files (GraphZ engines;
    /// baselines report 0).
    pub spilled: u64,
    /// Buffered messages replayed at partition loads (GraphZ engines;
    /// baselines report 0).
    pub replayed: u64,
    /// The most messages held in memory at once (GraphZ engines; baselines
    /// report 0).
    pub msg_high_water: u64,
    pub io: IoSnapshot,
    pub wall: Duration,
    /// Engine-thread wall time per pipeline stage (GraphZ engines only).
    pub stages: Option<StageTimes>,
    /// Partition-prefetch effectiveness (GraphZ engines only).
    pub prefetch: Option<PrefetchSnapshot>,
    /// The execution plan the engine resolved (GraphZ engines only).
    pub plan: Option<ExecutionPlan>,
    /// What activity-aware scheduling skipped and wrote (GraphZ engines
    /// only).
    pub activity: Option<ActivityCounters>,
    /// Checkpoint generations committed and where their time went (GraphZ
    /// engines only).
    pub checkpoint: Option<CheckpointTimes>,
    /// Per-vertex results indexed by original id (or the report's result).
    pub values: V,
}

// ---------------------------------------------------------------------------
// Preparation (the Table XII "preprocessing" steps).
// ---------------------------------------------------------------------------

/// Convert to degree-ordered storage (GraphZ preprocessing).
pub fn prepare_dos(
    input: &EdgeListFile,
    dir: &Path,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<DosGraph> {
    DosConverter::builder().budget(budget).stats(stats).build()?.convert(input, dir)
}

/// Convert to on-disk CSR (substrate for the w/o-DOS ablations).
pub fn prepare_csr(
    input: &EdgeListFile,
    dir: &Path,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<CsrFiles> {
    CsrFiles::convert(input, dir, stats, budget)
}

/// Shard for the GraphChi-class engine.
pub fn prepare_chi(
    input: &EdgeListFile,
    dir: &Path,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<ChiShards> {
    ChiShards::convert(input, dir, ShardingConfig::new(budget), stats)
}

/// Bucket into the 2-level grid for the GridGraph-class engine.
pub fn prepare_grid(
    input: &EdgeListFile,
    dir: &Path,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<GridPartitions> {
    GridPartitions::convert(input, dir, budget, stats)
}

/// Bucket into streaming partitions for the X-Stream-class engine.
pub fn prepare_xs(
    input: &EdgeListFile,
    dir: &Path,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<XsPartitions> {
    XsPartitions::convert(input, dir, budget, stats)
}

// ---------------------------------------------------------------------------
// GraphZ runs (full and ablated).
// ---------------------------------------------------------------------------

/// Durability knobs for a GraphZ run, kept separate from the `Copy`-able
/// [`AlgoParams`]: where to write checkpoint generations, how often, and
/// whether to resume from the newest valid one before running.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSpec {
    /// Root directory for `gen-NNNNNNNN/` generations; `None` disables
    /// checkpointing (and resuming).
    pub dir: Option<std::path::PathBuf>,
    /// Checkpoint after every `every` completed iterations (0 = only resume,
    /// never write).
    pub every: u32,
    /// Scan `dir` for the newest valid generation and continue from it.
    pub resume: bool,
}

impl CheckpointSpec {
    /// No checkpointing at all (the default).
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// Run on the full GraphZ configuration (DOS + dynamic messages).
pub fn run_graphz(
    dos: &DosGraph,
    params: &AlgoParams,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    run_graphz_checkpointed(dos, params, budget, &CheckpointSpec::disabled(), stats)
}

/// Run on the full GraphZ configuration with crash-safe checkpointing: write
/// a generation under `ckpt.dir` every `ckpt.every` iterations and, when
/// `ckpt.resume` is set, continue from the newest valid generation instead
/// of starting over.
pub fn run_graphz_checkpointed(
    dos: &DosGraph,
    params: &AlgoParams,
    budget: MemoryBudget,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    run_graphz_configured(dos, params, budget, EngineOptions::full(), ckpt, stats)
}

/// Run the GraphZ engine over DOS with explicit [`EngineOptions`] — the
/// entry point for pipeline configurations (CLI `--no-prefetch`, the
/// determinism suite's sweep over prefetch and pipeline threads).
pub fn run_graphz_configured(
    dos: &DosGraph,
    params: &AlgoParams,
    budget: MemoryBudget,
    options: EngineOptions,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    run_graphz_reported(dos, params, budget, options, ckpt, stats, |s| s.collect())
}

/// [`run_graphz_configured`] handing the final values to `report` as one
/// [`ResultStream`] instead of collecting them — the CLI's entry, whose
/// `--top K` listing holds K rows, not V values. The outcome's `values` is
/// what `report` returns. `vertices.bin` and the id map are each read once,
/// as collecting reads them.
pub fn run_graphz_reported<T>(
    dos: &DosGraph,
    params: &AlgoParams,
    budget: MemoryBudget,
    options: EngineOptions,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
    report: impl FnOnce(ResultStream<'_>) -> Result<T>,
) -> Result<AlgoOutcome<T>> {
    run_graphz_with(
        Box::new(DosStore::new(dos.clone())),
        EngineKind::GraphZ,
        params,
        EngineConfig::new(budget).with_options(options),
        ckpt,
        stats,
        report,
    )
}

/// [`run_graphz_configured`] keeping every checkpoint generation instead of
/// the newest two — a test hook for suites that inspect the whole
/// generation history (`golden_values.rs`). The CLI never calls it.
pub fn run_graphz_keeping_generations(
    dos: &DosGraph,
    params: &AlgoParams,
    budget: MemoryBudget,
    options: EngineOptions,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    run_graphz_with(
        Box::new(DosStore::new(dos.clone())),
        EngineKind::GraphZ,
        params,
        EngineConfig::new(budget).with_options(options).keeping_all_generations(),
        ckpt,
        stats,
        |s| s.collect(),
    )
}

/// Run a GraphZ ablation over a dense-indexed CSR store
/// (`EngineKind::GraphZNoDos` / `GraphZNoDosNoDm`).
pub fn run_graphz_dense(
    csr: &CsrFiles,
    params: &AlgoParams,
    budget: MemoryBudget,
    dynamic_messages: bool,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    let store = DenseStore::new(csr.clone(), budget, Arc::clone(&stats))?;
    let (kind, options) = if dynamic_messages {
        (EngineKind::GraphZNoDos, EngineOptions::without_dos())
    } else {
        (EngineKind::GraphZNoDosNoDm, EngineOptions::without_dos_and_dm())
    };
    run_graphz_with(
        Box::new(store),
        kind,
        params,
        EngineConfig::new(budget).with_options(options),
        &CheckpointSpec::disabled(),
        stats,
        |s| s.collect(),
    )
}

fn run_graphz_with<T>(
    store: Box<dyn GraphStore>,
    kind: EngineKind,
    params: &AlgoParams,
    config: EngineConfig,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
    report: impl FnOnce(ResultStream<'_>) -> Result<T>,
) -> Result<AlgoOutcome<T>> {
    let mut report = Some(report);
    let mut values = None;
    let run = run_engine(store, params, config, ckpt, stats, &mut |stream| {
        if let Some(report) = report.take() {
            values = Some(report(stream)?);
        }
        Ok(())
    })?;
    let values = values.expect("run_engine reports once before it returns Ok");
    Ok(AlgoOutcome {
        engine: kind,
        algorithm: params.algorithm,
        iterations: run.iterations,
        converged: run.converged,
        partitions: run.partitions,
        messages: run.messages_sent,
        buffered: run.buffered,
        spilled: run.spilled,
        replayed: run.replayed,
        msg_high_water: run.msg_high_water,
        io: run.io,
        wall: run.wall,
        stages: Some(run.stages),
        prefetch: Some(run.prefetch),
        plan: Some(run.plan),
        activity: Some(run.activity),
        checkpoint: Some(run.checkpoint),
        values,
    })
}

/// Run the algorithm and hand its values to `report`. It is not generic
/// over the report's result, so the engine instantiated below is compiled
/// once, in this crate. Instantiated from the CLI's crate instead, the same
/// engine code took about 7% more CPU time on `pagerank-ooc`'s graph
/// (release build, 2 vCPUs).
fn run_engine(
    store: Box<dyn GraphStore>,
    params: &AlgoParams,
    mut config: EngineConfig,
    ckpt: &CheckpointSpec,
    stats: Arc<IoStats>,
    report: &mut dyn FnMut(ResultStream<'_>) -> Result<()>,
) -> Result<RunSummary> {
    if let Some(dir) = &ckpt.dir {
        config = config.checkpoint_every(dir, ckpt.every);
    }
    let max = effective_max_iterations(params);

    fn finish<P: VertexProgram>(
        mut engine: Engine<P>,
        max: u32,
        ckpt: &CheckpointSpec,
        report: impl FnOnce(&Engine<P>) -> Result<()>,
    ) -> Result<RunSummary> {
        if ckpt.resume {
            if let Some(dir) = &ckpt.dir {
                engine.resume_latest(dir)?;
            }
        }
        let run = engine.run(max)?;
        report(&engine)?;
        Ok(run)
    }

    /// The engine's final values, `value(data)` each, as one stream.
    fn stream<'a, P: VertexProgram, V: 'a>(
        engine: &'a Engine<P>,
        value: fn(P::VertexData) -> V,
    ) -> ValueStream<'a, V> {
        ValueStream::new(engine.store().num_vertices(), move |f| {
            engine.for_each_value(|id, data| f(id, value(data)))
        })
    }

    match params.algorithm {
        Algorithm::PageRank => {
            let program = gz::PageRank { tolerance: params.pr_tolerance };
            let engine = Engine::new(store, program, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Ranks(stream(e, |v| v.0)))
            })
        }
        Algorithm::Bfs => {
            let source = store.to_storage_id(params.source, &stats)?;
            let engine = Engine::new(store, gz::Bfs { source }, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Hops(stream(e, |v| v.0)))
            })
        }
        Algorithm::Cc => {
            let engine = Engine::new(store, gz::Cc, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Labels(stream(e, |v| v.0)))
            })
        }
        Algorithm::Sssp => {
            let source = store.to_storage_id(params.source, &stats)?;
            let new2old = Arc::new(store.original_ids(&stats)?);
            let engine = Engine::new(store, gz::Sssp { source, new2old }, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Costs(stream(e, |v| v.0)))
            })
        }
        Algorithm::Bp => {
            let new2old = Arc::new(store.original_ids(&stats)?);
            let program = gz::Bp { rounds: params.rounds, new2old };
            let engine = Engine::new(store, program, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Beliefs(stream(e, |v| v.belief)))
            })
        }
        Algorithm::RandomWalk => {
            let program = gz::RandomWalk { rounds: params.rounds };
            let engine = Engine::new(store, program, config, stats)?;
            finish(engine, max, ckpt, |e| {
                report(ResultStream::Visits(stream(e, |v| v.0)))
            })
        }
    }
}

// ---------------------------------------------------------------------------
// GraphChi runs.
// ---------------------------------------------------------------------------

/// Run on the GraphChi-class engine. Fails with
/// [`graphz_types::GraphError::IndexExceedsMemory`] when the dense vertex
/// index cannot fit — the paper's xlarge failure mode.
pub fn run_graphchi(
    shards: &ChiShards,
    params: &AlgoParams,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    let config = ChiEngineConfig::new(budget);
    let max = effective_max_iterations(params);

    fn finish<P, F>(
        mut engine: ChiEngine<P>,
        params: &AlgoParams,
        max: u32,
        extract: F,
    ) -> Result<AlgoOutcome>
    where
        P: graphz_baselines::graphchi::ChiProgram,
        F: FnOnce(Vec<P::VertexValue>) -> AlgoValues,
    {
        let run = engine.run(max)?;
        let values = extract(engine.values()?);
        Ok(baseline_outcome(EngineKind::GraphChi, params, run, values))
    }

    match params.algorithm {
        Algorithm::PageRank => {
            let program = chi::ChiPageRank { tolerance: params.pr_tolerance };
            let engine = ChiEngine::new(shards.clone(), program, config, stats)?;
            finish(engine, params, max, AlgoValues::Ranks)
        }
        Algorithm::Bfs => {
            let program = chi::ChiBfs { source: params.source };
            let engine = ChiEngine::new(shards.clone(), program, config, stats)?;
            finish(engine, params, max, AlgoValues::Hops)
        }
        Algorithm::Cc => {
            let engine = ChiEngine::new(shards.clone(), chi::ChiCc, config, stats)?;
            finish(engine, params, max, |raw| AlgoValues::Labels(canonicalize_labels(&raw)))
        }
        Algorithm::Sssp => {
            let program = chi::ChiSssp { source: params.source };
            let engine = ChiEngine::new(shards.clone(), program, config, stats)?;
            finish(engine, params, max, AlgoValues::Costs)
        }
        Algorithm::Bp => {
            let program = chi::ChiBp { rounds: params.rounds };
            let engine = ChiEngine::new(shards.clone(), program, config, stats)?;
            finish(engine, params, max, AlgoValues::Beliefs)
        }
        Algorithm::RandomWalk => {
            let program = chi::ChiRandomWalk { rounds: params.rounds };
            let engine = ChiEngine::new(shards.clone(), program, config, stats)?;
            finish(engine, params, max, AlgoValues::Visits)
        }
    }
}

// ---------------------------------------------------------------------------
// X-Stream runs.
// ---------------------------------------------------------------------------

/// Run on the X-Stream-class engine.
pub fn run_xstream(
    parts: &XsPartitions,
    params: &AlgoParams,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    let config = XsEngineConfig::new(budget);
    let max = effective_max_iterations(params);

    fn finish<P, F>(
        mut engine: XsEngine<P>,
        params: &AlgoParams,
        max: u32,
        extract: F,
    ) -> Result<AlgoOutcome>
    where
        P: graphz_baselines::xstream::XsProgram,
        F: FnOnce(Vec<P::VertexValue>) -> AlgoValues,
    {
        let run = engine.run(max)?;
        let values = extract(engine.values()?);
        Ok(baseline_outcome(EngineKind::XStream, params, run, values))
    }

    match params.algorithm {
        Algorithm::PageRank => {
            let program = xs::XsPageRank { tolerance: params.pr_tolerance };
            let engine = XsEngine::new(parts.clone(), program, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Ranks(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Bfs => {
            let engine =
                XsEngine::new(parts.clone(), xs::XsBfs { source: params.source }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Hops(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Cc => {
            let engine = XsEngine::new(parts.clone(), xs::XsCc, config, stats)?;
            finish(engine, params, max, |vals| {
                let raw: Vec<u32> = vals.into_iter().map(|v| v.0).collect();
                AlgoValues::Labels(canonicalize_labels(&raw))
            })
        }
        Algorithm::Sssp => {
            let engine =
                XsEngine::new(parts.clone(), xs::XsSssp { source: params.source }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Costs(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Bp => {
            let engine =
                XsEngine::new(parts.clone(), xs::XsBp { rounds: params.rounds }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Beliefs(vals.into_iter().map(|v| v.belief).collect())
            })
        }
        Algorithm::RandomWalk => {
            let program = xs::XsRandomWalk { rounds: params.rounds };
            let engine = XsEngine::new(parts.clone(), program, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Visits(vals.into_iter().map(|v| v.0).collect())
            })
        }
    }
}

// ---------------------------------------------------------------------------
// GridGraph runs (extension).
// ---------------------------------------------------------------------------

/// Run on the GridGraph-class engine. Reuses the X-Stream programs — the
/// grid engine's programming model is the same edge-centric scatter/gather.
pub fn run_gridgraph(
    grid: &GridPartitions,
    params: &AlgoParams,
    budget: MemoryBudget,
    stats: Arc<IoStats>,
) -> Result<AlgoOutcome> {
    let config = GridEngineConfig::new(budget);
    let max = effective_max_iterations(params);

    fn finish<P, F>(
        mut engine: GridEngine<P>,
        params: &AlgoParams,
        max: u32,
        extract: F,
    ) -> Result<AlgoOutcome>
    where
        P: graphz_baselines::xstream::XsProgram,
        F: FnOnce(Vec<P::VertexValue>) -> AlgoValues,
    {
        let run = engine.run(max)?;
        let values = extract(engine.values()?);
        Ok(baseline_outcome(EngineKind::GridGraph, params, run, values))
    }

    match params.algorithm {
        Algorithm::PageRank => {
            let program = xs::XsPageRank { tolerance: params.pr_tolerance };
            let engine = GridEngine::new(grid.clone(), program, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Ranks(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Bfs => {
            let engine =
                GridEngine::new(grid.clone(), xs::XsBfs { source: params.source }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Hops(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Cc => {
            let engine = GridEngine::new(grid.clone(), xs::XsCc, config, stats)?;
            finish(engine, params, max, |vals| {
                let raw: Vec<u32> = vals.into_iter().map(|v| v.0).collect();
                AlgoValues::Labels(canonicalize_labels(&raw))
            })
        }
        Algorithm::Sssp => {
            let engine =
                GridEngine::new(grid.clone(), xs::XsSssp { source: params.source }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Costs(vals.into_iter().map(|v| v.0).collect())
            })
        }
        Algorithm::Bp => {
            let engine =
                GridEngine::new(grid.clone(), xs::XsBp { rounds: params.rounds }, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Beliefs(vals.into_iter().map(|v| v.belief).collect())
            })
        }
        Algorithm::RandomWalk => {
            let program = xs::XsRandomWalk { rounds: params.rounds };
            let engine = GridEngine::new(grid.clone(), program, config, stats)?;
            finish(engine, params, max, |vals| {
                AlgoValues::Visits(vals.into_iter().map(|v| v.0).collect())
            })
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory reference runs.
// ---------------------------------------------------------------------------

/// Run the plain in-memory implementation (ground truth; the "C" rows of
/// Tables I–II).
pub fn run_reference(g: &CsrGraph, params: &AlgoParams) -> Result<AlgoOutcome> {
    let start = Instant::now();
    let (values, iterations) = match params.algorithm {
        Algorithm::PageRank => {
            let (ranks, iters) = reference::pagerank(g, params.pr_tolerance, params.max_iterations);
            (AlgoValues::Ranks(ranks), iters)
        }
        Algorithm::Bfs => (AlgoValues::Hops(reference::bfs(g, params.source)), 0),
        Algorithm::Cc => (AlgoValues::Labels(reference::cc(g)), 0),
        Algorithm::Sssp => (AlgoValues::Costs(reference::sssp(g, params.source)), 0),
        Algorithm::Bp => (AlgoValues::Beliefs(reference::bp(g, params.rounds)), params.rounds),
        Algorithm::RandomWalk => {
            (AlgoValues::Visits(reference::random_walk(g, params.rounds)), params.rounds)
        }
    };
    Ok(AlgoOutcome {
        engine: EngineKind::Reference,
        algorithm: params.algorithm,
        iterations,
        converged: true,
        partitions: 1,
        messages: 0,
        buffered: 0,
        spilled: 0,
        replayed: 0,
        msg_high_water: 0,
        io: IoSnapshot::default(),
        wall: start.elapsed(),
        stages: None,
        prefetch: None,
        plan: None,
        activity: None,
        checkpoint: None,
        values,
    })
}

// ---------------------------------------------------------------------------

fn baseline_outcome(
    kind: EngineKind,
    params: &AlgoParams,
    run: BaselineRun,
    values: AlgoValues,
) -> AlgoOutcome {
    AlgoOutcome {
        engine: kind,
        algorithm: params.algorithm,
        iterations: run.iterations,
        converged: run.converged,
        partitions: run.partitions,
        messages: run.updates_sent,
        buffered: 0,
        spilled: 0,
        replayed: 0,
        msg_high_water: 0,
        io: run.io,
        wall: run.wall,
        stages: None,
        prefetch: None,
        plan: None,
        activity: None,
        checkpoint: None,
        values,
    }
}

/// Fixed-round algorithms (BP, RW) need `rounds + 1` engine iterations to
/// flush the final exchange; cap everything at the caller's maximum.
fn effective_max_iterations(params: &AlgoParams) -> u32 {
    match params.algorithm {
        Algorithm::Bp | Algorithm::RandomWalk => params.max_iterations.max(params.rounds + 2),
        _ => params.max_iterations,
    }
}
