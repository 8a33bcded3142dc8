//! The plan matrix the equivalence suites share. A [`Plan`] is one way to
//! execute a program — what stays resident, how many partitions, which
//! Fig. 7 ablation, which schedule — and the paper's sequential-equivalence
//! claim (§IV-C) is that no plan changes a result bit. [`run`] executes a
//! program under a plan over a [`Fixture`], whole or as a checkpoint/resume
//! split run, and [`assert_same`] compares two [`Outcome`]s: the engine's
//! final values (`Engine::values`, encoded), every `RunSummary` message
//! counter and every checkpoint generation's bytes.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

pub mod oracle;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use graphz_algos::common::{AlgoParams, Algorithm};
use graphz_algos::graphz as gz;
use graphz_core::{
    DenseStore, DosStore, Engine, EngineConfig, GraphStore, RunSummary, VertexProgram,
};
use graphz_gen::rmat_edges;
use graphz_io::{FramedReader, IoStats, ScratchDir};
use graphz_storage::{CsrFiles, DosConverter, DosGraph, EdgeListFile};
use graphz_types::{codec, Edge, EngineOptions, FixedCodec, MemoryBudget, VertexId};

/// An R-MAT edge list with default skew.
pub fn rmat(scale: u32, edges: u64, seed: u64) -> Vec<Edge> {
    rmat_edges(scale, edges, Default::default(), seed).collect()
}

/// Both directions of every non-loop edge, sorted and deduplicated.
pub fn symmetrized(edges: Vec<Edge>) -> Vec<Edge> {
    let mut out: Vec<Edge> = edges
        .iter()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [*e, Edge::new(e.dst, e.src)])
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `edges`, symmetrized when `algo` needs an undirected graph.
pub fn graph_for(algo: Algorithm, edges: Vec<Edge>) -> Vec<Edge> {
    if algo.wants_symmetrized() {
        symmetrized(edges)
    } else {
        edges
    }
}

/// One edge list converted once: to DOS (with the weights `weight` gives
/// each edge stored, if any) and, on first use, to the CSR the dense
/// ablation plans run over.
pub struct Fixture {
    pub dir: ScratchDir,
    pub stats: Arc<IoStats>,
    pub el: EdgeListFile,
    pub dos: DosGraph,
    csr: OnceLock<CsrFiles>,
    /// The most edges one adjacency block carries.
    batch_edges: usize,
}

impl Fixture {
    pub fn new(edges: Vec<Edge>, weight: Option<fn(VertexId, VertexId) -> f32>) -> Fixture {
        let dir = ScratchDir::new("plan-fixture").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let mut converter = DosConverter::new(MemoryBudget::from_mib(4), Arc::clone(&stats));
        if let Some(weight) = weight {
            converter = converter.with_weights(weight);
        }
        let dos = converter.convert(&el, &dir.path().join("dos")).unwrap();
        let batch_edges = graphz_core::sio::DEFAULT_BATCH_EDGES;
        Fixture { dir, stats, el, dos, csr: OnceLock::new(), batch_edges }
    }

    pub fn with_batch_edges(self, batch_edges: usize) -> Fixture {
        Fixture { batch_edges, ..self }
    }

    pub fn csr(&self) -> &CsrFiles {
        self.csr.get_or_init(|| {
            let (dir, stats) = (self.dir.path().join("csr"), Arc::clone(&self.stats));
            CsrFiles::convert(&self.el, &dir, stats, MemoryBudget::from_mib(4)).unwrap()
        })
    }

    /// An engine running `make`'s program under `plan`, writing a generation
    /// per iteration (every one kept) under `ckpt` if given.
    pub fn engine<P: VertexProgram>(
        &self,
        plan: Plan,
        make: &impl Fn(&dyn GraphStore) -> P,
        ckpt: Option<&Path>,
    ) -> Engine<P> {
        let size = P::VertexData::SIZE as u64;
        let (budget, partitions) = plan.budget(self.dos.meta().num_vertices, size);
        let stats = IoStats::new();
        let store: Box<dyn GraphStore> = if plan.options().use_dos {
            Box::new(DosStore::new(self.dos.clone()))
        } else {
            Box::new(DenseStore::new(self.csr().clone(), budget, Arc::clone(&stats)).unwrap())
        };
        let program = make(store.as_ref());
        let mut config = EngineConfig::new(budget)
            .with_options(plan.options())
            .with_batch_edges(self.batch_edges);
        if let Some(dir) = ckpt {
            config = config.checkpoint_every(dir, 1).keeping_all_generations();
        }
        let engine = Engine::new(store, program, config, stats).unwrap();
        if let Some(n) = partitions {
            assert_eq!(engine.num_partitions(), n, "{plan:?}: partitions");
        }
        engine
    }
}

/// The most edges one adjacency block carries on [`mid_pass_spill`].
pub const MID_PASS_BATCH_EDGES: usize = 512;

/// `edges` streamed in blocks of [`MID_PASS_BATCH_EDGES`] edges, for plans
/// whose message cap ([`Plan::message_cap`]) is a small fraction of a
/// block: a pass that sends along its edges crosses the cap inside a
/// block, between two messages of one batch, so where spills fall is
/// decided mid-pass rather than at a barrier.
pub fn mid_pass_spill(edges: Vec<Edge>) -> Fixture {
    Fixture::new(edges, None).with_batch_edges(MID_PASS_BATCH_EDGES)
}

/// `run` spilled, never held more than `cap + 1` messages in memory, and
/// deferred more than `cap + 1` messages in some pass of its first
/// iteration: its spills fell inside passes.
pub fn assert_spills_mid_pass(label: &str, run: &RunSummary, cap: u64) {
    let first = &run.per_iteration[0];
    let deferred = first.messages_sent - first.dynamic_applied;
    let passes = u64::from(run.partitions);
    assert!(cap < MID_PASS_BATCH_EDGES as u64 / 4, "{label}: cap {cap} is not below a block");
    assert!(run.spilled > 0, "{label}: nothing spilled");
    assert!(run.msg_high_water <= cap + 1, "{label}: held {} > cap {cap} + 1", run.msg_high_water);
    assert!(deferred > passes * (cap + 1), "{label}: {deferred} deferred in {passes} passes");
}

/// One row of the matrix: the options, budget rule and store an execution
/// takes, and what the engine must make of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// `graphz run` on a graph that fits: slab and adjacency resident.
    Resident,
    /// One partition whose slab fits but whose adjacency is streamed.
    SlabOnly,
    /// The control: `in_memory_fast_path: false`, the paper's always-spill,
    /// always-stream behaviour, at one partition.
    Streamed,
    /// `n` partitions: spill, replay and the Sio read-ahead thread.
    Partitions(u32),
    /// Fig. 7's "GraphZ w/o DOS" over the CSR store at `n` partitions.
    WithoutDos(u32),
    /// Fig. 7's "w/o DOS and DM": every message buffered, none applied
    /// directly.
    WithoutDosAndDm(u32),
    /// One point of the schedule sweep, on a fixed byte budget.
    Schedule { pipeline_threads: usize, budget: u64 },
}

impl Plan {
    /// `pipeline_threads` {1, 2} on `budget` bytes; the first, everything
    /// on the engine thread, is the baseline.
    pub fn schedules(budget: u64) -> [Plan; 2] {
        [1, 2].map(|pipeline_threads| Plan::Schedule { pipeline_threads, budget })
    }

    pub fn options(self) -> EngineOptions {
        let full = EngineOptions::full();
        match self {
            Plan::Streamed => EngineOptions { in_memory_fast_path: false, ..full },
            Plan::WithoutDos(_) => EngineOptions::without_dos(),
            Plan::WithoutDosAndDm(_) => EngineOptions::without_dos_and_dm(),
            Plan::Schedule { pipeline_threads, .. } => EngineOptions { pipeline_threads, ..full },
            _ => full,
        }
    }

    /// The budget for `vertices` slab records of `size` bytes each, and the
    /// partition count it must yield where the plan fixes one.
    pub fn budget(self, vertices: u64, size: u64) -> (MemoryBudget, Option<u32>) {
        match self {
            Plan::Resident | Plan::Streamed => (MemoryBudget::from_mib(4), Some(1)),
            Plan::SlabOnly => (MemoryBudget(2 * vertices * size), Some(1)),
            // The partitioner gives vertex slabs half the budget.
            Plan::Partitions(n) | Plan::WithoutDos(n) | Plan::WithoutDosAndDm(n) => {
                (MemoryBudget(2 * vertices.div_ceil(n.into()) * size), Some(n))
            }
            Plan::Schedule { budget, .. } => (MemoryBudget(budget), None),
        }
    }

    /// The MsgManager's cap under this plan: a quarter of the budget, in
    /// messages of `envelope` bytes (destination id and payload).
    pub fn message_cap(self, vertices: u64, size: u64, envelope: u64) -> u64 {
        self.budget(vertices, size).0.bytes() / 4 / envelope
    }

    /// What the run must keep in memory (`ExecutionPlan::residency`).
    fn residency(self) -> &'static str {
        match self {
            Plan::Resident => "slab+adjacency",
            Plan::SlabOnly => "slab",
            _ => "none",
        }
    }
}

/// What a run leaves that no plan may change, plus its summary.
pub struct Outcome {
    pub plan: Plan,
    /// The final values in storage order (`Engine::values`), encoded.
    pub values: Vec<u8>,
    /// `gen-*/<file>` → bytes, every generation a split run wrote.
    pub generations: BTreeMap<String, Vec<u8>>,
    /// The (resumed half's) run: iterations, message counters, activity, IO.
    pub run: RunSummary,
}

/// Run `make`'s program under `plan` to convergence or `max` iterations.
/// With `split_at: Some(k)` every iteration writes a generation: the first
/// engine stops after `k`, a fresh one resumes from generation `k` and runs
/// the rest (`k ≥ max` is one uninterrupted checkpointed run).
pub fn run<P: VertexProgram>(
    fx: &Fixture,
    plan: Plan,
    make: impl Fn(&dyn GraphStore) -> P,
    max: u32,
    split_at: Option<u32>,
) -> Outcome {
    let gens = ScratchDir::new("plan-gens").unwrap();
    let ckpt = split_at.map(|_| gens.path());
    let mut engine = fx.engine(plan, &make, ckpt);
    let mut run = engine.run(split_at.map_or(max, |k| k.min(max))).unwrap();
    if let Some(k) = split_at.filter(|&k| k < max) {
        engine = fx.engine(plan, &make, ckpt);
        assert_eq!(engine.resume_latest(gens.path()).unwrap(), Some(k), "{plan:?}: resume");
        run = engine.run(max - k).unwrap();
    }
    assert_eq!(run.plan.residency(), plan.residency(), "{plan:?}: residency");
    let values = codec::encode_slice(&engine.values().unwrap());
    Outcome { plan, values, generations: tree(gens.path()), run }
}

/// [`run`] for `p`'s algorithm, built as the runner builds it from `p`.
pub fn run_algo(fx: &Fixture, plan: Plan, p: &AlgoParams, split_at: Option<u32>) -> Outcome {
    let stats = IoStats::new();
    let source = |s: &dyn GraphStore| s.to_storage_id(p.source, &stats).unwrap();
    let new2old = |s: &dyn GraphStore| Arc::new(s.original_ids(&stats).unwrap());
    macro_rules! go {
        ($make:expr) => {
            run(fx, plan, $make, p.max_iterations, split_at)
        };
    }
    match p.algorithm {
        Algorithm::PageRank => go!(|_| gz::PageRank { tolerance: p.pr_tolerance }),
        Algorithm::Bfs => go!(|s| gz::Bfs { source: source(s) }),
        Algorithm::Cc => go!(|_| gz::Cc),
        Algorithm::Sssp => go!(|s| gz::Sssp { source: source(s), new2old: new2old(s) }),
        Algorithm::Bp => go!(|s| gz::Bp { rounds: p.rounds, new2old: new2old(s) }),
        Algorithm::RandomWalk => go!(|_| gz::RandomWalk { rounds: p.rounds }),
    }
}

/// Every file under `root`, by relative path.
pub fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let (mut out, mut dirs) = (BTreeMap::new(), vec![root.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// A checkpoint tree with each partition's spill segments unframed and
/// their payloads concatenated in sequence order under one key, and the
/// manifests without their per-segment lines: the tree minus segment
/// numbering. Each segment is framed on its own (and its frame checked
/// here), so a run that splits a partition's messages over more segments
/// carries more frame bytes but the same payload.
pub fn normalized(tree: &BTreeMap<String, Vec<u8>>) -> BTreeMap<String, Vec<u8>> {
    let mut out: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (path, bytes) in tree {
        if path.ends_with("manifest.txt") {
            let kept: String = String::from_utf8_lossy(bytes)
                .lines()
                .filter(|l| !l.starts_with("file:msgs/"))
                .map(|l| format!("{l}\n"))
                .collect();
            out.insert(path.clone(), kept.into_bytes());
        } else if let Some((dir, name)) = path.split_once("/msgs/msgs-") {
            // `msgs-<partition>-<sequence>.bin`, both zero-padded.
            let partition = name.split('-').next().unwrap();
            let mut payload = Vec::new();
            FramedReader::new(bytes.as_slice()).unwrap().read_to_end(&mut payload).unwrap();
            out.entry(format!("{dir}/msgs/{partition}")).or_default().extend(payload);
        } else {
            out.insert(path.clone(), bytes.clone());
        }
    }
    out
}

/// The names of everything `a` and `b` disagree on.
pub fn differences(a: &Outcome, b: &Outcome) -> Vec<&'static str> {
    let (x, y) = (&a.run, &b.run);
    [
        ("values", a.values == b.values),
        ("generations", a.generations == b.generations),
        ("iterations", x.iterations == y.iterations),
        ("converged", x.converged == y.converged),
        ("messages_sent", x.messages_sent == y.messages_sent),
        ("dynamic_applied", x.dynamic_applied == y.dynamic_applied),
        ("buffered", x.buffered == y.buffered),
        ("spilled", x.spilled == y.spilled),
        ("replayed", x.replayed == y.replayed),
    ]
    .into_iter()
    .filter_map(|(name, same)| (!same).then_some(name))
    .collect()
}

/// `a` and `b` agree on values, counters and generations; a failure names
/// what diverged, not kilobytes of payload.
pub fn assert_same(label: &str, a: &Outcome, b: &Outcome) {
    let diff = differences(a, b);
    assert!(diff.is_empty(), "{label}: {:?} vs {:?}: {} diverged", a.plan, b.plan, diff.join(", "));
}
