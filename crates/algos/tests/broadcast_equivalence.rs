//! `UpdateContext::send_to_neighbors(msg)` is exactly
//! `for &n in ctx.neighbors() { ctx.send(n, msg) }`: the same messages in
//! the same order, whichever plan runs them. The test program folds
//! messages with a non-commuting `d * 31 + msg`, so any reordering — within
//! a broadcast, or between a broadcast and the point-to-point sends around
//! it — changes the final bits. Compared per plan: final values, every
//! `RunSummary` message counter and, for a checkpoint/resume split run, the
//! bytes of every checkpoint generation — whose spilled message files record
//! the send order even between messages to different vertices.
//!
//! Also here: a send to a vertex id outside the graph is a typed
//! `GraphError::Algorithm` from `Engine::run`, never a panic, on every plan.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_core::{
    DenseStore, DosStore, Engine, EngineConfig, GraphStore, UpdateContext, VertexProgram,
};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::{CsrFiles, DosConverter, DosGraph, EdgeListFile};
use graphz_types::{Edge, EngineOptions, GraphError, MemoryBudget, VertexId};

/// What one `update` sends.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One message to every out-neighbor.
    Pure,
    /// A send to itself, a broadcast, a send to the next vertex id, and a
    /// second broadcast — in that order.
    Mixed,
}

struct Fold {
    shape: Shape,
    /// Broadcast with `send_to_neighbors` instead of a per-edge `send` loop.
    broadcast: bool,
    rounds: u32,
}

impl Fold {
    fn to_neighbors(&self, ctx: &mut UpdateContext<'_, u64>, msg: u64) {
        if self.broadcast {
            ctx.send_to_neighbors(msg);
        } else {
            for &n in ctx.neighbors() {
                ctx.send(n, msg);
            }
        }
    }
}

impl VertexProgram for Fold {
    type VertexData = u64;
    type Message = u64;

    fn init(&self, vid: VertexId, degree: u32) -> u64 {
        u64::from(vid) * 7 + u64::from(degree)
    }

    fn update(&self, vid: VertexId, data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        if ctx.iteration() >= self.rounds {
            return;
        }
        ctx.mark_changed();
        let base = data.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(ctx.iteration());
        match self.shape {
            Shape::Pure => self.to_neighbors(ctx, base),
            Shape::Mixed => {
                ctx.send(vid, base ^ 1);
                self.to_neighbors(ctx, base ^ 2);
                let next = (u64::from(vid) + 1) % ctx.num_vertices();
                ctx.send(next as VertexId, base ^ 3);
                self.to_neighbors(ctx, base ^ 4);
            }
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
        *data = data.wrapping_mul(31).wrapping_add(*msg);
    }
}

/// Sends one stray message past the last vertex id on top of a broadcast.
struct Stray;

impl VertexProgram for Stray {
    type VertexData = u64;
    type Message = u64;

    fn update(&self, vid: VertexId, _data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
        ctx.mark_changed();
        ctx.send_to_neighbors(1);
        if vid == 0 {
            ctx.send(ctx.num_vertices() as VertexId, 1);
        }
    }

    fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
        *data += msg;
    }
}

struct Fixture {
    _dir: ScratchDir,
    dos: DosGraph,
    csr: CsrFiles,
}

impl Fixture {
    fn new() -> Fixture {
        let dir = ScratchDir::new("broadcast-eq").unwrap();
        let stats = IoStats::new();
        let edges: Vec<Edge> = rmat_edges(8, 2000, Default::default(), 11).collect();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_mib(4), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let csr = CsrFiles::convert(&el, &dir.path().join("csr"), stats, MemoryBudget::from_mib(4))
            .unwrap();
        Fixture { _dir: dir, dos, csr }
    }

    /// A budget that splits the `u64` vertex array into eight partitions
    /// (the partitioner gives vertex slabs half the budget).
    fn eight_partitions(&self) -> MemoryBudget {
        let per = self.dos.meta().num_vertices.div_ceil(8);
        MemoryBudget(2 * per * 8)
    }
}

/// The execution plans compared, with the partition count each must yield.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// `graphz run --threads 1` on a graph that fits: slab and adjacency
    /// resident, one shard, inline.
    Resident,
    /// `--threads 1` at eight partitions: spill, replay and prefetch.
    EightPartitions,
    /// `--threads 2`: the fixed 8-shard schedule on two workers, resident.
    Threads2,
    /// `--threads 2` at eight partitions.
    Threads2EightPartitions,
    /// `EngineOptions::without_dos_and_dm()` over the dense CSR store at
    /// eight partitions: every message is buffered, none applied directly.
    NoDosNoDm,
}

const PLANS: [Plan; 5] = [
    Plan::Resident,
    Plan::EightPartitions,
    Plan::Threads2,
    Plan::Threads2EightPartitions,
    Plan::NoDosNoDm,
];

fn engine<P: VertexProgram>(
    fx: &Fixture,
    plan: Plan,
    program: P,
    ckpt: Option<&Path>,
) -> Engine<P> {
    let serial = EngineOptions { pipeline_threads: 1, ..EngineOptions::default() };
    let (options, budget, partitions) = match plan {
        Plan::Resident => (serial, MemoryBudget::from_mib(4), 1),
        Plan::EightPartitions => (serial, fx.eight_partitions(), 8),
        Plan::Threads2 => (EngineOptions::with_parallel_workers(2), MemoryBudget::from_mib(4), 1),
        Plan::Threads2EightPartitions => {
            (EngineOptions::with_parallel_workers(2), fx.eight_partitions(), 8)
        }
        Plan::NoDosNoDm => (EngineOptions::without_dos_and_dm(), fx.eight_partitions(), 8),
    };
    let stats = IoStats::new();
    let store: Box<dyn GraphStore> = match plan {
        Plan::NoDosNoDm => {
            Box::new(DenseStore::new(fx.csr.clone(), budget, Arc::clone(&stats)).unwrap())
        }
        _ => Box::new(DosStore::new(fx.dos.clone())),
    };
    let mut config = EngineConfig::new(budget).with_options(options);
    if let Some(dir) = ckpt {
        config = config.checkpoint_every(dir, 1);
    }
    let engine = Engine::new(store, program, config, stats).unwrap();
    assert_eq!(engine.num_partitions(), partitions, "{plan:?}");
    engine
}

/// Every file under `root`, by relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, rel: &str, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = format!("{rel}{}", entry.file_name().to_string_lossy());
            if entry.file_type().unwrap().is_dir() {
                walk(&entry.path(), &format!("{name}/"), out);
            } else {
                out.insert(name, std::fs::read(entry.path()).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, "", &mut out);
    out
}

/// The `RunSummary` counters of the (last) run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    iterations: u32,
    messages_sent: u64,
    dynamic_applied: u64,
    buffered: u64,
    spilled: u64,
    replayed: u64,
}

/// Final values and counters, plus the checkpoint generations a split run
/// wrote before it was cut.
struct Outcome {
    values: Vec<u64>,
    generations: BTreeMap<String, Vec<u8>>,
    counters: Counters,
}

const ROUNDS: u32 = 4;

/// Run to convergence; with `split`, stop after two iterations (writing a
/// checkpoint generation per iteration), then resume a fresh engine from the
/// newest generation and finish there.
fn outcome(fx: &Fixture, plan: Plan, shape: Shape, broadcast: bool, split: bool) -> Outcome {
    let make = || Fold { shape, broadcast, rounds: ROUNDS };
    let gens = ScratchDir::new("broadcast-eq-gens").unwrap();
    let (engine, run) = if split {
        let mut first = engine(fx, plan, make(), Some(gens.path()));
        first.run(2).unwrap();
        let mut second = engine(fx, plan, make(), None);
        assert_eq!(second.resume_latest(gens.path()).unwrap(), Some(2), "{plan:?}");
        let run = second.run(100).unwrap();
        (second, run)
    } else {
        let mut e = engine(fx, plan, make(), None);
        let run = e.run(100).unwrap();
        (e, run)
    };
    assert!(run.converged, "{plan:?}");
    Outcome {
        values: engine.values_by_original_id().unwrap(),
        generations: tree(gens.path()),
        counters: Counters {
            iterations: run.iterations,
            messages_sent: run.messages_sent,
            dynamic_applied: run.dynamic_applied,
            buffered: run.buffered,
            spilled: run.spilled,
            replayed: run.replayed,
        },
    }
}

#[test]
fn broadcast_matches_per_edge_sends_on_every_plan() {
    let fx = Fixture::new();
    for plan in PLANS {
        for shape in [Shape::Pure, Shape::Mixed] {
            for split in [false, true] {
                let per_edge = outcome(&fx, plan, shape, false, split);
                let broadcast = outcome(&fx, plan, shape, true, split);
                let label = format!("{plan:?} {shape:?} split={split}");
                let counters = &per_edge.counters;
                assert!(counters.messages_sent > 0, "{label}: nothing sent");
                assert_eq!(per_edge.generations.is_empty(), !split, "{label}");
                assert!(per_edge.values == broadcast.values, "{label}: values diverged");
                assert!(
                    per_edge.generations == broadcast.generations,
                    "{label}: checkpoint generations diverged"
                );
                assert_eq!(*counters, broadcast.counters, "{label}");
                match plan {
                    Plan::Resident | Plan::Threads2 => assert_eq!(counters.buffered, 0, "{label}"),
                    Plan::NoDosNoDm => assert_eq!(counters.dynamic_applied, 0, "{label}"),
                    Plan::EightPartitions | Plan::Threads2EightPartitions => {
                        assert!(counters.spilled > 0 && counters.replayed > 0, "{label}")
                    }
                }
            }
        }
    }
}

#[test]
fn out_of_range_send_is_a_typed_error_not_a_panic() {
    let fx = Fixture::new();
    for plan in PLANS {
        match engine(&fx, plan, Stray, None).run(3) {
            Err(GraphError::Algorithm(m)) => {
                assert!(m.contains("1 message(s)") && m.contains("num_vertices"), "{plan:?}: {m}")
            }
            other => panic!("{plan:?}: expected GraphError::Algorithm, got {other:?}"),
        }
    }
}
