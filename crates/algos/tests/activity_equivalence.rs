//! Activity-aware passes change which bytes move, never what is computed.
//!
//! BFS, SSSP (over a derived-weight and a stored-weight image) and CC
//! override `VertexProgram::wants_update`, so the engine skips quiet
//! partitions, seeks past quiet adjacency blocks on the serial schedule and
//! writes back only changed slab blocks. Each is run as-is and behind
//! [`Eager`], whose `wants_update` is always `true` — the schedule that
//! reads and writes everything — on every plan, whole and as a
//! checkpoint/resume split run. Compared: final values, iterations, every
//! `RunSummary` message counter and the bytes of every checkpoint
//! generation (vertex array and spilled message segments).
//!
//! Also here: a ring whose frontier wakes, mid-pass, vertices inside blocks
//! the Sio stream already skipped (the gap re-check), and a program whose
//! `wants_update` lies, which the comparison must catch.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_algos::graphz::{Bfs, Cc, Sssp};
use graphz_core::{
    DenseStore, DosStore, Engine, EngineConfig, GraphStore, RunSummary, UpdateContext,
    VertexProgram,
};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::{CsrFiles, DosConverter, DosGraph, EdgeListFile};
use graphz_types::{codec, derive_weight, Edge, EngineOptions, MemoryBudget, VertexId};

/// `P` with the default `wants_update`: every vertex is updated every pass.
struct Eager<P>(P);

impl<P: VertexProgram> VertexProgram for Eager<P> {
    type VertexData = P::VertexData;
    type Message = P::Message;

    fn init(&self, vid: VertexId, degree: u32) -> P::VertexData {
        self.0.init(vid, degree)
    }

    fn update(
        &self,
        vid: VertexId,
        data: &mut P::VertexData,
        ctx: &mut UpdateContext<'_, P::Message>,
    ) {
        self.0.update(vid, data, ctx)
    }

    fn apply_message(&self, vid: VertexId, data: &mut P::VertexData, msg: &P::Message) {
        self.0.apply_message(vid, data, msg)
    }
}

/// BFS whose `wants_update` wrongly calls a vertex quiet when its offer is
/// 1 mod 3: it breaks the contract, so skipping loses updates.
struct Liar(Bfs);

impl VertexProgram for Liar {
    type VertexData = (u32, u32);
    type Message = u32;

    fn init(&self, vid: VertexId, degree: u32) -> (u32, u32) {
        self.0.init(vid, degree)
    }

    fn update(&self, vid: VertexId, data: &mut (u32, u32), ctx: &mut UpdateContext<'_, u32>) {
        self.0.update(vid, data, ctx)
    }

    fn apply_message(&self, vid: VertexId, data: &mut (u32, u32), msg: &u32) {
        self.0.apply_message(vid, data, msg)
    }

    fn wants_update(&self, data: &(u32, u32), _iteration: u32) -> bool {
        data.1 < data.0 && data.1 % 3 != 1
    }
}

/// Blocks of at most this many edges, so one partition spans many blocks.
const BATCH_EDGES: usize = 32;

struct Fixture {
    _dir: ScratchDir,
    dos: DosGraph,
    weighted: DosGraph,
    csr: CsrFiles,
    /// An original vertex id with out-edges.
    source: VertexId,
}

impl Fixture {
    fn new(edges: Vec<Edge>) -> Fixture {
        let dir = ScratchDir::new("activity-eq").unwrap();
        let stats = IoStats::new();
        let source = edges[0].src;
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_mib(4), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let weighted = DosConverter::new(MemoryBudget::from_mib(4), Arc::clone(&stats))
            .with_weights(derive_weight)
            .convert(&el, &dir.path().join("dos-w"))
            .unwrap();
        let csr = CsrFiles::convert(
            &el,
            &dir.path().join("csr"),
            stats,
            MemoryBudget::from_mib(4),
        )
        .unwrap();
        Fixture {
            _dir: dir,
            dos,
            weighted,
            csr,
            source,
        }
    }

    fn rmat() -> Fixture {
        Fixture::new(rmat_edges(10, 6000, Default::default(), 5).collect())
    }

    /// A budget that splits an 8-byte-per-vertex array into eight
    /// partitions (the partitioner gives vertex slabs half the budget).
    fn eight_partitions(&self) -> MemoryBudget {
        let per = self.dos.meta().num_vertices.div_ceil(8);
        MemoryBudget(2 * per * 8)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// `graphz run` on a graph that fits: slab and adjacency resident.
    Resident,
    /// `graphz run --threads 1` at eight partitions: serial schedule with
    /// the Sio read-ahead thread, prefetch, spill and replay — and block
    /// skipping.
    EightPartitions,
    /// `--threads 2` at eight partitions: the 8-shard schedule, which
    /// streams every block of an active partition.
    Threads2,
    /// `EngineOptions::without_dos_and_dm()` over the dense CSR store at
    /// eight partitions: every message buffered, none applied directly.
    NoDosNoDm,
}

const PLANS: [Plan; 4] = [
    Plan::Resident,
    Plan::EightPartitions,
    Plan::Threads2,
    Plan::NoDosNoDm,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Image {
    Plain,
    Weighted,
}

fn store(fx: &Fixture, plan: Plan, image: Image, budget: MemoryBudget) -> Box<dyn GraphStore> {
    match (plan, image) {
        (Plan::NoDosNoDm, _) => {
            Box::new(DenseStore::new(fx.csr.clone(), budget, IoStats::new()).unwrap())
        }
        (_, Image::Plain) => Box::new(DosStore::new(fx.dos.clone())),
        (_, Image::Weighted) => Box::new(DosStore::new(fx.weighted.clone())),
    }
}

fn engine<P: VertexProgram>(
    fx: &Fixture,
    plan: Plan,
    image: Image,
    make: &dyn Fn(&dyn GraphStore) -> P,
    ckpt: Option<&Path>,
) -> Engine<P> {
    let (options, budget, partitions) = match plan {
        Plan::Resident => (EngineOptions::default(), MemoryBudget::from_mib(4), 1),
        Plan::EightPartitions => (EngineOptions::default(), fx.eight_partitions(), 8),
        Plan::Threads2 => (
            EngineOptions::with_parallel_workers(2),
            fx.eight_partitions(),
            8,
        ),
        Plan::NoDosNoDm => (
            EngineOptions::without_dos_and_dm(),
            fx.eight_partitions(),
            8,
        ),
    };
    let store = store(fx, plan, image, budget);
    let program = make(store.as_ref());
    let mut config = EngineConfig::new(budget)
        .with_options(options)
        .with_batch_edges(BATCH_EDGES);
    if let Some(dir) = ckpt {
        config = config.checkpoint_every(dir, 1);
    }
    let engine = Engine::new(store, program, config, IoStats::new()).unwrap();
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

/// What must not depend on activity skipping.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Final values, encoded, in storage order.
    values: Vec<u8>,
    iterations: u32,
    messages_sent: u64,
    dynamic_applied: u64,
    buffered: u64,
    spilled: u64,
    replayed: u64,
    /// The checkpoint generations a split run wrote before it was cut.
    generations: BTreeMap<String, Vec<u8>>,
}

/// Run to convergence; with `split`, stop after two iterations (writing a
/// generation per iteration), resume a fresh engine from the newest one
/// and finish there. Also returns the (last) run's summary.
fn outcome<P: VertexProgram>(
    fx: &Fixture,
    plan: Plan,
    image: Image,
    make: &dyn Fn(&dyn GraphStore) -> P,
    split: bool,
) -> (Outcome, RunSummary) {
    let gens = ScratchDir::new("activity-eq-gens").unwrap();
    let (engine, run) = if split {
        let mut first = engine(fx, plan, image, make, Some(gens.path()));
        first.run(2).unwrap();
        let mut second = engine(fx, plan, image, make, None);
        assert_eq!(
            second.resume_latest(gens.path()).unwrap(),
            Some(2),
            "{plan:?}"
        );
        let run = second.run(200).unwrap();
        (second, run)
    } else {
        let mut e = engine(fx, plan, image, make, None);
        let run = e.run(200).unwrap();
        (e, run)
    };
    assert!(run.converged, "{plan:?}");
    let outcome = Outcome {
        values: codec::encode_slice(&engine.values().unwrap()),
        iterations: run.iterations,
        messages_sent: run.messages_sent,
        dynamic_applied: run.dynamic_applied,
        buffered: run.buffered,
        spilled: run.spilled,
        replayed: run.replayed,
        generations: tree(gens.path()),
    };
    (outcome, run)
}

/// Compare `P` as-is against [`Eager`]`<P>` on `plans`, whole and split.
/// Returns the as-is runs' activity counters by plan and split.
fn assert_equivalent<P: VertexProgram>(
    fx: &Fixture,
    name: &str,
    image: Image,
    plans: &[Plan],
    make: &dyn Fn(&dyn GraphStore) -> P,
) -> BTreeMap<String, graphz_core::ActivityCounters> {
    let mut activity = BTreeMap::new();
    for &plan in plans {
        for split in [false, true] {
            let (lazy, run) = outcome(fx, plan, image, make, split);
            let (eager, eager_run) =
                outcome(fx, plan, image, &|s: &dyn GraphStore| Eager(make(s)), split);
            let label = format!("{name} {image:?} {plan:?} split={split}");
            // A resumed tail may start converged; the whole run must send.
            assert!(split || lazy.messages_sent > 0, "{label}: nothing sent");
            assert_eq!(lazy.generations.is_empty(), !split, "{label}");
            assert!(lazy.values == eager.values, "{label}: values diverged");
            assert!(
                lazy.generations == eager.generations,
                "{label}: checkpoint generations diverged"
            );
            assert_eq!(lazy, eager, "{label}");
            assert_eq!(
                eager_run.activity.passes_skipped, 0,
                "{label}: eager never skips"
            );
            assert!(
                run.io.bytes_read <= eager_run.io.bytes_read,
                "{label}: skipping read more ({} > {})",
                run.io.bytes_read,
                eager_run.io.bytes_read
            );
            activity.insert(format!("{plan:?} split={split}"), run.activity);
        }
    }
    activity
}

#[test]
fn bfs_sssp_and_cc_are_unchanged_by_activity_skipping() {
    let fx = Fixture::rmat();
    let source = fx.source;
    let bfs = |s: &dyn GraphStore| Bfs {
        source: s.to_storage_id(source, &IoStats::new()).unwrap(),
    };
    let sssp = |s: &dyn GraphStore| {
        let stats = IoStats::new();
        Sssp {
            source: s.to_storage_id(source, &stats).unwrap(),
            new2old: Arc::new(s.original_ids(&stats).unwrap()),
        }
    };
    let bfs_activity = assert_equivalent(&fx, "bfs", Image::Plain, &PLANS, &bfs);
    assert_equivalent(&fx, "sssp", Image::Plain, &PLANS, &sssp);
    let sssp_w = assert_equivalent(&fx, "sssp", Image::Weighted, &PLANS, &sssp);
    assert_equivalent(&fx, "cc", Image::Plain, &PLANS, &|_: &dyn GraphStore| Cc);
    // The mechanisms really ran: the serial 8-partition schedule skipped
    // passes and adjacency, on the weighted image too.
    for act in [
        &bfs_activity["EightPartitions split=false"],
        &sssp_w["EightPartitions split=false"],
    ] {
        assert!(
            act.passes_skipped > 0 && act.adjacency_bytes_skipped > 0,
            "{act:?}"
        );
    }
    // The 8-shard schedule streams every block of a partition it runs.
    assert_eq!(
        bfs_activity["Threads2 split=false"].adjacency_bytes_skipped,
        0
    );
}

/// A directed ring with a back edge per vertex: BFS from vertex 0 walks it,
/// and every hop wakes the next vertex — often inside a block the Sio
/// stream skipped because that vertex was quiet when the pass began.
fn ring() -> Fixture {
    let n = 1024u32;
    Fixture::new(
        (0..n)
            .flat_map(|i| [Edge::new(i, (i + 1) % n), Edge::new(i, i / 3)])
            .collect(),
    )
}

#[test]
fn a_vertex_woken_inside_a_skipped_block_is_read_back_and_updated() {
    let fx = ring();
    let source = fx.source;
    let bfs = |s: &dyn GraphStore| Bfs {
        source: s.to_storage_id(source, &IoStats::new()).unwrap(),
    };
    // Without dynamic messages the ring takes one iteration per hop; the
    // plans with them cross it in a few.
    let plans = [Plan::Resident, Plan::EightPartitions, Plan::Threads2];
    let activity = assert_equivalent(&fx, "ring bfs", Image::Plain, &plans, &bfs);
    // The frontier crosses the whole ring in the first iteration, so only
    // the uninterrupted run sees it (a resumed tail is the quiet pass).
    let act = activity["EightPartitions split=false"];
    assert!(act.gaps_reread > 0, "no gap was woken: {act:?}");
    assert!(act.adjacency_bytes_skipped > 0, "{act:?}");
}

#[test]
fn a_program_whose_wants_update_lies_is_caught() {
    let fx = ring();
    let source = fx.source;
    let liar = |s: &dyn GraphStore| {
        Liar(Bfs {
            source: s.to_storage_id(source, &IoStats::new()).unwrap(),
        })
    };
    let (lied, _) = outcome(&fx, Plan::EightPartitions, Image::Plain, &liar, false);
    let (eager, _) = outcome(
        &fx,
        Plan::EightPartitions,
        Image::Plain,
        &|s: &dyn GraphStore| Eager(liar(s)),
        false,
    );
    assert_ne!(lied, eager, "skipping on a lie must change the outcome");
}
