//! A checkpoint generation costs its own bytes and nothing else. Two runs of
//! one program on one graph — one unprotected, one writing a generation
//! every iteration — are compared through their `IoStats`:
//!
//! * multi-partition PageRank, no pass skipped: bytes read are equal (the
//!   vertex frame is teed from the flushed slabs, never read back), and the
//!   extra bytes written are exactly the generations' files;
//! * the resident single-partition plan: the same two equalities (the slab
//!   is framed from memory; the working `vertices.bin` is written only at
//!   the run's end, as without checkpoints);
//! * BFS, where quiet partitions are skipped: the extra read is at most the
//!   skipped partitions' slab bytes, the only range a checkpoint copies from
//!   the working file.
//!
//! The graph is a staircase — vertex `i` points at `i+1 ..= i+4` — so every
//! edge runs forward in storage order (degree-ordered storage keeps the
//! ascending order of equal-degree runs) and every message is replayed in
//! the iteration that sent it. No message is pending at an iteration's end,
//! so a generation has no spill segment to copy (asserted), and the
//! comparison isolates the vertex frame.

use std::path::Path;
use std::sync::Arc;

use graphz_algos::graphz as gz;
use graphz_core::{DosStore, Engine, EngineConfig, RunSummary, VertexProgram};
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::{DosConverter, DosGraph, EdgeListFile};
use graphz_types::{Edge, EngineOptions, FixedCodec, MemoryBudget, VertexId};

const VERTICES: u32 = 3000;

fn staircase() -> Vec<Edge> {
    (0..VERTICES)
        .flat_map(|i| (i + 1..=i + 4).filter(|&j| j < VERTICES).map(move |j| Edge::new(i, j)))
        .collect()
}

fn image(dir: &ScratchDir) -> DosGraph {
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), staircase()).unwrap();
    let converter = DosConverter::new(MemoryBudget::from_mib(4), stats);
    converter.convert(&el, &dir.path().join("dos")).unwrap()
}

/// Sum of the sizes of every file under `root`, and the `msgs/` files among
/// them.
fn tree_bytes(root: &Path) -> (u64, usize) {
    let (mut bytes, mut spills) = (0, 0);
    for generation in std::fs::read_dir(root).unwrap() {
        let generation = generation.unwrap().path();
        for entry in std::fs::read_dir(&generation).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                for spill in std::fs::read_dir(&path).unwrap() {
                    bytes += spill.unwrap().metadata().unwrap().len();
                    spills += 1;
                }
            } else {
                bytes += std::fs::metadata(&path).unwrap().len();
            }
        }
    }
    (bytes, spills)
}

fn run<P: VertexProgram>(dos: &DosGraph, program: P, config: EngineConfig) -> RunSummary {
    let store = Box::new(DosStore::new(dos.clone()));
    let mut engine = Engine::new(store, program, config, IoStats::new()).unwrap();
    engine.run(200).unwrap()
}

/// Run `make()` unprotected and with a generation per iteration (all kept,
/// so their bytes can be summed); returns both summaries and the
/// generations' total bytes.
fn compare<P: VertexProgram>(
    dos: &DosGraph,
    make: impl Fn() -> P,
    config: impl Fn() -> EngineConfig,
) -> (RunSummary, RunSummary, u64) {
    let plain = run(dos, make(), config());
    let gens = ScratchDir::new("ckpt-io-gens").unwrap();
    let root = gens.path().join("gens");
    let protected =
        run(dos, make(), config().checkpoint_every(&root, 1).keeping_all_generations());
    let (bytes, spills) = tree_bytes(&root);
    assert_eq!(spills, 0, "the staircase must leave no message pending at an iteration's end");
    assert_eq!(plain.iterations, protected.iterations);
    assert!(protected.iterations >= 2, "need several generations: {}", protected.iterations);
    (plain, protected, bytes)
}

fn pagerank() -> gz::PageRank {
    gz::PageRank { tolerance: 1e-4 }
}

#[test]
fn multi_partition_checkpoints_read_nothing_back() {
    let dir = ScratchDir::new("ckpt-io-multi").unwrap();
    let dos = image(&dir);
    let budget = MemoryBudget::from_kib(8);
    let config = || EngineConfig::new(budget).with_options(EngineOptions::full());
    let (plain, protected, generation_bytes) = compare(&dos, pagerank, config);
    assert!(plain.partitions >= 3, "the budget must split the graph: {}", plain.partitions);
    assert_eq!(plain.activity.passes_skipped, 0, "PageRank runs every pass");
    assert_eq!(protected.io.bytes_read, plain.io.bytes_read, "a generation read something back");
    assert_eq!(protected.io.bytes_written, plain.io.bytes_written + generation_bytes);
}

#[test]
fn resident_checkpoints_frame_the_slab_from_memory() {
    let dir = ScratchDir::new("ckpt-io-resident").unwrap();
    let dos = image(&dir);
    let slab = u64::from(VERTICES) * <gz::PageRank as VertexProgram>::VertexData::SIZE as u64;
    // Slab only (the adjacency streams), then slab and adjacency resident.
    for (budget, residency) in
        [(MemoryBudget(2 * slab), "slab"), (MemoryBudget::from_mib(4), "slab+adjacency")]
    {
        let config = || EngineConfig::new(budget).with_options(EngineOptions::full());
        let (plain, protected, generation_bytes) = compare(&dos, pagerank, config);
        assert_eq!(plain.plan.residency(), residency);
        assert_eq!(protected.io.bytes_read, plain.io.bytes_read, "{residency}: read back");
        assert_eq!(
            protected.io.bytes_written,
            plain.io.bytes_written + generation_bytes,
            "{residency}: a checkpoint wrote more than its generation"
        );
    }
}

#[test]
fn skipped_partitions_are_the_only_range_a_checkpoint_reads() {
    let dir = ScratchDir::new("ckpt-io-bfs").unwrap();
    let dos = image(&dir);
    let source = {
        let stats = IoStats::new();
        graphz_core::GraphStore::to_storage_id(&DosStore::new(dos.clone()), 0, &stats).unwrap()
    };
    let budget = MemoryBudget::from_kib(8);
    let config = || EngineConfig::new(budget).with_options(EngineOptions::full());
    let (plain, protected, generation_bytes) =
        compare(&dos, || gz::Bfs { source: source as VertexId }, config);
    assert!(plain.partitions >= 3, "the budget must split the graph: {}", plain.partitions);
    let skipped = protected.activity.passes_skipped;
    assert!(skipped > 0, "BFS must skip quiet partitions");
    let slab_bytes = graphz_storage::Partitioner::new(budget)
        .layout(u64::from(VERTICES), <gz::Bfs as VertexProgram>::VertexData::SIZE)
        .per_partition()
        * <gz::Bfs as VertexProgram>::VertexData::SIZE as u64;
    let extra = protected.io.bytes_read - plain.io.bytes_read;
    assert!(extra > 0, "a skipped partition's range comes from the working file");
    assert!(
        extra <= skipped * slab_bytes,
        "extra read {extra} exceeds {skipped} skipped partitions of {slab_bytes} bytes"
    );
    assert_eq!(protected.io.bytes_written, plain.io.bytes_written + generation_bytes);
}
