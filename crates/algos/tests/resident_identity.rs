//! Residency is invisible in the results. For all six algorithms the two
//! resident single-partition plans (`in_memory_fast_path`, the default) must
//! leave exactly the bytes the always-spill, always-stream control
//! (`in_memory_fast_path: false`) leaves:
//!
//! * slab only — a budget the vertex slab fits but the adjacency does not;
//! * slab + adjacency — a budget both fit, so the graph is read once.
//!
//! Compared: final values, the engine's `vertices.bin`, and every checkpoint
//! generation written with `checkpoint_every = 1`, including the generations
//! a run resumed from mid-way writes. Also covered: a weighted image.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_algos::graphz as gz;
use graphz_algos::Algorithm;
use graphz_core::{DosStore, Engine, EngineConfig, GraphStore, VertexProgram};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::{DosConverter, DosGraph, EdgeListFile};
use graphz_types::{codec, Edge, EngineOptions, FixedCodec, MemoryBudget, VertexId};

/// Everything a run leaves behind, as bytes.
struct Capture {
    iterations: u32,
    values: Vec<u8>,
    vertices_bin: Vec<u8>,
    /// `gen-*/<file>` → bytes, for every committed generation.
    generations: BTreeMap<String, Vec<u8>>,
}

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

/// What a run keeps in memory between iterations (`ExecutionPlan::residency`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    None,
    Slab,
    SlabAdjacency,
}

impl Residency {
    const ALL: [Residency; 3] = [Residency::None, Residency::Slab, Residency::SlabAdjacency];

    fn name(self) -> &'static str {
        match self {
            Residency::None => "none",
            Residency::Slab => "slab",
            Residency::SlabAdjacency => "slab+adjacency",
        }
    }

    /// Options and budget that plan this residency at one partition: twice
    /// the slab keeps it one partition with room for the slab alone.
    fn config<P: VertexProgram>(self, base: EngineOptions, dos: &DosGraph) -> EngineConfig {
        let (fast_path, budget) = match self {
            Residency::None => (false, MemoryBudget::from_mib(4)),
            Residency::Slab => {
                (true, MemoryBudget(2 * dos.meta().num_vertices * P::VertexData::SIZE as u64))
            }
            Residency::SlabAdjacency => (true, MemoryBudget::from_mib(4)),
        };
        EngineConfig::new(budget)
            .with_options(EngineOptions { in_memory_fast_path: fast_path, ..base })
    }
}

/// Run `program` to convergence (or `max` iterations) at one partition,
/// writing a generation per iteration under `gens`; when `resume` is set,
/// continue from the newest generation already there.
fn capture<P: VertexProgram>(
    dos: &DosGraph,
    program: P,
    base: EngineOptions,
    residency: Residency,
    gens: &Path,
    resume: bool,
    max: u32,
) -> Capture {
    let config = residency.config::<P>(base, dos).checkpoint_every(gens, 1);
    let mut engine =
        Engine::new(Box::new(DosStore::new(dos.clone())), program, config, IoStats::new())
            .unwrap();
    assert_eq!(engine.num_partitions(), 1, "the fixture must fit one partition");
    if resume {
        assert!(engine.resume_latest(gens).unwrap().is_some(), "nothing to resume from");
    }
    let run = engine.run(max).unwrap();
    assert_eq!(run.plan.residency(), residency.name(), "the plan must keep what the mode says");
    Capture {
        iterations: run.iterations,
        values: codec::encode_slice(&engine.values_by_original_id().unwrap()),
        vertices_bin: std::fs::read(engine.scratch_dir().file("vertices.bin")).unwrap(),
        generations: tree(gens),
    }
}

/// Uninterrupted run, then a crash after generation `cut` and a resumed run
/// that writes the remaining generations itself. Returns both captures.
fn run_and_resume<P: VertexProgram>(
    dos: &DosGraph,
    make: &impl Fn() -> P,
    base: EngineOptions,
    residency: Residency,
    max: u32,
) -> (Capture, Capture) {
    let dir = ScratchDir::new("resident-gens").unwrap();
    let whole = capture(dos, make(), base, residency, &dir.path().join("whole"), false, max);
    assert!(whole.iterations >= 2, "need room to interrupt: {}", whole.iterations);

    let cut = whole.iterations / 2;
    let resumed_root = dir.path().join("resumed");
    for (rel, bytes) in &whole.generations {
        let generation: u32 = rel[4..12].parse().unwrap();
        if generation <= cut {
            let dst = resumed_root.join(rel);
            std::fs::create_dir_all(dst.parent().unwrap()).unwrap();
            std::fs::write(dst, bytes).unwrap();
        }
    }
    // `run` caps *further* iterations, so the tail gets what the cut left.
    let resumed = capture(dos, make(), base, residency, &resumed_root, true, max - cut);
    (whole, resumed)
}

/// Every residency, whole and resumed, against the streamed control.
fn check<P: VertexProgram>(
    label: &str,
    dos: &DosGraph,
    base: EngineOptions,
    make: impl Fn() -> P,
    max: u32,
) {
    let runs = Residency::ALL.map(|r| (r, run_and_resume(dos, &make, base, r, max)));
    let control = &runs[0].1 .0;
    assert!(!control.generations.is_empty(), "{label}: no generations written");
    for (residency, (whole, resumed)) in &runs {
        let mode = residency.name();
        // Byte comparisons via `assert!`: a failure names the artifact, not
        // kilobytes of payload.
        assert_eq!(control.iterations, whole.iterations, "{label} {mode}: iterations");
        assert!(control.values == whole.values, "{label} {mode}: values diverged");
        assert!(control.vertices_bin == whole.vertices_bin, "{label} {mode}: vertices.bin");
        assert!(control.generations == whole.generations, "{label} {mode}: generations");
        // A resumed run executes only the tail, so compare everything but
        // the iteration count.
        assert!(resumed.values == control.values, "{label} {mode}: resumed values diverged");
        assert!(
            resumed.vertices_bin == control.vertices_bin,
            "{label} {mode}: resumed vertices.bin"
        );
        assert!(
            resumed.generations == control.generations,
            "{label} {mode}: resumed generations"
        );
    }
}

fn fixture(dir: &ScratchDir, algo: Algorithm, weighted: bool) -> DosGraph {
    let mut edges: Vec<Edge> = rmat_edges(8, 1500, Default::default(), 21).collect();
    if algo.wants_symmetrized() {
        edges.retain(|e| e.src != e.dst);
        edges = edges.iter().flat_map(|e| [*e, Edge::new(e.dst, e.src)]).collect();
        edges.sort();
        edges.dedup();
    }
    let name = format!("{algo}{}", if weighted { "-weighted" } else { "" });
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file(&format!("{name}.bin")), Arc::clone(&stats), edges)
        .unwrap();
    let mut converter =
        DosConverter::builder().budget(MemoryBudget::from_mib(4)).stats(stats).build().unwrap();
    if weighted {
        converter = converter.with_weights(|src, dst| 1.0 + ((src ^ dst) % 7) as f32);
    }
    let dos = converter.convert(&el, &dir.path().join(format!("dos-{name}"))).unwrap();
    assert_eq!(dos.weights_path().is_some(), weighted);
    dos
}

/// Run `algo` through [`check`] on `dos` with `base` options.
fn check_algo(label: &str, algo: Algorithm, dos: &DosGraph, base: EngineOptions) {
    let store = DosStore::new(dos.clone());
    let stats = IoStats::new();
    let source: VertexId = store.to_storage_id(0, &stats).unwrap();
    let new2old = Arc::new(store.original_ids(&stats).unwrap());
    match algo {
        Algorithm::PageRank => check(label, dos, base, || gz::PageRank { tolerance: 1e-4 }, 12),
        Algorithm::Bfs => check(label, dos, base, || gz::Bfs { source }, 100),
        Algorithm::Cc => check(label, dos, base, || gz::Cc, 100),
        Algorithm::Sssp => check(
            label,
            dos,
            base,
            || gz::Sssp { source, new2old: Arc::clone(&new2old) },
            100,
        ),
        Algorithm::Bp => check(
            label,
            dos,
            base,
            || gz::Bp { rounds: 4, new2old: Arc::clone(&new2old) },
            6,
        ),
        Algorithm::RandomWalk => {
            check(label, dos, base, || gz::RandomWalk { rounds: 5 }, 7)
        }
    }
}

#[test]
fn resident_plan_is_byte_identical_to_the_spilling_control_for_all_six_algorithms() {
    let dir = ScratchDir::new("resident-identity").unwrap();
    for algo in Algorithm::all() {
        let dos = fixture(&dir, algo, false);
        check_algo(&algo.to_string(), algo, &dos, EngineOptions::full());
    }
}

#[test]
fn resident_adjacency_carries_weights() {
    let dir = ScratchDir::new("resident-identity-weighted").unwrap();
    let dos = fixture(&dir, Algorithm::Sssp, true);
    check_algo("weighted sssp", Algorithm::Sssp, &dos, EngineOptions::full());
}
