//! The resident single-partition plan (`in_memory_fast_path`, the default)
//! is pure residency: for all six algorithms it must leave exactly the bytes
//! the always-spill control (`in_memory_fast_path: false`) leaves — final
//! values, the engine's `vertices.bin`, and every checkpoint generation
//! written with `checkpoint_every = 1`, including the generations a run
//! resumed from mid-way writes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_algos::graphz as gz;
use graphz_algos::Algorithm;
use graphz_core::{DosStore, Engine, EngineConfig, GraphStore, VertexProgram};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::{DosGraph, EdgeListFile};
use graphz_types::{codec, Edge, EngineOptions, MemoryBudget, VertexId};

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

/// Run `program` to convergence (or `max` iterations) at one partition,
/// writing a generation per iteration under `gens`; when `resume` is set,
/// continue from the newest generation already there.
fn capture<P: VertexProgram>(
    dos: &DosGraph,
    program: P,
    fast_path: bool,
    gens: &Path,
    resume: bool,
    max: u32,
) -> Capture {
    let options = EngineOptions { in_memory_fast_path: fast_path, ..EngineOptions::full() };
    let config = EngineConfig::new(MemoryBudget::from_mib(4))
        .with_options(options)
        .checkpoint_every(gens, 1);
    let mut engine =
        Engine::new(Box::new(DosStore::new(dos.clone())), program, config, IoStats::new())
            .unwrap();
    assert_eq!(engine.num_partitions(), 1, "the fixture must fit one partition");
    if resume {
        assert!(engine.resume_latest(gens).unwrap().is_some(), "nothing to resume from");
    }
    let run = engine.run(max).unwrap();
    assert_eq!(run.plan.resident, fast_path, "plan residency follows the option");
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
    fast_path: bool,
    max: u32,
) -> (Capture, Capture) {
    let dir = ScratchDir::new("resident-gens").unwrap();
    let whole = capture(dos, make(), fast_path, &dir.path().join("whole"), false, max);
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
    let resumed = capture(dos, make(), fast_path, &resumed_root, true, max - cut);
    (whole, resumed)
}

fn check<P: VertexProgram>(algo: Algorithm, dos: &DosGraph, make: impl Fn() -> P, max: u32) {
    let (control, control_resumed) = run_and_resume(dos, &make, false, max);
    let (resident, resident_resumed) = run_and_resume(dos, &make, true, max);
    assert!(!control.generations.is_empty(), "{algo}: no generations written");
    // Byte comparisons via `assert!`: a failure names the artifact, not
    // kilobytes of payload.
    assert_eq!(control.iterations, resident.iterations, "{algo}: iterations");
    assert!(control.values == resident.values, "{algo}: resident values diverged");
    assert!(control.vertices_bin == resident.vertices_bin, "{algo}: resident vertices.bin");
    assert!(control.generations == resident.generations, "{algo}: resident generations");
    // A resumed run executes only the tail, so compare everything but the
    // iteration count.
    for resumed in [&control_resumed, &resident_resumed] {
        assert!(resumed.values == control.values, "{algo}: resumed values diverged");
        assert!(resumed.vertices_bin == control.vertices_bin, "{algo}: resumed vertices.bin");
        assert!(resumed.generations == control.generations, "{algo}: resumed generations");
    }
}

fn fixture(dir: &ScratchDir, algo: Algorithm) -> DosGraph {
    let mut edges: Vec<Edge> = rmat_edges(8, 1500, Default::default(), 21).collect();
    if algo.wants_symmetrized() {
        edges.retain(|e| e.src != e.dst);
        edges = edges.iter().flat_map(|e| [*e, Edge::new(e.dst, e.src)]).collect();
        edges.sort();
        edges.dedup();
    }
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file(&format!("{algo}.bin")), Arc::clone(&stats), edges)
        .unwrap();
    graphz_algos::runner::prepare_dos(
        &el,
        &dir.path().join(format!("dos-{algo}")),
        MemoryBudget::from_mib(4),
        stats,
    )
    .unwrap()
}

#[test]
fn resident_plan_is_byte_identical_to_the_spilling_control_for_all_six_algorithms() {
    let dir = ScratchDir::new("resident-identity").unwrap();
    for algo in Algorithm::all() {
        let dos = fixture(&dir, algo);
        let store = DosStore::new(dos.clone());
        let stats = IoStats::new();
        let source: VertexId = store.to_storage_id(0, &stats).unwrap();
        let new2old = Arc::new(store.original_ids(&stats).unwrap());
        match algo {
            Algorithm::PageRank => {
                check(algo, &dos, || gz::PageRank { tolerance: 1e-4 }, 12)
            }
            Algorithm::Bfs => check(algo, &dos, || gz::Bfs { source }, 100),
            Algorithm::Cc => check(algo, &dos, || gz::Cc, 100),
            Algorithm::Sssp => check(
                algo,
                &dos,
                || gz::Sssp { source, new2old: Arc::clone(&new2old) },
                100,
            ),
            Algorithm::Bp => {
                check(algo, &dos, || gz::Bp { rounds: 4, new2old: Arc::clone(&new2old) }, 6)
            }
            Algorithm::RandomWalk => check(algo, &dos, || gz::RandomWalk { rounds: 5 }, 7),
        }
    }
}
