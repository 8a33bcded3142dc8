//! Pipeline determinism: the Worker runs one schedule — inline, in vertex
//! order — and everything around it is pure scheduling. Sweeping every
//! combination of `prefetch` {on, off} × `pipeline_threads` {1, 2} (the Sio
//! read-ahead thread) must leave bit-identical vertex arrays, identical
//! iteration and message counters, and byte-identical checkpoint
//! generations — for every algorithm, on a starved budget that forces many
//! partitions and message spills, and across a checkpoint/resume cycle.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use graphz_algos::common::{AlgoParams, Algorithm};
use graphz_algos::runner::{self, AlgoOutcome, CheckpointSpec};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::DosGraph;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, EngineOptions, MemoryBudget};

fn power_law_graph(seed: u64, edges: u64) -> Vec<Edge> {
    rmat_edges(8, edges, Default::default(), seed).collect()
}

fn symmetrized(edges: Vec<Edge>) -> Vec<Edge> {
    let mut out: Vec<Edge> = edges
        .iter()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [*e, Edge::new(e.dst, e.src)])
        .collect();
    out.sort();
    out.dedup();
    out
}

/// One point of the scheduling sweep.
#[derive(Debug, Clone, Copy)]
struct Sched {
    prefetch: bool,
    threads: usize,
}

/// The first entry — everything on the engine thread — is the baseline.
fn sweep() -> Vec<Sched> {
    let mut out = Vec::new();
    for prefetch in [false, true] {
        for threads in [1usize, 2] {
            out.push(Sched { prefetch, threads });
        }
    }
    out
}

/// A budget small enough to force many partitions *and* message spills.
const STARVED: MemoryBudget = MemoryBudget(256);

struct Fixture {
    _dir: ScratchDir,
    stats: Arc<IoStats>,
    dos: DosGraph,
}

impl Fixture {
    fn new(edges: Vec<Edge>) -> Fixture {
        let dir = ScratchDir::new("par-det").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = runner::prepare_dos(
            &el,
            &dir.path().join("dos"),
            MemoryBudget::from_mib(4),
            Arc::clone(&stats),
        )
        .unwrap();
        Fixture { _dir: dir, stats, dos }
    }

    fn run(&self, params: &AlgoParams, sched: Sched, ckpt: &CheckpointSpec) -> AlgoOutcome {
        let options = EngineOptions {
            prefetch: sched.prefetch,
            pipeline_threads: sched.threads,
            ..EngineOptions::full()
        };
        runner::run_graphz_configured(
            &self.dos,
            params,
            STARVED,
            options,
            ckpt,
            Arc::clone(&self.stats),
        )
        .unwrap()
    }
}

fn params_for(algo: Algorithm) -> AlgoParams {
    let p = AlgoParams::new(algo).with_source(0);
    match algo {
        Algorithm::PageRank => p.with_max_iterations(30),
        Algorithm::Bp => p.with_rounds(4).with_max_iterations(30),
        Algorithm::RandomWalk => p.with_rounds(5).with_max_iterations(30),
        _ => p.with_max_iterations(200),
    }
}

fn graph_for(algo: Algorithm, seed: u64) -> Vec<Edge> {
    let edges = power_law_graph(seed, 1500);
    if algo.wants_symmetrized() {
        symmetrized(edges)
    } else {
        edges
    }
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

/// A checkpoint tree with each partition's spill segments concatenated in
/// sequence order under one key, and the manifest without its per-segment
/// lines. Segment *numbering* is the one thing prefetch may change — a
/// prefetch claim seals a partition's open segment early, so its later
/// messages land in the next one — while every message byte stays put.
fn normalized(tree: BTreeMap<String, Vec<u8>>) -> BTreeMap<String, Vec<u8>> {
    let mut out: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (path, bytes) in tree {
        if path.ends_with("manifest.txt") {
            let kept: String = String::from_utf8(bytes)
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("file:msgs/"))
                .map(|l| format!("{l}\n"))
                .collect();
            out.insert(path, kept.into_bytes());
        } else if let Some((dir, name)) = path.split_once("/msgs/msgs-") {
            // `msgs-<partition>-<sequence>.bin`, both zero-padded.
            let partition = name.split('-').next().unwrap();
            out.entry(format!("{dir}/msgs/{partition}")).or_default().extend(bytes);
        } else {
            out.insert(path, bytes);
        }
    }
    out
}

fn assert_same(label: &str, baseline: &AlgoOutcome, out: &AlgoOutcome) {
    assert_eq!(baseline.values, out.values, "{label}: values diverged from the baseline");
    assert_eq!(baseline.iterations, out.iterations, "{label}: iterations");
    assert_eq!(baseline.messages, out.messages, "{label}: messages");
    assert_eq!(baseline.spilled, out.spilled, "{label}: spilled");
}

/// The headline guarantee: for all six algorithms on the starved budget,
/// every point of the sweep is bit-identical to the all-inline baseline.
#[test]
fn six_algorithms_bit_identical_across_threads_and_prefetch() {
    let none = CheckpointSpec::disabled();
    for (i, algo) in Algorithm::all().into_iter().enumerate() {
        let fx = Fixture::new(graph_for(algo, 11 * (i as u64 + 1)));
        let params = params_for(algo);
        let sweep = sweep();
        let baseline = fx.run(&params, sweep[0], &none);
        assert!(baseline.partitions >= 3, "{algo:?}: budget must force prefetchable partitions");
        assert!(baseline.spilled > 0, "{algo:?}: budget must force message spills");
        for &sched in &sweep[1..] {
            let out = fx.run(&params, sched, &none);
            assert_same(&format!("{algo:?} {sched:?}"), &baseline, &out);
        }
    }
}

/// The claimed-segment protocol — the prefetcher pre-draining a spilled run
/// while the engine keeps spilling into fresh segments — must not change
/// results, and the sweep must really exercise it.
#[test]
fn spilled_multi_partition_run_is_deterministic() {
    let fx = Fixture::new(symmetrized(power_law_graph(99, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let none = CheckpointSpec::disabled();
    let sweep = sweep();
    let baseline = fx.run(&params, sweep[0], &none);
    for &sched in &sweep[1..] {
        let out = fx.run(&params, sched, &none);
        assert_same(&format!("{sched:?}"), &baseline, &out);
        if sched.prefetch {
            let pf = out.prefetch.expect("an engine run reports prefetch counters");
            assert!(pf.hits + pf.stalls > 0, "{sched:?}: prefetcher never claimed a load");
        }
    }
}

/// Interrupt a run mid-computation under every point of the sweep, then
/// resume it: the checkpoint generations written before the cut — vertex
/// array and sealed spill segments — must be byte-identical across the
/// sweep, and every resumed run must land exactly where the uninterrupted
/// baseline does.
#[test]
fn checkpoint_resume_mid_run_matches_uninterrupted() {
    let fx = Fixture::new(symmetrized(power_law_graph(123, 1500)));
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let none = CheckpointSpec::disabled();
    let sweep = sweep();
    let reference = fx.run(&params, sweep[0], &none);
    assert!(reference.converged);
    assert!(reference.iterations >= 2, "need room to interrupt: {}", reference.iterations);
    // Stop strictly before the uninterrupted run converged.
    let cut = (reference.iterations - 1).max(1);

    let mut first_generations: Option<BTreeMap<String, Vec<u8>>> = None;
    for &sched in &sweep {
        let gens = ScratchDir::new("par-det-gens").unwrap();
        let write = CheckpointSpec { dir: Some(gens.path().to_path_buf()), every: 1, resume: false };
        let head = fx.run(&params.with_max_iterations(cut), sched, &write);
        assert!(!head.converged, "{sched:?}: interrupted run must stop before convergence");
        let generations = normalized(tree(gens.path()));
        assert!(generations.keys().any(|k| k.contains("/msgs/")), "{sched:?}: no spill segment");
        let first = first_generations.get_or_insert_with(|| generations.clone());
        assert!(*first == generations, "{sched:?}: checkpoint generations diverged");

        let resume = CheckpointSpec { dir: Some(gens.path().to_path_buf()), every: 0, resume: true };
        let tail = fx.run(&params, sched, &resume);
        assert!(tail.converged, "{sched:?}");
        assert_eq!(reference.values, tail.values, "{sched:?}: resumed values diverged");
    }
}
