//! Version-to-version bit-identity pin. All six algorithms run on a fixed
//! R-MAT graph at a budget that forces several partitions and message
//! spills, writing a checkpoint generation every iteration. For each, the
//! CRC32 of the result values and of the generations' spilled messages
//! (`msgs/`, file names and bytes, up to and including the final
//! generation) must equal the constants in `golden_values.txt`.
//!
//! A change that means to keep results and the spill format byte-identical
//! must leave `golden_values.txt` untouched. A change that moves them on
//! purpose regenerates it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p graphz-algos --test golden_values
//! ```

use std::path::Path;
use std::sync::Arc;

use graphz_algos::common::{AlgoParams, AlgoValues, Algorithm};
use graphz_algos::runner::{self, CheckpointSpec};
use graphz_gen::rmat_edges;
use graphz_io::{crc32, Crc32, IoStats, ScratchDir};
use graphz_storage::EdgeListFile;
use graphz_types::{codec, Edge, EngineOptions, MemoryBudget};

const GOLDEN: &str = "tests/golden_values.txt";

/// A budget small enough to force several partitions and message spills.
const STARVED: MemoryBudget = MemoryBudget(512);

fn graph_for(algo: Algorithm) -> Vec<Edge> {
    let edges: Vec<Edge> = rmat_edges(11, 5000, Default::default(), 2018).collect();
    if !algo.wants_symmetrized() {
        return edges;
    }
    let mut out: Vec<Edge> = edges
        .iter()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [*e, Edge::new(e.dst, e.src)])
        .collect();
    out.sort();
    out.dedup();
    out
}

fn params_for(algo: Algorithm) -> AlgoParams {
    let p = AlgoParams::new(algo).with_source(0);
    match algo {
        Algorithm::PageRank => p.with_max_iterations(12),
        Algorithm::Bp => p.with_rounds(4),
        Algorithm::RandomWalk => p.with_rounds(5),
        _ => p,
    }
}

fn value_bytes(values: &AlgoValues) -> Vec<u8> {
    match values {
        AlgoValues::Hops(v) | AlgoValues::Labels(v) => codec::encode_slice(v),
        AlgoValues::Ranks(v) | AlgoValues::Costs(v) | AlgoValues::Visits(v) => {
            codec::encode_slice(v)
        }
        AlgoValues::Beliefs(v) => codec::encode_slice(v),
    }
}

/// CRC32 over the `msgs/` files of every generation under `root`, oldest
/// first and each in name order, every file contributing its path and then
/// its bytes; also returns the file count. The final generation is the last
/// one hashed (a converged run leaves it empty, so the earlier ones carry
/// the spill format).
fn msgs_crc(root: &Path) -> (u32, usize) {
    let mut crc = Crc32::new();
    let mut files = 0;
    for generation in sorted_names(root).iter().filter(|n| n.starts_with("gen-")) {
        let msgs = root.join(generation).join("msgs");
        for name in sorted_names(&msgs) {
            crc.update(format!("{generation}/msgs/{name}").as_bytes());
            crc.update(&std::fs::read(msgs.join(&name)).unwrap());
            files += 1;
        }
    }
    (crc.finish(), files)
}

/// Entry names of `dir` in sorted order; none if it does not exist.
fn sorted_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.map(|e| e.unwrap().file_name().into_string().unwrap()).collect(),
        Err(_) => Vec::new(),
    };
    names.sort();
    names
}

/// One line of the golden file for `algo`.
fn observe(algo: Algorithm) -> String {
    let dir = ScratchDir::new("golden-values").unwrap();
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), graph_for(algo)).unwrap();
    let dos = runner::prepare_dos(
        &el,
        &dir.path().join("dos"),
        MemoryBudget::from_mib(4),
        Arc::clone(&stats),
    )
    .unwrap();
    let gens = dir.path().join("gens");
    let ckpt = CheckpointSpec { dir: Some(gens.clone()), every: 1, resume: false };
    // Every generation stays on disk so `msgs_crc` sees the whole history,
    // not just the newest two a run keeps.
    let out = runner::run_graphz_keeping_generations(
        &dos,
        &params_for(algo),
        STARVED,
        EngineOptions::full(),
        &ckpt,
        stats,
    )
    .unwrap();
    assert!(out.partitions >= 3, "{algo:?}: the budget must force several partitions");
    assert!(out.spilled > 0, "{algo:?}: the budget must force message spills");
    let (msgs_crc, msgs_files) = msgs_crc(&gens);
    assert!(msgs_files > 0, "{algo:?}: the generations must hold spilled messages");
    format!(
        "{} iterations={} spilled={} values={:08x} msgs={:08x}",
        algo.name(),
        out.iterations,
        out.spilled,
        crc32(&value_bytes(&out.values)),
        msgs_crc,
    )
}

#[test]
fn six_algorithms_match_the_committed_crcs() {
    let observed: String =
        Algorithm::all().into_iter().map(|a| format!("{}\n", observe(a))).collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &observed).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("committed golden values (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        observed, expected,
        "results or spill bytes drifted from {GOLDEN}; if intentional, regenerate with \
         UPDATE_GOLDEN=1"
    );
}
