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

mod common;

use std::path::Path;
use std::sync::Arc;

use common::{graph_for, rmat, tree, Fixture};
use graphz_algos::common::{AlgoParams, AlgoValues, Algorithm};
use graphz_algos::runner::{self, CheckpointSpec};
use graphz_io::{crc32, Crc32};
use graphz_types::{codec, EngineOptions, MemoryBudget};

const GOLDEN: &str = "tests/golden_values.txt";

/// A budget small enough to force several partitions and message spills.
const STARVED: MemoryBudget = MemoryBudget(512);

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
    let msgs: Vec<_> = tree(root).into_iter().filter(|(path, _)| path.contains("/msgs/")).collect();
    for (path, bytes) in &msgs {
        crc.update(path.as_bytes());
        crc.update(bytes);
    }
    (crc.finish(), msgs.len())
}

/// One line of the golden file for `algo`.
fn observe(algo: Algorithm) -> String {
    let fx = Fixture::new(graph_for(algo, rmat(11, 5000, 2018)), None);
    let gens = fx.dir.path().join("gens");
    let ckpt = CheckpointSpec { dir: Some(gens.clone()), every: 1, resume: false };
    // Every generation stays on disk so `msgs_crc` sees the whole history,
    // not just the newest two a run keeps.
    let (run, stats) = (runner::run_graphz_keeping_generations, Arc::clone(&fx.stats));
    let out =
        run(&fx.dos, &params_for(algo), STARVED, EngineOptions::full(), &ckpt, stats).unwrap();
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
