//! The paper's thesis as a tier-1 check (Fig. 9, with Fig. 7's ablations):
//! out of core, GraphZ moves at most half the bytes GraphChi and X-Stream
//! move, and DOS and dynamic messages each save bytes of their own.
//!
//! "Bytes moved" is `IoStats`' bytes read plus bytes written over the run.
//! The counts are deterministic, so nothing here depends on timing.
//!
//! Budgets: GraphZ splits its 8-byte vertex state over half its budget, and
//! GraphChi must hold its dense index (8 bytes per vertex) in all of its
//! budget. At one shared budget GraphZ would therefore run at most two
//! partitions. So GraphZ runs at a budget that gives it four partitions, and
//! the baselines run at twice that, which holds GraphChi's index. More
//! memory only lowers the baselines' bytes, so this makes the check harder
//! for GraphZ. A GraphChi `IndexExceedsMemory` fails the test: that
//! is the paper's "fails", not a pass.

use std::sync::Arc;

use graphz_algos::runner::{self, AlgoOutcome};
use graphz_algos::{AlgoParams, Algorithm};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::EdgeListFile;
use graphz_types::MemoryBudget;

/// About 4 K vertices (R-MAT scale 12) and 40 K edges.
const SCALE: u32 = 12;
const EDGES: u64 = 40_000;

/// Four partitions of GraphZ's 8-byte vertex state.
const GRAPHZ_BUDGET: MemoryBudget = MemoryBudget::from_kib(16);

/// Holds GraphChi's dense index of `(vertices + 1) * 8` bytes.
const BASELINE_BUDGET: MemoryBudget = MemoryBudget::from_kib(32);

fn moved(outcome: &AlgoOutcome) -> u64 {
    outcome.io.bytes_read + outcome.io.bytes_written
}

/// Run `algo` on GraphZ, its two Fig. 7 ablations, GraphChi and X-Stream,
/// and check every claim on the bytes each moved.
fn check_bytes_moved(algo: Algorithm) {
    let dir = ScratchDir::new("bytes-moved").unwrap();
    let stats = IoStats::new();
    let edges = rmat_edges(SCALE, EDGES, Default::default(), 7);
    let mut input = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
    let prep = MemoryBudget::from_mib(4);
    if algo.wants_symmetrized() {
        input = input.symmetrize(&dir.file("sym.bin"), Arc::clone(&stats), prep).unwrap();
    }
    let at = |name: &str| dir.path().join(name);
    let dos = runner::prepare_dos(&input, &at("dos"), prep, Arc::clone(&stats)).unwrap();
    let csr = runner::prepare_csr(&input, &at("csr"), prep, Arc::clone(&stats)).unwrap();
    let chi = runner::prepare_chi(&input, &at("chi"), BASELINE_BUDGET, Arc::clone(&stats)).unwrap();
    let xs = runner::prepare_xs(&input, &at("xs"), BASELINE_BUDGET, Arc::clone(&stats)).unwrap();

    // PageRank is capped at 10 iterations on every engine; the traversals
    // run to convergence.
    let cap = if algo == Algorithm::PageRank { 10 } else { 200 };
    let params = AlgoParams::new(algo).with_source(0).with_max_iterations(cap);
    let graphz = runner::run_graphz(&dos, &params, GRAPHZ_BUDGET, Arc::clone(&stats)).unwrap();
    assert!(graphz.partitions >= 4, "{algo}: GraphZ ran {} partitions", graphz.partitions);
    let no_dos =
        runner::run_graphz_dense(&csr, &params, GRAPHZ_BUDGET, true, Arc::clone(&stats)).unwrap();
    let no_dos_no_dm =
        runner::run_graphz_dense(&csr, &params, GRAPHZ_BUDGET, false, Arc::clone(&stats)).unwrap();
    let graphchi = runner::run_graphchi(&chi, &params, BASELINE_BUDGET, Arc::clone(&stats))
        .unwrap_or_else(|e| panic!("{algo}: GraphChi did not run, which is no pass: {e}"));
    let xstream = runner::run_xstream(&xs, &params, BASELINE_BUDGET, Arc::clone(&stats)).unwrap();

    let [gz, no_dos, no_dos_no_dm, chi, xs] =
        [&graphz, &no_dos, &no_dos_no_dm, &graphchi, &xstream].map(moved);
    assert!(2 * gz <= chi, "{algo}: GraphZ moved {gz} bytes, more than half GraphChi's {chi}");
    assert!(2 * gz <= xs, "{algo}: GraphZ moved {gz} bytes, more than half X-Stream's {xs}");
    assert!(gz <= no_dos, "{algo}: GraphZ moved {gz} bytes, more than w/o DOS ({no_dos})");
    assert!(
        no_dos <= no_dos_no_dm,
        "{algo}: w/o DOS moved {no_dos} bytes, more than w/o DOS and DM ({no_dos_no_dm})"
    );
}

#[test]
fn pagerank_bytes_moved() {
    check_bytes_moved(Algorithm::PageRank);
}

#[test]
fn bfs_bytes_moved() {
    check_bytes_moved(Algorithm::Bfs);
}

#[test]
fn cc_bytes_moved() {
    check_bytes_moved(Algorithm::Cc);
}
