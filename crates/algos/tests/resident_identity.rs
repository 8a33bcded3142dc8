//! Residency is invisible in the results. For all six algorithms the two
//! resident single-partition plans (`in_memory_fast_path`, the default) must
//! leave exactly the bytes the always-spill, always-stream control
//! (`in_memory_fast_path: false`) leaves:
//!
//! * slab only — a budget the vertex slab fits but the adjacency does not;
//! * slab + adjacency — a budget both fit, so the graph is read once.
//!
//! Compared: the engine's final values, the message counters, and every
//! checkpoint generation written with `checkpoint_every = 1`, including the
//! generations a run resumed from mid-way writes. Also covered: a weighted
//! image.

mod common;

use common::{assert_same, graph_for, rmat, run_algo, Fixture, Plan};
use graphz_algos::common::{AlgoParams, Algorithm};

fn params(algo: Algorithm) -> AlgoParams {
    let p = AlgoParams::new(algo).with_source(0);
    match algo {
        Algorithm::PageRank => p.with_max_iterations(12),
        Algorithm::Bp => p.with_rounds(4).with_max_iterations(6),
        Algorithm::RandomWalk => p.with_rounds(5).with_max_iterations(7),
        _ => p.with_max_iterations(100),
    }
}

/// Every residency, uninterrupted and resumed mid-way, against the streamed
/// control. Every run checkpoints every iteration.
fn check(label: &str, fx: &Fixture, p: &AlgoParams) {
    let max = p.max_iterations;
    let [control, resident_plans @ ..] = [Plan::Streamed, Plan::SlabOnly, Plan::Resident];
    let whole = run_algo(fx, control, p, Some(max));
    assert!(!whole.generations.is_empty(), "{label}: no generations written");
    let cut = whole.run.iterations / 2;
    assert!(cut >= 1, "{label}: need room to interrupt: {}", whole.run.iterations);
    let resumed = run_algo(fx, control, p, Some(cut));
    // A resumed run reports only the tail's counters; what it leaves is the
    // uninterrupted run's.
    assert!(resumed.values == whole.values, "{label}: resumed values diverged");
    assert!(resumed.generations == whole.generations, "{label}: resumed generations");
    for plan in resident_plans {
        assert_same(label, &whole, &run_algo(fx, plan, p, Some(max)));
        assert_same(&format!("{label} resumed"), &resumed, &run_algo(fx, plan, p, Some(cut)));
    }
}

#[test]
fn resident_plan_is_byte_identical_to_the_spilling_control_for_all_six_algorithms() {
    for algo in Algorithm::all() {
        let fx = Fixture::new(graph_for(algo, rmat(8, 1500, 21)), None);
        check(&algo.to_string(), &fx, &params(algo));
    }
}

#[test]
fn resident_adjacency_carries_weights() {
    let fx = Fixture::new(rmat(8, 1500, 21), Some(|src, dst| 1.0 + ((src ^ dst) % 7) as f32));
    assert!(fx.dos.weights_path().is_some());
    check("weighted sssp", &fx, &params(Algorithm::Sssp));
}
