//! Schedule identity: the Worker runs one schedule — inline, in vertex
//! order — and everything around it is pure scheduling. Sweeping
//! `pipeline_threads` {1, 2} (the Sio read-ahead thread) must leave
//! bit-identical vertex arrays, identical
//! iteration and message counters, and byte-identical checkpoint
//! generations — for every algorithm, on a starved budget that forces many
//! partitions and message spills, and across a checkpoint/resume cycle.

mod common;

use common::{
    assert_same, assert_spills_mid_pass, graph_for, mid_pass_spill, rmat, run_algo, symmetrized,
    Fixture, Plan, MID_PASS_BATCH_EDGES,
};
use graphz_algos::common::{AlgoParams, Algorithm};

/// A budget small enough to force many partitions *and* message spills.
const STARVED: u64 = 256;

fn params_for(algo: Algorithm) -> AlgoParams {
    let p = AlgoParams::new(algo).with_source(0);
    match algo {
        Algorithm::PageRank => p.with_max_iterations(30),
        Algorithm::Bp => p.with_rounds(4).with_max_iterations(30),
        Algorithm::RandomWalk => p.with_rounds(5).with_max_iterations(30),
        _ => p.with_max_iterations(200),
    }
}

/// The headline guarantee: for all six algorithms on the starved budget,
/// every point of the sweep is bit-identical to the all-inline baseline.
#[test]
fn six_algorithms_bit_identical_across_threads_and_prefetch() {
    for (i, algo) in Algorithm::all().into_iter().enumerate() {
        let fx = Fixture::new(graph_for(algo, rmat(8, 1500, 11 * (i as u64 + 1))), None);
        let params = params_for(algo);
        let [baseline, rest @ ..] =
            Plan::schedules(STARVED).map(|p| run_algo(&fx, p, &params, None));
        let run = &baseline.run;
        assert!(run.partitions >= 3, "{algo:?}: budget must force many partitions");
        assert!(run.spilled > 0, "{algo:?}: budget must force message spills");
        for out in &rest {
            assert_same(&format!("{algo:?}"), &baseline, out);
        }
    }
}

/// A CC run that spills across many partitions — messages replayed from
/// disk at every partition load — lands on the same bytes in every
/// schedule.
#[test]
fn spilled_multi_partition_run_is_deterministic() {
    let fx = Fixture::new(symmetrized(rmat(8, 1500, 99)), None);
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let [baseline, rest @ ..] = Plan::schedules(STARVED).map(|p| run_algo(&fx, p, &params, None));
    assert!(baseline.run.spilled > 0 && baseline.run.replayed > 0, "{:?}", baseline.run);
    for out in &rest {
        assert_same(&format!("{:?}", out.plan), &baseline, out);
    }
}

/// Interrupt a run mid-computation under every point of the sweep, then
/// resume it: the checkpoint generations — vertex array and sealed spill
/// segments, before the cut and after it — must be byte-identical across
/// the sweep, and every resumed run must land exactly where the
/// uninterrupted baseline does.
#[test]
fn checkpoint_resume_mid_run_matches_uninterrupted() {
    let fx = Fixture::new(symmetrized(rmat(8, 1500, 123)), None);
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let plans = Plan::schedules(STARVED);
    let reference = run_algo(&fx, plans[0], &params, None);
    assert!(reference.run.converged);
    assert!(reference.run.iterations >= 2, "need room to interrupt: {}", reference.run.iterations);
    // Stop strictly before the uninterrupted run converged.
    let cut = reference.run.iterations - 1;

    let [first, rest @ ..] = plans.map(|p| run_algo(&fx, p, &params, Some(cut)));
    for out in [&first].into_iter().chain(&rest) {
        let label = format!("{:?}", out.plan);
        assert!(out.generations.keys().any(|k| k.contains("/msgs/")), "{label}: no spill segment");
        assert!(out.run.converged, "{label}");
        // The head stopped before convergence: the tail ran what was left.
        assert_eq!(out.run.iterations, reference.run.iterations - cut, "{label}: tail iterations");
        assert!(reference.values == out.values, "{label}: resumed values diverged");
        assert_same(&label, &first, out);
    }
}

/// Spills inside a batch: on the mid-pass fixture one block sends more
/// messages than the MsgManager's cap, so the cap is crossed between two
/// messages of one batch. Every schedule — read-ahead or not — and blocks
/// an eighth the size must spill at the same messages,
/// which `assert_same` checks through `spilled` and the generations.
#[test]
fn mid_pass_spills_land_on_the_same_message_in_every_schedule() {
    for algo in [Algorithm::PageRank, Algorithm::Cc] {
        let edges = graph_for(algo, rmat(10, 16_000, 7));
        let fx = mid_pass_spill(edges.clone());
        let small_blocks = mid_pass_spill(edges).with_batch_edges(MID_PASS_BATCH_EDGES / 8);
        let vertices = fx.dos.meta().num_vertices;
        // Both keep 8-byte vertices and send 4-byte messages.
        let plan = Plan::Partitions(8);
        let (budget, _) = plan.budget(vertices, 8);
        let cap = plan.message_cap(vertices, 8, 8);
        let params = params_for(algo);
        for split_at in [None, Some(2)] {
            let [baseline, rest @ ..] =
                Plan::schedules(budget.bytes()).map(|p| run_algo(&fx, p, &params, split_at));
            let label = format!("{algo:?} split_at={split_at:?}");
            if split_at.is_none() {
                assert_spills_mid_pass(&label, &baseline.run, cap);
            }
            for out in &rest {
                assert_same(&label, &baseline, out);
            }
            let cut_elsewhere = run_algo(&small_blocks, baseline.plan, &params, split_at);
            assert_same(&format!("{label}, small blocks"), &baseline, &cut_elsewhere);
        }
    }
}
