//! Schedule identity: the Worker runs one schedule — inline, in vertex
//! order — and everything around it is pure scheduling. Sweeping every
//! combination of `prefetch` {on, off} × `pipeline_threads` {1, 2} (the Sio
//! read-ahead thread) must leave bit-identical vertex arrays, identical
//! iteration and message counters, and byte-identical checkpoint
//! generations — for every algorithm, on a starved budget that forces many
//! partitions and message spills, and across a checkpoint/resume cycle.

mod common;

use common::{assert_same, graph_for, rmat, run_algo, symmetrized, Fixture, Plan};
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
        assert!(run.partitions >= 3, "{algo:?}: budget must force prefetchable partitions");
        assert!(run.spilled > 0, "{algo:?}: budget must force message spills");
        for out in &rest {
            assert_same(&format!("{algo:?}"), &baseline, out);
        }
    }
}

/// The claimed-segment protocol — the prefetcher pre-draining a spilled run
/// while the engine keeps spilling into fresh segments — must not change
/// results, and the sweep must really exercise it.
#[test]
fn spilled_multi_partition_run_is_deterministic() {
    let fx = Fixture::new(symmetrized(rmat(8, 1500, 99)), None);
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    let [baseline, rest @ ..] = Plan::schedules(STARVED).map(|p| run_algo(&fx, p, &params, None));
    for out in &rest {
        let label = format!("{:?}", out.plan);
        assert_same(&label, &baseline, out);
        let pf = out.run.prefetch;
        assert!(
            !out.plan.options().prefetch || pf.hits + pf.stalls > 0,
            "{label}: prefetcher never claimed a load"
        );
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
