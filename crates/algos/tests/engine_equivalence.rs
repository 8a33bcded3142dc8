//! Cross-engine equivalence: every algorithm, run on every engine (plus the
//! GraphZ ablations), must agree with the in-memory reference.
//!
//! This is the correctness backbone of the whole reproduction: the paper's
//! performance comparisons are only meaningful if all three systems compute
//! the same answers.

mod common;

use std::sync::Arc;

use common::{rmat, symmetrized, Fixture};
use graphz_algos::common::{AlgoParams, AlgoValues, Algorithm};
use graphz_algos::runner::{self, EngineKind};
use graphz_baselines::{graphchi::ChiShards, gridgraph::GridPartitions, xstream::XsPartitions};
use graphz_storage::CsrGraph;
use graphz_types::{derive_weight, Edge, GraphError, MemoryBudget};

/// The DOS and CSR fixture plus every baseline's preprocessing at one
/// budget.
struct Engines {
    fx: Fixture,
    budget: MemoryBudget,
    chi: ChiShards,
    xs: XsPartitions,
    grid: GridPartitions,
    reference: CsrGraph,
}

impl Engines {
    fn new(edges: Vec<Edge>, budget: MemoryBudget) -> Engines {
        let fx = Fixture::new(edges, None);
        let (el, dir, stats) = (&fx.el, fx.dir.path(), || Arc::clone(&fx.stats));
        let chi = runner::prepare_chi(el, &dir.join("chi"), budget, stats()).unwrap();
        let xs = runner::prepare_xs(el, &dir.join("xs"), budget, stats()).unwrap();
        let grid = runner::prepare_grid(el, &dir.join("grid"), budget, stats()).unwrap();
        let reference = fx.csr().load(stats()).unwrap();
        Engines { fx, budget, chi, xs, grid, reference }
    }

    /// Run `params` on every engine; GraphChi is skipped automatically when
    /// its index cannot fit the budget (asserted by dedicated tests).
    fn run_all(&self, params: &AlgoParams) -> Vec<(EngineKind, AlgoValues)> {
        let mut out = Vec::new();
        let stats = || Arc::clone(&self.fx.stats);
        let gz =
            runner::run_graphz(&self.fx.dos, params, self.budget, stats()).expect("graphz run");
        out.push((EngineKind::GraphZ, gz.values));
        for dm in [true, false] {
            let o = runner::run_graphz_dense(self.fx.csr(), params, self.budget, dm, stats())
                .expect("dense ablation run");
            out.push((o.engine, o.values));
        }
        match runner::run_graphchi(&self.chi, params, self.budget, stats()) {
            Ok(o) => out.push((EngineKind::GraphChi, o.values)),
            Err(GraphError::IndexExceedsMemory { .. }) => {}
            Err(e) => panic!("graphchi run failed: {e}"),
        }
        let xs = runner::run_xstream(&self.xs, params, self.budget, stats()).expect("xstream run");
        out.push((EngineKind::XStream, xs.values));
        let grid =
            runner::run_gridgraph(&self.grid, params, self.budget, stats()).expect("gridgraph run");
        out.push((EngineKind::GridGraph, grid.values));
        out
    }

    fn check_against_reference(&self, params: &AlgoParams, tolerance: f64) {
        let reference = runner::run_reference(&self.reference, params).unwrap();
        for (engine, values) in self.run_all(params) {
            assert_eq!(values.len(), reference.values.len(), "{engine}: wrong length");
            let err = reference.values.max_relative_error(&values);
            let algo = params.algorithm;
            assert!(
                err <= tolerance,
                "{engine} disagrees with reference on {algo:?}: max rel err {err}"
            );
        }
    }
}

/// `params` on every engine agrees with the in-memory reference within
/// `tolerance`, at budgets from roomy (single partition) to starved (many
/// partitions).
fn agrees_everywhere(edges: impl Fn() -> Vec<Edge>, params: AlgoParams, tolerance: f64) {
    for budget in [MemoryBudget::from_mib(4), MemoryBudget::from_kib(8), MemoryBudget::from_kib(1)]
    {
        Engines::new(edges(), budget).check_against_reference(&params, tolerance);
    }
}

#[test]
fn pagerank_agrees_everywhere() {
    let params = AlgoParams::new(Algorithm::PageRank).with_max_iterations(200);
    agrees_everywhere(|| rmat(8, 1500, 11), params, 2e-2);
}

#[test]
fn bfs_agrees_everywhere() {
    // Source 0 is always present and, in an R-MAT graph, well connected.
    let params = AlgoParams::new(Algorithm::Bfs).with_source(0).with_max_iterations(300);
    agrees_everywhere(|| rmat(8, 1500, 22), params, 0.0);
}

#[test]
fn cc_agrees_everywhere() {
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(300);
    agrees_everywhere(|| symmetrized(rmat(8, 1200, 33)), params, 0.0);
}

#[test]
fn sssp_agrees_everywhere() {
    let params = AlgoParams::new(Algorithm::Sssp).with_source(0).with_max_iterations(300);
    agrees_everywhere(|| rmat(8, 1500, 44), params, 1e-5);
}

#[test]
fn bp_agrees_everywhere() {
    let params = AlgoParams::new(Algorithm::Bp).with_rounds(6).with_max_iterations(50);
    agrees_everywhere(|| rmat(8, 1000, 55), params, 1e-3);
}

#[test]
fn random_walk_agrees_everywhere() {
    let params = AlgoParams::new(Algorithm::RandomWalk).with_rounds(8).with_max_iterations(50);
    agrees_everywhere(|| rmat(8, 1500, 66), params, 1e-3);
}

#[test]
fn async_engines_need_fewer_iterations_than_bsp() {
    // Table XIV's claim: GraphZ/GraphChi (asynchronous) converge in fewer
    // iterations than X-Stream (bulk-synchronous) on traversal algorithms.
    let budget = MemoryBudget::from_mib(4);
    let fx = Engines::new(symmetrized(rmat(8, 1500, 77)), budget);
    let params = AlgoParams::new(Algorithm::Cc).with_max_iterations(500);
    let stats = || Arc::clone(&fx.fx.stats);
    let gz = runner::run_graphz(&fx.fx.dos, &params, budget, stats()).unwrap();
    let xs = runner::run_xstream(&fx.xs, &params, budget, stats()).unwrap();
    assert!(gz.converged && xs.converged);
    let (sync, bsp) = (gz.iterations, xs.iterations);
    assert!(sync <= bsp, "async {sync} should not exceed BSP {bsp}");
}

#[test]
fn graphz_is_deterministic_across_runs_and_threads() {
    let budget = MemoryBudget::from_kib(2);
    let fx = Engines::new(rmat(8, 1200, 88), budget);
    let params = AlgoParams::new(Algorithm::PageRank).with_max_iterations(60);
    let stats = || Arc::clone(&fx.fx.stats);
    let a = runner::run_graphz(&fx.fx.dos, &params, budget, stats()).unwrap();
    let b = runner::run_graphz(&fx.fx.dos, &params, budget, stats()).unwrap();
    assert_eq!(a.values, b.values, "same configuration must be bit-identical");
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn unreachable_vertices_are_reported_as_such() {
    // Two islands: 0->1 and 5->6; BFS from 0 must leave the second island
    // and the id-space holes unreached on every engine.
    let edges = vec![Edge::new(0, 1), Edge::new(5, 6)];
    let fx = Engines::new(edges, MemoryBudget::from_mib(1));
    let params = AlgoParams::new(Algorithm::Bfs).with_source(0).with_max_iterations(20);
    let reference = runner::run_reference(&fx.reference, &params).unwrap();
    let AlgoValues::Hops(h) = &reference.values else { panic!("wrong kind") };
    assert_eq!(h, &[0, 1, u32::MAX, u32::MAX, u32::MAX, u32::MAX, u32::MAX]);
    fx.check_against_reference(&params, 0.0);
}

#[test]
fn weighted_dos_sssp_matches_unweighted_and_reference() {
    // Convert the same graph twice — with and without stored weights — and
    // confirm SSSP is identical (the stored weights are exactly the derived
    // ones) and matches the in-memory reference.
    let plain = Fixture::new(rmat(8, 1500, 99), None);
    let weighted = Fixture::new(rmat(8, 1500, 99), Some(derive_weight));
    assert!(weighted.dos.has_weights());
    let stats = || Arc::clone(&plain.stats);

    let params = AlgoParams::new(Algorithm::Sssp).with_source(0).with_max_iterations(300);
    let budget = MemoryBudget::from_kib(4);
    let a = runner::run_graphz(&plain.dos, &params, budget, stats()).unwrap();
    let b = runner::run_graphz(&weighted.dos, &params, budget, stats()).unwrap();
    assert_eq!(a.values, b.values, "stored weights must equal derived weights");
    let reference = runner::run_reference(&plain.csr().load(stats()).unwrap(), &params).unwrap();
    assert!(reference.values.max_relative_error(&b.values) < 1e-5);
    // The weighted run streams the weight file too: more bytes read.
    assert!(b.io.bytes_read > a.io.bytes_read);
}
