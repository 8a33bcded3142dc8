//! Design-choice ablations (DESIGN.md §5): the engineering knobs the paper's
//! architecture fixes implicitly — Sio block size, pipeline threading, the
//! in-memory fast path (§VI-E future work, on by default), and GridGraph's selective
//! scheduling — each swept in isolation on real runs.

use std::sync::Arc;

use graphz_algos::graphz::PageRank;
use graphz_algos::runner::EngineKind;
use graphz_baselines::gridgraph::{GridEngine, GridEngineConfig};
use graphz_core::{DosStore, Engine, EngineConfig};
use graphz_gen::GraphSize;
use graphz_io::{DeviceKind, DeviceModel, IoStats};
use graphz_types::{EngineOptions, Result};

use crate::{default_budget, fmt_count, fmt_duration, Harness, Table};

pub fn report(h: &Harness) -> Result<String> {
    let mut out = String::new();
    out.push_str(&block_size_sweep(h)?);
    out.push_str(&pipeline_sweep(h)?);
    out.push_str(&fast_path(h)?);
    out.push_str(&selective_scheduling(h)?);
    Ok(out)
}

/// Run GraphZ PageRank on the large graph with an explicit engine config.
fn graphz_pr_run(
    h: &Harness,
    options: EngineOptions,
    batch_edges: usize,
    size: GraphSize,
) -> Result<(graphz_core::RunSummary, std::time::Duration)> {
    let dos = h.dos(size, false)?;
    let stats = IoStats::new();
    let mut engine = Engine::new(
        Box::new(DosStore::new(dos)),
        PageRank { tolerance: 1e-4 },
        EngineConfig::new(default_budget())
            .with_options(options)
            .with_batch_edges(batch_edges),
        Arc::clone(&stats),
    )?;
    let start = std::time::Instant::now();
    let summary = engine.run(50)?;
    Ok((summary, start.elapsed()))
}

fn block_size_sweep(h: &Harness) -> Result<String> {
    let mut t = Table::new(
        "Ablation: Sio block size (GraphZ PR, large graph)",
        &["Batch edges", "Read ops", "Seeks", "Modeled HDD", "Wall"],
    );
    for batch in [1usize << 10, 1 << 13, 1 << 16, 1 << 19] {
        let (s, wall) = graphz_pr_run(h, EngineOptions::full(), batch, GraphSize::Large)?;
        t.row(vec![
            fmt_count(batch as u64),
            fmt_count(s.io.read_ops),
            fmt_count(s.io.seeks),
            fmt_duration(wall.max(DeviceModel::by_kind(DeviceKind::Hdd).model_time(s.io))),
            fmt_duration(wall),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "Small blocks multiply per-op overhead; past ~64Ki edges per block the gains\n\
         flatten — the default.\n",
    );
    Ok(out)
}

fn pipeline_sweep(h: &Harness) -> Result<String> {
    let mut t = Table::new(
        "Ablation: Sio/Worker pipelining (GraphZ PR, large graph)",
        &["Pipeline threads", "Wall", "Iterations"],
    );
    for threads in [1usize, 2, 4] {
        let options = EngineOptions { pipeline_threads: threads, ..EngineOptions::full() };
        let (s, wall) = graphz_pr_run(h, options, 1 << 16, GraphSize::Large)?;
        t.row(vec![threads.to_string(), fmt_duration(wall), s.iterations.to_string()]);
    }
    let mut out = t.render();
    out.push_str("Results are identical at any thread count (tested); only wall time moves.\n");
    Ok(out)
}

fn fast_path(h: &Harness) -> Result<String> {
    let mut t = Table::new(
        "Ablation: in-memory fast path (GraphZ PR, small graph, single partition)",
        &["Fast path", "Bytes read", "Bytes written", "Wall"],
    );
    for fast in [false, true] {
        let options = EngineOptions { in_memory_fast_path: fast, ..EngineOptions::full() };
        let (s, wall) = graphz_pr_run(h, options, 1 << 16, GraphSize::Small)?;
        t.row(vec![
            if fast { "on" } else { "off" }.into(),
            fmt_count(s.io.bytes_read),
            fmt_count(s.io.bytes_written),
            fmt_duration(wall),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "The §VI-E future-work optimization: with one partition the vertex array stays\n\
         resident, eliminating the per-iteration reload/flush the paper's implementation\n\
         paid on in-memory graphs.\n",
    );
    Ok(out)
}

fn selective_scheduling(h: &Harness) -> Result<String> {
    let budget = default_budget();
    let grid = h.grid(GraphSize::Large, false, budget)?;
    let mut t = Table::new(
        "Ablation: GridGraph selective scheduling (SSSP, large graph)",
        &["Selective", "Bytes read", "Iterations", "Wall"],
    );
    for selective in [true, false] {
        let stats = IoStats::new();
        let mut cfg = GridEngineConfig::new(budget);
        cfg.selective_scheduling = selective;
        let mut engine = GridEngine::new(
            grid.clone(),
            graphz_algos::xstream::XsSssp { source: 0 },
            cfg,
            Arc::clone(&stats),
        )?;
        let run = engine.run(200)?;
        t.row(vec![
            if selective { "on" } else { "off" }.into(),
            fmt_count(run.io.bytes_read),
            run.iterations.to_string(),
            fmt_duration(run.wall),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "On this hub-connected R-MAT graph every chunk holds reachable vertices, so no\n\
         chunk quiesces before global convergence and skipping saves nothing — an honest\n\
         negative result. The mechanism pays off on graphs whose regions settle at\n\
         different times (multi-component case: unit test\n\
         `gridgraph::engine::tests::selective_scheduling_changes_io_not_results`)\n\
         (engine: {}).\n",
        EngineKind::GridGraph
    ));
    Ok(out)
}
