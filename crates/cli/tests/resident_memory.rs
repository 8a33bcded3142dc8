//! Pins what `graphz run` holds on a graph that fits: with the vertex array
//! and the adjacency both resident (`residency slab+adjacency`), the run
//! holds one copy of each — the slab the engine owns from the start to the
//! listing, and the adjacency read once — and little else. A second copy of
//! the slab (its bytes read back from the working file) or of the degree
//! run trips the bound. The graph is generated and converted by the
//! `graphz` binary in child processes, so only the runs count against this
//! process's `VmHWM`.
//!
//! Its own test binary, with one `#[test]`: the high-water mark is per
//! process, and another test running on a sibling thread would move it.

mod common;

use common::{build_graph, vm_hwm_kib};
use graphz_cli::{execute, parse};
use graphz_io::{IoStats, ScratchDir};
use graphz_storage::DosGraph;

/// Room for everything a resident run holds besides the slab and the
/// adjacency: the DOS index, the id-map reader and the bit set that checks
/// it during the listing, the `--top` heap, the adjacency read buffer and
/// allocator slack. In a debug build, as `cargo test` runs it, the peak sat
/// 8 to 60 KiB *under* overhead + slab + adjacency (four runs: the overhead
/// run's freed heap is reused). An engine that wrote its initial values to
/// disk and read them back into a second copy of the slab, and streamed the
/// adjacency beside a second degree run, peaked 2.4 MiB over it on the same
/// graph; 768 KiB lies between.
const ALLOWANCE_KIB: u64 = 768;

const SCALE: u32 = 17;
const EDGES: u64 = 1_000_000;

/// `graphz run pr` at `--budget-mib 8`, a budget the scale-17 graph's slab
/// and adjacency both fit; returns the output.
fn run_pr(dos: &str) -> String {
    let line = format!("run pr {dos} --budget-mib 8 --iterations 3 --top 10 --verbose");
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    execute(parse(&args).unwrap()).unwrap()
}

#[test]
fn a_resident_run_holds_one_slab_and_one_adjacency() {
    if vm_hwm_kib().is_none() {
        eprintln!("note: /proc/self/status has no VmHWM line; the memory bound is not checked");
        return;
    }
    let dir = ScratchDir::new("cli-resident-memory").unwrap();
    let tiny = build_graph(dir.path(), "tiny", 8, 1000);
    let big = build_graph(dir.path(), "big", SCALE, EDGES);

    // The fixed overhead: code, test harness, thread stacks and allocator
    // arenas, after the same command on a 256-vertex graph.
    run_pr(&tiny);
    let overhead = vm_hwm_kib().unwrap();

    let meta = DosGraph::open(big.as_ref(), IoStats::new()).unwrap().meta();
    // PageRank's (rank, votes) pair per vertex; a `u32` target per edge and
    // a `u32` degree per vertex.
    let slab_kib = meta.num_vertices * 8 / 1024;
    let adjacency_kib = (meta.num_edges * 4 + meta.num_vertices * 4) / 1024;
    let out = run_pr(&big);
    assert!(out.contains("residency slab+adjacency\n"), "{out}");
    assert!(out.contains(" read / 0 written / "), "{out}");
    let peak = vm_hwm_kib().unwrap();
    let ceiling = overhead + slab_kib + adjacency_kib + ALLOWANCE_KIB;
    eprintln!(
        "overhead {overhead} KiB, slab {slab_kib} KiB, adjacency {adjacency_kib} KiB; \
         run pr peak {peak} KiB, ceiling {ceiling} KiB"
    );
    assert!(
        peak <= ceiling,
        "run pr peaked at {peak} KiB: more than the {overhead} KiB overhead + {slab_kib} KiB \
         slab + {adjacency_kib} KiB adjacency + {ALLOWANCE_KIB} KiB allowance"
    );
}
