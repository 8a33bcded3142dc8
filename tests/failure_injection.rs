//! Failure-path integration tests: engines must fail cleanly — with typed
//! errors, not corruption or hangs — when storage misbehaves or budgets are
//! impossible.

use std::io::Read;
use std::sync::Arc;

use graphz_algos::runner;
use graphz_algos::{AlgoParams, Algorithm};
use graphz_gen::rmat_edges;
use graphz_io::{IoStats, RecordReader, ScratchDir};
use graphz_storage::{DosGraph, EdgeListFile};
use graphz_types::{Edge, GraphError, MemoryBudget};

fn small_graph(dir: &ScratchDir, stats: &Arc<IoStats>) -> EdgeListFile {
    let edges = rmat_edges(8, 1_000, Default::default(), 77);
    EdgeListFile::create(&dir.file("g.bin"), Arc::clone(stats), edges).unwrap()
}

#[test]
fn graphchi_refuses_index_larger_than_memory() {
    // The paper's §VI-C observation, as a typed error: "GraphChi does not
    // work for such a large graph ... because GraphChi's vertex index does
    // not fit into memory."
    let dir = ScratchDir::new("fail-chi").unwrap();
    let stats = IoStats::new();
    let el = small_graph(&dir, &stats);
    let budget = MemoryBudget(256); // index allowance: 64 bytes << 8*(V+1)
    let shards =
        runner::prepare_chi(&el, &dir.path().join("chi"), budget, Arc::clone(&stats)).unwrap();
    let err = runner::run_graphchi(
        &shards,
        &AlgoParams::new(Algorithm::PageRank),
        budget,
        Arc::clone(&stats),
    )
    .unwrap_err();
    assert!(matches!(err, GraphError::IndexExceedsMemory { .. }), "{err:?}");

    // GraphZ and X-Stream handle the same graph at the same budget.
    let dos = runner::prepare_dos(
        &el,
        &dir.path().join("dos"),
        MemoryBudget::from_mib(1),
        Arc::clone(&stats),
    )
    .unwrap();
    let gz = runner::run_graphz(
        &dos,
        &AlgoParams::new(Algorithm::PageRank).with_max_iterations(100),
        budget,
        Arc::clone(&stats),
    )
    .unwrap();
    assert!(gz.converged, "GraphZ should converge where GraphChi cannot even start");
}

#[test]
fn truncated_adjacency_file_is_reported_as_corruption() {
    let dir = ScratchDir::new("fail-trunc").unwrap();
    let stats = IoStats::new();
    let el = small_graph(&dir, &stats);
    let dos = runner::prepare_dos(
        &el,
        &dir.path().join("dos"),
        MemoryBudget::from_mib(1),
        Arc::clone(&stats),
    )
    .unwrap();
    // Chop the tail off edges.bin.
    let edges_path = dos.edges_path();
    let len = std::fs::metadata(&edges_path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&edges_path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    let err = runner::run_graphz(
        &dos,
        &AlgoParams::new(Algorithm::PageRank).with_max_iterations(5),
        MemoryBudget::from_mib(1),
        Arc::clone(&stats),
    )
    .unwrap_err();
    assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
}

#[test]
fn clobbered_meta_fails_to_open() {
    let dir = ScratchDir::new("fail-meta").unwrap();
    let stats = IoStats::new();
    let el = small_graph(&dir, &stats);
    let dos_dir = dir.path().join("dos");
    runner::prepare_dos(&el, &dos_dir, MemoryBudget::from_mib(1), Arc::clone(&stats)).unwrap();
    std::fs::write(dos_dir.join("meta.txt"), "format=dos\nnum_vertices=notanumber\n").unwrap();
    let err = DosGraph::open(&dos_dir, Arc::clone(&stats)).unwrap_err();
    assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
}

#[test]
fn source_out_of_range_is_an_algorithm_error() {
    let dir = ScratchDir::new("fail-src").unwrap();
    let stats = IoStats::new();
    let el = small_graph(&dir, &stats);
    let dos = runner::prepare_dos(
        &el,
        &dir.path().join("dos"),
        MemoryBudget::from_mib(1),
        Arc::clone(&stats),
    )
    .unwrap();
    let params = AlgoParams::new(Algorithm::Bfs).with_source(10_000_000);
    let err =
        runner::run_graphz(&dos, &params, MemoryBudget::from_mib(1), Arc::clone(&stats))
            .unwrap_err();
    assert!(matches!(err, GraphError::NotFound(_)), "{err:?}");
}

/// A reader that fails with an IO error once `left` bytes have passed.
struct FailAfter<R> {
    inner: R,
    left: usize,
}

impl<R: Read> Read for FailAfter<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other("injected fault"));
        }
        let want = buf.len().min(self.left);
        let n = self.inner.read(&mut buf[..want])?;
        self.left -= n;
        Ok(n)
    }
}

#[test]
fn io_faults_surface_instead_of_corrupting() {
    // Drive a record stream through a reader that fails mid-stream and
    // confirm the error propagates as an IO error.
    let dir = ScratchDir::new("fail-inject").unwrap();
    let stats = IoStats::new();
    let edges: Vec<Edge> = (0..100).map(|i| Edge::new(i, i + 1)).collect();
    graphz_io::record::write_records(&dir.file("edges.bin"), Arc::clone(&stats), &edges).unwrap();
    let raw = std::fs::File::open(dir.file("edges.bin")).unwrap();
    let faulty = FailAfter { inner: raw, left: 100 };
    let mut reader = RecordReader::<Edge, _>::from_reader(std::io::BufReader::new(faulty));
    let mut ok = 0;
    let err = loop {
        match reader.next_record() {
            Ok(Some(_)) => ok += 1,
            Ok(None) => panic!("stream should fail before EOF"),
            Err(e) => break e,
        }
    };
    assert!(ok <= 13, "only ~12 records fit in 100 bytes, got {ok}");
    assert!(matches!(err, GraphError::Io(_)), "{err:?}");
}

#[test]
fn empty_edge_file_round_trips_through_every_converter() {
    let dir = ScratchDir::new("fail-empty").unwrap();
    let stats = IoStats::new();
    let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), vec![]).unwrap();
    assert_eq!(el.meta().num_vertices, 0);
    let budget = MemoryBudget::from_mib(1);
    let dos =
        runner::prepare_dos(&el, &dir.path().join("dos"), budget, Arc::clone(&stats)).unwrap();
    assert_eq!(dos.meta().num_edges, 0);
    let csr =
        runner::prepare_csr(&el, &dir.path().join("csr"), budget, Arc::clone(&stats)).unwrap();
    assert_eq!(csr.meta().num_edges, 0);
    let chi =
        runner::prepare_chi(&el, &dir.path().join("chi"), budget, Arc::clone(&stats)).unwrap();
    assert_eq!(chi.meta().num_edges, 0);
    let xs = runner::prepare_xs(&el, &dir.path().join("xs"), budget, Arc::clone(&stats)).unwrap();
    assert_eq!(xs.meta().num_edges, 0);
    // And the engines run (trivially) on the empty graph.
    let out = runner::run_graphz(
        &dos,
        &AlgoParams::new(Algorithm::PageRank).with_max_iterations(3),
        budget,
        Arc::clone(&stats),
    )
    .unwrap();
    assert!(out.converged);
    assert_eq!(out.values.len(), 0);
}
