//! Compressed sparse rows — the conventional format DOS is measured against.
//!
//! CSR stores one offset per vertex, so the index is `8 * (V + 1)` bytes.
//! The paper's point (§III-A, Table XI) is that for billion-vertex graphs
//! this index itself outgrows memory, forcing two disk accesses per vertex
//! lookup; DOS replaces it with a per-unique-degree table. We implement both
//! so the comparison is reproducible: [`CsrGraph`] for in-memory analytics
//! (the "plain C" reference rows of Tables I/II) and [`CsrFiles`] for the
//! on-disk layout the GraphChi-class baseline indexes with.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_extsort::ExternalSorter;
use graphz_io::{IoStats, RecordReader, RecordWriter, ScratchDir};
use graphz_types::prelude::*;

use crate::edgelist::EdgeListFile;
use crate::meta::MetaFile;

/// In-memory CSR graph: `offsets[v]..offsets[v+1]` indexes `dsts`.
///
/// Offsets are held as `usize` — they index the in-memory `dsts` vector, so
/// anything that fits the vector fits the type; the one `u64 → usize`
/// narrowing happens fallibly at the disk boundary in [`CsrFiles::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    dsts: Vec<VertexId>,
}

impl CsrGraph {
    /// Build from an unordered edge slice. `num_vertices` must exceed every
    /// id that appears.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut offsets = vec![0usize; num_vertices + 1];
        for e in edges {
            assert!(
                cast::vertex_index(e.src) < num_vertices
                    && cast::vertex_index(e.dst) < num_vertices
            );
            offsets[cast::vertex_index(e.src) + 1] += 1;
        }
        for i in 0..num_vertices {
            // Prefix sum of per-vertex degree counts. Re-verified (PR 8):
            // the running total is monotone and ends at exactly
            // edges.len(), which a `&[Edge]` bounds to isize::MAX, so the
            // `+=` cannot wrap; `i + 1 <= num_vertices` indexes a vec of
            // len num_vertices + 1. The rule flags the RHS read adjacent
            // to `+=` and cannot see either bound.
            // audit:allow(unchecked-offset-arith)
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut dsts: Vec<VertexId> = vec![0; edges.len()];
        for e in edges {
            let at = cursor[cast::vertex_index(e.src)];
            dsts[at] = e.dst;
            cursor[cast::vertex_index(e.src)] += 1;
        }
        // Sort each adjacency list so iteration order is deterministic and
        // independent of input edge order.
        let mut g = CsrGraph { offsets, dsts };
        for v in 0..num_vertices {
            let (a, b) = (g.offsets[v], g.offsets[v + 1]);
            g.dsts[a..b].sort_unstable();
        }
        g
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    #[inline]
    fn range(&self, v: VertexId) -> (usize, usize) {
        (self.offsets[cast::vertex_index(v)], self.offsets[cast::vertex_index(v) + 1])
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        let (a, b) = self.range(v);
        // Out-degrees are bounded by the u32 id space (VertexId = u32), so
        // a list longer than u32::MAX means the graph itself is malformed.
        cast::usize_to_u32(b - a, "csr out-degree").expect("out-degree bounded by id space")
    }

    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = self.range(v);
        &self.dsts[a..b]
    }

    /// Iterate `(src, dst)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            let src = cast::usize_to_u32(v, "csr vertex id").expect("vertex ids fit u32");
            self.neighbors(src).iter().map(move |&d| Edge::new(src, d))
        })
    }

    /// Bytes the CSR vertex index (the offsets array) occupies on disk
    /// (8 bytes per entry).
    pub fn index_bytes(&self) -> u64 {
        cast::len_u64(self.offsets.len()).saturating_mul(8)
    }
}

/// On-disk CSR layout: `offsets.bin` (u64 per vertex + 1) and `edges.bin`
/// (u32 destination per edge, grouped by source).
#[derive(Debug, Clone)]
pub struct CsrFiles {
    dir: PathBuf,
    meta: GraphMeta,
}

impl CsrFiles {
    pub fn offsets_path(&self) -> PathBuf {
        self.dir.join("offsets.bin")
    }

    pub fn edges_path(&self) -> PathBuf {
        self.dir.join("edges.bin")
    }

    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Size of the on-disk vertex index in bytes: `8 * (V + 1)`.
    ///
    /// This is the "GraphChi" row of Table XI.
    pub fn index_bytes(&self) -> u64 {
        (self.meta.num_vertices + 1) * 8
    }

    /// Convert an edge list into on-disk CSR under `dir`.
    ///
    /// Uses an external sort by `(src, dst)` followed by a single sequential
    /// pass, so conversion runs within `budget` regardless of graph size.
    pub fn convert(
        input: &EdgeListFile,
        dir: &Path,
        stats: Arc<IoStats>,
        budget: MemoryBudget,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir).ctx("create-dir", dir)?;
        let scratch = ScratchDir::new("csr-convert")?;
        let sorted = scratch.file("by-src.bin");
        ExternalSorter::new(|e: &Edge| (e.src, e.dst), budget, Arc::clone(&stats)).sort_file(
            input.path(),
            &sorted,
            &scratch,
        )?;

        let meta = input.meta();
        // Baseline CSR converter (GraphChi-style reference rows): it has no
        // FaultSurface in its API and sits outside the ingest fault
        // boundary, so its writers are deliberately raw (DESIGN.md §6j).
        let offsets_path = dir.join("offsets.bin");
        let mut offsets =
            // ipa:allow(fault-surface-reach)
            RecordWriter::<u64>::create(&offsets_path, Arc::clone(&stats)).ctx("create", &offsets_path)?;
        let edges_path = dir.join("edges.bin");
        // ipa:allow(fault-surface-reach)
        let mut edges = RecordWriter::<VertexId>::create(&edges_path, Arc::clone(&stats))
            .ctx("create", &edges_path)?;
        let mut next_vertex: u64 = 0;
        let mut written_edges: u64 = 0;
        for e in RecordReader::<Edge>::open(&sorted, Arc::clone(&stats))? {
            let e = e?;
            while next_vertex <= cast::widen_u32(e.src) {
                offsets.push(&written_edges)?;
                next_vertex += 1;
            }
            edges.push(&e.dst)?;
            written_edges += 1;
        }
        while next_vertex <= meta.num_vertices {
            offsets.push(&written_edges)?;
            next_vertex += 1;
        }
        offsets.finish()?;
        edges.finish()?;

        let mut mf = MetaFile::new();
        mf.set("format", "csr").set_graph_meta(&meta);
        mf.save(&dir.join("meta.txt"))?;
        Ok(CsrFiles { dir: dir.to_path_buf(), meta })
    }

    pub fn open(dir: &Path) -> Result<Self> {
        let mf = MetaFile::load(&dir.join("meta.txt"), &IoStats::new())?;
        if mf.get("format") != Some("csr") {
            return Err(GraphError::Corrupt(format!(
                "{} is not a CSR directory (format={:?})",
                dir.display(),
                mf.get("format")
            )));
        }
        Ok(CsrFiles { dir: dir.to_path_buf(), meta: mf.graph_meta()? })
    }

    /// Load the whole graph into memory (reference implementations, tests).
    pub fn load(&self, stats: Arc<IoStats>) -> Result<CsrGraph> {
        let raw_offsets: Vec<u64> =
            RecordReader::<u64>::open(&self.offsets_path(), Arc::clone(&stats))?.read_all()?;
        let dsts: Vec<VertexId> =
            RecordReader::<VertexId>::open(&self.edges_path(), stats)?.read_all()?;
        if cast::len_u64(raw_offsets.len()) != self.meta.num_vertices + 1 {
            return Err(GraphError::Corrupt(format!(
                "offsets.bin has {} entries, expected {}",
                raw_offsets.len(),
                self.meta.num_vertices + 1
            )));
        }
        if *raw_offsets.last().unwrap_or(&0) != cast::len_u64(dsts.len()) {
            return Err(GraphError::Corrupt(
                "offsets.bin last entry disagrees with edges.bin length".into(),
            ));
        }
        // The one narrowing point: stored u64 offsets index the in-memory
        // dsts vector, so each must fit this platform's usize.
        let mut offsets = Vec::with_capacity(raw_offsets.len());
        for o in raw_offsets {
            offsets.push(cast::to_usize(o, "csr offset")?);
        }
        Ok(CsrGraph { offsets, dsts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn sample_edges() -> Vec<Edge> {
        vec![
            Edge::new(2, 0),
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(0, 3),
        ]
    }

    #[test]
    fn in_memory_csr_basics() {
        let g = CsrGraph::from_edges(4, &sample_edges());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.index_bytes(), 40);
    }

    #[test]
    fn csr_neighbors_sorted_regardless_of_input_order() {
        let mut edges = sample_edges();
        edges.reverse();
        let g1 = CsrGraph::from_edges(4, &sample_edges());
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g1, g2);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = CsrGraph::from_edges(4, &sample_edges());
        let all: Vec<Edge> = g.edges().collect();
        assert_eq!(all.len(), 5);
        let mut expected = sample_edges();
        expected.sort();
        let mut got = all;
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn on_disk_conversion_matches_in_memory() {
        let dir = ScratchDir::new("csr").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample_edges()).unwrap();
        let csr = CsrFiles::convert(&el, &dir.path().join("csr"), stats(), MemoryBudget::from_kib(64))
            .unwrap();
        assert_eq!(csr.index_bytes(), 40);
        let loaded = csr.load(stats()).unwrap();
        assert_eq!(loaded, CsrGraph::from_edges(4, &sample_edges()));
        // Reopen from disk.
        let reopened = CsrFiles::open(csr.dir()).unwrap();
        assert_eq!(reopened.meta(), csr.meta());
    }

    #[test]
    fn conversion_handles_trailing_isolated_vertices() {
        let dir = ScratchDir::new("csr-iso").unwrap();
        // Vertex 9 exists only as a destination.
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), vec![Edge::new(0, 9)]).unwrap();
        let csr = CsrFiles::convert(&el, &dir.path().join("csr"), stats(), MemoryBudget::from_kib(4))
            .unwrap();
        let g = csr.load(stats()).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(9), 0);
        assert_eq!(g.neighbors(0), &[9]);
    }

    #[test]
    fn load_detects_truncated_offsets() {
        let dir = ScratchDir::new("csr-trunc").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample_edges()).unwrap();
        let csr = CsrFiles::convert(&el, &dir.path().join("csr"), stats(), MemoryBudget::from_kib(4))
            .unwrap();
        // Corrupt: drop the last 8 bytes of offsets.bin.
        let p = csr.offsets_path();
        let len = std::fs::metadata(&p).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 8).unwrap();
        assert!(matches!(csr.load(stats()), Err(GraphError::Corrupt(_))));
    }
}
