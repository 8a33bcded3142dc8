//! Graph stores: where the engine gets its adjacency data and vertex index.
//!
//! [`DosStore`] is the paper's design — the per-unique-degree index always
//! fits in memory. [`DenseStore`] is the Fig. 7 "w/o DOS" ablation: the
//! original vertex order with a conventional dense (CSR) index that is kept
//! in memory only if it fits the budgeted index share, and otherwise is
//! re-read from disk for every partition — the extra IO the paper's §III-A
//! attributes to index-larger-than-memory operation.

use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, TrackedFile};
use graphz_storage::{CsrFiles, DosGraph};
use graphz_types::{GraphError, IoCtx, MemoryBudget, Result, VertexId};

/// Source of adjacency data and vertex-index lookups for the engine.
pub trait GraphStore: Send + Sync {
    fn num_vertices(&self) -> u64;
    fn num_edges(&self) -> u64;
    /// File of `u32` destination ids grouped by source in storage order.
    fn edges_path(&self) -> PathBuf;
    /// Optional file of per-edge `f32` weights parallel to the edge file.
    fn weights_path(&self) -> Option<PathBuf> {
        None
    }
    /// Bytes of vertex index this store must consult (Table XI).
    fn index_bytes(&self) -> u64;
    /// Whether the index is resident (DOS always; dense only if it fits).
    fn index_resident(&self) -> bool;

    /// Degrees of storage ids `a..b` and the edge-record offset of `a`.
    /// Charged IO if the index is not resident.
    fn partition_index(&self, a: VertexId, b: VertexId, stats: &Arc<IoStats>)
        -> Result<(u64, Vec<u32>)>;

    /// Translate an original id to this store's storage id.
    fn to_storage_id(&self, original: VertexId, stats: &Arc<IoStats>) -> Result<VertexId>;

    /// The original id of every storage id, streamed in storage order with
    /// one read buffer: `new2old.bin` for DOS, the identity for a dense
    /// store. A damaged map is a [`GraphError::Corrupt`] naming its file.
    fn original_id_stream(&self, stats: &Arc<IoStats>) -> Result<OriginalIds>;

    /// The original id of every storage id (index = storage id), collected
    /// from [`original_id_stream`](Self::original_id_stream): 4 bytes per
    /// vertex.
    fn original_ids(&self, stats: &Arc<IoStats>) -> Result<Vec<VertexId>> {
        self.original_id_stream(stats)?.collect()
    }
}

/// A store's storage→original id map as a stream of `Result<VertexId>`, one
/// per storage id in order (see [`GraphStore::original_id_stream`]).
pub struct OriginalIds {
    /// The map's file and its reader; `None` is the identity map.
    file: Option<(PathBuf, RecordReader<u32>)>,
    /// One bit per original id the file has mapped so far (V bits, empty
    /// for the identity map).
    seen: Vec<u64>,
    next: u64,
    num_vertices: u64,
}

impl OriginalIds {
    /// Storage id `s` is original id `s`.
    pub fn identity(num_vertices: u64) -> Self {
        OriginalIds { file: None, seen: Vec::new(), next: 0, num_vertices }
    }

    /// Stream the `u32` map at `path`. It must be a permutation of
    /// `0..num_vertices`: a wrong length fails here, and an id out of range
    /// or mapped a second time fails where the stream reaches it, each as
    /// [`GraphError::Corrupt`] naming `path`.
    pub fn from_file(path: PathBuf, num_vertices: u64, stats: &Arc<IoStats>) -> Result<Self> {
        let len = std::fs::metadata(&path).ctx("stat", &path)?.len();
        if Some(len) != num_vertices.checked_mul(4) {
            return Err(GraphError::Corrupt(format!(
                "{}: {len} bytes, expected 4 per vertex for {num_vertices} vertices",
                path.display()
            )));
        }
        let reader = RecordReader::open(&path, Arc::clone(stats)).ctx("open", &path)?;
        let seen = vec![0u64; num_vertices.div_ceil(64) as usize];
        Ok(OriginalIds { file: Some((path, reader)), seen, next: 0, num_vertices })
    }

    /// Record that original id `id` was mapped; `false` if it already was
    /// (or lies past the bit set).
    fn first_sight(&mut self, id: u32) -> bool {
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        match self.seen.get_mut(word) {
            Some(w) if *w & bit == 0 => {
                *w |= bit;
                true
            }
            _ => false,
        }
    }
}

impl Iterator for OriginalIds {
    type Item = Result<VertexId>;

    fn next(&mut self) -> Option<Result<VertexId>> {
        if self.next >= self.num_vertices {
            return None;
        }
        let storage = self.next;
        self.next += 1;
        let record = match &mut self.file {
            None => return Some(Ok(storage as VertexId)),
            Some((_, reader)) => reader.next_record(),
        };
        let n = self.num_vertices;
        let problem = match record {
            Ok(Some(id)) if u64::from(id) >= n => {
                format!("storage id {storage} maps to original id {id}, past {n} vertices")
            }
            Ok(Some(id)) if self.first_sight(id) => return Some(Ok(id)),
            Ok(Some(id)) => {
                format!("storage id {storage} maps to original id {id}, as an earlier one does")
            }
            Ok(None) => format!("ends at storage id {storage} of {n}"),
            Err(e) => return Some(Err(e)),
        };
        let path = self.file.as_ref().map(|(path, _)| path.display().to_string());
        Some(Err(GraphError::Corrupt(format!("{}: {problem}", path.unwrap_or_default()))))
    }
}

/// Degree-ordered storage (the GraphZ configuration).
pub struct DosStore {
    graph: DosGraph,
}

impl DosStore {
    pub fn new(graph: DosGraph) -> Self {
        DosStore { graph }
    }

    pub fn graph(&self) -> &DosGraph {
        &self.graph
    }
}

impl GraphStore for DosStore {
    fn num_vertices(&self) -> u64 {
        self.graph.meta().num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.graph.meta().num_edges
    }

    fn edges_path(&self) -> PathBuf {
        self.graph.edges_path()
    }

    fn weights_path(&self) -> Option<PathBuf> {
        self.graph.weights_path()
    }

    fn index_bytes(&self) -> u64 {
        self.graph.index().index_bytes()
    }

    fn index_resident(&self) -> bool {
        true
    }

    fn partition_index(
        &self,
        a: VertexId,
        b: VertexId,
        _stats: &Arc<IoStats>,
    ) -> Result<(u64, Vec<u32>)> {
        let idx = self.graph.index();
        let start = if a == b { 0 } else { idx.offset_of(a)? };
        Ok((start, idx.degrees(a, b)?))
    }

    fn to_storage_id(&self, original: VertexId, stats: &Arc<IoStats>) -> Result<VertexId> {
        if original as u64 >= self.num_vertices() {
            return Err(GraphError::NotFound(format!("vertex {original} out of range")));
        }
        let old2new = self.graph.old2new_path();
        let mut f = TrackedFile::open(&old2new, Arc::clone(stats)).ctx("open", &old2new)?;
        f.seek(SeekFrom::Start(original as u64 * 4))?;
        let mut buf = [0u8; 4];
        f.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn original_id_stream(&self, stats: &Arc<IoStats>) -> Result<OriginalIds> {
        OriginalIds::from_file(self.graph.new2old_path(), self.num_vertices(), stats)
    }
}

/// Conventional dense-indexed storage over the original vertex order
/// (the "GraphZ w/o DOS" ablation).
pub struct DenseStore {
    csr: CsrFiles,
    /// Offsets array when it fits the budgeted index share.
    resident_offsets: Option<Vec<u64>>,
}

impl DenseStore {
    /// Fraction of the budget a dense index may occupy before it is forced
    /// out-of-core. Mirrors the paper's framing that the index competes with
    /// vertex data for memory.
    pub const INDEX_BUDGET_FRACTION: f64 = 0.25;

    pub fn new(csr: CsrFiles, budget: MemoryBudget, stats: Arc<IoStats>) -> Result<Self> {
        let index_bytes = csr.index_bytes();
        let allowance = (budget.bytes() as f64 * Self::INDEX_BUDGET_FRACTION) as u64;
        let resident_offsets = if index_bytes <= allowance {
            Some(
                graphz_io::record::read_records::<u64>(&csr.offsets_path(), stats)?,
            )
        } else {
            None
        };
        Ok(DenseStore { csr, resident_offsets })
    }

    pub fn csr(&self) -> &CsrFiles {
        &self.csr
    }
}

impl GraphStore for DenseStore {
    fn num_vertices(&self) -> u64 {
        self.csr.meta().num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.csr.meta().num_edges
    }

    fn edges_path(&self) -> PathBuf {
        self.csr.edges_path()
    }

    fn index_bytes(&self) -> u64 {
        self.csr.index_bytes()
    }

    fn index_resident(&self) -> bool {
        self.resident_offsets.is_some()
    }

    fn partition_index(
        &self,
        a: VertexId,
        b: VertexId,
        stats: &Arc<IoStats>,
    ) -> Result<(u64, Vec<u32>)> {
        if a == b {
            return Ok((0, Vec::new()));
        }
        let offsets: Vec<u64> = match &self.resident_offsets {
            Some(all) => all[a as usize..=b as usize].to_vec(),
            None => {
                // Index larger than memory: one extra disk access per
                // partition to fetch the offset slice (paper §III-A: "an
                // index larger than memory requires two disk accesses per
                // vertex access").
                let offsets = self.csr.offsets_path();
                let mut f =
                    TrackedFile::open(&offsets, Arc::clone(stats)).ctx("open", &offsets)?;
                f.seek(SeekFrom::Start(a as u64 * 8))?;
                let n = (b - a + 1) as usize;
                let mut buf = vec![0u8; n * 8];
                f.read_exact(&mut buf)?;
                graphz_types::codec::decode_slice(&buf)
            }
        };
        let start = offsets[0];
        let degrees = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        Ok((start, degrees))
    }

    fn to_storage_id(&self, original: VertexId, _stats: &Arc<IoStats>) -> Result<VertexId> {
        if original as u64 >= self.num_vertices() {
            return Err(GraphError::NotFound(format!("vertex {original} out of range")));
        }
        Ok(original)
    }

    fn original_id_stream(&self, _stats: &Arc<IoStats>) -> Result<OriginalIds> {
        Ok(OriginalIds::identity(self.num_vertices()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;
    use graphz_storage::{DosConverter, EdgeListFile};
    use graphz_types::Edge;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn sample() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(1, 0),
            Edge::new(2, 0),
            Edge::new(2, 3),
        ]
    }

    fn make_stores(dir: &ScratchDir, budget: MemoryBudget) -> (DosStore, DenseStore) {
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), stats())
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let csr =
            CsrFiles::convert(&el, &dir.path().join("csr"), stats(), MemoryBudget::from_kib(64))
                .unwrap();
        (DosStore::new(dos), DenseStore::new(csr, budget, stats()).unwrap())
    }

    #[test]
    fn dos_store_partition_index_matches_index() {
        let dir = ScratchDir::new("store-dos").unwrap();
        let (dos, _) = make_stores(&dir, MemoryBudget::from_mib(1));
        let (start, degrees) = dos.partition_index(0, 4, &stats()).unwrap();
        assert_eq!(start, 0);
        // Degree order: old 0 (deg 3), old 2 (deg 2), old 1 (deg 1), zeros.
        assert_eq!(degrees, vec![3, 2, 1, 0]);
        let (start2, degrees2) = dos.partition_index(1, 3, &stats()).unwrap();
        assert_eq!(start2, 3);
        assert_eq!(degrees2, vec![2, 1]);
        assert!(dos.index_resident());
    }

    #[test]
    fn dos_store_id_translation_roundtrip() {
        let dir = ScratchDir::new("store-ids").unwrap();
        let (dos, _) = make_stores(&dir, MemoryBudget::from_mib(1));
        let originals = dos.original_ids(&stats()).unwrap();
        for (storage, &orig) in originals.iter().enumerate() {
            assert_eq!(dos.to_storage_id(orig, &stats()).unwrap() as usize, storage);
        }
        assert!(dos.to_storage_id(100, &stats()).is_err());
    }

    #[test]
    fn a_damaged_id_map_is_corrupt_naming_new2old() {
        let dir = ScratchDir::new("store-ids-damaged").unwrap();
        let (dos, dense) = make_stores(&dir, MemoryBudget::from_mib(1));
        let path = dos.graph().new2old_path();
        let good = std::fs::read(&path).unwrap();
        let corrupt = |err: GraphError| {
            assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
            assert!(err.to_string().contains("new2old.bin"), "{err}");
        };
        // One id short: the length check fails before any id is read.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        corrupt(dos.original_id_stream(&stats()).err().unwrap());
        corrupt(dos.original_ids(&stats()).unwrap_err());
        // An id past V: the stream yields the ids before it, then fails.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut ids = dos.original_id_stream(&stats()).unwrap();
        assert!(ids.next().unwrap().is_ok() && ids.next().unwrap().is_ok());
        corrupt(ids.next().unwrap().unwrap_err());
        corrupt(dos.original_ids(&stats()).unwrap_err());
        // Storage id 2 mapped to storage id 0's original id: every id is in
        // range and the length is right, but the map is no permutation.
        let mut twice = good.clone();
        twice.copy_within(0..4, 8);
        std::fs::write(&path, &twice).unwrap();
        let mut ids = dos.original_id_stream(&stats()).unwrap();
        assert!(ids.next().unwrap().is_ok() && ids.next().unwrap().is_ok());
        let err = ids.next().unwrap().unwrap_err();
        assert!(err.to_string().contains(&format!("original id {}", twice[0])), "{err}");
        corrupt(err);
        corrupt(dos.original_ids(&stats()).unwrap_err());
        // The identity map of a dense store has no file to damage.
        let ids: Vec<VertexId> = dense.original_id_stream(&stats()).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dense_store_resident_when_budget_allows() {
        let dir = ScratchDir::new("store-dense").unwrap();
        let (_, dense) = make_stores(&dir, MemoryBudget::from_mib(1));
        assert!(dense.index_resident());
        let (start, degrees) = dense.partition_index(0, 4, &stats()).unwrap();
        assert_eq!(start, 0);
        assert_eq!(degrees, vec![3, 1, 2, 0]); // original order
        assert_eq!(dense.to_storage_id(2, &stats()).unwrap(), 2);
        assert_eq!(dense.original_ids(&stats()).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dense_store_spills_index_when_too_big() {
        let dir = ScratchDir::new("store-dense-ooc").unwrap();
        // Budget of 64 bytes: index (5 * 8 = 40 bytes) > 25% share (16).
        let (_, dense) = make_stores(&dir, MemoryBudget(64));
        assert!(!dense.index_resident());
        let s = stats();
        let before = s.snapshot();
        let (start, degrees) = dense.partition_index(1, 3, &s).unwrap();
        assert_eq!(start, 3);
        assert_eq!(degrees, vec![1, 2]);
        let delta = s.snapshot() - before;
        assert!(delta.read_ops >= 1, "out-of-core index must hit disk");
    }

    #[test]
    fn empty_partition_index() {
        let dir = ScratchDir::new("store-empty").unwrap();
        let (dos, dense) = make_stores(&dir, MemoryBudget::from_mib(1));
        assert_eq!(dos.partition_index(2, 2, &stats()).unwrap().1.len(), 0);
        assert_eq!(dense.partition_index(2, 2, &stats()).unwrap().1.len(), 0);
    }
}
