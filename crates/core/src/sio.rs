//! Sio + Dispatcher (paper §V-A): sequential block IO turned into adjacency
//! batches.
//!
//! Sio reads raw blocks of the adjacency file in file order — "vertices
//! within a partition are always read in order, taking advantage of
//! system-level prefetching" — and the Dispatcher slices each block into
//! per-vertex adjacency lists using the (memory-resident) degree run for the
//! partition. With `pipeline_threads > 1` the two stages run on their own
//! thread connected to the Worker by a bounded queue, overlapping IO with
//! computation exactly as the paper's Fig. 4 pipeline does; results are
//! bit-identical either way.
//!
//! A stream opened with an [`ActiveSet`] reads only the blocks that hold a
//! vertex wanting an update. Every other block becomes a [`Gap`]: the
//! reader seeks past its edges — the offset is the prefix sum of the degree
//! run, DOS Eq. 1 — and hands the consumer the block's degrees and first
//! edge instead, so a vertex woken inside the gap after the set was taken
//! can still be read through a [`GapReader`].

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use graphz_io::{IoStats, TrackedFile};
use graphz_types::{GraphError, IoCtx, Result, VertexId};

/// A parsed block: consecutive vertices with their concatenated adjacency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjBatch {
    /// Storage id of the first vertex in the batch.
    pub first_vertex: VertexId,
    /// Out-degrees of the batch's vertices.
    pub degrees: Vec<u32>,
    /// Concatenated out-neighbor lists (`degrees` gives the split points).
    pub edges: Vec<VertexId>,
    /// Per-edge weights parallel to `edges`; empty when the graph store
    /// carries no weights.
    pub weights: Vec<f32>,
}

impl AdjBatch {
    /// Iterate `(vertex, neighbors, weights)`; the weights slice is empty
    /// for unweighted graphs.
    pub fn vertices_weighted(&self) -> impl Iterator<Item = (VertexId, &[VertexId], &[f32])> {
        let weighted = !self.weights.is_empty();
        let mut cursor = 0usize;
        self.degrees.iter().enumerate().map(move |(i, &d)| {
            // ipa:allow(panic-freedom) — batch invariant: edges.len() == sum(degrees)
            let edges = &self.edges[cursor..cursor + d as usize];
            let ws: &[f32] =
                // ipa:allow(panic-freedom) — weights.len() == edges.len() when weighted
                if weighted { &self.weights[cursor..cursor + d as usize] } else { &[] };
            cursor += d as usize;
            (self.first_vertex + i as VertexId, edges, ws)
        })
    }
}

/// One bit per vertex of a partition (bit `i` is the partition's `i`-th
/// vertex): set when the vertex wanted an update as the pass began.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over `len` vertices.
    pub fn new(len: usize) -> Self {
        ActiveSet { words: vec![0; len.div_ceil(64)] }
    }

    /// Mark vertex `i`; an index past the set's length is ignored.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    /// Whether any vertex of `lo..hi` is marked. A range reaching past the
    /// set counts as active, so a malformed query reads rather than skips.
    pub fn any_in(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let Some(words) = self.words.get(first..=last) else { return true };
        let (head, tail) = (u64::MAX << (lo % 64), u64::MAX >> (63 - (hi - 1) % 64));
        words.iter().enumerate().any(|(k, &w)| {
            let mut mask = u64::MAX;
            if k == 0 {
                mask &= head;
            }
            if k == last - first {
                mask &= tail;
            }
            w & mask != 0
        })
    }

    /// Whether no vertex is marked.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A block the stream seeked past: `batch` holds its first vertex and
/// degrees but no edges, and `start_edge` is the record index of its first
/// edge in the adjacency (and weight) file.
#[derive(Debug)]
pub struct Gap {
    pub batch: AdjBatch,
    pub start_edge: u64,
    /// Edge records the block spans.
    pub edges: u64,
}

impl Gap {
    /// The block's vertex range `[lo, hi)`.
    pub fn range(&self) -> (VertexId, VertexId) {
        let lo = self.batch.first_vertex;
        (lo, lo + self.batch.degrees.len() as VertexId)
    }
}

/// What a stream yields per Dispatcher block.
#[derive(Debug)]
pub enum Block {
    /// The block was read.
    Batch(AdjBatch),
    /// The block's vertices were all quiet, so it was not read.
    Gap(Gap),
}

/// Reads gaps back synchronously, through its own file handles, when the
/// consumer finds that a vertex inside one woke after the stream passed it.
pub struct GapReader {
    file: TrackedFile,
    weights_file: Option<TrackedFile>,
    read_buf: Vec<u8>,
}

impl GapReader {
    pub fn open(
        edges_path: &Path,
        weights_path: Option<&Path>,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let file = TrackedFile::open(edges_path, Arc::clone(&stats)).ctx("open", edges_path)?;
        let weights_file = match weights_path {
            Some(p) => Some(TrackedFile::open(p, stats).ctx("open", p)?),
            None => None,
        };
        Ok(GapReader { file, weights_file, read_buf: Vec::new() })
    }

    /// Read the gap's edges (and weights) into its batch.
    pub fn read(&mut self, gap: Gap) -> Result<AdjBatch> {
        let Gap { mut batch, start_edge, edges } = gap;
        self.file.seek(SeekFrom::Start(start_edge * 4))?;
        if let Some(wf) = &mut self.weights_file {
            wf.seek(SeekFrom::Start(start_edge * 4))?;
        }
        read_block(
            &mut self.file,
            self.weights_file.as_mut(),
            &mut self.read_buf,
            &mut batch,
            edges as usize,
        )?;
        Ok(batch)
    }
}

/// Sio: read `edge_count` edge records (and weights) at the files' current
/// positions into `batch`, through the reusable `read_buf`.
fn read_block(
    file: &mut TrackedFile,
    weights_file: Option<&mut TrackedFile>,
    read_buf: &mut Vec<u8>,
    batch: &mut AdjBatch,
    edge_count: usize,
) -> Result<()> {
    let first_vertex = batch.first_vertex;
    read_buf.resize(edge_count * 4, 0);
    file.read_exact(read_buf).map_err(|e| {
        // ipa:allow(hot-path-alloc) — error arm: formats once, and the failed read ends the pass
        GraphError::Corrupt(format!("adjacency file ended early at vertex {first_vertex}: {e}"))
    })?;
    graphz_types::codec::decode_into(read_buf, &mut batch.edges);
    match weights_file {
        Some(wf) => {
            wf.read_exact(read_buf).map_err(|e| {
                // ipa:allow(hot-path-alloc) — error arm: formats once, and the failed read ends the pass
                GraphError::Corrupt(format!(
                    "weight file ended early at vertex {first_vertex}: {e}"
                ))
            })?;
            graphz_types::codec::decode_into(read_buf, &mut batch.weights);
        }
        None => batch.weights.clear(),
    }
    Ok(())
}

/// How many edges a batch targets; 64 Ki edges = 256 KiB per block, a few
/// blocks in flight keeps the pipeline fed without denting the budget.
pub const DEFAULT_BATCH_EDGES: usize = 64 * 1024;

/// Recycles [`AdjBatch`] allocations between the Dispatcher and the Worker.
///
/// The Dispatcher's hot path otherwise allocates three vectors per block
/// (degrees, edges, weights). Consumers return finished batches with
/// [`put`](BatchPool::put) — the engine's partition pass does, once the
/// Worker has processed one; the Dispatcher picks them up with
/// [`take`](BatchPool::take) and refills them in place. The pool is a
/// bounded channel: `take` on an empty pool falls back to a fresh
/// allocation and `put` on a full pool drops the batch, so neither side
/// ever blocks and the pool never grows past its capacity.
pub struct BatchPool {
    tx: Sender<AdjBatch>,
    rx: Receiver<AdjBatch>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

/// Point-in-time counters from a [`BatchPool`]; `fresh` counts `take` calls
/// that had to allocate, `reused` counts takes served by a recycled batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub fresh: u64,
    pub reused: u64,
}

impl BatchPool {
    pub fn new(capacity: usize) -> Arc<Self> {
        let (tx, rx) = bounded(capacity.max(1));
        Arc::new(BatchPool { tx, rx, fresh: AtomicU64::new(0), reused: AtomicU64::new(0) })
    }

    /// A pool pre-filled with `capacity` empty batches. Sized to the
    /// pipeline's maximum in-flight batch count, this makes `take` hit the
    /// pool from the first block on: the buffers grow to their working size
    /// during the first iteration and recirculate for the rest of the run,
    /// so the `fresh` counter staying at zero is exactly the "no fresh
    /// allocations after warm-up" property the reuse tests assert.
    pub fn prewarmed(capacity: usize) -> Arc<Self> {
        let pool = Self::new(capacity);
        for _ in 0..capacity.max(1) {
            pool.put(AdjBatch::default());
        }
        pool
    }

    /// An empty batch, recycled if one is available.
    pub fn take(&self) -> AdjBatch {
        match self.rx.try_recv() {
            Ok(batch) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                batch
            }
            Err(_) => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                AdjBatch::default()
            }
        }
    }

    /// Return a finished batch for reuse (contents are cleared on refill).
    pub fn put(&self, batch: AdjBatch) {
        let _ = self.tx.try_send(batch); // full pool: just drop the buffers
    }

    /// Lifetime allocation/reuse counters (monotonic; counters only — the
    /// numbers never influence scheduling, so determinism is untouched).
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            fresh: self.fresh.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// Stream the adjacency lists of `degrees.len()` vertices starting at
/// storage id `first_vertex`, whose edges begin at record `start_edge` of
/// `edges_path`.
pub fn stream_partition(
    edges_path: &Path,
    start_edge: u64,
    first_vertex: VertexId,
    degrees: Vec<u32>,
    batch_edges: usize,
    stats: Arc<IoStats>,
    pipelined: bool,
) -> Result<AdjacencyStream> {
    stream_partition_weighted(
        edges_path, None, start_edge, first_vertex, degrees, batch_edges, stats, pipelined, None,
        None,
    )
}

/// Depth of the pipelined Sio → Worker batch channel.
pub const SIO_QUEUE_CAP: usize = 2;

/// [`stream_partition`] with an optional parallel per-edge weight file, an
/// optional [`BatchPool`] the consumer returns finished batches to, and an
/// optional `active` set over the partition's vertices: given one, the
/// stream seeks past every block holding no marked vertex and yields it as
/// a [`Block::Gap`] — read such a stream with
/// [`AdjacencyStream::next_block`].
#[allow(clippy::too_many_arguments)]
pub fn stream_partition_weighted(
    edges_path: &Path,
    weights_path: Option<&Path>,
    start_edge: u64,
    first_vertex: VertexId,
    degrees: Vec<u32>,
    batch_edges: usize,
    stats: Arc<IoStats>,
    pipelined: bool,
    pool: Option<Arc<BatchPool>>,
    active: Option<ActiveSet>,
) -> Result<AdjacencyStream> {
    let inner = InlineStream::open(
        edges_path,
        weights_path,
        start_edge,
        first_vertex,
        degrees,
        batch_edges,
        stats,
        pool,
        active,
    )?;
    if pipelined {
        let (tx, rx) = bounded::<Result<Block>>(SIO_QUEUE_CAP);
        let handle = std::thread::Builder::new()
            .name("graphz-sio".into())
            .spawn(move || {
                let mut inner = inner;
                while let Some(batch) = inner.next_block().transpose() {
                    let stop = batch.is_err();
                    if tx.send(batch).is_err() || stop {
                        break; // worker hung up or the stream failed
                    }
                }
            })
            .map_err(std::io::Error::other)?;
        Ok(AdjacencyStream::Piped { rx, handle: Some(handle) })
    } else {
        Ok(AdjacencyStream::Inline(inner))
    }
}

/// Iterator over a partition's [`AdjBatch`]es (inline or pipelined).
pub enum AdjacencyStream {
    Inline(InlineStream),
    Piped { rx: Receiver<Result<Block>>, handle: Option<std::thread::JoinHandle<()>> },
}

impl AdjacencyStream {
    /// The next block, read or skipped, in vertex order.
    pub fn next_block(&mut self) -> Option<Result<Block>> {
        match self {
            AdjacencyStream::Inline(s) => s.next_block().transpose(),
            AdjacencyStream::Piped { rx, handle } => match rx.recv() {
                Ok(item) => Some(item),
                Err(_) => {
                    if let Some(h) = handle.take() {
                        let _ = h.join();
                    }
                    None
                }
            },
        }
    }
}

/// Iterates the read blocks of a stream opened without an [`ActiveSet`];
/// a gap (only a stream with one yields them) is an error here — read such
/// a stream with [`AdjacencyStream::next_block`].
impl Iterator for AdjacencyStream {
    type Item = Result<AdjBatch>;

    fn next(&mut self) -> Option<Result<AdjBatch>> {
        Some(match self.next_block()? {
            Ok(Block::Batch(batch)) => Ok(batch),
            Ok(Block::Gap(gap)) => Err(GraphError::InvalidConfig(format!(
                "adjacency gap at vertex {} read as a batch",
                gap.batch.first_vertex
            ))),
            Err(e) => Err(e),
        })
    }
}

impl Drop for AdjacencyStream {
    fn drop(&mut self) {
        if let AdjacencyStream::Piped { rx, handle } = self {
            // Unblock the producer if the consumer bailed early, then join.
            while rx.try_recv().is_ok() {}
            drop(std::mem::replace(rx, bounded(0).1));
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// The single-threaded Sio + Dispatcher.
pub struct InlineStream {
    file: TrackedFile,
    weights_file: Option<TrackedFile>,
    degrees: Vec<u32>,
    next_index: usize,
    next_vertex: VertexId,
    /// Record index of the next block's first edge (Eq. 1: the partition's
    /// first edge plus the degrees before the block).
    next_edge: u64,
    /// Record index the file handles are positioned at; differs from
    /// `next_edge` only after a gap.
    file_edge: u64,
    /// Blocks with no marked vertex are skipped; `None` reads every block.
    active: Option<ActiveSet>,
    batch_edges: usize,
    /// Recycled output batches; a private pool when the caller has none.
    pool: Arc<BatchPool>,
    /// Persistent raw-block read buffer (Sio reads into it, the Dispatcher
    /// decodes out of it — one allocation for the stream's lifetime).
    read_buf: Vec<u8>,
}

impl InlineStream {
    #[allow(clippy::too_many_arguments)]
    fn open(
        edges_path: &Path,
        weights_path: Option<&Path>,
        start_edge: u64,
        first_vertex: VertexId,
        degrees: Vec<u32>,
        batch_edges: usize,
        stats: Arc<IoStats>,
        pool: Option<Arc<BatchPool>>,
        active: Option<ActiveSet>,
    ) -> Result<Self> {
        assert!(batch_edges > 0);
        let mut file =
            TrackedFile::open(edges_path, Arc::clone(&stats)).ctx("open", edges_path)?;
        file.seek(SeekFrom::Start(start_edge * 4))?;
        let weights_file = match weights_path {
            Some(p) => {
                let mut f = TrackedFile::open(p, stats).ctx("open", p)?;
                f.seek(SeekFrom::Start(start_edge * 4))?;
                Some(f)
            }
            None => None,
        };
        Ok(InlineStream {
            file,
            weights_file,
            degrees,
            next_index: 0,
            next_vertex: first_vertex,
            next_edge: start_edge,
            file_edge: start_edge,
            active,
            batch_edges,
            pool: pool.unwrap_or_else(|| BatchPool::new(4)),
            read_buf: Vec::new(),
        })
    }

    fn next_block(&mut self) -> Result<Option<Block>> {
        if self.next_index >= self.degrees.len() {
            return Ok(None);
        }
        // Dispatcher: pick a vertex range whose edges fill one block. A
        // vertex's adjacency never splits across batches, so a single hub
        // vertex may exceed the target size.
        let first_vertex = self.next_vertex;
        let start = self.next_index;
        let mut edge_count = 0usize;
        while let Some(&d) = self.degrees.get(self.next_index) {
            let d = d as usize;
            if edge_count > 0 && edge_count + d > self.batch_edges {
                break;
            }
            edge_count += d;
            self.next_index += 1;
            self.next_vertex += 1;
            if edge_count >= self.batch_edges {
                break;
            }
        }
        let mut batch = self.pool.take();
        batch.first_vertex = first_vertex;
        batch.degrees.clear();
        if let Some(run) = self.degrees.get(start..self.next_index) {
            batch.degrees.extend_from_slice(run);
        }
        let block_start = self.next_edge;
        self.next_edge += edge_count as u64;
        if self.active.as_ref().is_some_and(|set| !set.any_in(start, self.next_index)) {
            batch.edges.clear();
            batch.weights.clear();
            return Ok(Some(Block::Gap(Gap {
                batch,
                start_edge: block_start,
                edges: edge_count as u64,
            })));
        }
        if self.file_edge != block_start {
            self.file.seek(SeekFrom::Start(block_start * 4))?;
            if let Some(wf) = &mut self.weights_file {
                wf.seek(SeekFrom::Start(block_start * 4))?;
            }
        }
        // Sio: one sequential read for the whole block, into the persistent
        // buffer; the Dispatcher decodes into the recycled batch vectors.
        read_block(
            &mut self.file,
            self.weights_file.as_mut(),
            &mut self.read_buf,
            &mut batch,
            edge_count,
        )?;
        self.file_edge = self.next_edge;
        Ok(Some(Block::Batch(batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::record::write_records;
    use graphz_io::ScratchDir;

    /// Adjacency file for vertices with degrees [2, 0, 3, 1]:
    /// edges are 10,11 | | 20,21,22 | 30.
    fn setup() -> (ScratchDir, Arc<IoStats>) {
        let dir = ScratchDir::new("sio").unwrap();
        let stats = IoStats::new();
        let edges: Vec<u32> = vec![10, 11, 20, 21, 22, 30];
        write_records(&dir.file("edges.bin"), Arc::clone(&stats), &edges).unwrap();
        (dir, stats)
    }

    fn collect(stream: AdjacencyStream) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut out = Vec::new();
        for batch in stream {
            let batch = batch.unwrap();
            for (v, adj, _) in batch.vertices_weighted() {
                out.push((v, adj.to_vec()));
            }
        }
        out
    }

    #[test]
    fn inline_stream_parses_adjacency() {
        let (dir, stats) = setup();
        let s = stream_partition(
            &dir.file("edges.bin"),
            0,
            100,
            vec![2, 0, 3, 1],
            1000,
            stats,
            false,
        )
        .unwrap();
        assert_eq!(
            collect(s),
            vec![
                (100, vec![10, 11]),
                (101, vec![]),
                (102, vec![20, 21, 22]),
                (103, vec![30]),
            ]
        );
    }

    #[test]
    fn pipelined_stream_matches_inline() {
        let (dir, stats) = setup();
        let inline = stream_partition(
            &dir.file("edges.bin"), 0, 0, vec![2, 0, 3, 1], 2, Arc::clone(&stats), false,
        )
        .unwrap();
        let piped = stream_partition(
            &dir.file("edges.bin"), 0, 0, vec![2, 0, 3, 1], 2, stats, true,
        )
        .unwrap();
        assert_eq!(collect(inline), collect(piped));
    }

    #[test]
    fn tiny_batch_size_never_splits_a_vertex() {
        let (dir, stats) = setup();
        let s = stream_partition(
            &dir.file("edges.bin"), 0, 0, vec![2, 0, 3, 1], 1, stats, false,
        )
        .unwrap();
        let mut n_batches = 0;
        for batch in s {
            let batch = batch.unwrap();
            let total: usize = batch.degrees.iter().map(|&d| d as usize).sum();
            assert_eq!(batch.edges.len(), total);
            n_batches += 1;
        }
        // Degrees [2,0,3,1] with batch_edges=1: [2] is its own batch, [0,3]
        // groups the empty vertex with the next, [1] finishes.
        assert_eq!(n_batches, 3);
    }

    #[test]
    fn offset_streaming_skips_earlier_partitions() {
        let (dir, stats) = setup();
        // Second "partition": vertices 2..4 whose edges start at record 2.
        let s = stream_partition(
            &dir.file("edges.bin"), 2, 2, vec![3, 1], 1000, stats, false,
        )
        .unwrap();
        assert_eq!(collect(s), vec![(2, vec![20, 21, 22]), (3, vec![30])]);
    }

    #[test]
    fn truncated_file_reports_corruption() {
        let dir = ScratchDir::new("sio-trunc").unwrap();
        let stats = IoStats::new();
        write_records(&dir.file("edges.bin"), Arc::clone(&stats), &[1u32, 2]).unwrap();
        // Claims degree 5 but only 2 edges exist.
        let s = stream_partition(&dir.file("edges.bin"), 0, 0, vec![5], 10, stats, false).unwrap();
        let results: Vec<_> = s.collect();
        assert!(matches!(results[0], Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn zero_vertices_is_empty_stream() {
        let (dir, stats) = setup();
        let s = stream_partition(&dir.file("edges.bin"), 0, 0, vec![], 10, stats, false).unwrap();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn recycled_batches_match_fresh_allocations() {
        let (dir, stats) = setup();
        let pool = BatchPool::new(4);
        // Prime the pool with a dirty batch; the stream must clear it.
        pool.put(AdjBatch {
            first_vertex: 999,
            degrees: vec![7, 7],
            edges: vec![1, 2, 3],
            weights: vec![0.5],
        });
        let recycled = stream_partition_weighted(
            &dir.file("edges.bin"),
            None,
            0,
            100,
            vec![2, 0, 3, 1],
            2,
            Arc::clone(&stats),
            false,
            Some(Arc::clone(&pool)),
            None,
        )
        .unwrap();
        let mut seen = Vec::new();
        for batch in recycled {
            let batch = batch.unwrap();
            for (v, adj, _) in batch.vertices_weighted() {
                seen.push((v, adj.to_vec()));
            }
            assert!(batch.weights.is_empty(), "unweighted stream must clear stale weights");
            pool.put(batch); // round-trip through the pool mid-stream
        }
        assert_eq!(
            seen,
            vec![
                (100, vec![10, 11]),
                (101, vec![]),
                (102, vec![20, 21, 22]),
                (103, vec![30]),
            ]
        );
    }

    #[test]
    fn pool_take_never_blocks_and_put_drops_on_full() {
        let pool = BatchPool::new(1);
        assert_eq!(pool.take(), AdjBatch::default()); // empty pool: fresh batch
        pool.put(AdjBatch::default());
        pool.put(AdjBatch::default()); // full: silently dropped
        let _ = pool.take();
        assert_eq!(pool.take(), AdjBatch::default());
    }

    #[test]
    fn active_set_ranges_respect_word_edges() {
        let mut set = ActiveSet::new(200);
        assert!(set.is_empty());
        for i in [0, 63, 64, 130, 500] {
            set.insert(i); // 500 is past the set: ignored
        }
        assert!(!set.is_empty());
        assert!(set.any_in(0, 1) && set.any_in(63, 64) && set.any_in(64, 65));
        assert!(!set.any_in(1, 63), "bits 1..63 are clear");
        assert!(!set.any_in(65, 130) && set.any_in(65, 131));
        assert!(!set.any_in(131, 200) && !set.any_in(5, 5));
        assert!(set.any_in(150, 300), "a range past the set reads as active");
        let mut full = ActiveSet::new(128);
        full.insert(127);
        assert!(full.any_in(100, 128) && !full.any_in(0, 127));
    }

    /// Collect a stream's blocks as `(first vertex, Some(edges) | None)`.
    fn blocks(mut s: AdjacencyStream) -> Vec<(VertexId, Option<Vec<u32>>)> {
        let mut out = Vec::new();
        while let Some(block) = s.next_block() {
            match block.unwrap() {
                Block::Batch(b) => out.push((b.first_vertex, Some(b.edges))),
                Block::Gap(g) => out.push((g.batch.first_vertex, None)),
            }
        }
        out
    }

    #[test]
    fn active_stream_seeks_past_quiet_blocks_and_gaps_read_back() {
        let (dir, stats) = setup();
        let weights: Vec<f32> = vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
        write_records(&dir.file("weights.bin"), Arc::clone(&stats), &weights).unwrap();
        // Degrees [2, 0, 3, 1] in blocks of <= 2 edges: [v0] [v1 v2] [v3].
        let open = |active: Option<ActiveSet>, pipelined: bool, stats: Arc<IoStats>| {
            stream_partition_weighted(
                &dir.file("edges.bin"),
                Some(&dir.file("weights.bin")),
                0,
                100,
                vec![2, 0, 3, 1],
                2,
                stats,
                pipelined,
                None,
                active,
            )
            .unwrap()
        };
        let mut only_v3 = ActiveSet::new(4);
        only_v3.insert(3);
        for pipelined in [false, true] {
            let counted = IoStats::new();
            let got = blocks(open(Some(only_v3.clone()), pipelined, Arc::clone(&counted)));
            assert_eq!(got, vec![(100, None), (101, None), (103, Some(vec![30]))]);
            // One edge and one weight read; the other five of each skipped.
            assert_eq!(counted.snapshot().bytes_read, 8, "pipelined={pipelined}");
        }
        // Without a set every block is read, as before.
        let all = blocks(open(None, false, Arc::clone(&stats)));
        assert_eq!(all.iter().filter(|(_, e)| e.is_some()).count(), 3);
        // A gap reads back exactly what the stream would have read.
        let mut s = open(Some(ActiveSet::new(4)), false, Arc::clone(&stats));
        let mut reader =
            GapReader::open(&dir.file("edges.bin"), Some(&dir.file("weights.bin")), stats)
                .unwrap();
        let mut read_back = Vec::new();
        while let Some(block) = s.next_block() {
            let Block::Gap(gap) = block.unwrap() else { panic!("an empty set reads nothing") };
            assert_eq!(gap.range().1 - gap.range().0, gap.batch.degrees.len() as VertexId);
            read_back.push(reader.read(gap).unwrap());
        }
        let edges: Vec<u32> = read_back.iter().flat_map(|b| b.edges.clone()).collect();
        let ws: Vec<f32> = read_back.iter().flat_map(|b| b.weights.clone()).collect();
        assert_eq!(edges, vec![10, 11, 20, 21, 22, 30]);
        assert_eq!(ws, weights);
        assert_eq!(read_back[1].first_vertex, 101);
        assert_eq!(read_back[1].degrees, vec![0, 3]);
    }

    #[test]
    fn gap_read_as_a_batch_is_a_typed_error() {
        let (dir, stats) = setup();
        let s = stream_partition_weighted(
            &dir.file("edges.bin"),
            None,
            0,
            0,
            vec![2, 0, 3, 1],
            1000,
            stats,
            false,
            None,
            Some(ActiveSet::new(4)),
        )
        .unwrap();
        let results: Vec<_> = s.collect();
        assert!(matches!(results[..], [Err(GraphError::InvalidConfig(_))]), "{results:?}");
    }

    #[test]
    fn early_drop_of_pipelined_stream_joins_producer() {
        let (dir, stats) = setup();
        let mut s = stream_partition(
            &dir.file("edges.bin"), 0, 0, vec![2, 0, 3, 1], 1, stats, true,
        )
        .unwrap();
        let _first = s.next().unwrap().unwrap();
        drop(s); // must not hang or leak the producer thread
    }
}
