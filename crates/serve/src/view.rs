//! `GraphView` — the unified read API over an opened DOS image.
//!
//! Everything in the workspace that *reads* a converted graph interactively
//! — the `graphz serve` protocol workers, and the `stats` / `islands` /
//! `export` topology subcommands — goes through this one type instead of
//! hand-rolling adjacency walks over `DosGraph`. The API splits into two
//! tiers:
//!
//! * **Point queries** ([`degree`](GraphView::degree),
//!   [`neighbors_into`](GraphView::neighbors_into),
//!   [`khop_into`](GraphView::khop_into),
//!   [`value_bytes`](GraphView::value_bytes)) are the serve hot path. They
//!   are gated by the `serve-read-alloc` ipa rule: no allocation, no lock,
//!   no thread spawn per query — every buffer (the adjacency cursor, the
//!   BFS bitmap and frontiers) is owned by the view and reused, and errors
//!   are the allocation-free [`GraphError::UnknownVertex`].
//! * **Whole-graph scans** ([`stats`](GraphView::stats),
//!   [`islands`](GraphView::islands), [`export_dot`](GraphView::export_dot))
//!   are sequential passes for the CLI; they allocate freely.
//!
//! A view is deliberately `!Sync`: each server worker thread owns its own
//! view (cheap — one extra file handle plus scratch buffers via
//! [`try_clone`](GraphView::try_clone)) and shares the `DosGraph` index and
//! pinned [`Snapshot`] behind `Arc`s. That is what makes N concurrent
//! readers safe without a single lock on the read path.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, TrackedFile};
use graphz_storage::{AdjCursor, DosGraph};
use graphz_types::error::IoCtx;
use graphz_types::{cast, Degree, GraphError, Result, VertexId};

use crate::snapshot::Snapshot;

/// A read-only session over one DOS image, optionally with a pinned
/// checkpoint [`Snapshot`] for algorithm-result queries.
pub struct GraphView {
    graph: Arc<DosGraph>,
    snapshot: Option<Arc<Snapshot>>,
    stats: Arc<IoStats>,
    cursor: AdjCursor,
    /// Reusable BFS visited bitmap, one bit per vertex.
    visited: Vec<u64>,
    /// Reusable BFS frontiers and per-vertex neighbor scratch.
    frontier: Vec<VertexId>,
    next_frontier: Vec<VertexId>,
    neigh: Vec<VertexId>,
}

/// Index-level facts about the viewed graph, for `graphz stats` on a DOS
/// directory and the protocol `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewStats {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub unique_degrees: u64,
    pub index_bytes: u64,
    pub max_degree: Degree,
    pub min_degree: Degree,
    /// Pinned checkpoint generation, if any.
    pub snapshot_generation: Option<u32>,
}

/// Weakly-connected components of the viewed graph ("islands"), from one
/// sequential edge scan with a union-find.
pub struct Islands {
    labels: Vec<VertexId>,
    components: u64,
    largest: u64,
    isolated: u64,
}

impl Islands {
    /// Component label per storage id: the smallest storage id in the
    /// component, so labels are stable across runs.
    pub fn labels(&self) -> &[VertexId] {
        &self.labels
    }

    /// Number of weakly-connected components.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// Vertex count of the largest component.
    pub fn largest(&self) -> u64 {
        self.largest
    }

    /// Number of singleton components (no edge in either direction).
    pub fn isolated(&self) -> u64 {
        self.isolated
    }
}

/// Test-and-set of bit `v`, allocation- and panic-free. Returns `true` when
/// the bit was newly set; an out-of-range id reads as already-visited so a
/// corrupt adjacency entry cannot index out of bounds.
#[inline]
fn test_and_set(bits: &mut [u64], v: VertexId) -> bool {
    let mask = 1u64 << (v % 64);
    match bits.get_mut(cast::vertex_index(v) / 64) {
        Some(w) if *w & mask == 0 => {
            *w |= mask;
            true
        }
        _ => false,
    }
}

impl GraphView {
    /// Open the DOS directory at `dir` and build a view over it.
    pub fn open(dir: &Path, stats: Arc<IoStats>) -> Result<GraphView> {
        let graph = Arc::new(DosGraph::open(dir, Arc::clone(&stats))?);
        Self::from_graph(graph, stats)
    }

    /// Build a view over an already-opened graph (shared with other views).
    pub fn from_graph(graph: Arc<DosGraph>, stats: Arc<IoStats>) -> Result<GraphView> {
        let cursor = graph.cursor(Arc::clone(&stats))?;
        let words =
            cast::to_usize(graph.index().num_vertices().div_ceil(64), "graph view visited bitmap")?;
        Ok(GraphView {
            graph,
            snapshot: None,
            stats,
            cursor,
            visited: vec![0u64; words],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            neigh: Vec::new(),
        })
    }

    /// A second independent view over the same graph and snapshot: its own
    /// adjacency cursor and scratch buffers, shared (immutable) index and
    /// pinned values. This is how the server gives each reader thread a
    /// lock-free view.
    pub fn try_clone(&self) -> Result<GraphView> {
        let cursor = self.graph.cursor(Arc::clone(&self.stats))?;
        Ok(GraphView {
            graph: Arc::clone(&self.graph),
            snapshot: self.snapshot.clone(),
            stats: Arc::clone(&self.stats),
            cursor,
            visited: vec![0u64; self.visited.len()],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            neigh: Vec::new(),
        })
    }

    /// Pin a checkpoint generation under `root` for this view:
    /// a specific generation number, or the newest usable one. Returns the
    /// pinned generation number.
    pub fn pin_snapshot(&mut self, root: &Path, generation: Option<u32>) -> Result<u32> {
        let n = self.graph.index().num_vertices();
        let snap = match generation {
            Some(g) => Snapshot::pin(root, g, n, &self.stats)?,
            None => Snapshot::pin_latest(root, n, &self.stats)?,
        };
        let number = snap.generation();
        self.snapshot = Some(Arc::new(snap));
        Ok(number)
    }

    pub fn graph(&self) -> &DosGraph {
        &self.graph
    }

    pub fn snapshot(&self) -> Option<&Arc<Snapshot>> {
        self.snapshot.as_ref()
    }

    pub fn num_vertices(&self) -> u64 {
        self.graph.index().num_vertices()
    }

    // --- point queries (the serve hot path; `serve-read-alloc` entries) ---

    /// Out-degree of storage id `v`. Pure index arithmetic — no disk access.
    #[inline]
    pub fn degree(&self, v: VertexId) -> Result<Degree> {
        self.graph.index().lookup(v).map(|(d, _)| d)
    }

    /// Adjacency list of storage id `v` into `out` (cleared first); returns
    /// the degree. One seek + one contiguous read through the view's
    /// reusable cursor.
    #[inline]
    pub fn neighbors_into(&mut self, v: VertexId, out: &mut Vec<VertexId>) -> Result<Degree> {
        self.cursor.read_into(self.graph.index(), v, out)
    }

    /// Every vertex within `k` hops of `v` (distance 1..=k, excluding `v`
    /// itself), written level by level into `out` with each level sorted
    /// ascending — a deterministic order any replay can diff against.
    /// Returns the number of vertices found.
    ///
    /// All state (bitmap, frontiers, neighbor scratch) is reused across
    /// calls, so a steady-state k-hop query performs no allocation beyond
    /// what the caller's `out` needs to grow.
    pub fn khop_into(&mut self, v: VertexId, k: u32, out: &mut Vec<VertexId>) -> Result<usize> {
        out.clear();
        // Validate the start id up front so `khop 99 2` on a 10-vertex graph
        // is the typed unknown-vertex answer, not an empty result.
        self.graph.index().lookup(v)?;
        self.visited.fill(0);
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next_frontier);
        let mut neigh = std::mem::take(&mut self.neigh);
        frontier.clear();
        frontier.push(v);
        test_and_set(&mut self.visited, v);
        let mut result = Ok(());
        'bfs: for _ in 0..k {
            next.clear();
            for &u in frontier.iter() {
                if let Err(e) = self.cursor.read_into(self.graph.index(), u, &mut neigh) {
                    result = Err(e);
                    break 'bfs;
                }
                for &w in neigh.iter() {
                    if test_and_set(&mut self.visited, w) {
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            next.sort_unstable();
            out.extend(next.iter().copied());
            std::mem::swap(&mut frontier, &mut next);
        }
        self.frontier = frontier;
        self.next_frontier = next;
        self.neigh = neigh;
        result?;
        Ok(out.len())
    }

    /// The pinned checkpoint's raw vertex-value record for storage id `v` —
    /// a borrowed slice of the snapshot's in-memory buffer.
    /// [`GraphError::NotFound`] when no snapshot is pinned.
    #[inline]
    pub fn value_bytes(&self, v: VertexId) -> Result<&[u8]> {
        match &self.snapshot {
            Some(s) => s.value_bytes(v),
            None => Err(GraphError::NotFound("no checkpoint snapshot pinned".into())),
        }
    }

    // --- original-id translation (point lookup against the relabel maps) ---

    /// Translate an *original* id to its storage id with one seek into
    /// `old2new.bin`.
    pub fn resolve(&self, original: VertexId) -> Result<VertexId> {
        self.relabel_entry(&self.graph.old2new_path(), original)
    }

    /// Translate a *storage* id back to the original id with one seek into
    /// `new2old.bin`.
    pub fn original_of(&self, storage: VertexId) -> Result<VertexId> {
        self.relabel_entry(&self.graph.new2old_path(), storage)
    }

    fn relabel_entry(&self, path: &Path, id: VertexId) -> Result<VertexId> {
        if cast::widen_u32(id) >= self.graph.index().num_vertices() {
            return Err(GraphError::UnknownVertex(id));
        }
        let mut f = TrackedFile::open(path, Arc::clone(&self.stats)).ctx("open", path)?;
        f.seek(SeekFrom::Start(cast::mul_u64(cast::widen_u32(id), 4, "relabel map offset")?))?;
        let mut buf = [0u8; 4];
        f.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    // --- whole-graph scans (CLI tier; allocation unconstrained) ---

    /// Index-level statistics.
    pub fn stats(&self) -> ViewStats {
        let index = self.graph.index();
        let groups = index.groups();
        ViewStats {
            num_vertices: index.num_vertices(),
            num_edges: index.num_edges(),
            unique_degrees: index.unique_degrees(),
            index_bytes: index.index_bytes(),
            // DOS orders groups by descending degree, so max/min are the ends.
            max_degree: groups.first().map_or(0, |g| g.degree),
            min_degree: groups.last().map_or(0, |g| g.degree),
            snapshot_generation: self.snapshot.as_ref().map(|s| s.generation()),
        }
    }

    /// One sequential pass over `edges.bin`, calling `f(src, dst)` for every
    /// edge in storage order. The source id is derived from the degree
    /// groups (vertices `first_id..next.first_id` own `degree` consecutive
    /// records each) — the scan never touches the index file again.
    pub fn scan_edges(&self, mut f: impl FnMut(VertexId, VertexId) -> Result<()>) -> Result<u64> {
        let edges_path = self.graph.edges_path();
        let mut reader =
            RecordReader::<u32>::open(&edges_path, Arc::clone(&self.stats)).ctx("open", &edges_path)?;
        let index = self.graph.index();
        let groups = index.groups();
        let n = cast::to_u32(index.num_vertices(), "edge scan vertex count")?;
        let mut count = 0u64;
        for (gi, g) in groups.iter().enumerate() {
            let group_end = groups.get(gi + 1).map_or(n, |ng| ng.first_id);
            for src in g.first_id..group_end {
                for _ in 0..g.degree {
                    let dst = reader.next_record()?.ok_or_else(|| {
                        GraphError::Corrupt(format!(
                            "edges.bin ended early: index promises {} edges, file has {count}",
                            index.num_edges()
                        ))
                    })?;
                    f(src, dst)?;
                    count += 1;
                }
            }
        }
        Ok(count)
    }

    /// Weakly-connected components from one edge scan (union-find with path
    /// halving, components labeled by their smallest storage id).
    pub fn islands(&self) -> Result<Islands> {
        let n = cast::to_usize(self.graph.index().num_vertices(), "islands vertex count")?;
        let mut parent: Vec<VertexId> = (0..cast::usize_to_u32(n, "islands vertex count")?).collect();
        fn find(parent: &mut [VertexId], mut v: VertexId) -> VertexId {
            while parent[cast::vertex_index(v)] != v {
                let grand = parent[cast::vertex_index(parent[cast::vertex_index(v)])];
                parent[cast::vertex_index(v)] = grand;
                v = grand;
            }
            v
        }
        let mut touched = vec![false; n];
        self.scan_edges(|src, dst| {
            touched[cast::vertex_index(src)] = true;
            touched[cast::vertex_index(dst)] = true;
            let (a, b) = (find(&mut parent, src), find(&mut parent, dst));
            if a != b {
                // Union by smaller root so the final label is the smallest id.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[cast::vertex_index(hi)] = lo;
            }
            Ok(())
        })?;
        let mut labels = vec![0u32; n];
        for (v, label) in labels.iter_mut().enumerate() {
            *label = find(&mut parent, cast::usize_to_u32(v, "islands label")?);
        }
        let mut sizes = std::collections::HashMap::new();
        for &l in &labels {
            *sizes.entry(l).or_insert(0u64) += 1;
        }
        let isolated =
            labels.iter().zip(&touched).filter(|&(&l, &t)| !t && sizes.get(&l) == Some(&1)).count();
        Ok(Islands {
            components: cast::len_u64(sizes.len()),
            largest: sizes.values().copied().max().unwrap_or(0),
            isolated: cast::len_u64(isolated),
            labels,
        })
    }

    /// Stream the graph as a Graphviz DOT digraph. With `original`, edges
    /// are emitted under original ids (loads the `new2old` map); otherwise
    /// under storage ids. Returns the number of edges written.
    pub fn export_dot(&self, out: &mut impl Write, original: bool) -> Result<u64> {
        let new2old =
            if original { Some(self.graph.load_new2old(Arc::clone(&self.stats))?) } else { None };
        let name = |v: VertexId| -> VertexId {
            match &new2old {
                Some(map) => map.get(cast::vertex_index(v)).copied().unwrap_or(v),
                None => v,
            }
        };
        writeln!(out, "digraph graphz {{").map_err(GraphError::Io)?;
        let count = self.scan_edges(|src, dst| {
            writeln!(out, "  {} -> {};", name(src), name(dst)).map_err(GraphError::Io)
        })?;
        writeln!(out, "}}").map_err(GraphError::Io)?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;
    use graphz_storage::{DosConverter, EdgeListFile};
    use graphz_types::{Edge, MemoryBudget};

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    /// 0->1, 0->2, 0->4, 1->2, 2->4 — original ids; vertex 3 appears in no
    /// edge, so it is an isolated island.
    fn make_view(dir: &ScratchDir) -> GraphView {
        let s = stats();
        let edges = dir.file("edges.el");
        let input = EdgeListFile::create(
            &edges,
            Arc::clone(&s),
            [Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 4), Edge::new(1, 2), Edge::new(2, 4)],
        )
        .unwrap();
        let conv = DosConverter::builder()
            .budget(MemoryBudget::from_mib(1))
            .stats(Arc::clone(&s))
            .build()
            .unwrap();
        conv.convert(&input, &dir.file("dos")).unwrap();
        GraphView::open(&dir.file("dos"), s).unwrap()
    }

    #[test]
    fn degree_and_neighbors_match_direct_adjacency() {
        let dir = ScratchDir::new("view-basic").unwrap();
        let mut view = make_view(&dir);
        let s = stats();
        let mut out = Vec::new();
        for v in 0..5u32 {
            let deg = view.degree(v).unwrap();
            let got = view.neighbors_into(v, &mut out).unwrap();
            assert_eq!(got, deg);
            let direct = view.graph().adjacency(v, Arc::clone(&s)).unwrap();
            assert_eq!(out, direct, "vertex {v}");
        }
    }

    #[test]
    fn unknown_vertex_is_typed() {
        let dir = ScratchDir::new("view-unknown").unwrap();
        let mut view = make_view(&dir);
        let mut out = Vec::new();
        assert!(matches!(view.degree(99), Err(GraphError::UnknownVertex(99))));
        assert!(matches!(view.neighbors_into(99, &mut out), Err(GraphError::UnknownVertex(99))));
        assert!(matches!(view.khop_into(99, 2, &mut out), Err(GraphError::UnknownVertex(99))));
        assert!(matches!(view.resolve(99), Err(GraphError::UnknownVertex(99))));
    }

    #[test]
    fn khop_expands_level_by_level() {
        let dir = ScratchDir::new("view-khop").unwrap();
        let mut view = make_view(&dir);
        // Work in storage ids via resolve: start from original vertex 1.
        let start = view.resolve(1).unwrap();
        let mut hop1 = Vec::new();
        view.khop_into(start, 1, &mut hop1).unwrap();
        let mut direct = Vec::new();
        view.neighbors_into(start, &mut direct).unwrap();
        direct.sort_unstable();
        assert_eq!(hop1, direct);
        // 2 hops from 1 reaches {2, 4}; 3 hops adds nothing (no out-edges
        // from 4). Repeated calls must agree (scratch reuse is invisible).
        let mut hop2 = Vec::new();
        let mut hop3 = Vec::new();
        view.khop_into(start, 2, &mut hop2).unwrap();
        view.khop_into(start, 3, &mut hop3).unwrap();
        assert_eq!(hop2, hop3);
        assert_eq!(hop2.len(), 2);
        let originals: Vec<u32> =
            hop2.iter().map(|&v| view.original_of(v).unwrap()).collect();
        assert!(originals.contains(&2) && originals.contains(&4));
    }

    #[test]
    fn stats_reflect_index() {
        let dir = ScratchDir::new("view-stats").unwrap();
        let view = make_view(&dir);
        let st = view.stats();
        assert_eq!(st.num_vertices, 5);
        assert_eq!(st.num_edges, 5);
        assert_eq!(st.max_degree, 3); // vertex 0
        assert_eq!(st.min_degree, 0); // vertices 3, 4
        assert_eq!(st.snapshot_generation, None);
    }

    #[test]
    fn islands_find_the_isolated_vertex() {
        let dir = ScratchDir::new("view-islands").unwrap();
        let view = make_view(&dir);
        let islands = view.islands().unwrap();
        assert_eq!(islands.components(), 2); // {0,1,2,3} and {4}
        assert_eq!(islands.largest(), 4);
        assert_eq!(islands.isolated(), 1);
        assert_eq!(islands.labels().len(), 5);
    }

    #[test]
    fn export_dot_emits_every_edge() {
        let dir = ScratchDir::new("view-dot").unwrap();
        let view = make_view(&dir);
        let mut buf = Vec::new();
        let n = view.export_dot(&mut buf, true).unwrap();
        assert_eq!(n, 5);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("digraph graphz {"));
        assert!(text.contains("0 -> 1;"), "{text}");
        assert!(text.contains("2 -> 4;"), "{text}");
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn value_bytes_without_snapshot_is_not_found() {
        let dir = ScratchDir::new("view-nosnap").unwrap();
        let view = make_view(&dir);
        assert!(matches!(view.value_bytes(0), Err(GraphError::NotFound(_))));
    }
}
