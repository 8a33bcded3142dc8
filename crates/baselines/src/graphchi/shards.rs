//! GraphChi shard construction and layout.
//!
//! Preprocessing (the GraphChi rows of Table XII) splits the vertex space
//! into `P` intervals and writes, per interval, a shard of every edge whose
//! destination falls in the interval, sorted by source — so any interval's
//! out-edges form one contiguous *window* inside every shard.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_extsort::ExternalSorter;
use graphz_io::{IoStats, RecordReader, RecordWriter, ScratchDir};
use graphz_storage::meta::MetaFile;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, GraphError, GraphMeta, MemoryBudget, Result, VertexId};

/// Controls how many intervals the sharder creates.
#[derive(Debug, Clone, Copy)]
pub struct ShardingConfig {
    pub budget: MemoryBudget,
    /// Assumed resident bytes per vertex when sizing intervals (GraphChi
    /// sizes shards before it knows the program's vertex type; 8 bytes is
    /// its canonical figure).
    pub vertex_bytes: usize,
    /// Assumed resident bytes per edge (id pair + edge value).
    pub edge_bytes: usize,
}

impl ShardingConfig {
    pub fn new(budget: MemoryBudget) -> Self {
        ShardingConfig { budget, vertex_bytes: 8, edge_bytes: 16 }
    }

    /// Number of intervals for a graph with `num_vertices` / `num_edges`.
    /// An interval's vertex state gets a quarter of the budget and its
    /// fully-loaded shard half, mirroring GraphChi's memory split.
    pub fn num_intervals(&self, num_vertices: u64, num_edges: u64) -> u32 {
        let v_quota = (self.budget.bytes() / 4).max(1);
        let e_quota = (self.budget.bytes() / 2).max(1);
        let p_v = (num_vertices * self.vertex_bytes as u64).div_ceil(v_quota);
        let p_e = (num_edges * self.edge_bytes as u64).div_ceil(e_quota);
        p_v.max(p_e).clamp(1, u32::MAX as u64) as u32
    }
}

/// An on-disk GraphChi shard directory.
#[derive(Debug, Clone)]
pub struct ChiShards {
    dir: PathBuf,
    meta: GraphMeta,
    num_intervals: u32,
    interval_width: u64,
    /// `windows[q][p]` = edge index in shard `q` of the first edge whose
    /// source is >= interval `p`'s start; `windows[q][P]` = shard length.
    windows: Vec<Vec<u64>>,
}

impl ChiShards {
    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn num_intervals(&self) -> u32 {
        self.num_intervals
    }

    pub fn interval_width(&self) -> u64 {
        self.interval_width
    }

    /// Vertex range `[start, end)` of interval `p`.
    pub fn interval_range(&self, p: u32) -> (VertexId, VertexId) {
        let start = p as u64 * self.interval_width;
        let end = (start + self.interval_width).min(self.meta.num_vertices);
        (start as VertexId, end as VertexId)
    }

    pub fn shard_path(&self, q: u32) -> PathBuf {
        self.dir.join(format!("shard-{q:04}.bin"))
    }

    pub fn degrees_path(&self) -> PathBuf {
        self.dir.join("degrees.bin")
    }

    /// Edge-index range `[start, end)` of interval `p`'s window in shard `q`.
    pub fn window(&self, q: u32, p: u32) -> (u64, u64) {
        (self.windows[q as usize][p as usize], self.windows[q as usize][p as usize + 1])
    }

    pub fn shard_len(&self, q: u32) -> u64 {
        *self.windows[q as usize].last().unwrap()
    }

    /// Bytes of the dense per-vertex index (Table XI's GraphChi row).
    pub fn index_bytes(&self) -> u64 {
        (self.meta.num_vertices + 1) * 8
    }

    /// Build shards from an edge list.
    pub fn convert(
        input: &EdgeListFile,
        dir: &Path,
        cfg: ShardingConfig,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let scratch = ScratchDir::new("chi-shard")?;
        let meta = input.meta();
        let num_intervals = cfg.num_intervals(meta.num_vertices, meta.num_edges);
        let width = meta.num_vertices.div_ceil(num_intervals as u64).max(1);
        // Recompute the interval count implied by the width so the two are
        // always consistent (width * count >= V).
        let num_intervals = meta.num_vertices.div_ceil(width).max(1) as u32;

        // Pass 1: sort by destination and cut into per-interval raw shards.
        let by_dst = scratch.file("by-dst.bin");
        ExternalSorter::new(|e: &Edge| (e.dst, e.src), cfg.budget, Arc::clone(&stats))
            .sort_file(input.path(), &by_dst, &scratch)?;
        {
            let mut writer: Option<(u32, RecordWriter<Edge>)> = None;
            for e in RecordReader::<Edge>::open(&by_dst, Arc::clone(&stats))? {
                let e = e?;
                let q = (e.dst as u64 / width) as u32;
                if writer.as_ref().map(|(cur, _)| *cur) != Some(q) {
                    if let Some((_, w)) = writer.take() {
                        w.finish()?;
                    }
                    writer = Some((
                        q,
                        RecordWriter::<Edge>::create(
                            &scratch.file(&format!("raw-{q:04}.bin")),
                            Arc::clone(&stats),
                        )?,
                    ));
                }
                writer.as_mut().unwrap().1.push(&e)?;
            }
            if let Some((_, w)) = writer {
                w.finish()?;
            }
        }
        let _ = std::fs::remove_file(&by_dst);

        // Pass 2: sort each shard by (src, dst) and record window offsets.
        let mut windows = Vec::with_capacity(num_intervals as usize);
        for q in 0..num_intervals {
            let raw = scratch.file(&format!("raw-{q:04}.bin"));
            let out = dir.join(format!("shard-{q:04}.bin"));
            let mut offsets = vec![0u64; num_intervals as usize + 1];
            if raw.exists() {
                ExternalSorter::new(|e: &Edge| (e.src, e.dst), cfg.budget, Arc::clone(&stats))
                    .sort_file(&raw, &out, &scratch)?;
                let _ = std::fs::remove_file(&raw);
                let mut count: u64 = 0;
                let mut boundary = 1usize; // next interval whose start we await
                for e in RecordReader::<Edge>::open(&out, Arc::clone(&stats))? {
                    let e = e?;
                    while boundary <= num_intervals as usize
                        && (e.src as u64) >= boundary as u64 * width
                    {
                        offsets[boundary] = count;
                        boundary += 1;
                    }
                    count += 1;
                }
                for o in offsets.iter_mut().skip(boundary) {
                    *o = count;
                }
                offsets[num_intervals as usize] = count;
            } else {
                RecordWriter::<Edge>::create(&out, Arc::clone(&stats))?.finish()?;
            }
            windows.push(offsets);
        }

        // Pass 3: the dense per-vertex index (out-degrees, 8 bytes each).
        let by_src = scratch.file("by-src.bin");
        ExternalSorter::new(|e: &Edge| e.src, cfg.budget, Arc::clone(&stats)).sort_file(
            input.path(),
            &by_src,
            &scratch,
        )?;
        {
            let mut w = RecordWriter::<u64>::create(&dir.join("degrees.bin"), Arc::clone(&stats))?;
            let mut next: u64 = 0;
            let mut run: u64 = 0;
            for e in RecordReader::<Edge>::open(&by_src, Arc::clone(&stats))? {
                let e = e?;
                while next < e.src as u64 {
                    w.push(&run)?;
                    run = 0;
                    next += 1;
                }
                run += 1;
            }
            while next < meta.num_vertices {
                w.push(&run)?;
                run = 0;
                next += 1;
            }
            w.finish()?;
        }

        // Persist the window table and metadata.
        {
            let mut w = RecordWriter::<u64>::create(&dir.join("windows.bin"), Arc::clone(&stats))?;
            for shard in &windows {
                w.push_all(shard.iter())?;
            }
            w.finish()?;
        }
        let mut mf = MetaFile::new();
        mf.set("format", "graphchi-shards")
            .set("num_intervals", num_intervals)
            .set("interval_width", width)
            .set_graph_meta(&meta);
        mf.save(&dir.join("meta.txt"))?;

        Ok(ChiShards { dir: dir.to_path_buf(), meta, num_intervals, interval_width: width, windows })
    }

    pub fn open(dir: &Path, stats: Arc<IoStats>) -> Result<Self> {
        let mf = MetaFile::load(&dir.join("meta.txt"), &stats)?;
        if mf.get("format") != Some("graphchi-shards") {
            return Err(GraphError::Corrupt(format!(
                "{} is not a GraphChi shard directory",
                dir.display()
            )));
        }
        let meta = mf.graph_meta()?;
        let num_intervals = mf.get_u64("num_intervals")? as u32;
        let interval_width = mf.get_u64("interval_width")?;
        let flat: Vec<u64> =
            RecordReader::<u64>::open(&dir.join("windows.bin"), stats)?.read_all()?;
        let row = num_intervals as usize + 1;
        if flat.len() != row * num_intervals as usize {
            return Err(GraphError::Corrupt("windows.bin has the wrong length".into()));
        }
        let windows = flat.chunks(row).map(|c| c.to_vec()).collect();
        Ok(ChiShards { dir: dir.to_path_buf(), meta, num_intervals, interval_width, windows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn build(edges: Vec<Edge>, budget: MemoryBudget) -> (ScratchDir, ChiShards) {
        let dir = ScratchDir::new("shards").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        let shards =
            ChiShards::convert(&el, &dir.path().join("chi"), ShardingConfig::new(budget), stats())
                .unwrap();
        (dir, shards)
    }

    fn sample() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 0),
            Edge::new(3, 1),
        ]
    }

    #[test]
    fn single_interval_when_budget_is_big() {
        let (_d, s) = build(sample(), MemoryBudget::from_mib(4));
        assert_eq!(s.num_intervals(), 1);
        assert_eq!(s.interval_range(0), (0, 4));
        assert_eq!(s.shard_len(0), 7);
        assert_eq!(s.window(0, 0), (0, 7));
    }

    #[test]
    fn shards_partition_edges_by_destination() {
        // Budget small enough for several intervals: 4 vertices * 8 B = 32 B
        // of vertex state; budget 64 => v-quota 16 => 2 intervals.
        let (_d, s) = build(sample(), MemoryBudget(64));
        assert!(s.num_intervals() >= 2, "got {}", s.num_intervals());
        let mut total = 0;
        for q in 0..s.num_intervals() {
            let (lo, hi) = s.interval_range(q);
            let edges: Vec<Edge> =
                RecordReader::<Edge>::open(&s.shard_path(q), stats()).unwrap().read_all().unwrap();
            assert_eq!(edges.len() as u64, s.shard_len(q));
            for e in &edges {
                assert!(e.dst >= lo && e.dst < hi, "edge {e:?} outside shard {q}");
            }
            assert!(edges.windows(2).all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
            total += edges.len();
        }
        assert_eq!(total, 7);
    }

    #[test]
    fn windows_select_sources_in_interval() {
        let (_d, s) = build(sample(), MemoryBudget(64));
        for q in 0..s.num_intervals() {
            let edges: Vec<Edge> =
                RecordReader::<Edge>::open(&s.shard_path(q), stats()).unwrap().read_all().unwrap();
            for p in 0..s.num_intervals() {
                let (lo, hi) = s.interval_range(p);
                let (a, b) = s.window(q, p);
                for (i, e) in edges.iter().enumerate() {
                    let inside = (i as u64) >= a && (i as u64) < b;
                    let in_interval = e.src >= lo && e.src < hi;
                    assert_eq!(inside, in_interval, "shard {q} window {p} edge {i}");
                }
            }
        }
    }

    #[test]
    fn degree_index_is_dense_and_correct() {
        let (_d, s) = build(sample(), MemoryBudget::from_mib(4));
        let degrees: Vec<u64> =
            RecordReader::<u64>::open(&s.degrees_path(), stats()).unwrap().read_all().unwrap();
        assert_eq!(degrees, vec![3, 1, 1, 2]);
        assert_eq!(s.index_bytes(), 5 * 8);
    }

    #[test]
    fn reopen_roundtrip() {
        let (dir, s) = build(sample(), MemoryBudget(64));
        let reopened = ChiShards::open(&dir.path().join("chi"), stats()).unwrap();
        assert_eq!(reopened.num_intervals(), s.num_intervals());
        assert_eq!(reopened.meta(), s.meta());
        for q in 0..s.num_intervals() {
            for p in 0..s.num_intervals() {
                assert_eq!(reopened.window(q, p), s.window(q, p));
            }
        }
    }

    #[test]
    fn isolated_destination_interval_gets_empty_shard() {
        // All edges point at vertex 0; vertex 7 exists but receives nothing.
        let edges = vec![Edge::new(7, 0), Edge::new(3, 0)];
        let (_d, s) = build(edges, MemoryBudget(32));
        assert!(s.num_intervals() >= 2);
        let last = s.num_intervals() - 1;
        assert_eq!(s.shard_len(last), 0);
    }
}
