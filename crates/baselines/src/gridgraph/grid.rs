//! The 2-level grid layout: `P x P` edge blocks on disk.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, RecordWriter, ScratchDir};
use graphz_storage::meta::MetaFile;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, GraphError, GraphMeta, MemoryBudget, Result, VertexId};

/// Cap on the chunk count: GridGraph uses modest grids (the paper's own
/// configurations are tens of chunks); `64` bounds the block-file count at
/// 4096 and open writers at 64.
pub const MAX_CHUNKS: u64 = 64;

/// An on-disk grid directory: `block-<i>-<j>.bin` files (absent = empty).
#[derive(Debug, Clone)]
pub struct GridPartitions {
    dir: PathBuf,
    meta: GraphMeta,
    num_chunks: u32,
    width: u64,
}

impl GridPartitions {
    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    pub fn num_chunks(&self) -> u32 {
        self.num_chunks
    }

    pub fn width(&self) -> u64 {
        self.width
    }

    /// Vertex range `[start, end)` of chunk `c`.
    pub fn range(&self, c: u32) -> (VertexId, VertexId) {
        let start = c as u64 * self.width;
        let end = (start + self.width).min(self.meta.num_vertices);
        (start as VertexId, end as VertexId)
    }

    pub fn chunk_of(&self, v: VertexId) -> u32 {
        (v as u64 / self.width) as u32
    }

    pub fn block_path(&self, i: u32, j: u32) -> PathBuf {
        self.dir.join(format!("block-{i:03}-{j:03}.bin"))
    }

    /// Stream block `(i, j)`'s edges; an absent block is empty.
    pub fn block_edges(
        &self,
        i: u32,
        j: u32,
        stats: Arc<IoStats>,
    ) -> Result<Option<RecordReader<Edge>>> {
        let path = self.block_path(i, j);
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(RecordReader::open(&path, stats)?))
    }

    /// Build the grid: one pass bucketing by source chunk, then one pass per
    /// source chunk bucketing by destination chunk — never more than
    /// `P + 1` files open at once.
    pub fn convert(
        input: &EdgeListFile,
        dir: &Path,
        budget: MemoryBudget,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let meta = input.meta();
        let quota = (budget.bytes() / 4).max(8);
        let width_by_budget = (quota / 8).max(1);
        let chunks_by_budget = meta.num_vertices.div_ceil(width_by_budget).max(1);
        let num_chunks = chunks_by_budget.min(MAX_CHUNKS) as u32;
        let width = meta.num_vertices.div_ceil(num_chunks as u64).max(1);
        let num_chunks = meta.num_vertices.div_ceil(width).max(1) as u32;
        let this = GridPartitions { dir: dir.to_path_buf(), meta, num_chunks, width };

        // Level 1: bucket by source chunk.
        let scratch = ScratchDir::new("grid-convert")?;
        {
            let mut writers: Vec<RecordWriter<Edge>> = (0..num_chunks)
                .map(|i| {
                    RecordWriter::<Edge>::create(
                        &scratch.file(&format!("row-{i:03}.bin")),
                        Arc::clone(&stats),
                    )
                })
                .collect::<Result<_>>()?;
            for e in input.reader(Arc::clone(&stats))? {
                let e = e?;
                writers[this.chunk_of(e.src) as usize].push(&e)?;
            }
            for w in writers {
                w.finish()?;
            }
        }
        // Level 2: split each row into its blocks (lazily, only non-empty
        // blocks get files).
        for i in 0..num_chunks {
            let row = scratch.file(&format!("row-{i:03}.bin"));
            let mut writers: Vec<Option<RecordWriter<Edge>>> =
                (0..num_chunks).map(|_| None).collect();
            for e in RecordReader::<Edge>::open(&row, Arc::clone(&stats))? {
                let e = e?;
                let j = this.chunk_of(e.dst) as usize;
                if writers[j].is_none() {
                    writers[j] = Some(RecordWriter::<Edge>::create(
                        &this.block_path(i, j as u32),
                        Arc::clone(&stats),
                    )?);
                }
                writers[j].as_mut().unwrap().push(&e)?;
            }
            for w in writers.into_iter().flatten() {
                w.finish()?;
            }
            let _ = std::fs::remove_file(&row);
        }

        let mut mf = MetaFile::new();
        mf.set("format", "gridgraph")
            .set("num_chunks", num_chunks)
            .set("width", width)
            .set_graph_meta(&meta);
        mf.save(&dir.join("meta.txt"))?;
        Ok(this)
    }

    pub fn open(dir: &Path) -> Result<Self> {
        let mf = MetaFile::load(&dir.join("meta.txt"), &IoStats::new())?;
        if mf.get("format") != Some("gridgraph") {
            return Err(GraphError::Corrupt(format!(
                "{} is not a GridGraph directory",
                dir.display()
            )));
        }
        Ok(GridPartitions {
            dir: dir.to_path_buf(),
            meta: mf.graph_meta()?,
            num_chunks: mf.get_u64("num_chunks")? as u32,
            width: mf.get_u64("width")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn sample() -> Vec<Edge> {
        vec![
            Edge::new(0, 3),
            Edge::new(3, 0),
            Edge::new(1, 2),
            Edge::new(2, 1),
            Edge::new(0, 1),
            Edge::new(3, 2),
        ]
    }

    fn build(budget: MemoryBudget) -> (ScratchDir, GridPartitions) {
        let dir = ScratchDir::new("grid").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        let grid = GridPartitions::convert(&el, &dir.path().join("grid"), budget, stats()).unwrap();
        (dir, grid)
    }

    #[test]
    fn blocks_partition_edges_by_both_endpoints() {
        // budget 64 => quota 16 => width 2 => 2x2 grid for 4 vertices.
        let (_dir, grid) = build(MemoryBudget(64));
        assert_eq!(grid.num_chunks(), 2);
        let mut total = 0;
        for i in 0..2 {
            let (slo, shi) = grid.range(i);
            for j in 0..2 {
                let (dlo, dhi) = grid.range(j);
                if let Some(reader) = grid.block_edges(i, j, stats()).unwrap() {
                    for e in reader {
                        let e = e.unwrap();
                        assert!(e.src >= slo && e.src < shi, "block ({i},{j}): {e:?}");
                        assert!(e.dst >= dlo && e.dst < dhi, "block ({i},{j}): {e:?}");
                        total += 1;
                    }
                }
            }
        }
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_blocks_have_no_files() {
        let dir = ScratchDir::new("grid-empty").unwrap();
        // All edges go 0 -> 3: only block (0, 1) exists in a 2x2 grid.
        let el = EdgeListFile::create(
            &dir.file("g.bin"),
            stats(),
            vec![Edge::new(0, 3), Edge::new(0, 3)],
        )
        .unwrap();
        let grid =
            GridPartitions::convert(&el, &dir.path().join("grid"), MemoryBudget(64), stats())
                .unwrap();
        assert!(grid.block_edges(0, 1, stats()).unwrap().is_some());
        assert!(grid.block_edges(0, 0, stats()).unwrap().is_none());
        assert!(grid.block_edges(1, 0, stats()).unwrap().is_none());
        assert!(grid.block_edges(1, 1, stats()).unwrap().is_none());
    }

    #[test]
    fn chunk_count_is_capped() {
        let dir = ScratchDir::new("grid-cap").unwrap();
        let edges: Vec<Edge> = (0..5000u32).map(|i| Edge::new(i, (i + 1) % 5000)).collect();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        // A starved budget would demand thousands of chunks; the cap holds.
        let grid =
            GridPartitions::convert(&el, &dir.path().join("grid"), MemoryBudget(64), stats())
                .unwrap();
        assert_eq!(grid.num_chunks() as u64, MAX_CHUNKS);
    }

    #[test]
    fn reopen_roundtrip() {
        let (dir, grid) = build(MemoryBudget(64));
        let re = GridPartitions::open(&dir.path().join("grid")).unwrap();
        assert_eq!(re.num_chunks(), grid.num_chunks());
        assert_eq!(re.width(), grid.width());
        assert_eq!(re.meta(), grid.meta());
    }
}
