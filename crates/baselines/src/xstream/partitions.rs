//! Streaming-partition construction: bucket edges by source.
//!
//! This is the whole of X-Stream's preprocessing (Table XII): a single
//! sequential pass appending each edge to its source partition's file. No
//! sorting, no index — the paper notes its simplicity (and that the original
//! release implemented it in Python).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, RecordWriter};
use graphz_storage::meta::MetaFile;
use graphz_storage::EdgeListFile;
use graphz_types::{Edge, GraphError, GraphMeta, MemoryBudget, Result, VertexId};

/// An on-disk streaming-partition directory.
#[derive(Debug, Clone)]
pub struct XsPartitions {
    dir: PathBuf,
    meta: GraphMeta,
    num_partitions: u32,
    width: u64,
}

impl XsPartitions {
    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    pub fn width(&self) -> u64 {
        self.width
    }

    /// Vertex range `[start, end)` of partition `p`.
    pub fn range(&self, p: u32) -> (VertexId, VertexId) {
        let start = p as u64 * self.width;
        let end = (start + self.width).min(self.meta.num_vertices);
        (start as VertexId, end as VertexId)
    }

    pub fn partition_of(&self, v: VertexId) -> u32 {
        (v as u64 / self.width) as u32
    }

    pub fn edges_path(&self, p: u32) -> PathBuf {
        self.dir.join(format!("edges-{p:04}.bin"))
    }

    /// Bucket `input` into streaming partitions sized so one partition's
    /// vertex state (assumed 8 bytes/vertex, X-Stream's canonical figure)
    /// uses a quarter of the budget.
    pub fn convert(
        input: &EdgeListFile,
        dir: &Path,
        budget: MemoryBudget,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let meta = input.meta();
        let quota = (budget.bytes() / 4).max(8);
        let width = (quota / 8).max(1);
        let num_partitions = meta.num_vertices.div_ceil(width).max(1) as u32;

        let this = XsPartitions { dir: dir.to_path_buf(), meta, num_partitions, width };
        {
            let mut writers: Vec<RecordWriter<Edge>> = (0..num_partitions)
                .map(|p| RecordWriter::<Edge>::create(&this.edges_path(p), Arc::clone(&stats)))
                .collect::<Result<_>>()?;
            for e in input.reader(Arc::clone(&stats))? {
                let e = e?;
                writers[this.partition_of(e.src) as usize].push(&e)?;
            }
            for w in writers {
                w.finish()?;
            }
        }
        let mut mf = MetaFile::new();
        mf.set("format", "xstream-partitions")
            .set("num_partitions", num_partitions)
            .set("width", width)
            .set_graph_meta(&meta);
        mf.save(&dir.join("meta.txt"))?;
        Ok(this)
    }

    pub fn open(dir: &Path) -> Result<Self> {
        let mf = MetaFile::load(&dir.join("meta.txt"), &IoStats::new())?;
        if mf.get("format") != Some("xstream-partitions") {
            return Err(GraphError::Corrupt(format!(
                "{} is not an X-Stream partition directory",
                dir.display()
            )));
        }
        Ok(XsPartitions {
            dir: dir.to_path_buf(),
            meta: mf.graph_meta()?,
            num_partitions: mf.get_u64("num_partitions")? as u32,
            width: mf.get_u64("width")?,
        })
    }

    /// Stream one partition's edges.
    pub fn edges(&self, p: u32, stats: Arc<IoStats>) -> Result<RecordReader<Edge>> {
        RecordReader::open(&self.edges_path(p), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;

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
        ]
    }

    #[test]
    fn buckets_cover_all_edges_by_source() {
        let dir = ScratchDir::new("xs-part").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        // budget 64 => quota 16 => width 2 => 2 partitions for 4 vertices.
        let parts =
            XsPartitions::convert(&el, &dir.path().join("xs"), MemoryBudget(64), stats()).unwrap();
        assert_eq!(parts.num_partitions(), 2);
        let mut total = 0;
        for p in 0..parts.num_partitions() {
            let (lo, hi) = parts.range(p);
            for e in parts.edges(p, stats()).unwrap() {
                let e = e.unwrap();
                assert!(e.src >= lo && e.src < hi);
                total += 1;
            }
        }
        assert_eq!(total, 5);
    }

    #[test]
    fn edges_keep_input_order_within_partition() {
        let dir = ScratchDir::new("xs-order").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        let parts =
            XsPartitions::convert(&el, &dir.path().join("xs"), MemoryBudget(64), stats()).unwrap();
        let p0: Vec<Edge> =
            parts.edges(0, stats()).unwrap().collect::<Result<_>>().unwrap();
        // Partition 0 owns sources {0, 1}: order of arrival preserved
        // (X-Stream never sorts edges).
        assert_eq!(p0, vec![Edge::new(0, 3), Edge::new(1, 2), Edge::new(0, 1)]);
    }

    #[test]
    fn reopen_roundtrip() {
        let dir = ScratchDir::new("xs-reopen").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        let parts =
            XsPartitions::convert(&el, &dir.path().join("xs"), MemoryBudget(64), stats()).unwrap();
        let re = XsPartitions::open(&dir.path().join("xs")).unwrap();
        assert_eq!(re.num_partitions(), parts.num_partitions());
        assert_eq!(re.width(), parts.width());
        assert_eq!(re.meta(), parts.meta());
    }

    #[test]
    fn single_partition_when_budget_is_large() {
        let dir = ScratchDir::new("xs-one").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), sample()).unwrap();
        let parts =
            XsPartitions::convert(&el, &dir.path().join("xs"), MemoryBudget::from_mib(1), stats())
                .unwrap();
        assert_eq!(parts.num_partitions(), 1);
        assert_eq!(parts.range(0), (0, 4));
    }
}
