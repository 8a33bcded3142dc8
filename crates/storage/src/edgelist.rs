//! Binary edge-list files and SNAP-style text import/export.
//!
//! The edge list is the interchange format every converter starts from: a
//! flat file of 8-byte `(src, dst)` records with a `meta.txt` sidecar, plus
//! loaders for the whitespace-separated text format used by the SNAP
//! repository graphs the paper evaluates (LiveJournal, as-skitter, ...).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{
    ChecksummedWriter, Fingerprint, IoStats, RecordReader, RecordWriter, ScratchDir, TrackedFile,
};
use graphz_types::prelude::*;

use crate::meta::MetaFile;
use crate::text::{LineError, TextLines};

/// A binary edge-list file (`edges.bin`) with its metadata sidecar
/// (`<stem>.meta.txt`).
#[derive(Debug, Clone)]
pub struct EdgeListFile {
    path: PathBuf,
    meta: GraphMeta,
    /// Fingerprint of the data file, folded while this handle wrote it
    /// (`None` for a handle from [`open`](Self::open)).
    written: Option<Fingerprint>,
}

/// Streams edges into a new edge-list file, folding the metadata and the
/// data file's fingerprint as it goes; [`close`](Self::close) writes the
/// sidecar.
pub(crate) struct EdgeListWriter {
    path: PathBuf,
    w: RecordWriter<Edge, ChecksummedWriter>,
    max_id: Option<VertexId>,
    degrees: HashMap<VertexId, u64>,
}

impl EdgeListWriter {
    pub(crate) fn create(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        // Input-fixture constructor (tests/benches/baselines build edge
        // lists with it); the ingest fault boundary starts at import.
        // flow:allow(fault-surface-bypass) ipa:allow(fault-surface-reach)
        let file = graphz_io::tracked::checksummed_writer(path, stats).ctx("create", path)?;
        Ok(EdgeListWriter {
            path: path.to_path_buf(),
            w: RecordWriter::from_writer(file),
            max_id: None,
            degrees: HashMap::new(),
        })
    }

    #[inline]
    pub(crate) fn push(&mut self, e: Edge) -> Result<()> {
        self.w.push(&e)?;
        self.max_id = Some(self.max_id.map_or(e.src.max(e.dst), |m| m.max(e.src).max(e.dst)));
        *self.degrees.entry(e.src).or_default() += 1;
        Ok(())
    }

    /// Flush the data file, write the sidecar, and return the handle.
    pub(crate) fn close(self) -> Result<EdgeListFile> {
        let num_edges = self.w.count();
        let written = self.w.into_inner()?.get_ref().fingerprint();
        let num_vertices = self.max_id.map_or(0, |m| cast::widen_u32(m) + 1);
        let zero_degree = num_vertices - cast::len_u64(self.degrees.len());
        let mut unique: std::collections::HashSet<u64> = self.degrees.values().copied().collect();
        if zero_degree > 0 {
            unique.insert(0);
        }
        let meta = GraphMeta {
            num_vertices,
            num_edges,
            unique_degrees: cast::len_u64(unique.len()),
            max_degree: self.degrees.values().copied().max().unwrap_or(0),
        };
        EdgeListFile::sidecar(&meta).save(&EdgeListFile::meta_path(&self.path))?;
        Ok(EdgeListFile { path: self.path, meta, written: Some(written) })
    }

    /// Create `path`, stream edges into it with `fill`, and seal it. On any
    /// error the partial data file is removed, so a failed import leaves no
    /// edge list behind.
    pub(crate) fn write_streamed(
        path: &Path,
        stats: Arc<IoStats>,
        fill: impl FnOnce(&mut EdgeListWriter) -> Result<()>,
    ) -> Result<EdgeListFile> {
        let mut w = EdgeListWriter::create(path, stats)?;
        match fill(&mut w) {
            Ok(()) => w.close(),
            Err(e) => {
                drop(w);
                let _ = std::fs::remove_file(path);
                Err(e)
            }
        }
    }
}

impl EdgeListFile {
    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    fn meta_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_owned();
        os.push(".meta.txt");
        PathBuf::from(os)
    }

    fn sidecar(meta: &GraphMeta) -> MetaFile {
        let mut mf = MetaFile::new();
        mf.set("format", "edgelist").set_graph_meta(meta);
        mf
    }

    /// Fingerprint of the data file as this handle wrote it; `None` for a
    /// handle from [`open`](Self::open).
    pub(crate) fn written(&self) -> Option<Fingerprint> {
        self.written
    }

    /// Fingerprint of the metadata sidecar, rendered from the metadata
    /// (the sidecar is a pure function of it).
    pub(crate) fn sidecar_fingerprint(&self) -> Fingerprint {
        Self::sidecar(&self.meta).fingerprint()
    }

    /// Write `edges` to `path` and compute metadata.
    ///
    /// `num_vertices` is `max id + 1` (the id space may be sparse — paper
    /// §III-B notes real graphs routinely have a max ID far above the vertex
    /// count; id `u` exists even if it has no edges below `num_vertices`).
    pub fn create<I>(path: &Path, stats: Arc<IoStats>, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut w = EdgeListWriter::create(path, stats)?;
        for e in edges {
            w.push(e)?;
        }
        w.close()
    }

    /// Open an existing edge-list file.
    pub fn open(path: &Path) -> Result<Self> {
        let mf = MetaFile::load(&Self::meta_path(path))?;
        if mf.get("format") != Some("edgelist") {
            return Err(GraphError::Corrupt(format!(
                "{} is not an edge list (format={:?})",
                path.display(),
                mf.get("format")
            )));
        }
        Ok(EdgeListFile { path: path.to_path_buf(), meta: mf.graph_meta()?, written: None })
    }

    /// Stream the edges.
    pub fn reader(&self, stats: Arc<IoStats>) -> Result<RecordReader<Edge>> {
        RecordReader::open(&self.path, stats)
    }

    /// Read every edge into memory (tests and small graphs only).
    pub fn read_all(&self, stats: Arc<IoStats>) -> Result<Vec<Edge>> {
        self.reader(stats)?.read_all()
    }

    /// Import a SNAP-style text file: whitespace-separated `src dst` pairs,
    /// `#`-prefixed comment lines ignored; further fields on a line are
    /// ignored too. Edges stream from the text, read in 64 KiB blocks,
    /// straight into the binary writer. A malformed line fails with
    /// [`GraphError::Corrupt`] naming `path:line`, and leaves no edge list
    /// behind.
    pub fn import_text(text_path: &Path, bin_path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        let file = TrackedFile::open(text_path, Arc::clone(&stats)).ctx("open", text_path)?;
        EdgeListWriter::write_streamed(bin_path, stats, |w| {
            Self::stream_text(text_path, TextLines::new(file), w)
        })
    }

    fn stream_text(
        text_path: &Path,
        mut lines: TextLines<TrackedFile>,
        w: &mut EdgeListWriter,
    ) -> Result<()> {
        let mut lineno = 0u64;
        while let Some((_, verdict)) = lines.next_line()? {
            lineno += 1;
            match verdict {
                Ok(Some(e)) => w.push(e)?,
                Ok(None) => {}
                Err(e) => {
                    let reason = match e {
                        LineError::NotU32(_) => "vertex id is not a u32".to_string(),
                        e => e.to_string(),
                    };
                    return Err(GraphError::Corrupt(format!(
                        "{}:{lineno}: {reason}",
                        text_path.display()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Import a Matrix Market coordinate file (`%%MatrixMarket matrix
    /// coordinate ...`): 1-based `row col [value]` entries become 0-based
    /// directed edges; a `symmetric` header adds the mirrored edge.
    pub fn import_matrix_market(
        mm_path: &Path,
        bin_path: &Path,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let file = std::fs::File::open(mm_path).ctx("open", mm_path)?;
        let reader = BufReader::new(file);
        let mut lines = reader.lines();
        let header = lines
            .next()
            .transpose()?
            .ok_or_else(|| GraphError::Corrupt(format!("{}: empty file", mm_path.display())))?;
        if !header.starts_with("%%MatrixMarket") {
            return Err(GraphError::Corrupt(format!(
                "{}: missing %%MatrixMarket header",
                mm_path.display()
            )));
        }
        let symmetric = header.to_lowercase().contains("symmetric");
        let mut edges = Vec::new();
        let mut saw_dims = false;
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            if !saw_dims {
                saw_dims = true; // "rows cols nnz" — counts recomputed below
                continue;
            }
            let mut it = line.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<u64> {
                tok.ok_or_else(|| {
                    GraphError::Corrupt(format!(
                        "{}:{}: expected `row col [value]`",
                        mm_path.display(),
                        lineno + 2
                    ))
                })?
                .parse()
                .map_err(|_| {
                    GraphError::Corrupt(format!(
                        "{}:{}: index is not an integer",
                        mm_path.display(),
                        lineno + 2
                    ))
                })
            };
            let row = parse(it.next())?;
            let col = parse(it.next())?;
            if row == 0 || col == 0 {
                return Err(GraphError::Corrupt(format!(
                    "{}:{}: Matrix Market indices are 1-based",
                    mm_path.display(),
                    lineno + 2
                )));
            }
            // Fallible narrowing: a 1-based index above 2^32 must be a
            // parse error, not a silently wrapped vertex id.
            let to_id = |n: u64| {
                cast::to_u32(n - 1, "matrix market index").map_err(|_| {
                    GraphError::Corrupt(format!(
                        "{}:{}: index {n} exceeds the u32 id space",
                        mm_path.display(),
                        lineno + 2
                    ))
                })
            };
            let (src, dst) = (to_id(row)?, to_id(col)?);
            edges.push(Edge::new(src, dst));
            if symmetric && src != dst {
                edges.push(Edge::new(dst, src));
            }
        }
        Self::create(bin_path, stats, edges)
    }

    /// Export to SNAP-style text.
    pub fn export_text(&self, text_path: &Path, stats: Arc<IoStats>) -> Result<()> {
        // Debug/interchange export, not an ingest artifact — no surface in
        // reach and nothing downstream verifies it, so a raw create is fine.
        // flow:allow(fault-surface-bypass) ipa:allow(fault-surface-reach)
        let mut out = std::io::BufWriter::new(std::fs::File::create(text_path).ctx("create", text_path)?);
        writeln!(out, "# GraphZ edge list: {} vertices, {} edges", self.meta.num_vertices, self.meta.num_edges)?;
        for e in self.reader(stats)? {
            let e = e?;
            writeln!(out, "{}\t{}", e.src, e.dst)?;
        }
        out.flush()?;
        Ok(())
    }

    /// Produce a symmetrized copy: for every edge `(u, v)` the output has
    /// both `(u, v)` and `(v, u)`, deduplicated, self-loops removed.
    ///
    /// BFS/CC/SSSP treat graphs as undirected (as the paper's benchmark
    /// suites do); the out-of-core dedup uses an external sort so the
    /// operation scales past memory.
    pub fn symmetrize(&self, out_path: &Path, stats: Arc<IoStats>, budget: MemoryBudget) -> Result<Self> {
        let scratch = ScratchDir::new("symmetrize")?;
        let doubled = scratch.file("doubled.bin");
        {
            // Scratch intermediate of an input-preparation utility, outside
            // the ingest fault boundary (see `create` above).
            let mut w =
                // flow:allow(fault-surface-bypass) ipa:allow(fault-surface-reach)
                RecordWriter::<Edge>::create(&doubled, Arc::clone(&stats)).ctx("create", &doubled)?;
            for e in self.reader(Arc::clone(&stats))? {
                let e = e?;
                if e.src == e.dst {
                    continue;
                }
                w.push(&e)?;
                w.push(&Edge::new(e.dst, e.src))?;
            }
            w.finish()?;
        }
        let sorted = scratch.file("sorted.bin");
        graphz_extsort::ExternalSorter::new(
            |e: &Edge| (e.src, e.dst),
            budget,
            Arc::clone(&stats),
        )
        .sort_file(&doubled, &sorted, &scratch)?;

        let mut prev: Option<Edge> = None;
        let deduped = RecordReader::<Edge>::open(&sorted, Arc::clone(&stats))?
            .map(|e| e.expect("sorted run must be readable"))
            .filter(move |e| {
                let keep = prev != Some(*e);
                prev = Some(*e);
                keep
            });
        Self::create(out_path, stats, deduped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    #[test]
    fn create_and_open_roundtrip() {
        let dir = ScratchDir::new("el").unwrap();
        let path = dir.file("g.bin");
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(5, 0)];
        let f = EdgeListFile::create(&path, stats(), edges.clone()).unwrap();
        assert_eq!(f.meta().num_vertices, 6);
        assert_eq!(f.meta().num_edges, 3);
        assert_eq!(f.meta().max_degree, 1);
        let f2 = EdgeListFile::open(&path).unwrap();
        assert_eq!(f2.meta(), f.meta());
        assert_eq!(f2.read_all(stats()).unwrap(), edges);
    }

    #[test]
    fn meta_counts_unique_degrees_including_zero() {
        let dir = ScratchDir::new("el-ud").unwrap();
        let path = dir.file("g.bin");
        // Vertex 0 has degree 2, vertex 1 degree 1, vertices 2 and 3 degree 0.
        let edges = vec![Edge::new(0, 2), Edge::new(0, 3), Edge::new(1, 2)];
        let f = EdgeListFile::create(&path, stats(), edges).unwrap();
        assert_eq!(f.meta().unique_degrees, 3); // {2, 1, 0}
    }

    #[test]
    fn empty_graph() {
        let dir = ScratchDir::new("el-empty").unwrap();
        let path = dir.file("g.bin");
        let f = EdgeListFile::create(&path, stats(), vec![]).unwrap();
        assert_eq!(f.meta().num_vertices, 0);
        assert_eq!(f.meta().num_edges, 0);
        assert_eq!(f.meta().unique_degrees, 0);
    }

    #[test]
    fn text_import_export() {
        let dir = ScratchDir::new("el-text").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "# comment\n0 1\n1\t2\n\n2 0\n").unwrap();
        let f = EdgeListFile::import_text(&txt, &dir.file("g.bin"), stats()).unwrap();
        assert_eq!(f.meta().num_edges, 3);
        let out_txt = dir.file("out.txt");
        f.export_text(&out_txt, stats()).unwrap();
        let f2 =
            EdgeListFile::import_text(&out_txt, &dir.file("g2.bin"), stats()).unwrap();
        assert_eq!(f2.read_all(stats()).unwrap(), f.read_all(stats()).unwrap());
    }

    #[test]
    fn matrix_market_import_general_and_symmetric() {
        let dir = ScratchDir::new("el-mm").unwrap();
        let mm = dir.file("g.mtx");
        std::fs::write(
            &mm,
            "%%MatrixMarket matrix coordinate real general
             % a comment
             3 3 3
             1 2 0.5
             2 3 1.5
             3 1 2.5
",
        )
        .unwrap();
        let f = EdgeListFile::import_matrix_market(&mm, &dir.file("g.bin"), stats()).unwrap();
        assert_eq!(
            f.read_all(stats()).unwrap(),
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
        );

        let mm_sym = dir.file("s.mtx");
        std::fs::write(
            &mm_sym,
            "%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 2
2 2
",
        )
        .unwrap();
        let f = EdgeListFile::import_matrix_market(&mm_sym, &dir.file("s.bin"), stats()).unwrap();
        // Off-diagonal entries mirror; the self-loop does not duplicate.
        assert_eq!(
            f.read_all(stats()).unwrap(),
            vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 1)]
        );
    }

    #[test]
    fn matrix_market_rejects_bad_headers_and_indices() {
        let dir = ScratchDir::new("el-mm-bad").unwrap();
        let no_header = dir.file("nh.mtx");
        std::fs::write(&no_header, "1 1 1
1 1
").unwrap();
        assert!(matches!(
            EdgeListFile::import_matrix_market(&no_header, &dir.file("nh.bin"), stats()),
            Err(GraphError::Corrupt(_))
        ));
        let zero_based = dir.file("zb.mtx");
        std::fs::write(&zero_based, "%%MatrixMarket matrix coordinate
2 2 1
0 1
").unwrap();
        assert!(matches!(
            EdgeListFile::import_matrix_market(&zero_based, &dir.file("zb.bin"), stats()),
            Err(GraphError::Corrupt(_))
        ));
        // A 1-based index beyond the u32 id space must fail loudly instead of
        // wrapping: 4294967298 - 1 would truncate to vertex 1.
        let huge = dir.file("huge.mtx");
        std::fs::write(&huge, "%%MatrixMarket matrix coordinate
5000000000 5000000000 1
4294967298 1
").unwrap();
        let err = EdgeListFile::import_matrix_market(&huge, &dir.file("huge.bin"), stats())
            .unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("u32 id space"), "{err}");
    }

    #[test]
    fn text_import_rejects_garbage() {
        let dir = ScratchDir::new("el-bad").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 notanumber\n").unwrap();
        let err = EdgeListFile::import_text(&txt, &dir.file("g.bin"), stats()).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)));
    }

    #[test]
    fn non_utf8_line_is_a_typed_error_naming_path_and_line() {
        let dir = ScratchDir::new("el-utf8").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, b"0 1\n1 \xff\xfe\n2 0\n").unwrap();
        let want = format!("{}:2: line is not valid UTF-8", txt.display());
        for threads in [1usize, 2] {
            let bin = dir.file(&format!("g-{threads}.bin"));
            let err = crate::chunked::import_text_chunked(&txt, &bin, stats(), threads, 1 << 20)
                .unwrap_err();
            match err {
                GraphError::Corrupt(m) => assert_eq!(m, want, "threads={threads}"),
                other => panic!("threads={threads}: expected Corrupt, got {other:?}"),
            }
            assert!(!bin.exists(), "a failed import must leave no edge list behind");
        }
    }

    #[test]
    fn created_file_knows_its_fingerprints() {
        let dir = ScratchDir::new("el-fp").unwrap();
        let path = dir.file("g.bin");
        let edges: Vec<Edge> = (0..20_000).map(|i| Edge::new(i % 97, i % 13)).collect();
        let f = EdgeListFile::create(&path, stats(), edges).unwrap();
        let on_disk = |p: &Path| {
            let (len, crc) = graphz_io::crc32_stream(std::fs::File::open(p).unwrap()).unwrap();
            Fingerprint { len, crc }
        };
        assert_eq!(f.written(), Some(on_disk(&path)));
        assert_eq!(f.sidecar_fingerprint(), on_disk(&EdgeListFile::meta_path(&path)));
        assert_eq!(EdgeListFile::open(&path).unwrap().written(), None);
    }

    #[test]
    fn open_rejects_wrong_format() {
        let dir = ScratchDir::new("el-fmt").unwrap();
        let path = dir.file("g.bin");
        std::fs::write(&path, []).unwrap();
        let mut mf = MetaFile::new();
        mf.set("format", "dos");
        mf.save(&EdgeListFile::meta_path(&path)).unwrap();
        assert!(matches!(EdgeListFile::open(&path), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn symmetrize_adds_reverse_edges_and_dedups() {
        let dir = ScratchDir::new("el-sym").unwrap();
        let f = EdgeListFile::create(
            &dir.file("g.bin"),
            stats(),
            vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 2), Edge::new(1, 2)],
        )
        .unwrap();
        let s = f.symmetrize(&dir.file("s.bin"), stats(), MemoryBudget::from_kib(64)).unwrap();
        let edges = s.read_all(stats()).unwrap();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2), Edge::new(2, 1)]
        );
    }
}
