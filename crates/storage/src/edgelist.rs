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

/// One malformed input line, quarantined instead of aborting the import
/// (see [`EdgeListFile::import_text_quarantined`]).
///
/// `line` is the 1-based line number, `byte` the offset where the line
/// begins, `text` the line without its line break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    pub line: u64,
    pub byte: u64,
    pub text: String,
    pub reason: String,
}

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
            Self::stream_text(file, w, |lineno, _, _, e| {
                let reason = match e {
                    LineError::NotU32(_) => "vertex id is not a u32".to_string(),
                    e => e.to_string(),
                };
                Err(GraphError::Corrupt(format!("{}:{lineno}: {reason}", text_path.display())))
            })
        })
    }

    /// Import a SNAP-style text file like [`import_text`](Self::import_text),
    /// but quarantine up to `max_bad_records` malformed lines instead of
    /// aborting on the first one.
    ///
    /// Returns the imported edge list (malformed lines simply dropped from
    /// it) plus the quarantined records in line order. The (n+1)-th
    /// malformed line, for `n = max_bad_records`, stops the import with a
    /// typed [`GraphError::Corrupt`] naming the first one, and leaves no
    /// edge list behind. IO errors abort as in the strict import: they say
    /// nothing about the input's content.
    pub fn import_text_quarantined(
        text_path: &Path,
        bin_path: &Path,
        stats: Arc<IoStats>,
        max_bad_records: u64,
    ) -> Result<(Self, Vec<BadRecord>)> {
        let file = TrackedFile::open(text_path, Arc::clone(&stats)).ctx("open", text_path)?;
        let mut bad: Vec<BadRecord> = Vec::new();
        let edges = EdgeListWriter::write_streamed(bin_path, stats, |w| {
            Self::stream_text(file, w, |line, byte, text, e| {
                bad.push(BadRecord {
                    line,
                    byte,
                    text: String::from_utf8_lossy(text).trim_end().to_string(),
                    reason: e.to_string(),
                });
                if cast::len_u64(bad.len()) <= max_bad_records {
                    return Ok(());
                }
                let first = bad.first().map_or(0, |b| b.line);
                Err(GraphError::Corrupt(format!(
                    "{}: malformed records exceed --max-bad-records {max_bad_records} \
                     (first at line {first})",
                    text_path.display(),
                )))
            })
        })?;
        Ok((edges, bad))
    }

    /// Stream the edges of a text file into `w`, in file order. Each
    /// malformed line goes to `on_bad(line number, byte offset, bytes,
    /// reason)`, whose error stops the import.
    fn stream_text(
        file: TrackedFile,
        w: &mut EdgeListWriter,
        mut on_bad: impl FnMut(u64, u64, &[u8], LineError) -> Result<()>,
    ) -> Result<()> {
        let mut lines = TextLines::new(file);
        let (mut lineno, mut at) = (0u64, 0u64);
        while let Some((line, verdict)) = lines.next_line()? {
            lineno += 1;
            match verdict {
                Ok(Some(e)) => w.push(e)?,
                Ok(None) => {}
                Err(e) => on_bad(lineno, at, line, e)?,
            }
            at = cast::add_u64(at, cast::len_u64(line.len()), "text line offset")?;
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
        let bin = dir.file("g.bin");
        match EdgeListFile::import_text(&txt, &bin, stats()).unwrap_err() {
            GraphError::Corrupt(m) => assert_eq!(m, want),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!bin.exists(), "a failed import must leave no edge list behind");
    }

    #[test]
    fn quarantine_collects_bad_lines_with_stable_global_numbers() {
        let dir = ScratchDir::new("el-quar").unwrap();
        let txt = dir.file("g.txt");
        // Line numbers (1-based): 1 comment, 2 good, 3 bad, 4 good, 5 blank,
        // 6 bad, 7 good.
        std::fs::write(&txt, "# header\n0 1\n1 nope\n1 2\n\n999999999999 0\n2 0\n").unwrap();
        // Reference: the same file with the bad lines removed.
        let clean_bin = dir.file("clean.bin");
        std::fs::write(dir.file("clean.txt"), "# header\n0 1\n1 2\n\n2 0\n").unwrap();
        EdgeListFile::import_text(&dir.file("clean.txt"), &clean_bin, stats()).unwrap();
        let bin = dir.file("q.bin");
        let (f, bad) = EdgeListFile::import_text_quarantined(&txt, &bin, stats(), 10).unwrap();
        assert_eq!(f.meta().num_edges, 3);
        assert_eq!(std::fs::read(&bin).unwrap(), std::fs::read(&clean_bin).unwrap());
        let lines: Vec<u64> = bad.iter().map(|b| b.line).collect();
        assert_eq!(lines, vec![3, 6]);
        assert_eq!(bad[0].text, "1 nope");
        assert_eq!(bad[0].byte, 13);
        assert!(bad[0].reason.contains("not a u32"), "{}", bad[0].reason);
        assert!(bad[1].reason.contains("not a u32"), "{}", bad[1].reason);
    }

    #[test]
    fn quarantine_over_budget_is_a_typed_error() {
        let dir = ScratchDir::new("el-quar-cap").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\nbad one\nbad two\n1 2\n").unwrap();
        let err = EdgeListFile::import_text_quarantined(&txt, &dir.file("g.bin"), stats(), 1)
            .unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("max-bad-records"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(!dir.file("g.bin").exists(), "an import over the limit leaves no edge list");
        // With a budget that fits, the same file imports.
        let (f, bad) =
            EdgeListFile::import_text_quarantined(&txt, &dir.file("ok.bin"), stats(), 2).unwrap();
        assert_eq!(f.meta().num_edges, 2);
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn quarantine_stops_at_the_first_line_past_the_limit() {
        // Bad lines 2 and (near byte 150 000) 15 002 of a ~400 KB file; the
        // text is read in 64 KiB blocks, so the bytes read show where the
        // import stopped.
        let dir = ScratchDir::new("el-quar-stop").unwrap();
        let txt = dir.file("g.txt");
        let mut text = String::from("0 1\nfirst bad\n");
        while text.len() < 150_000 {
            text.push_str("12345 678\n");
        }
        let second_at = text.len() as u64;
        text.push_str("second bad\n");
        while text.len() < 400_000 {
            text.push_str("12345 678\n");
        }
        std::fs::write(&txt, &text).unwrap();
        let block = 64 * 1024;
        for (max, stop) in [(0u64, 0u64), (1, second_at)] {
            let stats = stats();
            let bin = dir.file(&format!("g-{max}.bin"));
            let err = EdgeListFile::import_text_quarantined(&txt, &bin, Arc::clone(&stats), max)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "corrupt data: {}: malformed records exceed --max-bad-records {max} \
                     (first at line 2)",
                    txt.display()
                )
            );
            let read = stats.snapshot().bytes_read;
            assert!(read > stop && read <= stop + block, "max {max}: read {read} bytes");
            assert!(!bin.exists(), "max {max}: an import over the limit leaves no edge list");
        }
        let (f, bad) =
            EdgeListFile::import_text_quarantined(&txt, &dir.file("ok.bin"), stats(), 2).unwrap();
        assert_eq!(bad.iter().map(|b| (b.line, b.byte)).collect::<Vec<_>>(), [
            (2, 4),
            (cast::len_u64(text[..second_at as usize].lines().count()) + 1, second_at)
        ]);
        assert_eq!(f.meta().num_edges, cast::len_u64(text.lines().count()) - 2);
    }

    /// One line's verdict under the reference parse: the good edge (or
    /// `None` for a blank/comment), or the quarantine's reason.
    type Verdict = std::result::Result<Option<Edge>, String>;

    /// The reference: the `str` parse the import used before the byte-level
    /// parser, applied line by line. Returns each line's start offset, raw
    /// bytes and verdict.
    fn reference(bytes: &[u8]) -> Vec<(u64, Vec<u8>, Verdict)> {
        let mut out = Vec::new();
        let mut at = 0u64;
        for raw in bytes.split_inclusive(|&b| b == b'\n') {
            let verdict = match std::str::from_utf8(raw) {
                Err(_) => Err("line is not valid UTF-8".to_string()),
                Ok(line) => {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        Ok(None)
                    } else {
                        let mut it = line.split_whitespace();
                        let mut field = |name: &str| -> std::result::Result<u32, String> {
                            it.next()
                                .ok_or_else(|| "expected `src dst`".to_string())?
                                .parse()
                                .map_err(|_| format!("{name} is not a u32"))
                        };
                        field("src").and_then(|src| Ok(Some(Edge::new(src, field("dst")?))))
                    }
                }
            };
            out.push((at, raw.to_vec(), verdict));
            at += raw.len() as u64;
        }
        out
    }

    /// The error text the strict import gives for the first bad line.
    fn strict_error(path: &Path, lines: &[(u64, Vec<u8>, Verdict)]) -> Option<String> {
        let (idx, (_, _, verdict)) =
            lines.iter().enumerate().find(|(_, (_, _, v))| v.is_err())?;
        let reason = verdict.clone().unwrap_err();
        let reason =
            if reason.ends_with("is not a u32") { "vertex id is not a u32" } else { &reason };
        Some(format!("corrupt data: {}:{}: {reason}", path.display(), idx + 1))
    }

    /// Documents covering the grammar's corners; each is imported whole.
    fn corpus() -> Vec<Vec<u8>> {
        let mut docs: Vec<Vec<u8>> = vec![
            b"0 1\r\n1\t2\r\n  3 4  \n\t5\t6\t\n\n   \n  # 7 8\n#c\n".to_vec(),
            b"+5 6\n7 8 9\n9 10 extra field\n4294967295 0\n0 4294967295\n".to_vec(),
            "1\u{a0}2\n3 \u{a0}4\u{a0}\n\u{2003}5 6\n".as_bytes().to_vec(),
            b"1 2\n3 4".to_vec(),
            b"1 2\r".to_vec(),
            b"".to_vec(),
            b"4294967296 0\n1 2\n".to_vec(),
            b"1 2\n0 4294967296\n".to_vec(),
            b"1 2\n7\n".to_vec(),
            b"1 2\n-1 2\n".to_vec(),
            b"1 2\n1 \xff\n3 4\n".to_vec(),
            b"1 2\n\xc3\n".to_vec(),
            b"0 1\n1 x\n2 y\n\xfe 3\n4 5\n".to_vec(),
        ];
        // A line straddling the first 64 KiB block boundary, then a bad one.
        let mut big = Vec::new();
        let mut i = 0u32;
        while big.len() < 64 * 1024 - 5 {
            big.extend_from_slice(format!("{} {}\n", i % 1000, i % 777).as_bytes());
            i += 1;
        }
        big.extend_from_slice(b"123456 654321\n");
        big.extend_from_slice(b"8 9\n");
        docs.push(big.clone());
        big.extend_from_slice(b"8 nine\n");
        docs.push(big);
        docs
    }

    #[test]
    fn every_path_matches_the_reference_str_parse() {
        let dir = ScratchDir::new("el-diff").unwrap();
        for (d, doc) in corpus().into_iter().enumerate() {
            let txt = dir.file(&format!("doc-{d}.txt"));
            std::fs::write(&txt, &doc).unwrap();
            let lines = reference(&doc);
            let good: Vec<Edge> =
                lines.iter().filter_map(|(_, _, v)| v.clone().ok().flatten()).collect();
            let want_bin = dir.file(&format!("want-{d}.bin"));
            EdgeListFile::create(&want_bin, stats(), good.clone()).unwrap();
            let want_meta = std::fs::read(EdgeListFile::meta_path(&want_bin)).unwrap();
            let want = std::fs::read(&want_bin).unwrap();
            let matches_reference = |bin: &Path, what: &str| {
                assert_eq!(std::fs::read(bin).unwrap(), want, "doc {d} {what}: edges");
                let meta = std::fs::read(EdgeListFile::meta_path(bin)).unwrap();
                assert_eq!(meta, want_meta, "doc {d} {what}: meta.txt");
            };

            let serial = dir.file(&format!("serial-{d}.bin"));
            let serial_out = EdgeListFile::import_text(&txt, &serial, stats());
            match strict_error(&txt, &lines) {
                None => {
                    serial_out.unwrap();
                    matches_reference(&serial, "serial");
                }
                Some(want_err) => {
                    let err = serial_out.unwrap_err();
                    assert!(matches!(err, GraphError::Corrupt(_)), "doc {d}: {err:?}");
                    assert_eq!(err.to_string(), want_err, "doc {d} serial");
                }
            }

            let want_bad: Vec<BadRecord> = (1u64..)
                .zip(&lines)
                .filter_map(|(line, (at, raw, v))| {
                    let reason = v.clone().err()?;
                    let text = String::from_utf8_lossy(raw).trim_end().to_string();
                    Some(BadRecord { line, byte: *at, text, reason })
                })
                .collect();
            let quar = dir.file(&format!("quar-{d}.bin"));
            let (_, bad) =
                EdgeListFile::import_text_quarantined(&txt, &quar, stats(), 100).unwrap();
            assert_eq!(bad, want_bad, "doc {d} quarantine");
            matches_reference(&quar, "quarantine");
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
