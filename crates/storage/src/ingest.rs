//! The unified ingest front door: source file → DOS directory in one call.
//!
//! [`IngestPipeline`] composes the whole input side — text parsing
//! ([`chunked`](crate::chunked) when parallel), binary edge-list handling,
//! and the pipelined DOS conversion ([`DosConverter`]) — behind the
//! workspace builder convention:
//!
//! ```no_run
//! # use std::path::Path;
//! # use graphz_storage::IngestPipeline;
//! # use graphz_types::MemoryBudget;
//! # fn main() -> graphz_types::Result<()> {
//! let stats = graphz_io::IoStats::new();
//! let dos = IngestPipeline::builder()
//!     .budget(MemoryBudget::from_mib(64))
//!     .stats(stats)
//!     .threads(4)
//!     .weights(graphz_types::derive_weight)
//!     .build()?
//!     .run(Path::new("graph.txt"), Path::new("graph.dos"))?;
//! # let _ = dos; Ok(())
//! # }
//! ```
//!
//! The produced directory is byte-identical for every `threads` value and
//! chunk size (DESIGN.md §6g), so callers pick parallelism purely on
//! wall-clock grounds.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphz_extsort::SortTimings;
use graphz_io::{FaultSurface, IoStats, StageManifest};
use graphz_types::prelude::*;

use crate::chunked::{self, BadRecord, DEFAULT_CHUNK_BYTES};
use crate::dos::{scratch_root_for, DosConverter, DosGraph};
use crate::edgelist::EdgeListFile;

/// How [`IngestPipeline::run`] interprets its source path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceKind {
    /// A binary edge list with its `.meta.txt` sidecar.
    Binary,
    /// A Matrix Market coordinate file (`.mtx`).
    MatrixMarket,
    /// SNAP-style whitespace-separated text (the default).
    Text,
}

fn detect(src: &Path) -> SourceKind {
    if EdgeListFile::open(src).is_ok() {
        return SourceKind::Binary;
    }
    match src.extension().and_then(|e| e.to_str()) {
        Some("mtx") => SourceKind::MatrixMarket,
        _ => SourceKind::Text,
    }
}

/// Wall-time attribution for one ingest, filled in by
/// [`IngestPipeline::run`] when attached via
/// [`timings`](IngestPipelineBuilder::timings):
///
/// * `import` — source parsing (text/Matrix Market → binary edge list);
/// * `convert` — the whole DOS conversion (all five stages);
/// * `sort` — the [`SortTimings`] sink shared by every conversion-stage
///   sorter, so `sort.form()` isolates run formation *within* `convert`.
///
/// Benchmarks attribute `convert − sort.form()` to merge + emit work: the
/// conversion's lazy merge drains happen on stage-writer clocks and cannot
/// be separated from emission without per-record timing overhead.
#[derive(Debug, Default)]
pub struct IngestTimings {
    import_ns: AtomicU64,
    convert_ns: AtomicU64,
    sort: Arc<SortTimings>,
}

impl IngestTimings {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn add(counter: &AtomicU64, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        counter.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total wall time spent importing the source into a binary edge list.
    pub fn import(&self) -> Duration {
        Duration::from_nanos(self.import_ns.load(Ordering::Relaxed))
    }

    /// Total wall time of the DOS conversion (includes the sort time).
    pub fn convert(&self) -> Duration {
        Duration::from_nanos(self.convert_ns.load(Ordering::Relaxed))
    }

    /// Per-sort attribution accumulated by the conversion's stage sorters.
    pub fn sort(&self) -> &SortTimings {
        &self.sort
    }

    /// Wall time of the conversion *after* run formation is subtracted —
    /// the merge-and-emit remainder benchmarks report as "merge".
    pub fn merge_and_emit(&self) -> Duration {
        self.convert().saturating_sub(self.sort.form())
    }
}

/// One-call ingest: source file → DOS directory.
pub struct IngestPipeline {
    budget: MemoryBudget,
    stats: Arc<IoStats>,
    threads: usize,
    chunk_bytes: u64,
    weight_fn: Option<fn(VertexId, VertexId) -> f32>,
    surface: FaultSurface,
    resume: bool,
    max_bad_records: Option<u64>,
    timings: Option<Arc<IngestTimings>>,
}

/// Builder for [`IngestPipeline`]: `XBuilder` + chainable setters +
/// fallible `build()`.
pub struct IngestPipelineBuilder {
    budget: Option<MemoryBudget>,
    stats: Option<Arc<IoStats>>,
    threads: usize,
    chunk_bytes: u64,
    weight_fn: Option<fn(VertexId, VertexId) -> f32>,
    surface: FaultSurface,
    resume: bool,
    max_bad_records: Option<u64>,
    timings: Option<Arc<IngestTimings>>,
}

impl IngestPipelineBuilder {
    /// Total in-memory bytes the ingest sorts may hold (required).
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Shared IO statistics sink (required).
    pub fn stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Ingest threads (≥ 1; default 1): parse workers for text sources and
    /// run-formation producers for every sort. Output bytes are identical
    /// for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Byte-span size for chunked text parsing (default
    /// [`DEFAULT_CHUNK_BYTES`]; mostly a test knob).
    pub fn chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Also emit per-edge weights computed by `f(original_src, original_dst)`.
    pub fn weights(mut self, f: fn(VertexId, VertexId) -> f32) -> Self {
        self.weight_fn = Some(f);
        self
    }

    /// Fault surface gating every file op of the whole ingest (default:
    /// inert). Chaos tests inject faults here; production callers attach a
    /// retry policy and optionally a scratch disk budget.
    pub fn faults(mut self, surface: FaultSurface) -> Self {
        self.surface = surface;
        self
    }

    /// Resume an interrupted ingest from the stage manifests left in the
    /// stable scratch root `<dir>.scratch` (default: off — a fresh run
    /// clears any leftover scratch first). A resumed run produces a DOS
    /// directory byte-identical to an uninterrupted one (DESIGN.md §6h).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Quarantine up to `n` malformed text lines into a `quarantine.txt`
    /// sidecar (with 1-based line numbers) instead of aborting on the first
    /// one. Default: strict — any malformed line fails the import.
    pub fn max_bad_records(mut self, n: u64) -> Self {
        self.max_bad_records = Some(n);
        self
    }

    /// Attach a wall-time attribution sink (see [`IngestTimings`]); used by
    /// benchmarks to split the ingest into parse/sort/merge stages.
    pub fn timings(mut self, timings: Arc<IngestTimings>) -> Self {
        self.timings = Some(timings);
        self
    }

    /// Validate the configuration and produce the pipeline.
    pub fn build(self) -> Result<IngestPipeline> {
        let budget = self.budget.ok_or_else(|| {
            GraphError::InvalidConfig("ingest requires a memory budget".into())
        })?;
        let stats = self
            .stats
            .ok_or_else(|| GraphError::InvalidConfig("ingest requires a stats sink".into()))?;
        if self.threads == 0 {
            return Err(GraphError::InvalidConfig("ingest threads must be >= 1".into()));
        }
        if self.chunk_bytes == 0 {
            return Err(GraphError::InvalidConfig("ingest chunk size must be > 0".into()));
        }
        Ok(IngestPipeline {
            budget,
            stats,
            threads: self.threads,
            chunk_bytes: self.chunk_bytes,
            weight_fn: self.weight_fn,
            surface: self.surface,
            resume: self.resume,
            max_bad_records: self.max_bad_records,
            timings: self.timings,
        })
    }
}

impl IngestPipeline {
    /// Start building a pipeline.
    pub fn builder() -> IngestPipelineBuilder {
        IngestPipelineBuilder {
            budget: None,
            stats: None,
            threads: 1,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            weight_fn: None,
            surface: FaultSurface::none(),
            resume: false,
            max_bad_records: None,
            timings: None,
        }
    }

    /// Import a text source, quarantining malformed lines when a budget was
    /// configured. Quarantined lines land in `dir/quarantine.txt` with
    /// their global 1-based line numbers.
    fn import_text(&self, src: &Path, imported: &Path, dir: &Path) -> Result<EdgeListFile> {
        let Some(max_bad) = self.max_bad_records else {
            return chunked::import_text_chunked(
                src,
                imported,
                Arc::clone(&self.stats),
                self.threads,
                self.chunk_bytes,
            );
        };
        let (file, bad) = chunked::import_text_quarantined(
            src,
            imported,
            Arc::clone(&self.stats),
            self.threads,
            self.chunk_bytes,
            max_bad,
        )?;
        if !bad.is_empty() {
            // The quarantine report is part of the pipeline's fault surface:
            // chaos sweeps can fail it like any other staged write.
            self.surface.op("quarantine")?;
            graphz_io::write_atomic(&dir.join("quarantine.txt"), render_quarantine(&bad).as_bytes())?;
        }
        Ok(file)
    }

    /// Ingest `src` (binary edge list, `.mtx`, or SNAP-style text — detected
    /// automatically) into the DOS directory `dir`.
    ///
    /// The whole pipeline is staged and resumable (DESIGN.md §6h): the
    /// import and each conversion stage commit a [`StageManifest`] into the
    /// stable scratch root `<dir>.scratch`, and a pipeline built with
    /// [`resume(true)`](IngestPipelineBuilder::resume) skips verified
    /// stages. On success the scratch root is removed.
    pub fn run(&self, src: &Path, dir: &Path) -> Result<DosGraph> {
        let root = scratch_root_for(dir);
        if !self.resume {
            match std::fs::remove_dir_all(&root) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        std::fs::create_dir_all(&root).ctx("create-dir", &root)?;
        std::fs::create_dir_all(dir).ctx("create-dir", dir)?;

        // Stage `import`: the imported edge list lives in scratch until the
        // conversion has fully consumed it. A binary source needs no import
        // (and no stage): the conversion reads it in place.
        let imported = root.join("imported.bin");
        let manifest = root.join("import.manifest");
        let import_started = std::time::Instant::now();
        let edges = match detect(src) {
            SourceKind::Binary => EdgeListFile::open(src)?,
            kind => {
                let done = if self.resume {
                    match StageManifest::load(&manifest)? {
                        Some(m) if m.stage() == "import" => {
                            let root = root.clone();
                            m.verify_files(|name| root.join(name))?
                        }
                        _ => false,
                    }
                } else {
                    false
                };
                if done {
                    EdgeListFile::open(&imported)?
                } else {
                    let file = match kind {
                        SourceKind::MatrixMarket => EdgeListFile::import_matrix_market(
                            src,
                            &imported,
                            Arc::clone(&self.stats),
                        )?,
                        _ => self.import_text(src, &imported, dir)?,
                    };
                    let written = file.written().ok_or_else(|| {
                        GraphError::Corrupt("the import did not fingerprint imported.bin".into())
                    })?;
                    let mut m = StageManifest::new("import");
                    m.set("edges", file.meta().num_edges);
                    m.record_file("imported.bin", written);
                    m.record_file("imported.bin.meta.txt", file.sidecar_fingerprint());
                    m.commit(&manifest, &self.surface)?;
                    file
                }
            }
        };
        if let Some(t) = &self.timings {
            IngestTimings::add(&t.import_ns, import_started.elapsed());
        }
        let mut converter = DosConverter::builder()
            .budget(self.budget)
            .stats(Arc::clone(&self.stats))
            .threads(self.threads)
            .faults(self.surface.clone())
            .resume(self.resume)
            .scratch_root(&root);
        if let Some(f) = self.weight_fn {
            converter = converter.weights(f);
        }
        if let Some(t) = &self.timings {
            converter = converter.timings(Arc::clone(&t.sort));
        }
        let convert_started = std::time::Instant::now();
        let dos = converter.build()?.convert(&edges, dir)?;
        if let Some(t) = &self.timings {
            IngestTimings::add(&t.convert_ns, convert_started.elapsed());
        }
        let _ = std::fs::remove_dir_all(&root);
        Ok(dos)
    }
}

/// Render quarantined records as the `quarantine.txt` sidecar: one line per
/// bad record — `line <n> (byte <b>): <reason>: <text>`.
fn render_quarantine(bad: &[BadRecord]) -> String {
    let mut out = String::new();
    for b in bad {
        out.push_str(&format!("line {} (byte {}): {}: {}\n", b.line, b.byte, b.reason, b.text));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::DosGraph;
    use graphz_io::ScratchDir;
    use std::path::Path;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn pipeline(threads: usize) -> IngestPipeline {
        IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(IngestPipeline::builder().stats(stats()).build().is_err());
        assert!(IngestPipeline::builder().budget(MemoryBudget::from_kib(1)).build().is_err());
        assert!(IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(1))
            .stats(stats())
            .threads(0)
            .build()
            .is_err());
        assert!(IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(1))
            .stats(stats())
            .chunk_bytes(0)
            .build()
            .is_err());
    }

    #[test]
    fn ingests_text_binary_and_matrix_market() {
        let dir = ScratchDir::new("ingest-kinds").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let from_text = pipeline(1).run(&txt, &dir.path().join("from-text")).unwrap();
        assert_eq!(from_text.meta().num_edges, 4);

        let bin = dir.file("g.bin");
        EdgeListFile::import_text(&txt, &bin, stats()).unwrap();
        let from_bin = pipeline(1).run(&bin, &dir.path().join("from-bin")).unwrap();
        assert_eq!(from_bin.meta(), from_text.meta());
        assert_eq!(from_bin.index(), from_text.index());

        let mtx = dir.file("g.mtx");
        std::fs::write(&mtx, "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
            .unwrap();
        let from_mtx = pipeline(2).run(&mtx, &dir.path().join("from-mtx")).unwrap();
        assert_eq!(from_mtx.meta().num_edges, 2);
    }

    #[test]
    fn parallel_ingest_reopens_and_matches_serial() {
        let dir = ScratchDir::new("ingest-par").unwrap();
        let txt = dir.file("g.txt");
        let mut text = String::new();
        let mut x: u64 = 3;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            text.push_str(&format!("{} {}\n", (x >> 33) % 70, (x >> 15) % 70));
        }
        std::fs::write(&txt, text).unwrap();
        let serial = pipeline(1).run(&txt, &dir.path().join("serial")).unwrap();
        let par = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .threads(4)
            .chunk_bytes(256)
            .build()
            .unwrap()
            .run(&txt, &dir.path().join("par"))
            .unwrap();
        assert_eq!(par.meta(), serial.meta());
        assert_eq!(par.index(), serial.index());
        assert_eq!(
            std::fs::read(par.edges_path()).unwrap(),
            std::fs::read(serial.edges_path()).unwrap()
        );
        // The produced directory reopens cleanly.
        let reopened = DosGraph::open(&dir.path().join("par"), stats()).unwrap();
        assert_eq!(reopened.meta(), serial.meta());
    }

    #[test]
    fn quarantine_writes_sidecar_and_keeps_good_edges() {
        let dir = ScratchDir::new("ingest-quar").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 oops\n1 2\n2 0\n").unwrap();
        let out = dir.path().join("dos");
        // Strict default: the malformed line aborts the ingest.
        let err = pipeline(1).run(&txt, &out).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        // With a quarantine budget the good edges import and the sidecar
        // names the bad line.
        let dos = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .max_bad_records(3)
            .build()
            .unwrap()
            .run(&txt, &out)
            .unwrap();
        assert_eq!(dos.meta().num_edges, 3);
        let sidecar = std::fs::read_to_string(out.join("quarantine.txt")).unwrap();
        assert!(sidecar.contains("line 2"), "{sidecar}");
        assert!(sidecar.contains("1 oops"), "{sidecar}");
    }

    #[test]
    fn successful_ingest_removes_the_scratch_root() {
        let dir = ScratchDir::new("ingest-clean").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n").unwrap();
        let out = dir.path().join("dos");
        pipeline(1).run(&txt, &out).unwrap();
        assert!(!scratch_root_for(&out).exists(), "scratch root must be cleaned up");
    }

    #[test]
    fn resume_on_a_clean_slate_matches_a_fresh_run() {
        let dir = ScratchDir::new("ingest-resume-fresh").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let fresh = pipeline(1).run(&txt, &dir.path().join("fresh")).unwrap();
        let resumed = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .resume(true)
            .build()
            .unwrap()
            .run(&txt, &dir.path().join("resumed"))
            .unwrap();
        assert_eq!(resumed.meta(), fresh.meta());
        assert_eq!(resumed.index(), fresh.index());
        assert_eq!(
            std::fs::read(resumed.edges_path()).unwrap(),
            std::fs::read(fresh.edges_path()).unwrap()
        );
    }

    /// Every fingerprint the stage manifests under `root` record equals the
    /// file on disk (an artifact lives in `root` or in `dir`); returns the
    /// stages seen.
    fn assert_manifests_match_disk(root: &Path, dir: &Path) -> Vec<String> {
        let mut stages = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("manifest") {
                continue;
            }
            let m = StageManifest::load(&path).unwrap().expect("manifest loads");
            let names: Vec<String> = m.files().map(str::to_string).collect();
            assert!(!names.is_empty(), "{} records no artifact", m.stage());
            for name in names {
                let file = [root.join(&name), dir.join(&name)]
                    .into_iter()
                    .find(|p| p.exists())
                    .unwrap_or_else(|| panic!("{}: `{name}` missing", m.stage()));
                let (len, crc) =
                    graphz_io::crc32_stream(std::fs::File::open(&file).unwrap()).unwrap();
                assert_eq!(
                    m.file(&name),
                    Some(graphz_io::Fingerprint { len, crc }),
                    "{}: `{name}`",
                    m.stage()
                );
            }
            stages.push(m.stage().to_string());
        }
        stages.sort();
        stages
    }

    #[test]
    fn manifest_fingerprints_taken_while_writing_match_the_files() {
        use graphz_io::{FaultPlan, FaultState, FaultSurface, RetryPolicy};
        let dir = ScratchDir::new("ingest-fp").unwrap();
        let txt = dir.file("g.txt");
        let mut text = String::from("# sample\n");
        let mut x: u64 = 11;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            text.push_str(&format!("{}\t{}\n", (x >> 33) % 300, (x >> 13) % 450));
        }
        std::fs::write(&txt, text).unwrap();

        // The import stage: stop the pipeline at the next stage's commit so
        // the scratch root (and its import manifest) stays behind.
        let out = dir.path().join("dos");
        let stop = FaultSurface::none()
            .with_faults(FaultState::fail_at_label("commit-manifest:triads"))
            .with_retry(RetryPolicy::none());
        let err = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(16))
            .stats(stats())
            .faults(stop)
            .build()
            .unwrap()
            .run(&txt, &out)
            .unwrap_err();
        assert!(err.to_string().contains("commit-manifest:triads"), "{err}");
        let root = scratch_root_for(&out);
        assert_eq!(assert_manifests_match_disk(&root, &out), vec!["import"]);
        let edges = EdgeListFile::open(&root.join("imported.bin")).unwrap();

        // The five conversion stages, with the scratch root kept: once
        // clean (counting the gated ops), then with a transient fault
        // retried at points spread over the run, the last few inside the
        // adjacency writes.
        let convert = |name: &str, surface: FaultSurface| {
            let out = dir.path().join(name);
            let root = dir.path().join(format!("{name}.scratch"));
            DosConverter::builder()
                .budget(MemoryBudget::from_kib(16))
                .stats(stats())
                .weights(graphz_types::derive_weight)
                .faults(surface)
                .scratch_root(&root)
                .build()
                .unwrap()
                .convert(&edges, &out)
                .unwrap();
            let stages = assert_manifests_match_disk(&root, &out);
            assert_eq!(stages, ["adjacency", "emit", "new2old", "old2new", "triads"]);
            out
        };
        let counting = FaultState::counting();
        let clean = convert("clean", FaultSurface::none().with_faults(Arc::clone(&counting)));
        let ops = counting.ops_seen();
        assert!(ops > 6000, "{ops} gated ops");
        let files = |d: &Path| {
            let mut names: Vec<_> =
                std::fs::read_dir(d).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            let bytes = |n: &std::ffi::OsString| std::fs::read(d.join(n)).unwrap();
            names.iter().map(|n| (n.clone(), bytes(n))).collect::<Vec<_>>()
        };
        for at in [ops / 4, ops / 2, ops - 1500, ops - 200] {
            let faults = FaultState::new(FaultPlan::transient_at(at, 2));
            let surface = FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(
                RetryPolicy { base_backoff: std::time::Duration::ZERO, ..RetryPolicy::default() },
            );
            let out = convert(&format!("transient-{at}"), surface);
            assert!(faults.fired(), "transient fault at op {at} never fired");
            assert_eq!(files(&out), files(&clean), "transient at op {at}");
        }
    }

    #[test]
    fn weighted_ingest_passes_weights_through() {
        let dir = ScratchDir::new("ingest-w").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 0\n2 1\n").unwrap();
        let dos = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .threads(2)
            .weights(graphz_types::derive_weight)
            .build()
            .unwrap()
            .run(&txt, &dir.path().join("dos"))
            .unwrap();
        assert!(dos.has_weights());
        assert!(dos.weights_path().unwrap().exists());
    }
}
