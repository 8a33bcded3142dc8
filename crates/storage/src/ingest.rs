//! The unified ingest front door: source file → DOS directory in one call.
//!
//! [`IngestPipeline`] composes the whole input side — text parsing, binary
//! edge-list handling, and the pipelined DOS conversion ([`DosConverter`])
//! — behind the workspace builder convention:
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
//!     .weights(graphz_types::derive_weight)
//!     .build()?
//!     .run(Path::new("graph.txt"), Path::new("graph.dos"))?;
//! # let _ = dos; Ok(())
//! # }
//! ```
//!
//! The produced directory is byte-identical for every memory budget
//! (DESIGN.md §6g): the budget trades scratch IO for memory and changes no
//! output byte.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphz_extsort::SortTimings;
use graphz_io::{FaultSurface, IoStats};
use graphz_types::prelude::*;

use crate::dos::{scratch_root_for, DosConverter, DosGraph, EdgeSource};
use crate::edgelist::EdgeListFile;

/// Wall-time attribution for one ingest, filled in by
/// [`IngestPipeline::run`] when attached via
/// [`timings`](IngestPipelineBuilder::timings):
///
/// * `import` — source parsing (or, for a binary edge list, reading it)
///   inside the `runs` stage, measured at spill boundaries: the run
///   formation's wall minus the time inside its spills;
/// * `convert` — the rest of the ingest: all five stages with the parse
///   time taken out;
/// * `sort` — the [`SortTimings`] sink shared by every conversion-stage
///   sorter, so `sort.form()` isolates run formation *within* `convert`.
///
/// `import + convert` is the whole ingest. Benchmarks attribute
/// `convert − sort.form()` to merge + emit work: the conversion's lazy
/// merge drains happen on stage-writer clocks and cannot be separated from
/// emission without per-record timing overhead.
#[derive(Debug, Default)]
pub struct IngestTimings {
    convert_ns: AtomicU64,
    sort: Arc<SortTimings>,
}

impl IngestTimings {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Total wall time spent parsing (or reading) the source.
    pub fn import(&self) -> Duration {
        self.sort.input()
    }

    /// Total wall time of the DOS conversion, parsing excluded (includes
    /// the sort time).
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

    /// Changes nothing: ingest runs on the calling thread. A compatibility
    /// name for the benchmark's convert adapter (`benchmark/src/layers.rs`),
    /// which still calls it; goes away with that adapter.
    #[doc(hidden)]
    pub fn threads(self, _threads: usize) -> Self {
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
        Ok(IngestPipeline {
            budget,
            stats,
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
            weight_fn: None,
            surface: FaultSurface::none(),
            resume: false,
            max_bad_records: None,
            timings: None,
        }
    }

    /// Ingest `src` (binary edge list, `.mtx`, or SNAP-style text — detected
    /// automatically) into the DOS directory `dir`.
    ///
    /// Text and Matrix Market sources are parsed straight into the
    /// conversion's durable source runs; a binary edge list is read in
    /// place. The whole pipeline is staged and resumable (DESIGN.md §6h):
    /// each conversion stage commits a stage manifest
    /// ([`MetaFile::stage`](crate::meta::MetaFile::stage)) into the stable
    /// scratch root `<dir>.scratch`, and a pipeline built with
    /// [`resume(true)`](IngestPipelineBuilder::resume) skips verified
    /// stages. With [`max_bad_records`](IngestPipelineBuilder::max_bad_records)
    /// set, malformed text lines land in `dir/quarantine.txt` with their
    /// 1-based line numbers. On success the scratch root is removed.
    pub fn run(&self, src: &Path, dir: &Path) -> Result<DosGraph> {
        let started = std::time::Instant::now();
        let parse_before = self.timings.as_ref().map(|t| t.import());
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

        // A binary edge list is whatever opens as one (its sidecar names
        // the format); otherwise `.mtx` is Matrix Market and the rest text.
        let binary = EdgeListFile::open(src).ok();
        let source = match &binary {
            Some(edges) => EdgeSource::Binary(edges),
            None if src.extension().is_some_and(|e| e == "mtx") => EdgeSource::MatrixMarket(src),
            None => EdgeSource::Text { path: src, max_bad_records: self.max_bad_records },
        };
        let mut converter = DosConverter::builder()
            .budget(self.budget)
            .stats(Arc::clone(&self.stats))
            .faults(self.surface.clone())
            .resume(self.resume)
            .scratch_root(&root);
        if let Some(f) = self.weight_fn {
            converter = converter.weights(f);
        }
        if let Some(t) = &self.timings {
            converter = converter.timings(Arc::clone(&t.sort));
        }
        let dos = converter.build()?.convert_from(source, dir)?;
        let _ = std::fs::remove_dir_all(&root);
        if let (Some(t), Some(before)) = (&self.timings, parse_before) {
            let parse = t.import().saturating_sub(before);
            let ns = u64::try_from(started.elapsed().saturating_sub(parse).as_nanos());
            t.convert_ns.fetch_add(ns.unwrap_or(u64::MAX), Ordering::Relaxed);
        }
        Ok(dos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::DosGraph;
    use crate::meta::MetaFile;
    use graphz_io::ScratchDir;
    use std::path::Path;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn pipeline() -> IngestPipeline {
        IngestPipeline::builder().budget(MemoryBudget::from_kib(64)).stats(stats()).build().unwrap()
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(IngestPipeline::builder().stats(stats()).build().is_err());
        assert!(IngestPipeline::builder().budget(MemoryBudget::from_kib(1)).build().is_err());
        assert!(IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(1))
            .stats(stats())
            .build()
            .is_ok());
    }

    #[test]
    fn ingests_text_binary_and_matrix_market() {
        let dir = ScratchDir::new("ingest-kinds").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let from_text = pipeline().run(&txt, &dir.path().join("from-text")).unwrap();
        assert_eq!(from_text.meta().num_edges, 4);

        let bin = dir.file("g.bin");
        EdgeListFile::import_text(&txt, &bin, stats()).unwrap();
        let from_bin = pipeline().run(&bin, &dir.path().join("from-bin")).unwrap();
        assert_eq!(from_bin.meta(), from_text.meta());
        assert_eq!(from_bin.index(), from_text.index());
        // The produced directory reopens cleanly.
        let reopened = DosGraph::open(&dir.path().join("from-text"), stats()).unwrap();
        assert_eq!(reopened.meta(), from_text.meta());

        let mtx = dir.file("g.mtx");
        std::fs::write(&mtx, "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
            .unwrap();
        let from_mtx = pipeline().run(&mtx, &dir.path().join("from-mtx")).unwrap();
        assert_eq!(from_mtx.meta().num_edges, 2);
    }

    #[test]
    fn quarantine_writes_sidecar_and_keeps_good_edges() {
        let dir = ScratchDir::new("ingest-quar").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 oops\n1 2\n2 0\n").unwrap();
        let out = dir.path().join("dos");
        // Strict default: the malformed line aborts the ingest.
        let err = pipeline().run(&txt, &out).unwrap_err();
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
        pipeline().run(&txt, &out).unwrap();
        assert!(!scratch_root_for(&out).exists(), "scratch root must be cleaned up");
    }

    #[test]
    fn resume_on_a_clean_slate_matches_a_fresh_run() {
        let dir = ScratchDir::new("ingest-resume-fresh").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let fresh = pipeline().run(&txt, &dir.path().join("fresh")).unwrap();
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
            let stage = path.file_stem().unwrap().to_string_lossy().into_owned();
            let m = MetaFile::load_stage(&path, &stage, &IoStats::new())
                .unwrap()
                .expect("manifest loads");
            let names: Vec<String> = m.files().map(|(name, _)| name.to_string()).collect();
            assert!(!names.is_empty(), "{stage} records no artifact");
            for name in names {
                let file = [root.join(&name), dir.join(&name)]
                    .into_iter()
                    .find(|p| p.exists())
                    .unwrap_or_else(|| panic!("{stage}: `{name}` missing"));
                let found = graphz_io::crc32_stream(std::fs::File::open(&file).unwrap()).unwrap();
                assert_eq!(m.file(&name).ok(), Some(found), "{stage}: `{name}`");
            }
            stages.push(stage);
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

        // The runs stage: stop the pipeline at the next stage's commit so
        // the scratch root (and the runs manifest) stays behind. At 16 KiB
        // the 3000 parsed edges spill as three runs.
        let out = dir.path().join("dos");
        let stop = FaultSurface::none()
            .with_faults(FaultState::fail_at_label("commit-manifest:old2new"))
            .with_retry(RetryPolicy::none());
        let err = IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(16))
            .stats(stats())
            .faults(stop)
            .build()
            .unwrap()
            .run(&txt, &out)
            .unwrap_err();
        assert!(err.to_string().contains("commit-manifest:old2new"), "{err}");
        let root = scratch_root_for(&out);
        assert_eq!(assert_manifests_match_disk(&root, &out), vec!["runs"]);
        let runs = MetaFile::load_stage(&root.join("runs.manifest"), "runs", &IoStats::new())
            .unwrap()
            .unwrap();
        assert_eq!(runs.files().count(), 3, "every run, the last one too, is on disk");
        let edges = EdgeListFile::import_text(&txt, &dir.file("g.bin"), stats()).unwrap();

        // The five conversion stages, with the scratch root kept: once
        // clean (counting the gated ops), then with a transient fault
        // retried at points spread over the run, and at the first and a
        // later lane write of the adjacency stage.
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
            assert_eq!(stages, ["adjacency", "emit", "new2old", "old2new", "runs"]);
            out
        };
        let counting = FaultState::counting();
        let clean = convert("clean", FaultSurface::none().with_faults(Arc::clone(&counting)));
        let ops = counting.ops_seen();
        assert!(ops > 3000, "{ops} gated ops");
        let files = |d: &Path| {
            let mut names: Vec<_> =
                std::fs::read_dir(d).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            let bytes = |n: &std::ffi::OsString| std::fs::read(d.join(n)).unwrap();
            names.iter().map(|n| (n.clone(), bytes(n))).collect::<Vec<_>>()
        };
        let transient = FaultPlan::transient_at(u64::MAX, 2);
        let points = [ops / 4, ops / 2, ops - 1500, ops - 200]
            .map(|at| (format!("op {at}"), FaultState::new(FaultPlan::transient_at(at, 2))));
        let lane_writes = [0, 7].map(|nth| {
            let faults = FaultState::at_label_occurrence(transient, "write-adjacency", nth);
            (format!("write-adjacency #{nth}"), faults)
        });
        for (at, faults) in points.into_iter().chain(lane_writes) {
            let surface = FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(
                RetryPolicy { base_backoff: std::time::Duration::ZERO, ..RetryPolicy::default() },
            );
            let out = convert(&format!("transient-{}", at.replace([' ', '#'], "")), surface);
            assert!(faults.fired(), "transient fault at {at} never fired");
            assert_eq!(files(&out), files(&clean), "transient at {at}");
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
            .weights(graphz_types::derive_weight)
            .build()
            .unwrap()
            .run(&txt, &dir.path().join("dos"))
            .unwrap();
        assert!(dos.has_weights());
        assert!(dos.weights_path().unwrap().exists());
    }

    /// A text fixture of `edges` lines over ids `0..id_space`, plus comments.
    fn text_fixture(path: &Path, seed: u64, edges: usize, id_space: u64) {
        let mut text = String::from("# fixture\n");
        let mut x = seed;
        for _ in 0..edges {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            text.push_str(&format!("{} {}\n", (x >> 33) % id_space, (x >> 15) % id_space));
        }
        std::fs::write(path, text).unwrap();
    }

    /// The parse time is the runs stage's formation wall minus its spills,
    /// taken out of `convert()` and `sort().form()`: parse, form, merge and
    /// emit (`convert − form − merge`) add up to the whole ingest, which
    /// fits inside the wall around the call.
    #[test]
    fn timings_split_the_ingest_into_parse_form_merge_and_emit() {
        let dir = ScratchDir::new("ingest-timings").unwrap();
        let txt = dir.file("g.txt");
        text_fixture(&txt, 5, 20_000, 3_000);
        let timings = IngestTimings::new();
        let started = std::time::Instant::now();
        IngestPipeline::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .timings(Arc::clone(&timings))
            .build()
            .unwrap()
            .run(&txt, &dir.path().join("dos"))
            .unwrap();
        let wall = started.elapsed();
        let (parse, convert) = (timings.import(), timings.convert());
        let (form, merge) = (timings.sort().form(), timings.sort().merge());
        assert!(parse > Duration::ZERO, "no parse time");
        assert!(form > Duration::ZERO, "no run formation time");
        assert!(form + merge <= convert, "form {form:?} + merge {merge:?} > convert {convert:?}");
        let emit = convert - form - merge;
        assert_eq!(parse + form + merge + emit, parse + convert);
        assert!(parse + convert <= wall, "{parse:?} + {convert:?} > wall {wall:?}");
    }

    /// Every file, recursively, under `dir`.
    fn all_files(dir: &Path) -> Vec<String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(all_files(&path));
            } else {
                out.push(path.file_name().unwrap().to_string_lossy().into_owned());
            }
        }
        out
    }

    /// The names of every directory under `dir`, recursively.
    fn all_dirs(dir: &Path) -> Vec<String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.push(path.file_name().unwrap().to_string_lossy().into_owned());
                out.extend(all_dirs(&path));
            }
        }
        out
    }

    /// Bytes the runs of a streamed sort spill for `n` records of `size`
    /// bytes at a stage sort's half of `budget`: every full buffer, while
    /// the last partial one stays in memory. None of the sorts below spills
    /// more runs than the merge fan-in, so each spilled byte is read back
    /// exactly once.
    fn spilled(budget: MemoryBudget, n: u64, size: u64) -> u64 {
        let chunk = (budget.split(2).bytes() / size).max(1);
        n / chunk * chunk * size
    }

    /// The bytes a text convert moves, to the byte, on both relabel paths.
    /// The text is read once; the source runs are written once and merged
    /// twice (by the degree count and by the adjacency stage); then the
    /// image. meta.txt, checksums.txt and the stage manifests are written
    /// through atomic files the stats sink does not count.
    ///
    /// * At 64 MiB and at 8 KiB the id map fits, and each source's list is
    ///   written at its Eq. 1 offset with no sort: nothing but the source
    ///   runs reaches disk besides the image, whatever the budget — no
    ///   final runs, no by-dst runs, no degree scratch, no re-read of
    ///   old2new.bin.
    /// * At 4 KiB the map (2400 bytes) exceeds the 2048-byte half budget,
    ///   so the sorted path runs: the degree scratch written and read once
    ///   (8 bytes per source with edges), old2new.bin read three times (by
    ///   the new2old pair sort and the two relabeling co-scans), and the
    ///   spilled runs of the pair, by-dst and final sorts.
    ///
    /// No imported.bin, assign.bin, half-relabeled.bin or degrees.bin
    /// outlives its stage: the run is stopped at the last commit, so the
    /// scratch root is still there to show it.
    #[test]
    fn a_text_convert_moves_the_predicted_bytes() {
        use graphz_io::{FaultState, RetryPolicy};
        let dir = ScratchDir::new("ingest-ledger").unwrap();
        let txt = dir.file("g.txt");
        // Ids 0..600 for sources and destinations alike, and a last line
        // that touches the top id as a source, so each co-scan of the
        // sorted path reads old2new.bin to its end (one block: it is under
        // 64 KiB).
        text_fixture(&txt, 9, 5_000, 600);
        let mut text = std::fs::read_to_string(&txt).unwrap();
        text.push_str("599 0\n");
        std::fs::write(&txt, &text).unwrap();
        let text_bytes = cast::len_u64(text.len());
        let budgets = [
            (MemoryBudget::from_mib(64), true),
            (MemoryBudget::from_kib(8), true),
            (MemoryBudget::from_kib(4), false),
        ];
        for (budget, fits) in budgets {
            for weighted in [false, true] {
                let ctx = format!("{budget:?} weighted {weighted}");
                let stats = stats();
                let out = dir.path().join(format!("dos-{}-{weighted}", budget.bytes()));
                let mut b = IngestPipeline::builder()
                    .budget(budget)
                    .stats(Arc::clone(&stats))
                    .faults(
                        FaultSurface::none()
                            .with_faults(FaultState::fail_at_label("commit-manifest:emit"))
                            .with_retry(RetryPolicy::none()),
                    );
                if weighted {
                    b = b.weights(graphz_types::derive_weight);
                }
                let err = b.build().unwrap().run(&txt, &out).unwrap_err();
                assert!(err.to_string().contains("commit-manifest:emit"), "{err}");
                let dos = DosGraph::open(&out, IoStats::new()).unwrap();
                let (e, v) = (dos.meta().num_edges, dos.meta().num_vertices);
                assert_eq!((e, v), (5_001, 600));
                assert_eq!(crate::id_map_fits(budget, v), fits, "{ctx}");
                let len = |name: &str| std::fs::metadata(out.join(name)).unwrap().len();
                let mut image = len("edges.bin") + len("index.tbl") + 2 * 4 * v;
                if weighted {
                    image += len("weights.bin");
                }
                let record = if weighted { 12 } else { 8 };
                let (mut writes, mut reads) = (8 * e + image, text_bytes + 16 * e);
                if !fits {
                    let final_runs = spilled(budget, e, record);
                    assert!(final_runs > 0, "{ctx}: the final sort did not spill");
                    // Sources with edges: the ids before the zero-degree group.
                    let groups = dos.index().groups();
                    let sources =
                        groups.iter().find(|g| g.degree == 0).map_or(v, |g| u64::from(g.first_id));
                    let sorted_runs = spilled(budget, v, 8) + 2 * final_runs;
                    writes += 8 * sources + sorted_runs;
                    reads += 8 * sources + 3 * 4 * v + sorted_runs;
                }
                let io = stats.snapshot();
                assert_eq!(io.bytes_written, writes, "{ctx}");
                assert_eq!(io.bytes_read, reads, "{ctx}");
                let mut files = all_files(&scratch_root_for(&out));
                files.extend(all_files(&out));
                for gone in ["imported.bin", "assign.bin", "half-relabeled.bin", "degrees.bin"] {
                    assert!(!files.iter().any(|f| f == gone), "{ctx}: {gone} in {files:?}");
                }
                if fits {
                    let dirs = all_dirs(&scratch_root_for(&out));
                    let sort_dir =
                        |d: &String| ["final", "by-dst", "list"].iter().any(|s| d.contains(s));
                    assert!(!dirs.iter().any(sort_dir), "{ctx}: a sort's scratch dir in {dirs:?}");
                }
                assert!(files.iter().any(|f| f == "run-000000.bin"), "{ctx}: {files:?}");
            }
        }
    }

    /// A resumed convert counts the bytes it re-reads to verify the stages
    /// it skips, and re-reads only what something reads again. Killed at
    /// the `emit` commit, the resume loads the four committed manifests and
    /// re-CRCs the image files they record (old2new.bin, new2old.bin,
    /// edges.bin), whose fingerprints go into checksums.txt; no stage left
    /// merges the source runs, so they are not read. Killed at the
    /// `new2old` commit, with the map fitting, the resume verifies
    /// old2new.bin and then loads it once for the two stages that need the
    /// map, and reads nothing else but the runs (verified, then merged by
    /// the adjacency stage).
    #[test]
    fn a_resumed_convert_counts_what_it_verifies() {
        use graphz_io::{FaultState, RetryPolicy};
        let dir = ScratchDir::new("ingest-resume-ledger").unwrap();
        let txt = dir.file("g.txt");
        text_fixture(&txt, 13, 4_000, 500);
        let run = |out: &Path, stats: Arc<IoStats>, kill: Option<&str>, resume: bool| {
            let mut surface = FaultSurface::none();
            if let Some(stage) = kill {
                surface = surface
                    .with_faults(FaultState::fail_at_label(&format!("commit-manifest:{stage}")))
                    .with_retry(RetryPolicy::none());
            }
            IngestPipeline::builder()
                .budget(MemoryBudget::from_mib(64))
                .stats(stats)
                .faults(surface)
                .resume(resume)
                .build()
                .unwrap()
                .run(&txt, out)
        };
        // Lengths of every artifact and manifest the committed stages
        // recorded, read before the resume consumes the scratch root.
        let recorded = |out: &Path| -> (u64, u64) {
            let root = scratch_root_for(out);
            let (mut artifacts, mut manifests) = (0, 0);
            for entry in std::fs::read_dir(&root).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().and_then(|e| e.to_str()) != Some("manifest") {
                    continue;
                }
                manifests += std::fs::metadata(&path).unwrap().len();
                let stage = path.file_stem().unwrap().to_string_lossy().into_owned();
                let m = MetaFile::load_stage(&path, &stage, &IoStats::new()).unwrap().unwrap();
                artifacts += m.files().map(|(_, fp)| fp.len).sum::<u64>();
            }
            (artifacts, manifests)
        };

        let dos = run(&dir.path().join("reference"), stats(), None, false).unwrap();
        let (e, v) = (dos.meta().num_edges, dos.meta().num_vertices);
        assert!(crate::id_map_fits(MemoryBudget::from_mib(64), v));

        let out = dir.path().join("killed-at-emit");
        run(&out, stats(), Some("emit"), false).unwrap_err();
        let (artifacts, manifests) = recorded(&out);
        // The runs, old2new.bin, new2old.bin and edges.bin.
        assert_eq!(artifacts, 8 * e + 4 * v + 4 * v + 4 * e);
        let resumed = stats();
        run(&out, Arc::clone(&resumed), None, true).unwrap();
        assert_eq!(
            resumed.snapshot().bytes_read,
            manifests + 4 * v + 4 * v + 4 * e,
            "the manifests and the image files, not the runs"
        );

        let out = dir.path().join("killed-at-new2old");
        run(&out, stats(), Some("new2old"), false).unwrap_err();
        let (artifacts, manifests) = recorded(&out);
        // The runs and old2new.bin.
        assert_eq!(artifacts, 8 * e + 4 * v);
        let resumed = stats();
        run(&out, Arc::clone(&resumed), None, true).unwrap();
        assert_eq!(resumed.snapshot().bytes_read, manifests + artifacts + 4 * v + 8 * e);
    }

    /// A damaged artifact that something still reads makes its stage run
    /// again: old2new.bin, which the adjacency stage relabels with after a
    /// kill at the `adjacency` commit, and edges.bin, whose fingerprint the
    /// `emit` stage puts into checksums.txt after a kill at that commit.
    /// Either way the resumed image is the clean one, byte for byte.
    #[test]
    fn a_resume_redoes_the_stage_of_a_damaged_artifact_it_reads() {
        use graphz_io::{FaultState, RetryPolicy};
        let dir = ScratchDir::new("ingest-resume-damage").unwrap();
        let txt = dir.file("g.txt");
        text_fixture(&txt, 17, 2_000, 300);
        let run = |out: &Path, kill: Option<&str>, resume: bool| {
            let mut surface = FaultSurface::none();
            if let Some(stage) = kill {
                surface = surface
                    .with_faults(FaultState::fail_at_label(&format!("commit-manifest:{stage}")))
                    .with_retry(RetryPolicy::none());
            }
            IngestPipeline::builder()
                .budget(MemoryBudget::from_kib(64))
                .stats(stats())
                .faults(surface)
                .resume(resume)
                .build()
                .unwrap()
                .run(&txt, out)
        };
        let contents = |d: &Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(path).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let clean = dir.path().join("clean");
        run(&clean, None, false).unwrap();
        for (stage, victim) in [("adjacency", "old2new.bin"), ("emit", "edges.bin")] {
            let out = dir.path().join(format!("killed-at-{stage}"));
            run(&out, Some(stage), false).unwrap_err();
            let path = out.join(victim);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[0] ^= 0x01;
            std::fs::write(&path, bytes).unwrap();
            run(&out, None, true).unwrap();
            assert!(contents(&out) == contents(&clean), "{victim} damaged before `{stage}`");
        }
    }

    /// Each stage commits under `commit-manifest:<stage>`, in pipeline
    /// order, for every source kind; the label probe stops the run at
    /// exactly that stage.
    #[test]
    fn every_source_commits_the_five_stages_in_order() {
        use graphz_io::{FaultState, RetryPolicy};
        let dir = ScratchDir::new("ingest-stages").unwrap();
        let txt = dir.file("g.txt");
        text_fixture(&txt, 3, 200, 40);
        let bin = dir.file("g.bin");
        EdgeListFile::import_text(&txt, &bin, stats()).unwrap();
        let mtx = dir.file("g.mtx");
        std::fs::write(&mtx, "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
            .unwrap();
        const STAGES: [&str; 5] = ["runs", "old2new", "new2old", "adjacency", "emit"];
        for (kind, src) in [("text", &txt), ("binary", &bin), ("mtx", &mtx)] {
            for (i, stage) in STAGES.iter().enumerate() {
                let out = dir.path().join(format!("{kind}-{stage}"));
                let label = format!("commit-manifest:{stage}");
                let err = IngestPipeline::builder()
                    .budget(MemoryBudget::from_kib(64))
                    .stats(stats())
                    .faults(
                        FaultSurface::none()
                            .with_faults(FaultState::fail_at_label(&label))
                            .with_retry(RetryPolicy::none()),
                    )
                    .build()
                    .unwrap()
                    .run(src, &out)
                    .unwrap_err();
                assert!(err.to_string().contains(&label), "{kind}: {err}");
                let mut committed = assert_manifests_match_disk(&scratch_root_for(&out), &out);
                let mut want: Vec<String> = STAGES[..i].iter().map(|s| s.to_string()).collect();
                want.sort();
                committed.sort();
                assert_eq!(committed, want, "{kind}: killed at {stage}");
            }
        }
    }
}
