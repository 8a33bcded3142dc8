//! External k-way merge sort over fixed-size records.
//!
//! The paper's DOS conversion (§III-C) is built from external sorts: "we
//! use external k-way merge sort to sort it using deg as 1st key and src as
//! 2nd key", then again by `dest`, then by `src`. Ours sorts the edges by
//! `(src, dst)` once, into durable runs, numbers the vertices from a degree
//! histogram instead of the degree sort, and keeps the sort by `src`; the
//! sort by `dest` remains only where the id map does not fit in memory.
//! The GraphChi baseline's shard construction and X-Stream's
//! partition bucketing reuse the same substrate.
//!
//! The implementation is the classic two-phase algorithm, on the calling
//! thread:
//!
//! 1. **Run formation** — read records until the memory budget is full, sort
//!    them in memory, and spill each sorted run to a scratch file (see
//!    the private `runs` module).
//! 2. **K-way merge** — stream every run through a loser tree, emitting
//!    records in globally sorted order. If the number of runs exceeds the
//!    configured fan-in, runs are merged in multiple passes.
//!
//! The merge can be consumed lazily via [`ExternalSorter::sort_stream`],
//! which is how the DOS converter chains one sort's output into the next
//! sort's run formation without an intermediate file.
//!
//! A sort whose runs must outlive the process splits the two phases:
//! [`ExternalSorter::spill_runs`] forms runs and spills every one of them
//! (the final partial run too), folding each file's [`Fingerprint`] while
//! writing it, and pre-merges down to at most fan-in runs;
//! [`ExternalSorter::merge_runs`] then merges a given list of run files,
//! as many times as the caller needs. The DOS converter commits the run
//! list to a stage manifest between the two, so a restarted conversion
//! merges the same runs again instead of re-reading its source.
//!
//! Runs are sorted in place with the standard library's unstable sort
//! (no scratch allocation per run), so records with equal keys may leave
//! run formation in any order — the same order on every run of the same
//! input, since that sort is deterministic. Byte-identical output across
//! budgets (and so across run boundaries) therefore rests on the keys:
//! every caller's key determines its record's bytes or is unique by
//! construction (DESIGN.md §6g):
//!
//! * DOS conversion (`graphz-storage`, `dos.rs`), each key packed into one
//!   integer of the same order: the durable source runs' edges by
//!   `(src, dst)` — the whole record; final records `(new_src,
//!   new_dst[, weight])` by `(new_src, new_dst)` and, where the id map does
//!   not fit in memory, source-relabeled records `(new_src, old_dst[,
//!   weight])` by `(old_dst, new_src)` — the ids fix the old pair
//!   (relabeling is a bijection), and the weight is a function of it; on
//!   that path too, inverse pairs `(new, old)` by `new` — one pair per
//!   vertex, so the key is unique.
//! * CSR build (`csr.rs`) and `EdgeListFile::symmetrize` (`edgelist.rs`):
//!   edges by `(src, dst)`.
//! * GraphChi shards (`graphz-baselines`): edges by `(dst, src)` and by
//!   `(src, dst)`; the by-`src` sort only feeds an out-degree count, which
//!   the order among one source's edges cannot change.

#![forbid(unsafe_code)]

mod losertree;
mod runs;
mod stream;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphz_io::{FaultSurface, Fingerprint, IoStats, RecordReader, RecordWriter, ScratchDir};
use graphz_types::{cast, FixedCodec, GraphError, IoCtx, MemoryBudget, Result};

pub use runs::Run;
pub use stream::SortedStream;
use stream::RunSource;

/// Maximum number of runs merged at once. 64 open files keeps well under any
/// fd limit while making multi-pass merges rare for our graph sizes.
pub const DEFAULT_FAN_IN: usize = 64;

/// Wall-time attribution for external sorts, shared across any number of
/// sorters via `Arc` (the ingest pipeline hands one sink to all five DOS
/// stage sorters). Two buckets of *eager* sorter work:
///
/// * `form` — run formation: reading input, in-memory sorts, spilling runs;
/// * `merge` — eager merge work: pre-merge passes and the file-output final
///   merge of `sort_file`/`sort_iter`.
///
/// Lazy [`sort_stream`](ExternalSorter::sort_stream) drains happen on the
/// consumer's clock and are deliberately uncounted: per-record timing there
/// would distort the very numbers a benchmark wants. Consumers attribute
/// that remainder as merge+emit time (see
/// `IngestTimings::merge_and_emit` in `graphz-storage`).
#[derive(Debug, Default)]
pub struct SortTimings {
    form_ns: AtomicU64,
    merge_ns: AtomicU64,
    input_ns: AtomicU64,
}

impl SortTimings {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn add(counter: &AtomicU64, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        counter.fetch_add(ns, Ordering::Relaxed);
    }

    fn add_form(&self, d: Duration) {
        Self::add(&self.form_ns, d);
    }

    fn add_merge(&self, d: Duration) {
        Self::add(&self.merge_ns, d);
    }

    /// Total wall time spent forming runs.
    pub fn form(&self) -> Duration {
        Duration::from_nanos(self.form_ns.load(Ordering::Relaxed))
    }

    /// Total wall time spent in eager merge work.
    pub fn merge(&self) -> Duration {
        Duration::from_nanos(self.merge_ns.load(Ordering::Relaxed))
    }

    /// Total wall time durable run formation spent waiting on its input.
    pub fn input(&self) -> Duration {
        Duration::from_nanos(self.input_ns.load(Ordering::Relaxed))
    }
}

/// Configuration for an external sort.
///
/// Construct via [`ExternalSorter::builder`] (the workspace builder
/// convention) or [`ExternalSorter::new`] for the defaults.
pub struct ExternalSorter<T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    key: F,
    budget: MemoryBudget,
    fan_in: usize,
    stats: Arc<IoStats>,
    surface: FaultSurface,
    timings: Option<Arc<SortTimings>>,
    _marker: std::marker::PhantomData<T>,
}

/// Builder for [`ExternalSorter`], following the workspace `XBuilder` +
/// chainable setters + fallible `build()` convention.
pub struct ExternalSorterBuilder<T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    key: F,
    budget: Option<MemoryBudget>,
    fan_in: usize,
    stats: Option<Arc<IoStats>>,
    surface: FaultSurface,
    timings: Option<Arc<SortTimings>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T, K, F> ExternalSorterBuilder<T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    /// In-memory bytes run formation may hold (required).
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Shared IO statistics sink (required).
    pub fn stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Merge fan-in (≥ 2; default [`DEFAULT_FAN_IN`]).
    pub fn fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in;
        self
    }

    /// Fault surface gating every run/merge/output write (default: inert).
    /// Chaos tests use this to inject faults and disk budgets into run
    /// spilling, pre-merge passes, and the final merged output.
    pub fn faults(mut self, surface: FaultSurface) -> Self {
        self.surface = surface;
        self
    }

    /// Optional wall-time attribution sink (see [`SortTimings`]); share one
    /// sink across sorters to accumulate a pipeline-wide total.
    pub fn timings(mut self, timings: Arc<SortTimings>) -> Self {
        self.timings = Some(timings);
        self
    }

    /// Validate the configuration and produce the sorter.
    pub fn build(self) -> Result<ExternalSorter<T, K, F>> {
        let budget = self
            .budget
            .ok_or_else(|| GraphError::InvalidConfig("external sort requires a budget".into()))?;
        let stats = self
            .stats
            .ok_or_else(|| GraphError::InvalidConfig("external sort requires a stats sink".into()))?;
        if self.fan_in < 2 {
            return Err(GraphError::InvalidConfig(format!(
                "merge fan-in must be at least 2, got {}",
                self.fan_in
            )));
        }
        Ok(ExternalSorter {
            key: self.key,
            budget,
            fan_in: self.fan_in,
            stats,
            surface: self.surface,
            timings: self.timings,
            _marker: Default::default(),
        })
    }
}

impl<T, K, F> ExternalSorter<T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    /// Start building a sorter that orders records by `key(record)`
    /// ascending.
    pub fn builder(key: F) -> ExternalSorterBuilder<T, K, F> {
        ExternalSorterBuilder {
            key,
            budget: None,
            fan_in: DEFAULT_FAN_IN,
            stats: None,
            surface: FaultSurface::none(),
            timings: None,
            _marker: Default::default(),
        }
    }

    /// Create a sorter ordering records by `key(record)` ascending.
    /// Shorthand for
    /// `ExternalSorter::builder(key).budget(..).stats(..).build()`.
    pub fn new(key: F, budget: MemoryBudget, stats: Arc<IoStats>) -> Self {
        ExternalSorter {
            key,
            budget,
            fan_in: DEFAULT_FAN_IN,
            stats,
            surface: FaultSurface::none(),
            timings: None,
            _marker: Default::default(),
        }
    }

    /// Records per in-memory run: the whole budget.
    fn chunk_records(&self) -> usize {
        // Clamping (not erroring) is right here: a budget larger than the
        // address space just means "one giant run"; run buffers still grow
        // incrementally from a small initial capacity.
        cast::clamp_usize(self.budget.records(T::SIZE))
    }

    /// Sort the records in `input` into `output` (both files of `T` records).
    ///
    /// Returns the number of records sorted. `input` and `output` may be the
    /// same path: run formation fully drains the input before the output is
    /// created.
    pub fn sort_file(&self, input: &Path, output: &Path, scratch: &ScratchDir) -> Result<u64> {
        let reader = RecordReader::<T>::open(input, Arc::clone(&self.stats))?;
        self.sort_to_file(reader, output, scratch)
    }

    /// Sort records from an iterator into `output`.
    pub fn sort_iter<I: IntoIterator<Item = T>>(
        &self,
        input: I,
        output: &Path,
        scratch: &ScratchDir,
    ) -> Result<u64> {
        self.sort_to_file(input.into_iter().map(Ok), output, scratch)
    }

    /// Shared tail of [`sort_file`](Self::sort_file) and
    /// [`sort_iter`](Self::sort_iter): collapse the input to ≤ fan-in runs,
    /// then merge them into `output`.
    fn sort_to_file<I>(&self, input: I, output: &Path, scratch: &ScratchDir) -> Result<u64>
    where
        I: IntoIterator<Item = Result<T>>,
    {
        let plan = self.collapse_runs(input, scratch)?;
        let total = plan.total;
        let started = std::time::Instant::now();
        let mut sorted = self.open_merge_stream(plan)?;
        let w = self.surface.wrap(
            graphz_io::tracked::writer(output, Arc::clone(&self.stats)).ctx("create", output)?,
        );
        Self::drain(&mut sorted, w.labeled("write"))?;
        if let Some(t) = &self.timings {
            t.add_merge(started.elapsed());
        }
        Ok(total)
    }

    /// Sort records from a fallible iterator and return the merged output as
    /// a lazy [`SortedStream`].
    ///
    /// Run formation happens eagerly (the input is fully consumed before
    /// this returns); only the final ≤ fan-in merge is lazy, so downstream
    /// stages drain the merge concurrently with their own work. Run files
    /// live in `scratch` until the scratch directory is dropped.
    pub fn sort_stream<'a, I>(
        &'a self,
        input: I,
        scratch: &ScratchDir,
    ) -> Result<SortedStream<'a, T, K, F>>
    where
        I: IntoIterator<Item = Result<T>>,
    {
        let plan = self.collapse_runs(input, scratch)?;
        self.open_merge_stream(plan)
    }

    /// Durable run formation: consume the input and spill every run into
    /// `dir` as `run-{i:06}.bin` — the final partial run too — each with
    /// the fingerprint of its bytes, folded while they were written. Then
    /// pre-merge groups of fan-in runs (as `merge-{pass}-{i:06}.bin`,
    /// fingerprinted likewise, inputs deleted) until at most fan-in remain,
    /// unless the surface's disk budget has no room for a merged copy of
    /// the runs: then they stay as they are and one merge opens them all.
    /// Returns the runs in merge order and the record count. An empty input
    /// leaves no run.
    ///
    /// `form` times the sorts and spills, `merge` the pre-merge passes, and
    /// `input` the rest of the formation (see [`SortTimings`]).
    pub fn spill_runs<I>(&self, input: I, dir: &Path) -> Result<(Vec<Run>, u64)>
    where
        I: IntoIterator<Item = Result<T>>,
    {
        let started = std::time::Instant::now();
        let plan = runs::form_durable_runs(
            &self.key,
            &self.stats,
            &self.surface,
            dir,
            self.chunk_records(),
            input.into_iter(),
        )?;
        if let Some(t) = &self.timings {
            t.add_form(plan.spill_time);
            SortTimings::add(&t.input_ns, started.elapsed().saturating_sub(plan.spill_time));
        }
        let runs::DurablePlan { mut runs, total, .. } = plan;
        let copy_bytes = total.saturating_mul(cast::len_u64(T::SIZE));
        if self.surface.disk().is_some_and(|d| d.remaining() < copy_bytes) {
            return Ok((runs, total));
        }
        let started = std::time::Instant::now();
        let mut pass = 0;
        while runs.len() > self.fan_in {
            let mut next = Vec::with_capacity(runs.len().div_ceil(self.fan_in));
            for (group_idx, group) in runs.chunks(self.fan_in).enumerate() {
                if let [single] = group {
                    next.push(single.clone());
                    continue;
                }
                let path = dir.join(format!("merge-{pass}-{group_idx:06}.bin"));
                let paths: Vec<PathBuf> = group.iter().map(|r| r.path.clone()).collect();
                let fingerprint = self.merge_files_durable(&paths, &path)?;
                for r in &paths {
                    let _ = std::fs::remove_file(r);
                }
                next.push(Run { path, fingerprint });
            }
            runs = next;
            pass += 1;
        }
        if let Some(t) = &self.timings {
            t.add_merge(started.elapsed());
        }
        Ok((runs, total))
    }

    /// Merge the sorted run files `runs` (any number; each open is the
    /// gated `open-run`) as a lazy stream — the read side of
    /// [`spill_runs`](Self::spill_runs), callable as often as the runs
    /// exist.
    pub fn merge_runs(&self, runs: &[PathBuf]) -> Result<SortedStream<'_, T, K, F>> {
        let mut bytes = 0u64;
        for r in runs {
            bytes = bytes.saturating_add(std::fs::metadata(r).ctx("stat", r)?.len());
        }
        SortedStream::new(self.open_runs(runs)?, &self.key, bytes / cast::len_u64(T::SIZE))
    }

    /// Run formation plus pre-merge passes: consume the input and leave at
    /// most a final-merge's worth (≤ fan-in) of sorted runs behind.
    fn collapse_runs<I>(&self, input: I, scratch: &ScratchDir) -> Result<runs::RunPlan<T>>
    where
        I: IntoIterator<Item = Result<T>>,
    {
        let started = std::time::Instant::now();
        let plan = runs::form_runs(
            &self.key,
            &self.stats,
            &self.surface,
            scratch,
            self.chunk_records(),
            input.into_iter(),
        )?;
        if let Some(t) = &self.timings {
            t.add_form(started.elapsed());
        }
        let runs::RunPlan { mut files, tail, total } = plan;

        // Pre-merge passes until the remaining file runs (plus the tail run)
        // fit one final merge.
        let started = std::time::Instant::now();
        let max_file_sources = if tail.is_empty() { self.fan_in } else { self.fan_in - 1 };
        let mut pass = 0;
        while files.len() > max_file_sources.max(1) {
            let mut next = Vec::with_capacity(files.len().div_ceil(self.fan_in));
            for (group_idx, group) in files.chunks(self.fan_in).enumerate() {
                if group.len() == 1 {
                    next.push(group[0].clone());
                    continue;
                }
                let merged = scratch.file(&format!("merge-{pass}-{group_idx:06}.bin"));
                self.merge_files(group, &merged)?;
                for r in group {
                    let _ = std::fs::remove_file(r);
                }
                next.push(merged);
            }
            files = next;
            pass += 1;
        }
        if let Some(t) = &self.timings {
            t.add_merge(started.elapsed());
        }
        Ok(runs::RunPlan { files, tail, total })
    }

    /// Open the collapsed runs as a lazy final merge.
    fn open_merge_stream(&self, plan: runs::RunPlan<T>) -> Result<SortedStream<'_, T, K, F>> {
        let runs::RunPlan { files, tail, total } = plan;
        let mut sources = self.open_runs(&files)?;
        if !tail.is_empty() {
            sources.push(RunSource::Memory(tail.into_iter()));
        }
        SortedStream::new(sources, &self.key, total)
    }

    /// Open run files for merging. Each open is a gated op, so the read
    /// side of the merge is under fault coverage too.
    fn open_runs(&self, paths: &[PathBuf]) -> Result<Vec<RunSource<T>>> {
        let mut sources = Vec::with_capacity(paths.len() + 1);
        for path in paths {
            self.surface.op("open-run")?;
            let inner = graphz_io::tracked::reader(path, Arc::clone(&self.stats)).ctx("open", path)?;
            sources.push(RunSource::File(RecordReader::from_reader(inner)));
        }
        Ok(sources)
    }

    /// Merge already-sorted run files into `output` (a pre-merge pass; its
    /// writes are gated as `write-merge`).
    fn merge_files(&self, runs: &[PathBuf], output: &Path) -> Result<()> {
        let mut merged = SortedStream::new(self.open_runs(runs)?, &self.key, 0)?;
        let w = self.surface.wrap(
            graphz_io::tracked::writer(output, Arc::clone(&self.stats)).ctx("create", output)?,
        );
        Self::drain(&mut merged, w.labeled("write-merge"))?;
        Ok(())
    }

    /// [`merge_files`](Self::merge_files) into a file sink that folds the
    /// output's fingerprint while writing; returns it.
    fn merge_files_durable(&self, runs: &[PathBuf], output: &Path) -> Result<Fingerprint> {
        let mut merged = SortedStream::new(self.open_runs(runs)?, &self.key, 0)?;
        let w = self.surface.wrap(
            graphz_io::tracked::checksummed_writer(output, Arc::clone(&self.stats))
                .ctx("create", output)?,
        );
        let w = Self::drain(&mut merged, w.labeled("write-merge"))?;
        Ok(w.into_inner().get_ref().fingerprint())
    }

    /// Drain `sorted` through `w`; returns `w` flushed.
    fn drain<W: std::io::Write>(sorted: &mut SortedStream<'_, T, K, F>, w: W) -> Result<W> {
        let mut w = RecordWriter::<T, _>::from_writer(w);
        while let Some(rec) = sorted.next_record()? {
            w.push(&rec)?;
        }
        w.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::record::{read_records, write_records};
    use graphz_types::Edge;
    use rand::prelude::*;

    fn sort_roundtrip(values: Vec<u64>, budget: MemoryBudget, fan_in: usize) -> Vec<u64> {
        let dir = ScratchDir::new("xs-test").unwrap();
        let stats = IoStats::new();
        let input = dir.file("in.bin");
        let output = dir.file("out.bin");
        write_records(&input, Arc::clone(&stats), &values).unwrap();
        let sorter = ExternalSorter::builder(|v: &u64| *v)
            .budget(budget)
            .stats(Arc::clone(&stats))
            .fan_in(fan_in)
            .build()
            .unwrap();
        let scratch = ScratchDir::new("xs-scratch").unwrap();
        let n = sorter.sort_file(&input, &output, &scratch).unwrap();
        assert_eq!(n, values.len() as u64);
        read_records(&output, stats).unwrap()
    }

    #[test]
    fn sorts_small_in_single_run() {
        let out = sort_roundtrip(vec![5, 3, 9, 1, 1, 7], MemoryBudget::from_mib(1), 8);
        assert_eq!(out, vec![1, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn sorts_with_many_runs() {
        let mut rng = StdRng::seed_from_u64(42);
        let values: Vec<u64> = (0..10_000).map(|_| rng.random_range(0..1_000)).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        // Budget of 512 bytes => 64 records per run => ~157 runs.
        let out = sort_roundtrip(values, MemoryBudget(512), 8);
        assert_eq!(out, expected);
    }

    #[test]
    fn multi_pass_merge_with_tiny_fan_in() {
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<u64> = (0..2_000).map(|_| rng.random()).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        // 16 records per run, fan-in 2 => deep multi-pass merge tree.
        let out = sort_roundtrip(values, MemoryBudget(128), 2);
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let out = sort_roundtrip(vec![], MemoryBudget::from_kib(1), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn sorts_edges_by_composite_key() {
        // The DOS first pass sorts by (degree desc, src asc).
        let dir = ScratchDir::new("xs-edge").unwrap();
        let stats = IoStats::new();
        let input = dir.file("in.bin");
        let output = dir.file("out.bin");
        let recs: Vec<(u32, u32)> = vec![(2, 5), (3, 1), (2, 3), (3, 0), (1, 9)];
        write_records(&input, Arc::clone(&stats), &recs).unwrap();
        let scratch = ScratchDir::new("xs-edge-scratch").unwrap();
        ExternalSorter::new(
            |r: &(u32, u32)| (std::cmp::Reverse(r.0), r.1),
            MemoryBudget(16),
            Arc::clone(&stats),
        )
        .sort_file(&input, &output, &scratch)
        .unwrap();
        let out: Vec<(u32, u32)> = read_records(&output, stats).unwrap();
        assert_eq!(out, vec![(3, 0), (3, 1), (2, 3), (2, 5), (1, 9)]);
    }

    #[test]
    fn in_place_sort_same_input_output_path() {
        let dir = ScratchDir::new("xs-inplace").unwrap();
        let stats = IoStats::new();
        let path = dir.file("data.bin");
        write_records(&path, Arc::clone(&stats), &[3u64, 1, 2]).unwrap();
        // 8 bytes: one record per run, so the output is written from spilled
        // runs after the input has been read to its end.
        let scratch = ScratchDir::new("xs-inplace-scratch").unwrap();
        ExternalSorter::new(|v: &u64| *v, MemoryBudget(8), Arc::clone(&stats))
            .sort_file(&path, &path, &scratch)
            .unwrap();
        assert_eq!(read_records::<u64>(&path, stats).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn sort_iter_from_generator() {
        let dir = ScratchDir::new("xs-iter").unwrap();
        let stats = IoStats::new();
        let output = dir.file("out.bin");
        let scratch = ScratchDir::new("xs-iter-scratch").unwrap();
        let edges = (0..100u32).rev().map(|i| Edge::new(i, 0));
        ExternalSorter::new(|e: &Edge| e.src, MemoryBudget(64), Arc::clone(&stats))
            .sort_iter(edges, &output, &scratch)
            .unwrap();
        let out: Vec<Edge> = read_records(&output, stats).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].src <= w[1].src));
    }

    #[test]
    fn builder_validates_configuration() {
        let stats = IoStats::new();
        assert!(ExternalSorter::<u64, _, _>::builder(|v: &u64| *v)
            .stats(Arc::clone(&stats))
            .build()
            .is_err());
        assert!(ExternalSorter::<u64, _, _>::builder(|v: &u64| *v)
            .budget(MemoryBudget::from_kib(1))
            .build()
            .is_err());
        assert!(ExternalSorter::<u64, _, _>::builder(|v: &u64| *v)
            .budget(MemoryBudget::from_kib(1))
            .stats(Arc::clone(&stats))
            .fan_in(1)
            .build()
            .is_err());
        assert!(ExternalSorter::<u64, _, _>::builder(|v: &u64| *v)
            .budget(MemoryBudget::from_kib(1))
            .stats(stats)
            .fan_in(2)
            .build()
            .is_ok());
    }

    #[test]
    fn sort_stream_yields_sorted_lazily() {
        let stats = IoStats::new();
        let scratch = ScratchDir::new("xs-stream").unwrap();
        let sorter =
            ExternalSorter::new(|v: &u64| *v, MemoryBudget(64), Arc::clone(&stats));
        let input = (0..1000u64).rev().map(Ok);
        let mut stream = sorter.sort_stream(input, &scratch).unwrap();
        assert_eq!(stream.total_records(), 1000);
        let mut prev = None;
        let mut count = 0u64;
        while let Some(v) = stream.next_record().unwrap() {
            if let Some(p) = prev {
                assert!(p <= v);
            }
            prev = Some(v);
            count += 1;
        }
        assert_eq!(count, 1000);
    }

    /// Durable run formation leaves every run on disk, the partial last one
    /// included, each fingerprint equal to its file's; pre-merges to at
    /// most fan-in runs; and the run list merges to sorted order as often
    /// as it is asked.
    #[test]
    fn spill_runs_leaves_fingerprinted_runs_that_merge_repeatedly() {
        let stats = IoStats::new();
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<u64> = (0..1_000).map(|_| rng.random_range(0..500)).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        let on_disk = |p: &Path| graphz_io::crc32_stream(std::fs::File::open(p).unwrap()).unwrap();
        // 8 records per run: 126 runs, the last one partial and spilled
        // too; fan-in 4 takes three pre-merge passes, fan-in 200 none.
        for (fan_in, want_runs) in [(4usize, 2usize), (200, 126)] {
            let dir = ScratchDir::new("xs-durable").unwrap();
            let timings = SortTimings::new();
            let sorter = ExternalSorter::builder(|v: &u64| *v)
                .budget(MemoryBudget(64))
                .stats(Arc::clone(&stats))
                .fan_in(fan_in)
                .timings(Arc::clone(&timings))
                .build()
                .unwrap();
            let input = values.iter().copied().chain([7, 7, 7]).map(Ok);
            let (runs, total) = sorter.spill_runs(input, dir.path()).unwrap();
            assert_eq!((runs.len(), total), (want_runs, 1_003), "fan-in {fan_in}");
            for r in &runs {
                assert_eq!(r.fingerprint, on_disk(&r.path), "{}", r.path.display());
            }
            let files = std::fs::read_dir(dir.path()).unwrap().count();
            assert_eq!(files, runs.len(), "fan-in {fan_in}: merged inputs are deleted");
            assert!(timings.form() > Duration::ZERO && timings.input() > Duration::ZERO);
            let mut want = expected.clone();
            want.extend([7, 7, 7]);
            want.sort_unstable();
            let paths: Vec<PathBuf> = runs.iter().map(|r| r.path.clone()).collect();
            for _ in 0..2 {
                let mut merged = sorter.merge_runs(&paths).unwrap();
                assert_eq!(merged.total_records(), 1_003);
                let got: Vec<u64> = (&mut merged).map(|v| v.unwrap()).collect();
                assert_eq!(got, want, "fan-in {fan_in}");
            }
        }
        let dir = ScratchDir::new("xs-durable-empty").unwrap();
        let sorter = ExternalSorter::new(|v: &u64| *v, MemoryBudget(64), Arc::clone(&stats));
        let (runs, total) = sorter.spill_runs(std::iter::empty(), dir.path()).unwrap();
        assert!(runs.is_empty() && total == 0);
        assert_eq!(sorter.merge_runs(&[]).unwrap().next_record().unwrap(), None);
    }

    /// With no room in the disk budget for a merged copy of the runs, the
    /// pre-merge is skipped and the runs stay as they were spilled.
    #[test]
    fn spill_runs_skips_the_pre_merge_without_room_for_a_copy() {
        use graphz_io::DiskBudget;
        let dir = ScratchDir::new("xs-durable-disk").unwrap();
        let disk = DiskBudget::new(8 * 100 + 8 * 50);
        let sorter = ExternalSorter::builder(|v: &u64| *v)
            .budget(MemoryBudget(64))
            .stats(IoStats::new())
            .fan_in(4)
            .faults(FaultSurface::none().with_disk_budget(Arc::clone(&disk)))
            .build()
            .unwrap();
        let (runs, total) = sorter.spill_runs((0..100u64).rev().map(Ok), dir.path()).unwrap();
        assert_eq!((runs.len(), total, disk.used()), (13, 100, 800));
        let paths: Vec<PathBuf> = runs.iter().map(|r| r.path.clone()).collect();
        let got: Vec<u64> = sorter.merge_runs(&paths).unwrap().map(|v| v.unwrap()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sort_stream_propagates_input_errors() {
        let stats = IoStats::new();
        let scratch = ScratchDir::new("xs-stream-err").unwrap();
        let sorter = ExternalSorter::new(|v: &u64| *v, MemoryBudget(64), Arc::clone(&stats));
        let input = (0..100u64)
            .map(Ok)
            .chain(std::iter::once(Err(GraphError::Corrupt("boom".into()))));
        let err = sorter.sort_stream(input, &scratch).err().unwrap();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
    }
}
