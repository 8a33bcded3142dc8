//! External k-way merge sort over fixed-size records.
//!
//! The DOS conversion pipeline (paper §III-C) is built entirely from external
//! sorts: "we use external k-way merge sort to sort it using deg as 1st key
//! and src as 2nd key", then again by `dest`, then by `src`. The GraphChi
//! baseline's shard construction and X-Stream's partition bucketing reuse the
//! same substrate.
//!
//! The implementation is the classic two-phase algorithm, on the calling
//! thread:
//!
//! 1. **Run formation** — read records until the memory budget is full, sort
//!    them in memory, and spill each sorted run to a scratch file (see
//!    [`runs`](crate::runs) internals).
//! 2. **K-way merge** — stream every run through a loser tree, emitting
//!    records in globally sorted order. If the number of runs exceeds the
//!    configured fan-in, runs are merged in multiple passes.
//!
//! The merge can be consumed lazily via [`ExternalSorter::sort_stream`],
//! which is how the DOS converter chains one sort's output into the next
//! sort's run formation without an intermediate file.
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
//!   integer of the same order: edges by `(src, dst)` and triads by
//!   `(Reverse(deg), src, dst)` — the whole record; half-relabeled records
//!   `(new_src, old_dst[, weight])` by `(old_dst, new_src)` and final
//!   records `(new_src, new_dst[, weight])` by `(new_src, new_dst)` — the
//!   ids fix the old pair (relabeling is a bijection), and the weight is a
//!   function of it; assignment pairs `(old, new)` by `old` and inverse
//!   pairs `(new, old)` by `new` — one pair per vertex, so the key is
//!   unique.
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

use graphz_io::{FaultSurface, IoStats, RecordReader, RecordWriter, ScratchDir};
use graphz_types::{cast, FixedCodec, GraphError, MemoryBudget, Result};

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
        self.write_all(&mut sorted, output, "write")?;
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
        let mut sources = Vec::with_capacity(files.len() + usize::from(!tail.is_empty()));
        for f in &files {
            sources.push(RunSource::File(self.open_run(f)?));
        }
        if !tail.is_empty() {
            sources.push(RunSource::Memory(tail.into_iter()));
        }
        SortedStream::new(sources, &self.key, total)
    }

    /// Open a run file for merging. The open is a gated op, so the read
    /// side of the merge is under fault coverage too.
    fn open_run(&self, path: &Path) -> Result<RecordReader<T>> {
        self.surface.op("open-run")?;
        let inner = graphz_io::tracked::reader(path, Arc::clone(&self.stats))?;
        Ok(RecordReader::from_reader(inner))
    }

    /// Merge already-sorted run files into `output` (a pre-merge pass; its
    /// writes are gated as `write-merge`).
    fn merge_files(&self, runs: &[PathBuf], output: &Path) -> Result<()> {
        let mut sources = Vec::with_capacity(runs.len());
        for r in runs {
            sources.push(RunSource::File(self.open_run(r)?));
        }
        let mut merged = SortedStream::new(sources, &self.key, 0)?;
        self.write_all(&mut merged, output, "write-merge")
    }

    /// Drain `sorted` into `output`, every write gated as `label`.
    fn write_all(
        &self,
        sorted: &mut SortedStream<'_, T, K, F>,
        output: &Path,
        label: &'static str,
    ) -> Result<()> {
        let mut w = RecordWriter::<T, _>::from_writer(
            self.surface
                .wrap(graphz_io::tracked::writer(output, Arc::clone(&self.stats))?)
                .labeled(label),
        );
        while let Some(rec) = sorted.next_record()? {
            w.push(&rec)?;
        }
        w.finish()?;
        Ok(())
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
