//! Run formation for the external sort.
//!
//! Records are read in arrival order into one budget-sized buffer; each
//! full buffer is sorted in place and spilled as `run-{i:06}.bin`. For a
//! streamed sort the final partial buffer stays in memory as the tail run;
//! durable run formation spills it too, so every run is a file whose
//! fingerprint is folded while it is written. The run boundaries are a
//! function of the input and the budget alone; they never show in the
//! merged bytes, because every sort key used by the ingest pipeline
//! determines the record bytes — see DESIGN.md §6g.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphz_io::{FaultSurface, Fingerprint, IoStats, RecordWriter, ScratchDir};
use graphz_types::{FixedCodec, IoCtx, Result};

/// The outcome of run formation: spilled run files in spill order, plus an
/// in-memory tail run (already sorted) that never needed to touch disk.
pub(crate) struct RunPlan<T> {
    pub files: Vec<PathBuf>,
    pub tail: Vec<T>,
    pub total: u64,
}

/// One durable run: a sorted run file and the fingerprint of its bytes,
/// folded while they were written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub path: PathBuf,
    pub fingerprint: Fingerprint,
}

/// Path of run file `idx` in `dir`.
pub(crate) fn run_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("run-{idx:06}.bin"))
}

/// Sort `buf` in place by `key` (unstable: every caller's key determines
/// its record or is unique, see the crate docs), write it through `w` and
/// hand `w` back flushed. Callers pass a writer routed through the sorter's
/// [`FaultSurface`] under the label `write-run`, so chaos tests reach every
/// run writer and a disk budget sees every spilled byte.
fn spill<T, K, F, W>(key: &F, w: W, buf: &mut Vec<T>) -> Result<W>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
    W: Write,
{
    buf.sort_unstable_by_key(|r| key(r));
    let mut w = RecordWriter::<T, _>::from_writer(w);
    w.push_all(buf.iter())?;
    buf.clear();
    w.into_inner()
}

/// Spill full chunks of `chunk_records`, keep the final partial chunk in
/// memory as the tail run.
pub(crate) fn form_runs<T, K, F>(
    key: &F,
    stats: &Arc<IoStats>,
    surface: &FaultSurface,
    scratch: &ScratchDir,
    chunk_records: usize,
    input: impl Iterator<Item = Result<T>>,
) -> Result<RunPlan<T>>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut files = Vec::new();
    let mut buf: Vec<T> = Vec::with_capacity(chunk_records.min(1 << 20));
    let mut total = 0u64;
    for item in input {
        buf.push(item?);
        total += 1;
        if buf.len() >= chunk_records {
            let path = run_path(scratch.path(), files.len());
            let w = surface
                .wrap(graphz_io::tracked::writer(&path, Arc::clone(stats)).ctx("create", &path)?);
            spill(key, w.labeled("write-run"), &mut buf)?;
            files.push(path);
        }
    }
    buf.sort_unstable_by_key(|r| key(r));
    Ok(RunPlan { files, tail: buf, total })
}

/// The outcome of durable run formation: every run on disk, in spill
/// order, and the wall time spent inside the spills (sorting and writing).
pub(crate) struct DurablePlan {
    pub runs: Vec<Run>,
    pub total: u64,
    pub spill_time: Duration,
}

/// Spill every chunk of `chunk_records` — the final partial one too — as
/// a run file in `dir`. The time spent inside the spills is measured at
/// each spill boundary, so the rest of the formation wall is the time the
/// input took to produce its records; no record is timed on its own.
pub(crate) fn form_durable_runs<T, K, F>(
    key: &F,
    stats: &Arc<IoStats>,
    surface: &FaultSurface,
    dir: &Path,
    chunk_records: usize,
    input: impl Iterator<Item = Result<T>>,
) -> Result<DurablePlan>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut runs = Vec::new();
    let mut buf: Vec<T> = Vec::with_capacity(chunk_records.min(1 << 20));
    let mut total = 0u64;
    let mut spill_time = Duration::ZERO;
    let mut spill_buf = |buf: &mut Vec<T>, runs: &mut Vec<Run>| -> Result<()> {
        let started = Instant::now();
        let path = run_path(dir, runs.len());
        let w = surface.wrap(
            graphz_io::tracked::checksummed_writer(&path, Arc::clone(stats)).ctx("create", &path)?,
        );
        let w = spill(key, w.labeled("write-run"), buf)?;
        let fingerprint = w.into_inner().get_ref().fingerprint();
        runs.push(Run { path, fingerprint });
        spill_time += started.elapsed();
        Ok(())
    };
    for item in input {
        buf.push(item?);
        total += 1;
        if buf.len() >= chunk_records {
            spill_buf(&mut buf, &mut runs)?;
        }
    }
    if !buf.is_empty() {
        spill_buf(&mut buf, &mut runs)?;
    }
    Ok(DurablePlan { runs, total, spill_time })
}
