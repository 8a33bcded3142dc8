//! Run formation for the external sort.
//!
//! Records are read in arrival order into one budget-sized buffer; each
//! full buffer is sorted in place and spilled as `run-{i:06}.bin`, and the
//! final partial buffer stays in memory as the tail run. The run
//! boundaries are a function of the input and the budget alone; they never
//! show in the merged bytes, because every sort key used by the ingest
//! pipeline determines the record bytes — see DESIGN.md §6g.

use std::path::PathBuf;
use std::sync::Arc;

use graphz_io::{FaultSurface, IoStats, RecordWriter, ScratchDir};
use graphz_types::{FixedCodec, Result};

/// The outcome of run formation: spilled run files in spill order, plus an
/// in-memory tail run (already sorted) that never needed to touch disk.
pub(crate) struct RunPlan<T> {
    pub files: Vec<PathBuf>,
    pub tail: Vec<T>,
    pub total: u64,
}

/// Sort `buf` in place by `key` (unstable: every caller's key determines
/// its record or is unique, see the crate docs) and spill it as run file
/// `idx`. All bytes flow through the sorter's [`FaultSurface`], so chaos
/// tests reach every run writer and a disk budget sees every spilled byte.
fn spill<T, K, F>(
    key: &F,
    stats: &Arc<IoStats>,
    surface: &FaultSurface,
    scratch: &ScratchDir,
    idx: usize,
    buf: &mut Vec<T>,
) -> Result<PathBuf>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    buf.sort_unstable_by_key(|r| key(r));
    let path = scratch.file(&format!("run-{idx:06}.bin"));
    let mut w = RecordWriter::<T, _>::from_writer(
        surface.wrap(graphz_io::tracked::writer(&path, Arc::clone(stats))?),
    );
    w.push_all(buf.iter())?;
    w.finish()?;
    buf.clear();
    Ok(path)
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
            files.push(spill(key, stats, surface, scratch, files.len(), &mut buf)?);
        }
    }
    buf.sort_unstable_by_key(|r| key(r));
    Ok(RunPlan { files, tail: buf, total })
}
