//! Run formation for the external sort: serial, and sharded across N
//! producer threads.
//!
//! The parallel path follows the workspace's deterministic-schedule rule
//! (DESIGN.md §6d, §6g): the *plan* is a pure function of the configuration,
//! never of thread timing. Input records are cut into fixed-capacity chunks
//! in arrival order; chunk `i` is sorted by producer `i % threads` and
//! spilled as `run-{i:06}.bin`. Which OS thread sorts a chunk never affects
//! which records it holds or what the resulting run file contains, so the
//! set of runs is identical for any interleaving. Run *boundaries* do differ
//! between thread counts (each producer works under a split
//! [`MemoryBudget`]), which is harmless for byte-identical output because
//! every sort key used by the ingest pipeline determines the record bytes
//! — see DESIGN.md §6g for the full argument.
//!
//! Producer threads are plain scoped workers (no locks — chunks arrive over
//! bounded channels, results over an unbounded one), so the lock-order audit
//! has nothing to track here by construction.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use graphz_io::{FaultSurface, IoStats, RecordWriter, ScratchDir};
use graphz_types::{FixedCodec, GraphError, Result};

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

/// Single-threaded run formation: spill full chunks, keep the final partial
/// chunk in memory as the tail run.
pub(crate) fn form_runs_serial<T, K, F>(
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

/// Sharded run formation: the calling thread chunks the input and deals
/// chunk `i` to producer `i % threads`; each producer sorts and spills its
/// chunks independently. Returns run files ordered by chunk index.
///
/// Backpressure: each producer's inbox holds one chunk (plus the one it is
/// sorting), and the dispatcher fills one more, so at most `2·threads + 1`
/// chunks are in flight — the caller sizes `chunk_records` from a split
/// budget accordingly.
pub(crate) fn form_runs_parallel<T, K, F>(
    key: &F,
    stats: &Arc<IoStats>,
    surface: &FaultSurface,
    scratch: &ScratchDir,
    threads: usize,
    chunk_records: usize,
    input: impl Iterator<Item = Result<T>>,
) -> Result<RunPlan<T>>
where
    T: FixedCodec + Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Result<PathBuf>)>();
        let mut inboxes = Vec::with_capacity(threads);
        for producer in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<(usize, Vec<T>)>(1);
            inboxes.push(tx);
            let done_tx = done_tx.clone();
            std::thread::Builder::new()
                .name(format!("graphz-ingest-{producer}"))
                .spawn_scoped(scope, move || {
                    for (idx, mut buf) in rx.iter() {
                        let run = spill(key, stats, surface, scratch, idx, &mut buf);
                        if done_tx.send((idx, run)).is_err() {
                            return;
                        }
                    }
                })?;
        }
        drop(done_tx);

        // Dispatch chunks round-robin in arrival order.
        let mut total = 0u64;
        let mut chunks = 0usize;
        let mut buf: Vec<T> = Vec::with_capacity(chunk_records.min(1 << 20));
        let mut input_err = None;
        for item in input {
            match item {
                Ok(rec) => {
                    buf.push(rec);
                    total += 1;
                    if buf.len() >= chunk_records {
                        let full = std::mem::replace(
                            &mut buf,
                            Vec::with_capacity(chunk_records.min(1 << 20)),
                        );
                        // A closed inbox means that producer died; its error
                        // is waiting in the done channel.
                        if inboxes[chunks % threads].send((chunks, full)).is_err() {
                            chunks += 1;
                            break;
                        }
                        chunks += 1;
                    }
                }
                Err(e) => {
                    input_err = Some(e);
                    break;
                }
            }
        }
        if input_err.is_none() && !buf.is_empty() {
            let tail_chunk = std::mem::take(&mut buf);
            if inboxes[chunks % threads].send((chunks, tail_chunk)).is_ok() {
                chunks += 1;
            }
        }
        drop(inboxes);

        // Collect spilled runs back into chunk order.
        let mut files: Vec<Option<PathBuf>> = (0..chunks).map(|_| None).collect();
        let mut first_err: Option<(usize, GraphError)> = None;
        for (idx, outcome) in done_rx.iter() {
            match outcome {
                Ok(path) => {
                    if let Some(slot) = files.get_mut(idx) {
                        *slot = Some(path);
                    }
                }
                Err(e) => {
                    let earlier = match &first_err {
                        None => true,
                        Some((at, _)) => idx < *at,
                    };
                    if earlier {
                        first_err = Some((idx, e));
                    }
                }
            }
        }
        if let Some(e) = input_err {
            return Err(e);
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let mut ordered = Vec::with_capacity(chunks);
        for (idx, slot) in files.into_iter().enumerate() {
            match slot {
                Some(p) => ordered.push(p),
                None => {
                    return Err(GraphError::Corrupt(format!(
                        "ingest producer lost run for chunk {idx}"
                    )))
                }
            }
        }
        Ok(RunPlan { files: ordered, tail: Vec::new(), total })
    })
}
