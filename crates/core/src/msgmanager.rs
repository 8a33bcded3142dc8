//! The MsgManager (paper §V-C): per-partition message buffers with ordered
//! disk spill.
//!
//! While a partition is being updated, messages destined for non-resident
//! vertices are appended to the destination partition's buffer. Buffers live
//! in memory up to a budgeted cap and spill to append-only files beyond it.
//! When a partition loads, its spilled messages are replayed first (they are
//! older), then the in-memory tail — preserving exactly the global send
//! order, which is what makes dynamic messages *ordered*.
//!
//! Spill storage is a sequence of *segments* per partition
//! (`msgs-{p:05}-{seg:05}.bin`, oldest first). Segments exist so the
//! partition prefetcher can [`claim`](MsgManager::claim) the current spill
//! run — sealing it against further appends and reading it concurrently —
//! while the engine keeps spilling new messages into a fresh segment. A
//! claim never removes anything: if the prefetch is discarded, a normal
//! [`drain`](MsgManager::drain) still replays every segment, so crashes and
//! checkpoints taken between claim and consume lose no messages.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

use crossbeam::channel::{bounded, Sender};
use graphz_io::{IoStats, RecordReader, RecordWriter, TrackedFile};
use graphz_types::{FixedCodec, GraphError, IoCtx, Result, VertexId};

/// A message in flight: destination storage id plus payload.
type Envelope<M> = (VertexId, M);

/// Counters the engine folds into its run summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MsgCounters {
    /// Messages enqueued for a non-resident partition.
    pub buffered: u64,
    /// Messages that overflowed memory and were written to spill files.
    pub spilled: u64,
    /// Messages replayed into a loading partition.
    pub replayed: u64,
}

/// A snapshot of the sealed spill segments for one partition, handed to the
/// prefetcher. The segments stay registered in the manager (and on disk)
/// until [`MsgManager::consume_claimed`] — discarding a claim is always safe.
#[derive(Debug, Clone)]
pub struct ClaimedSegments {
    pub partition: u32,
    /// Paths of the sealed segment files, oldest first.
    pub paths: Vec<PathBuf>,
    /// How many segment entries (a prefix of the partition's list) this
    /// claim covers.
    count: usize,
}

impl ClaimedSegments {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One pre-encoded batch of envelopes bound for a spill segment file.
struct SpillJob {
    path: PathBuf,
    bytes: Vec<u8>,
}

/// Shared completion/error state between the manager and its writer thread.
#[derive(Default)]
struct WriterState {
    completed: Mutex<(u64, Option<String>)>,
    quiescent: Condvar,
}

/// The paper's dedicated MsgManager thread (§V, Fig. 4): spill batches are
/// handed over a bounded queue and written in the background so the Worker
/// never blocks on message IO. FIFO handoff preserves the exact on-disk
/// order of the synchronous path.
struct BackgroundWriter {
    tx: Option<Sender<SpillJob>>,
    handle: Option<std::thread::JoinHandle<()>>,
    state: Arc<WriterState>,
    submitted: u64,
}

/// Depth of the Worker → MsgManager spill queue.
pub const SPILL_QUEUE_CAP: usize = 4;

impl BackgroundWriter {
    fn spawn(stats: Arc<IoStats>) -> Result<Self> {
        let (tx, rx) = bounded::<SpillJob>(SPILL_QUEUE_CAP);
        let state = Arc::new(WriterState::default());
        let thread_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("graphz-msgmanager".into())
            .spawn(move || {
                for job in rx {
                    let result = (|| -> Result<()> {
                        let mut f = TrackedFile::append(&job.path, Arc::clone(&stats))
                            .ctx("append", &job.path)?;
                        f.write_all(&job.bytes)?;
                        Ok(())
                    })();
                    // Poison-tolerant: a panicked peer must not cascade into
                    // a panic here; the completion counter stays correct.
                    let mut done = thread_state
                        .completed
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    done.0 += 1;
                    if let Err(e) = result {
                        done.1.get_or_insert_with(|| e.to_string());
                    }
                    thread_state.quiescent.notify_all();
                }
            })
            .map_err(std::io::Error::other)?;
        Ok(BackgroundWriter { tx: Some(tx), handle: Some(handle), state, submitted: 0 })
    }

    fn submit(&mut self, job: SpillJob) -> Result<()> {
        self.submitted += 1;
        self.tx
            .as_ref()
            .ok_or_else(|| GraphError::Io(std::io::Error::other("spill writer shut down")))?
            .send(job)
            .map_err(|_| GraphError::Io(std::io::Error::other("spill writer thread died")))?;
        Ok(())
    }

    /// Block until every submitted batch is on disk; surface any write error.
    fn wait_quiescent(&self) -> Result<()> {
        let mut done =
            self.state.completed.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        while done.0 < self.submitted && done.1.is_none() {
            done = self
                .state
                .quiescent
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(e) = &done.1 {
            return Err(GraphError::Io(std::io::Error::other(format!(
                "background spill failed: {e}"
            ))));
        }
        Ok(())
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; the thread drains and exits
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

pub struct MsgManager<M: FixedCodec> {
    dir: PathBuf,
    stats: Arc<IoStats>,
    /// In-memory tail per partition.
    buffers: Vec<Vec<Envelope<M>>>,
    /// Spill segment ids per partition, oldest first. The last entry may be
    /// open for appends (see `open_seg`); all earlier ones are sealed.
    segments: Vec<Vec<u32>>,
    /// The segment currently accepting appends, per partition.
    open_seg: Vec<Option<u32>>,
    /// Next segment id to allocate, per partition (monotonic, so the
    /// zero-padded filename sort order equals creation order).
    next_seg: Vec<u32>,
    /// Messages queued per partition (memory + disk), so the engine can
    /// tell a partition with nothing to replay without touching a file.
    queued: Vec<u64>,
    /// Total in-memory messages across all partitions.
    resident: usize,
    /// Cap on `resident` before everything spills.
    cap: usize,
    counters: MsgCounters,
    /// When present, spills go through the dedicated writer thread.
    writer: Option<BackgroundWriter>,
}

impl<M: FixedCodec> MsgManager<M> {
    /// `cap_bytes` bounds the total in-memory message bytes (the budget share
    /// the engine grants the MsgManager).
    pub fn new(dir: PathBuf, partitions: u32, cap_bytes: u64, stats: Arc<IoStats>) -> Result<Self> {
        std::fs::create_dir_all(&dir).ctx("create-dir", &dir)?;
        let env_size = 4 + M::SIZE;
        let cap = ((cap_bytes as usize) / env_size).max(1);
        Ok(MsgManager {
            dir,
            stats,
            buffers: (0..partitions).map(|_| Vec::new()).collect(),
            segments: vec![Vec::new(); partitions as usize],
            open_seg: vec![None; partitions as usize],
            next_seg: vec![0; partitions as usize],
            queued: vec![0; partitions as usize],
            resident: 0,
            cap,
            counters: MsgCounters::default(),
            writer: None,
        })
    }

    /// Spill through a dedicated background thread (the paper's MsgManager
    /// thread pool) instead of synchronously on the caller. On-disk contents
    /// are identical; only who does the writing changes.
    pub fn with_background_writer(mut self) -> Result<Self> {
        self.writer = Some(BackgroundWriter::spawn(Arc::clone(&self.stats))?);
        Ok(self)
    }

    fn seg_path(&self, partition: u32, seg: u32) -> PathBuf {
        self.dir.join(format!("msgs-{partition:05}-{seg:05}.bin"))
    }

    /// The segment currently open for appends, allocating one if needed.
    fn open_segment(&mut self, partition: u32) -> u32 {
        let p = partition as usize;
        match self.open_seg[p] {
            Some(s) => s,
            None => {
                let s = self.next_seg[p];
                self.next_seg[p] += 1;
                self.open_seg[p] = Some(s);
                self.segments[p].push(s);
                s
            }
        }
    }

    /// Queue `msg` for `dst`, owned by `partition`.
    pub fn enqueue(&mut self, partition: u32, dst: VertexId, msg: M) -> Result<()> {
        self.buffers[partition as usize].push((dst, msg));
        self.queued[partition as usize] += 1;
        self.resident += 1;
        self.counters.buffered += 1;
        if self.resident > self.cap {
            self.spill_all()?;
        }
        Ok(())
    }

    /// Queue a whole batch of messages for `partition` in one hop: the
    /// buffer grows once and the spill check runs once, instead of once per
    /// message. `msgs` must already be in send order; the resulting buffer
    /// contents — and therefore the spill files and replay order — are
    /// byte-identical to enqueueing each message individually.
    pub fn enqueue_bulk(&mut self, partition: u32, mut msgs: Vec<(VertexId, M)>) -> Result<()> {
        let n = msgs.len();
        if n == 0 {
            return Ok(());
        }
        let buf = &mut self.buffers[partition as usize];
        if buf.is_empty() {
            *buf = msgs; // adopt the sender's allocation outright
        } else {
            // audit:allow(dropped-result) — Vec::append returns ()
            buf.append(&mut msgs);
        }
        self.queued[partition as usize] += n as u64;
        self.resident += n;
        self.counters.buffered += n as u64;
        if self.resident > self.cap {
            self.spill_all()?;
        }
        Ok(())
    }

    /// Write every in-memory buffer to its partition's open spill segment, in
    /// order (directly, or via the background writer when configured).
    fn spill_all(&mut self) -> Result<()> {
        let env_size = 4 + M::SIZE;
        for p in 0..self.buffers.len() {
            if self.buffers[p].is_empty() {
                continue;
            }
            let seg = self.open_segment(p as u32);
            let path = self.seg_path(p as u32, seg);
            if let Some(writer) = &mut self.writer {
                // Encode on this thread, write on the MsgManager thread.
                let mut bytes = vec![0u8; self.buffers[p].len() * env_size];
                for (i, env) in self.buffers[p].drain(..).enumerate() {
                    env.write_to(&mut bytes[i * env_size..]);
                    self.counters.spilled += 1;
                }
                writer.submit(SpillJob { path, bytes })?;
            } else {
                let file =
                    TrackedFile::append(&path, Arc::clone(&self.stats)).ctx("append", &path)?;
                let mut w =
                    RecordWriter::<Envelope<M>>::from_writer(std::io::BufWriter::new(file));
                for env in self.buffers[p].drain(..) {
                    w.push(&env)?;
                    self.counters.spilled += 1;
                }
                w.finish()?;
            }
        }
        self.resident = 0;
        Ok(())
    }

    /// Seal `partition`'s spill run and return a snapshot of it for the
    /// prefetcher. After this call no more bytes are ever appended to the
    /// returned files (new spills open a fresh segment), so another thread
    /// may read them concurrently. The segments remain registered and on
    /// disk: dropping the claim without [`consume_claimed`] loses nothing —
    /// a later [`drain`] replays them as usual.
    ///
    /// [`consume_claimed`]: MsgManager::consume_claimed
    /// [`drain`]: MsgManager::drain
    pub fn claim(&mut self, partition: u32) -> Result<ClaimedSegments> {
        // Sealed files must be complete before another thread reads them.
        if let Some(writer) = &self.writer {
            writer.wait_quiescent()?;
        }
        let p = partition as usize;
        self.open_seg[p] = None;
        let paths =
            self.segments[p].iter().map(|&s| self.seg_path(partition, s)).collect::<Vec<_>>();
        Ok(ClaimedSegments { partition, count: paths.len(), paths })
    }

    /// Retire a claim whose messages were applied by the caller: removes the
    /// claimed segment prefix, deletes the files, and accounts `replayed`
    /// messages. Only call after actually applying the prefetched messages.
    pub fn consume_claimed(&mut self, claim: &ClaimedSegments, replayed: u64) -> Result<()> {
        let p = claim.partition as usize;
        debug_assert!(
            claim.count <= self.segments[p].len(),
            "claim outlived a drain of partition {}",
            claim.partition
        );
        let retired: Vec<u32> = self.segments[p].drain(..claim.count).collect();
        for seg in retired {
            let path = self.seg_path(claim.partition, seg);
            std::fs::remove_file(&path).ctx("remove", &path)?;
        }
        self.queued[p] = self.queued[p].saturating_sub(replayed);
        self.counters.replayed += replayed;
        Ok(())
    }

    /// Replay and clear everything queued for `partition`, calling `apply`
    /// in exact send order (spill segments first, oldest first — they hold
    /// the older messages — then the in-memory tail).
    pub fn drain<F>(&mut self, partition: u32, mut apply: F) -> Result<u64>
    where
        F: FnMut(VertexId, M),
    {
        let p = partition as usize;
        // The spill files must be complete before they are replayed.
        if let Some(writer) = &self.writer {
            writer.wait_quiescent()?;
        }
        let mut replayed = 0u64;
        for seg in std::mem::take(&mut self.segments[p]) {
            let path = self.seg_path(partition, seg);
            for env in RecordReader::<Envelope<M>>::open(&path, Arc::clone(&self.stats))? {
                let (dst, msg) = env?;
                apply(dst, msg);
                replayed += 1;
            }
            std::fs::remove_file(&path).ctx("remove", &path)?;
        }
        self.open_seg[p] = None;
        let tail = std::mem::take(&mut self.buffers[p]);
        self.resident -= tail.len();
        for (dst, msg) in tail {
            apply(dst, msg);
            replayed += 1;
        }
        self.queued[p] = 0;
        self.counters.replayed += replayed;
        Ok(replayed)
    }

    /// Total messages currently queued (memory + disk).
    pub fn pending(&self) -> u64 {
        self.counters.buffered - self.counters.replayed
    }

    /// Messages currently queued for `partition` (memory + disk); 0 for a
    /// partition id out of range.
    pub fn pending_in(&self, partition: u32) -> u64 {
        self.queued.get(partition as usize).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> MsgCounters {
        self.counters
    }

    /// Directory holding the spill files.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Force every in-memory buffer to its spill segment (checkpointing:
    /// afterwards the directory contents are the complete message state).
    pub fn flush(&mut self) -> Result<()> {
        self.spill_all()?;
        if let Some(writer) = &self.writer {
            writer.wait_quiescent()?;
        }
        Ok(())
    }

    /// Rebuild in-memory bookkeeping after the spill directory was restored
    /// from a checkpoint: segment lists come from a directory scan (the
    /// zero-padded names sort in creation order), counters from the
    /// checkpoint metadata.
    pub fn restore(&mut self, counters: MsgCounters) {
        for p in 0..self.buffers.len() {
            self.buffers[p].clear();
            self.segments[p].clear();
            self.open_seg[p] = None;
            self.next_seg[p] = 0;
            self.queued[p] = 0;
        }
        let env_size = (4 + M::SIZE) as u64;
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        for name in names {
            let Some(rest) = name.strip_prefix("msgs-").and_then(|r| r.strip_suffix(".bin"))
            else {
                continue;
            };
            let Some((p_str, s_str)) = rest.split_once('-') else { continue };
            let (Ok(p), Ok(s)) = (p_str.parse::<u32>(), s_str.parse::<u32>()) else { continue };
            if (p as usize) < self.segments.len() {
                self.segments[p as usize].push(s);
                self.next_seg[p as usize] = self.next_seg[p as usize].max(s + 1);
                // A segment whose size cannot be read still counts as one
                // message: a partition with a segment is never skipped.
                let len = std::fs::metadata(self.dir.join(&name)).map_or(env_size, |m| m.len());
                self.queued[p as usize] += (len / env_size).max(1);
            }
        }
        self.resident = 0;
        self.counters = counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;

    fn manager(cap_bytes: u64) -> (ScratchDir, MsgManager<u32>) {
        let dir = ScratchDir::new("msgmgr").unwrap();
        let m = MsgManager::new(dir.path().join("msgs"), 4, cap_bytes, IoStats::new()).unwrap();
        (dir, m)
    }

    #[test]
    fn messages_replay_in_send_order() {
        let (_dir, mut m) = manager(1 << 20);
        for i in 0..10u32 {
            m.enqueue(1, i, i * 100).unwrap();
        }
        let mut seen = Vec::new();
        assert_eq!((m.pending_in(1), m.pending_in(0), m.pending_in(99)), (10, 0, 0));
        m.drain(1, |dst, msg| seen.push((dst, msg))).unwrap();
        assert_eq!(seen, (0..10u32).map(|i| (i, i * 100)).collect::<Vec<_>>());
        assert_eq!(m.pending(), 0);
        assert_eq!(m.pending_in(1), 0);
    }

    #[test]
    fn spill_preserves_order_across_boundary() {
        // Cap of 3 envelopes forces repeated spills.
        let (_dir, mut m) = manager((4 + 4) * 3);
        for i in 0..20u32 {
            m.enqueue(2, i, i).unwrap();
        }
        assert!(m.counters().spilled > 0, "cap should have forced spills");
        let mut seen = Vec::new();
        m.drain(2, |dst, _| seen.push(dst)).unwrap();
        assert_eq!(seen, (0..20u32).collect::<Vec<_>>());
    }

    #[test]
    fn partitions_are_isolated() {
        let (_dir, mut m) = manager(16);
        m.enqueue(0, 1, 10).unwrap();
        m.enqueue(3, 2, 20).unwrap();
        m.enqueue(0, 3, 30).unwrap();
        let mut p0 = Vec::new();
        m.drain(0, |dst, msg| p0.push((dst, msg))).unwrap();
        assert_eq!(p0, vec![(1, 10), (3, 30)]);
        assert_eq!(m.pending(), 1);
        let mut p3 = Vec::new();
        m.drain(3, |dst, msg| p3.push((dst, msg))).unwrap();
        assert_eq!(p3, vec![(2, 20)]);
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn drain_is_idempotent_when_empty() {
        let (_dir, mut m) = manager(1024);
        let n = m.drain(0, |_, _: u32| {}).unwrap();
        assert_eq!(n, 0);
        assert_eq!(m.counters(), MsgCounters::default());
    }

    #[test]
    fn background_writer_produces_identical_files() {
        let send = |m: &mut MsgManager<u32>| {
            for i in 0..500u32 {
                m.enqueue(i % 3, i, i.wrapping_mul(31)).unwrap();
            }
            m.flush().unwrap();
        };
        let dir_a = ScratchDir::new("msg-sync").unwrap();
        let mut sync_m: MsgManager<u32> =
            MsgManager::new(dir_a.path().join("m"), 3, 64, IoStats::new()).unwrap();
        send(&mut sync_m);
        let dir_b = ScratchDir::new("msg-bg").unwrap();
        let mut bg_m: MsgManager<u32> =
            MsgManager::new(dir_b.path().join("m"), 3, 64, IoStats::new())
                .unwrap()
                .with_background_writer()
                .unwrap();
        send(&mut bg_m);
        for p in 0..3 {
            // No claims happened, so each partition has exactly segment 0.
            let name = format!("msgs-{p:05}-00000.bin");
            let a = std::fs::read(dir_a.path().join("m").join(&name)).unwrap();
            let b = std::fs::read(dir_b.path().join("m").join(&name)).unwrap();
            assert_eq!(a, b, "partition {p} spill files must be byte-identical");
        }
        // And both drain to the same ordered stream.
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        for p in 0..3u32 {
            sync_m.drain(p, |d, v| seen_a.push((d, v))).unwrap();
            bg_m.drain(p, |d, v| seen_b.push((d, v))).unwrap();
        }
        assert_eq!(seen_a, seen_b);
    }

    #[test]
    fn background_writer_drop_is_clean() {
        // Dropping mid-flight must join the thread without hanging.
        let dir = ScratchDir::new("msg-bg-drop").unwrap();
        let mut m: MsgManager<u64> =
            MsgManager::new(dir.path().join("m"), 2, 32, IoStats::new())
                .unwrap()
                .with_background_writer()
                .unwrap();
        for i in 0..1000u32 {
            m.enqueue(i % 2, i, i as u64).unwrap();
        }
        drop(m);
    }

    #[test]
    fn interleaved_enqueue_drain_cycles() {
        let (_dir, mut m) = manager(40); // tiny: spills constantly
        m.enqueue(0, 1, 100).unwrap();
        m.drain(0, |_, _| {}).unwrap();
        m.enqueue(0, 2, 200).unwrap();
        m.enqueue(0, 3, 300).unwrap();
        let mut seen = Vec::new();
        m.drain(0, |dst, _| seen.push(dst)).unwrap();
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(m.pending(), 0);
        assert_eq!(m.counters().buffered, 3);
        assert_eq!(m.counters().replayed, 3);
    }

    /// Read every envelope out of a claimed run, the way the prefetcher does.
    fn read_claim(claim: &ClaimedSegments, stats: Arc<IoStats>) -> Vec<(VertexId, u32)> {
        let mut out = Vec::new();
        for path in &claim.paths {
            for env in RecordReader::<Envelope<u32>>::open(path, Arc::clone(&stats)).unwrap() {
                out.push(env.unwrap());
            }
        }
        out
    }

    #[test]
    fn claim_seals_run_and_consume_retires_it() {
        let (_dir, mut m) = manager((4 + 4) * 2); // spills every 3rd message
        for i in 0..9u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let claim = m.claim(0).unwrap();
        assert!(!claim.is_empty());
        // Spills after the claim must not land in the sealed segment.
        for i in 9..15u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let pre = read_claim(&claim, IoStats::new());
        assert_eq!(pre.iter().map(|e| e.0).collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
        assert_eq!(m.pending_in(0), 15);
        m.consume_claimed(&claim, pre.len() as u64).unwrap();
        assert_eq!(m.pending_in(0), 6, "the consumed claim leaves the post-claim messages");
        // The remainder (post-claim segment + tail) drains in order.
        let mut rest = Vec::new();
        m.drain(0, |d, _| rest.push(d)).unwrap();
        assert_eq!(rest, (9..15).collect::<Vec<_>>());
        assert_eq!(m.pending(), 0);
        assert_eq!(m.counters().replayed, 15);
    }

    #[test]
    fn discarded_claim_loses_nothing() {
        let (_dir, mut m) = manager((4 + 4) * 2);
        for i in 0..9u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let claim = m.claim(0).unwrap();
        drop(claim); // prefetch discarded — e.g. run converged or checkpoint restored
        for i in 9..12u32 {
            m.enqueue(0, i, i).unwrap();
        }
        let mut seen = Vec::new();
        m.drain(0, |d, _| seen.push(d)).unwrap();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn restore_rebuilds_segments_from_directory() {
        let dir = ScratchDir::new("msg-restore").unwrap();
        let path = dir.path().join("m");
        let mut m: MsgManager<u32> =
            MsgManager::new(path.clone(), 2, (4 + 4) * 2, IoStats::new()).unwrap();
        for i in 0..9u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        // Seal + spill again so partition 0 has two segments on disk.
        let _ = m.claim(0).unwrap();
        for i in 9..12u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let counters = m.counters();
        drop(m);
        // Fresh manager over the same directory, as after checkpoint restore.
        let mut m2: MsgManager<u32> =
            MsgManager::new(path, 2, 1 << 20, IoStats::new()).unwrap();
        m2.restore(counters);
        assert_eq!(m2.pending_in(0), 12, "per-partition count rebuilt from segment sizes");
        assert_eq!(m2.pending_in(1), 0);
        let mut seen = Vec::new();
        m2.drain(0, |d, _| seen.push(d)).unwrap();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        // New spills must not collide with the replayed segment ids.
        for i in 0..5u32 {
            m2.enqueue(0, i, i).unwrap();
        }
        m2.flush().unwrap();
        let mut again = Vec::new();
        m2.drain(0, |d, _| again.push(d)).unwrap();
        assert_eq!(again, (0..5).collect::<Vec<_>>());
    }
}
