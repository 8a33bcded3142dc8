//! The MsgManager (paper §V-C): per-partition message buffers with ordered
//! disk spill.
//!
//! While a partition is being updated, the Worker routes every message it
//! cannot apply in place to the destination partition's buffer, one
//! [`defer`](MsgManager::defer) per message. Buffers live in memory up
//! to a budgeted cap, checked once per message, and spill to append-only
//! files beyond it, so at most `cap + 1` messages are ever held and which
//! ones spill depends only on the sequence of messages and the cap. When a
//! partition loads, its spilled messages are replayed first (they are
//! older), then the in-memory tail — preserving exactly the global send
//! order, which is what makes dynamic messages *ordered*. Replay hands each
//! message straight to the caller, which applies it to the partition's
//! slab; nothing replayed is collected.
//!
//! Spill storage is a sequence of *segments* per partition
//! (`msgs-{p:05}-{seg:05}.bin`, oldest first). Segments exist so the
//! partition prefetcher can [`claim`](MsgManager::claim) the current spill
//! run — sealing it against further appends and replaying it concurrently —
//! while the engine keeps spilling new messages into a fresh segment. A
//! claim never removes anything: if the prefetch is discarded, a normal
//! [`drain`](MsgManager::drain) still replays every segment, so crashes and
//! checkpoints taken between claim and consume lose no messages.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, TrackedFile};
use graphz_types::{FixedCodec, GraphError, IoCtx, Result, VertexId};

/// A message in flight: destination storage id plus payload.
type Envelope<M> = (VertexId, M);

/// Bytes encoded per spill write: the spill buffer's size, outside the
/// manager's message cap.
const SPILL_CHUNK: usize = 64 * 1024;

/// Counters the engine folds into its run summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MsgCounters {
    /// Messages enqueued for a non-resident partition.
    pub buffered: u64,
    /// Messages that overflowed memory and were written to spill files.
    pub spilled: u64,
    /// Messages replayed into a loading partition.
    pub replayed: u64,
    /// The most messages held in memory at once: at most the cap plus the
    /// one whose enqueue set off a spill. Not checkpointed; a restored
    /// manager counts from zero.
    pub high_water: u64,
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

    /// Replay every claimed envelope into `apply`, oldest first, each
    /// segment read and decoded 64 KiB at a time; returns how many were
    /// applied. `apply` answers whether the destination is a vertex of the
    /// claimed partition. One that is not, or a segment that ends
    /// mid-record, stops the replay with
    /// [`GraphError::Corrupt`] naming the
    /// segment, after the whole records before it were applied.
    pub(crate) fn replay<M: FixedCodec>(
        &self,
        stats: &Arc<IoStats>,
        mut apply: impl FnMut(VertexId, M) -> bool,
    ) -> Result<u64> {
        let mut replayed = 0;
        for path in &self.paths {
            replayed += replay_segment(path, self.partition, stats, &mut apply)?;
        }
        Ok(replayed)
    }
}

/// Stream the segment at `path` into `apply` in send order, as
/// [`ClaimedSegments::replay`] describes.
fn replay_segment<M: FixedCodec>(
    path: &Path,
    partition: u32,
    stats: &Arc<IoStats>,
    apply: &mut impl FnMut(VertexId, M) -> bool,
) -> Result<u64> {
    RecordReader::<Envelope<M>>::open(path, Arc::clone(stats))?.try_for_each_record(|(dst, msg)| {
        match apply(dst, msg) {
            true => Ok(()),
            false => Err(outside(&path.display(), dst, partition)),
        }
    })
}

/// A replayed message whose destination is not in the partition it was
/// queued for; `source` names where it was held.
fn outside(source: &dyn std::fmt::Display, dst: VertexId, partition: u32) -> GraphError {
    GraphError::Corrupt(format!(
        "{source}: message for vertex {dst}, which is not in partition {partition}"
    ))
}

fn seg_path(dir: &Path, partition: u32, seg: u32) -> PathBuf {
    // ipa:allow(hot-path-alloc) — once per segment a spill opens, never per message
    dir.join(format!("msgs-{partition:05}-{seg:05}.bin"))
}

/// One destination partition's messages: the in-memory tail and the spill
/// segments.
struct Queue<M> {
    /// In-memory tail, in send order.
    tail: Vec<Envelope<M>>,
    /// Spill segment ids, oldest first. The last entry may be open for
    /// appends (see `open`); all earlier ones are sealed.
    segments: Vec<u32>,
    /// The segment currently accepting appends.
    open: Option<u32>,
    /// The open segment's path and file, once a spill has opened it. Kept
    /// across spills; dropped at claim, drain, flush and restore.
    file: Option<(PathBuf, TrackedFile)>,
    /// Next segment id to allocate (monotonic, so the zero-padded filename
    /// sort order equals creation order).
    next_seg: u32,
    /// Messages in the segments, so the engine can tell a partition with
    /// nothing to replay without touching a file.
    on_disk: u64,
}

impl<M> Queue<M> {
    fn new() -> Self {
        Queue {
            tail: Vec::new(),
            segments: Vec::new(),
            open: None,
            file: None,
            next_seg: 0,
            on_disk: 0,
        }
    }

    /// Seal the open segment: the next spill starts a fresh one.
    fn seal(&mut self) {
        self.open = None;
        self.file = None;
    }
}

pub struct MsgManager<M: FixedCodec> {
    dir: PathBuf,
    stats: Arc<IoStats>,
    /// One queue per destination partition.
    queues: Vec<Queue<M>>,
    /// Total in-memory messages across all partitions.
    resident: usize,
    /// Cap on `resident` before everything spills.
    cap: usize,
    counters: MsgCounters,
    /// One chunk of encoded envelopes on their way to disk, reused across
    /// spills; empty until the first spill.
    spill_bytes: Vec<u8>,
    /// The chunk's size: the most whole envelopes that fit `SPILL_CHUNK`.
    chunk_len: usize,
    /// The first failure a `defer` met, until `take_failure`.
    failure: Option<GraphError>,
}

impl<M: FixedCodec> MsgManager<M> {
    /// `cap_bytes` bounds the total in-memory message bytes (the budget share
    /// the engine grants the MsgManager).
    pub fn new(dir: PathBuf, partitions: u32, cap_bytes: u64, stats: Arc<IoStats>) -> Result<Self> {
        std::fs::create_dir_all(&dir).ctx("create-dir", &dir)?;
        let env_size = <Envelope<M>>::SIZE;
        Ok(MsgManager {
            dir,
            stats,
            queues: (0..partitions).map(|_| Queue::new()).collect(),
            resident: 0,
            cap: ((cap_bytes as usize) / env_size).max(1),
            counters: MsgCounters::default(),
            spill_bytes: Vec::new(),
            chunk_len: (SPILL_CHUNK / env_size).max(1) * env_size,
            failure: None,
        })
    }

    /// Queue `msg` for `dst`, owned by `partition`: [`defer`](Self::defer),
    /// then the failure it held, if any.
    pub fn enqueue(&mut self, partition: u32, dst: VertexId, msg: M) -> Result<()> {
        self.defer(partition, dst, msg);
        self.take_failure()
    }

    /// Queue `msg` for `dst`, owned by `partition`, the Worker's way: the
    /// message that takes the in-memory count past the cap spills every
    /// buffer before this returns, and a spill that fails is held for
    /// [`take_failure`](Self::take_failure) instead of returned. Until it is
    /// taken no further spill is tried, so what is deferred meanwhile stays
    /// in memory.
    #[inline]
    pub fn defer(&mut self, partition: u32, dst: VertexId, msg: M) {
        let Some(queue) = self.queues.get_mut(partition as usize) else {
            return self.hold(no_partition(partition, self.queues.len()));
        };
        queue.tail.push((dst, msg));
        self.resident += 1;
        self.counters.buffered += 1;
        if self.resident > self.cap && self.failure.is_none() {
            if let Err(e) = self.spill_all() {
                self.hold(e);
            }
        }
    }

    /// The failure a [`defer`](Self::defer) held, if any, clearing it.
    pub fn take_failure(&mut self) -> Result<()> {
        self.failure.take().map_or(Ok(()), Err)
    }

    #[cold]
    fn hold(&mut self, e: GraphError) {
        self.failure.get_or_insert(e);
    }

    /// Write every in-memory buffer to its partition's open spill segment, in
    /// order. Each buffer is encoded with `chunks_exact_mut` into one reused
    /// 64 KiB byte buffer and appended a chunk per write, so a spill costs
    /// one pass over the bytes and a few writes, not a write call per
    /// message. A partition's segment file stays open from one spill to the
    /// next.
    ///
    /// The Worker reaches this through [`defer`](Self::defer), once per
    /// `cap` messages: the allocations and file opens below are what that
    /// amortized spill costs the hot path.
    #[cold]
    fn spill_all(&mut self) -> Result<()> {
        self.counters.high_water = self.high_water();
        let env_size = <Envelope<M>>::SIZE;
        if self.spill_bytes.is_empty() {
            // ipa:allow(hot-path-alloc) — once per manager: the first spill sizes the reused chunk
            self.spill_bytes = vec![0u8; self.chunk_len];
        }
        for (p, queue) in self.queues.iter_mut().enumerate() {
            if queue.tail.is_empty() {
                continue;
            }
            let seg = *queue.open.get_or_insert_with(|| {
                queue.segments.push(queue.next_seg);
                queue.next_seg += 1;
                queue.next_seg - 1
            });
            let (path, file) = match &mut queue.file {
                Some(open) => open,
                None => {
                    let path = seg_path(&self.dir, p as u32, seg);
                    let file =
                        TrackedFile::append(&path, Arc::clone(&self.stats)).ctx("append", &path)?;
                    queue.file.insert((path, file))
                }
            };
            let mut envs = queue.tail.iter();
            loop {
                let mut len = 0;
                for (slot, env) in self.spill_bytes.chunks_exact_mut(env_size).zip(&mut envs) {
                    FixedCodec::write_to(env, slot);
                    len += env_size;
                }
                match self.spill_bytes.get(..len) {
                    Some(bytes) if len > 0 => file.write_all(bytes).ctx("append", path)?,
                    _ => break,
                }
            }
            self.counters.spilled += queue.tail.len() as u64;
            queue.on_disk += queue.tail.len() as u64;
            queue.tail.clear();
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
    pub fn claim(&mut self, partition: u32) -> ClaimedSegments {
        let queue = &mut self.queues[partition as usize];
        queue.seal();
        let paths =
            queue.segments.iter().map(|&s| seg_path(&self.dir, partition, s)).collect::<Vec<_>>();
        ClaimedSegments { partition, count: paths.len(), paths }
    }

    /// Retire a claim whose messages were applied by the caller: removes the
    /// claimed segment prefix, deletes the files, and accounts `replayed`
    /// messages. Only call after actually applying the prefetched messages.
    pub fn consume_claimed(&mut self, claim: &ClaimedSegments, replayed: u64) -> Result<()> {
        let queue = &mut self.queues[claim.partition as usize];
        debug_assert!(
            claim.count <= queue.segments.len(),
            "claim outlived a drain of partition {}",
            claim.partition
        );
        let retired: Vec<u32> = queue.segments.drain(..claim.count).collect();
        queue.on_disk = queue.on_disk.saturating_sub(replayed);
        for seg in retired {
            let path = seg_path(&self.dir, claim.partition, seg);
            std::fs::remove_file(&path).ctx("remove", &path)?;
        }
        self.counters.replayed += replayed;
        Ok(())
    }

    /// Replay and clear everything queued for `partition`, calling `apply`
    /// in exact send order (spill segments first, oldest first — they hold
    /// the older messages — then the in-memory tail). Each segment is read
    /// and decoded 64 KiB at a time, and each read is applied before the
    /// next, so a long segment is never held whole. `apply` answers whether
    /// the destination is a vertex of `partition`; one that is not, or a
    /// segment that ends mid-record, is
    /// [`GraphError::Corrupt`] naming the
    /// segment, returned after the whole records before it were applied.
    pub fn drain<F>(&mut self, partition: u32, mut apply: F) -> Result<u64>
    where
        F: FnMut(VertexId, M) -> bool,
    {
        let queue = &mut self.queues[partition as usize];
        queue.seal();
        let mut replayed = 0u64;
        for seg in std::mem::take(&mut queue.segments) {
            let path = seg_path(&self.dir, partition, seg);
            replayed += replay_segment(&path, partition, &self.stats, &mut apply)?;
            std::fs::remove_file(&path).ctx("remove", &path)?;
        }
        queue.on_disk = 0;
        let tail = std::mem::take(&mut queue.tail);
        self.counters.high_water = self.high_water();
        self.resident -= tail.len();
        for (dst, msg) in tail {
            if !apply(dst, msg) {
                return Err(outside(&"in-memory buffer", dst, partition));
            }
            replayed += 1;
        }
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
        self.queues.get(partition as usize).map_or(0, |q| q.on_disk + q.tail.len() as u64)
    }

    pub fn counters(&self) -> MsgCounters {
        MsgCounters { high_water: self.high_water(), ..self.counters }
    }

    /// The most messages held at once: the count only rises between a
    /// spill or drain and the next, so the peak is the count just before
    /// each of those, or now.
    fn high_water(&self) -> u64 {
        self.counters.high_water.max(self.resident as u64)
    }

    /// Directory holding the spill files.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Force every in-memory buffer to its spill segment and close the
    /// segment files (checkpointing: afterwards the directory contents are
    /// the complete message state). The open segments stay open for
    /// appends.
    pub fn flush(&mut self) -> Result<()> {
        self.spill_all()?;
        for queue in &mut self.queues {
            queue.file = None;
        }
        Ok(())
    }

    /// Rebuild in-memory bookkeeping after the spill directory was restored
    /// from a checkpoint: segment lists come from a directory scan (the
    /// zero-padded names sort in creation order), counters from the
    /// checkpoint metadata.
    pub fn restore(&mut self, counters: MsgCounters) {
        for queue in &mut self.queues {
            *queue = Queue::new();
        }
        let env_size = <Envelope<M>>::SIZE as u64;
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
            if let Some(queue) = self.queues.get_mut(p as usize) {
                queue.segments.push(s);
                queue.next_seg = queue.next_seg.max(s + 1);
                // A segment whose size cannot be read still counts as one
                // message: a partition with a segment is never skipped.
                let len = std::fs::metadata(self.dir.join(&name)).map_or(env_size, |m| m.len());
                queue.on_disk += (len / env_size).max(1);
            }
        }
        self.resident = 0;
        self.failure = None;
        self.counters = counters;
    }
}

/// `enqueue` for a partition the manager does not hold.
#[cold]
fn no_partition(partition: u32, partitions: usize) -> GraphError {
    // ipa:allow(hot-path-alloc) — allocates only on the error path, which ends the run
    GraphError::InvalidConfig(format!(
        "message queued for partition {partition} of a {partitions}-partition manager"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;
    use graphz_types::GraphError;
    use std::ops::Range;

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
        m.drain(1, |dst, msg| {
            seen.push((dst, msg));
            true
        }).unwrap();
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
        assert_eq!(m.counters().high_water, 4, "the cap plus the message that spilled");
        let mut seen = Vec::new();
        m.drain(2, |dst, _| {
            seen.push(dst);
            true
        }).unwrap();
        assert_eq!(seen, (0..20u32).collect::<Vec<_>>());
    }

    #[test]
    fn partitions_are_isolated() {
        let (_dir, mut m) = manager(16);
        m.enqueue(0, 1, 10).unwrap();
        m.enqueue(3, 2, 20).unwrap();
        m.enqueue(0, 3, 30).unwrap();
        let mut p0 = Vec::new();
        m.drain(0, |dst, msg| {
            p0.push((dst, msg));
            true
        }).unwrap();
        assert_eq!(p0, vec![(1, 10), (3, 30)]);
        assert_eq!(m.pending(), 1);
        let mut p3 = Vec::new();
        m.drain(3, |dst, msg| {
            p3.push((dst, msg));
            true
        }).unwrap();
        assert_eq!(p3, vec![(2, 20)]);
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn drain_is_idempotent_when_empty() {
        let (_dir, mut m) = manager(1024);
        let n = m.drain(0, |_, _: u32| true).unwrap();
        assert_eq!(n, 0);
        assert_eq!(m.counters(), MsgCounters::default());
    }

    #[test]
    fn interleaved_enqueue_drain_cycles() {
        let (_dir, mut m) = manager(40); // tiny: spills constantly
        m.enqueue(0, 1, 100).unwrap();
        m.drain(0, |_, _| true).unwrap();
        m.enqueue(0, 2, 200).unwrap();
        m.enqueue(0, 3, 300).unwrap();
        let mut seen = Vec::new();
        m.drain(0, |dst, _| {
            seen.push(dst);
            true
        }).unwrap();
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(m.pending(), 0);
        assert_eq!(m.counters().buffered, 3);
        assert_eq!(m.counters().replayed, 3);
    }

    /// Replay a claimed run into a vector, as the prefetcher replays it
    /// into its slab.
    fn read_claim<M: FixedCodec>(
        claim: &ClaimedSegments,
        stats: &Arc<IoStats>,
    ) -> Result<Vec<Envelope<M>>> {
        let mut out = Vec::new();
        claim.replay(stats, |d, v| {
            out.push((d, v));
            true
        })?;
        Ok(out)
    }

    #[test]
    fn claim_seals_run_and_consume_retires_it() {
        let (_dir, mut m) = manager((4 + 4) * 2); // spills every 3rd message
        for i in 0..9u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let claim = m.claim(0);
        assert!(!claim.is_empty());
        // Spills after the claim must not land in the sealed segment.
        for i in 9..15u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        let pre = read_claim::<u32>(&claim, &IoStats::new()).unwrap();
        assert_eq!(pre.iter().map(|e| e.0).collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
        assert_eq!(m.pending_in(0), 15);
        m.consume_claimed(&claim, pre.len() as u64).unwrap();
        assert_eq!(m.pending_in(0), 6, "the consumed claim leaves the post-claim messages");
        // The remainder (post-claim segment + tail) drains in order.
        let mut rest = Vec::new();
        m.drain(0, |d, _| {
            rest.push(d);
            true
        }).unwrap();
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
        let claim = m.claim(0);
        drop(claim); // prefetch discarded — e.g. run converged or checkpoint restored
        for i in 9..12u32 {
            m.enqueue(0, i, i).unwrap();
        }
        m.flush().unwrap();
        // The next claim covers the discarded segment and the newer one,
        // and reads them oldest first into one run.
        let again = m.claim(0);
        assert_eq!(again.paths.len(), 2);
        let run: Vec<VertexId> =
            read_claim::<u32>(&again, &IoStats::new()).unwrap().iter().map(|e| e.0).collect();
        assert_eq!(run, (0..12).collect::<Vec<_>>());
        drop(again);
        let mut seen = Vec::new();
        m.drain(0, |d, _| {
            seen.push(d);
            true
        }).unwrap();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(m.pending(), 0);
    }

    /// A 13-byte envelope: `u32` destination plus a `(u64, u8)` payload, so
    /// no record lines up with a word or with the 64 KiB read size.
    type Odd = (u64, u8);

    fn odd(i: u32) -> Envelope<Odd> {
        (i * 7, (u64::from(i) << 40 | 0xab_cdef, i as u8))
    }

    /// The bytes `write_records` would write for `records`.
    fn reference_bytes(records: &[Envelope<Odd>]) -> Vec<u8> {
        let dir = ScratchDir::new("msg-ref").unwrap();
        let path = dir.file("ref.bin");
        graphz_io::record::write_records(&path, IoStats::new(), records).unwrap();
        std::fs::read(path).unwrap()
    }

    #[test]
    fn spill_segments_are_plain_record_streams_replayed_in_send_order() {
        assert_eq!(<Envelope<Odd>>::SIZE, 13);
        let dir = ScratchDir::new("msg-format").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("m");
        // Room for 3 envelopes: every 4th message spills both buffers.
        let mut m: MsgManager<Odd> =
            MsgManager::new(path.clone(), 2, 13 * 3, Arc::clone(&stats)).unwrap();
        let mut sent: [Vec<Envelope<Odd>>; 2] = Default::default();
        fn send(m: &mut MsgManager<Odd>, sent: &mut [Vec<Envelope<Odd>>; 2], range: Range<u32>) {
            for i in range {
                let (dst, msg) = odd(i);
                m.enqueue(i % 2, dst, msg).unwrap();
                sent[(i % 2) as usize].push((dst, msg));
            }
        }
        send(&mut m, &mut sent, 0..10);
        assert_eq!(m.counters().spilled, 8, "two spill rounds before the flush");
        m.flush().unwrap();
        let claim = m.claim(0);
        let claimed = sent[0].len();
        // After the claim, partition 0 spills into a fresh segment while
        // partition 1 keeps appending to its first one.
        send(&mut m, &mut sent, 10..30);
        m.flush().unwrap();
        assert_eq!(m.counters().spilled, 30);

        let seg = |p: u32, s: u32| std::fs::read(path.join(format!("msgs-{p:05}-{s:05}.bin")));
        assert_eq!(seg(0, 0).unwrap(), reference_bytes(&sent[0][..claimed]));
        assert_eq!(seg(0, 1).unwrap(), reference_bytes(&sent[0][claimed..]));
        assert_eq!(seg(1, 0).unwrap(), reference_bytes(&sent[1]));
        assert!(seg(1, 1).is_err(), "partition 1 was never claimed");

        let pre: Vec<Envelope<Odd>> = read_claim(&claim, &stats).unwrap();
        assert_eq!(pre, sent[0][..claimed]);
        m.consume_claimed(&claim, pre.len() as u64).unwrap();
        let mut rest = Vec::new();
        m.drain(0, |d, v| {
            rest.push((d, v));
            true
        }).unwrap();
        assert_eq!(rest, sent[0][claimed..]);
        let mut p1 = Vec::new();
        m.drain(1, |d, v| {
            p1.push((d, v));
            true
        }).unwrap();
        assert_eq!(p1, sent[1]);
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn segment_truncated_mid_record_is_corrupt() {
        let dir = ScratchDir::new("msg-trunc").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("m");
        let mut m: MsgManager<Odd> =
            MsgManager::new(path.clone(), 1, 13 * 3, Arc::clone(&stats)).unwrap();
        for i in 0..10 {
            let (dst, msg) = odd(i);
            m.enqueue(0, dst, msg).unwrap();
        }
        m.flush().unwrap();
        let seg = path.join("msgs-00000-00000.bin");
        let len = std::fs::metadata(&seg).unwrap().len();
        assert_eq!(len, 13 * 10);
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();
        // The prefetcher's read of a claim refuses the segment outright; the
        // engine's own replay streams it and fails at the tear, having
        // applied exactly the whole records before it, in send order.
        let claim = m.claim(0);
        let err = read_claim::<Odd>(&claim, &stats).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "claim read: {err:?}");
        let mut applied = Vec::new();
        let err = m.drain(0, |d, v| {
            applied.push((d, v));
            true
        }).unwrap_err();
        match err {
            GraphError::Corrupt(msg) => assert!(msg.contains("got 8 of 13 bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(applied, (0..9).map(odd).collect::<Vec<_>>());
    }

    #[test]
    fn a_message_outside_its_partition_is_corrupt_naming_the_segment() {
        // A hand-written segment for partition 1 (vertices 10..20) whose
        // third envelope is addressed to vertex 3, in partition 0.
        let dir = ScratchDir::new("msg-outside").unwrap();
        let path = dir.path().join("m");
        std::fs::create_dir_all(&path).unwrap();
        let envelopes = [(10u32, 1u32), (11, 2), (3, 3), (12, 4)];
        let bytes: Vec<u8> =
            envelopes.iter().flat_map(|(d, v)| [d.to_le_bytes(), v.to_le_bytes()].concat()).collect();
        std::fs::write(path.join("msgs-00001-00000.bin"), bytes).unwrap();
        let stats = IoStats::new();
        let mut m: MsgManager<u32> =
            MsgManager::new(path, 2, 1024, Arc::clone(&stats)).unwrap();
        m.restore(MsgCounters { buffered: 4, ..MsgCounters::default() });
        assert_eq!(m.pending_in(1), 4);
        let mut applied = Vec::new();
        let mut apply = |d: VertexId, v: u32| {
            let inside = (10..20).contains(&d);
            if inside {
                applied.push((d, v));
            }
            inside
        };
        let expect_corrupt = |err: GraphError| match err {
            GraphError::Corrupt(msg) => {
                assert!(msg.contains("msgs-00001-00000.bin"), "{msg}");
                assert!(msg.contains("vertex 3, which is not in partition 1"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // The prefetcher's replay of a claim, then the engine's drain: both
        // stop at the stray envelope, having applied the ones before it.
        let claim = m.claim(1);
        expect_corrupt(claim.replay(&stats, &mut apply).unwrap_err());
        expect_corrupt(m.drain(1, &mut apply).unwrap_err());
        assert_eq!(applied, [(10, 1), (11, 2), (10, 1), (11, 2)]);
    }

    #[test]
    fn a_failed_spill_is_held_until_taken() {
        let dir = ScratchDir::new("msg-held").unwrap();
        let path = dir.path().join("m");
        let mut m: MsgManager<u32> =
            MsgManager::new(path.clone(), 1, (4 + 4) * 2, IoStats::new()).unwrap();
        // Without its directory no segment can be opened.
        std::fs::remove_dir(&path).unwrap();
        for i in 0..5u32 {
            m.defer(0, i, i); // the third takes the count past the cap of 2
        }
        let err = m.take_failure().unwrap_err();
        assert!(err.to_string().contains("msgs-00000-00000.bin"), "{err}");
        assert!(m.take_failure().is_ok(), "a held failure is taken once");
        assert_eq!((m.counters().spilled, m.pending_in(0)), (0, 5));
        // `enqueue` hands the failure of its own spill straight back.
        assert!(m.enqueue(0, 5, 5).is_err());
    }

    #[test]
    fn spill_larger_than_one_chunk_round_trips() {
        // One buffer of 3 spill chunks and a bit: the encode loop writes it
        // in several pieces, and drain decodes it over several reads, with
        // 13-byte records straddling the read boundaries.
        let n = (3 * SPILL_CHUNK / 13 + 7) as u32;
        let dir = ScratchDir::new("msg-chunks").unwrap();
        let path = dir.path().join("m");
        let mut m: MsgManager<Odd> =
            MsgManager::new(path.clone(), 1, 1 << 30, IoStats::new()).unwrap();
        let sent: Vec<Envelope<Odd>> = (0..n).map(odd).collect();
        for &(dst, msg) in &sent {
            m.enqueue(0, dst, msg).unwrap();
        }
        m.flush().unwrap();
        let seg = std::fs::read(path.join("msgs-00000-00000.bin")).unwrap();
        assert_eq!(seg, reference_bytes(&sent));
        let mut replayed = Vec::new();
        assert_eq!(m.drain(0, |d, v| {
            replayed.push((d, v));
            true
        }).unwrap(), u64::from(n));
        assert_eq!(replayed, sent);
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
        let _ = m.claim(0);
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
        m2.drain(0, |d, _| {
            seen.push(d);
            true
        }).unwrap();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        // New spills must not collide with the replayed segment ids.
        for i in 0..5u32 {
            m2.enqueue(0, i, i).unwrap();
        }
        m2.flush().unwrap();
        let mut again = Vec::new();
        m2.drain(0, |d, _| {
            again.push(d);
            true
        }).unwrap();
        assert_eq!(again, (0..5).collect::<Vec<_>>());
    }
}
