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
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader, TrackedFile};
use graphz_types::{FixedCodec, IoCtx, Result, VertexId};

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

    /// Read every claimed envelope, oldest first, into one vector sized
    /// from the segment lengths up front, so it is allocated once, never
    /// grown. Each segment is decoded in 64 KiB reads; one that ends
    /// mid-record fails the whole claim with
    /// [`GraphError::Corrupt`](graphz_types::GraphError::Corrupt).
    pub(crate) fn read_all<M: FixedCodec>(
        &self,
        stats: &Arc<IoStats>,
    ) -> Result<Vec<Envelope<M>>> {
        let mut bytes = 0u64;
        for path in &self.paths {
            bytes += std::fs::metadata(path).ctx("stat", path)?.len();
        }
        let mut out = Vec::with_capacity((bytes / <Envelope<M>>::SIZE as u64) as usize);
        for path in &self.paths {
            RecordReader::<Envelope<M>>::open(path, Arc::clone(stats))?
                .for_each_record(|env| out.push(env))?;
        }
        Ok(out)
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
    /// One chunk of encoded envelopes on their way to disk, reused across
    /// spills; empty until the first spill.
    spill_bytes: Vec<u8>,
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
            spill_bytes: Vec::new(),
        })
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
    /// message. `msgs` must already be in send order. Replay order, and the
    /// bytes of each spilled record, are those of enqueueing each message
    /// individually; *where* spills happen is not, because the cap is
    /// checked once per call rather than once per message, so a bulk call
    /// can overshoot the cap and spill at a different point.
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
    /// order. Each buffer is encoded with `chunks_exact_mut` into one reused
    /// 64 KiB byte buffer and appended a chunk per write, so a spill costs
    /// one pass over the bytes and a few writes, not a write call per
    /// message.
    fn spill_all(&mut self) -> Result<()> {
        let env_size = 4 + M::SIZE;
        for p in 0..self.buffers.len() {
            if self.buffers[p].is_empty() {
                continue;
            }
            let seg = self.open_segment(p as u32);
            let path = self.seg_path(p as u32, seg);
            if self.spill_bytes.is_empty() {
                self.spill_bytes = vec![0u8; (SPILL_CHUNK / env_size).max(1) * env_size];
            }
            let mut file =
                TrackedFile::append(&path, Arc::clone(&self.stats)).ctx("append", &path)?;
            let envs = &mut self.buffers[p];
            for batch in envs.chunks(self.spill_bytes.len() / env_size) {
                let bytes = &mut self.spill_bytes[..batch.len() * env_size];
                for (slot, env) in bytes.chunks_exact_mut(env_size).zip(batch) {
                    env.write_to(slot);
                }
                file.write_all(bytes).ctx("append", &path)?;
            }
            self.counters.spilled += envs.len() as u64;
            envs.clear();
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
        let p = partition as usize;
        self.open_seg[p] = None;
        let paths =
            self.segments[p].iter().map(|&s| self.seg_path(partition, s)).collect::<Vec<_>>();
        ClaimedSegments { partition, count: paths.len(), paths }
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
    /// the older messages — then the in-memory tail). Each segment is read
    /// and decoded 64 KiB at a time, and each read is applied before the
    /// next, so a long segment is never held whole. A segment that ends
    /// mid-record is [`GraphError::Corrupt`](graphz_types::GraphError::Corrupt),
    /// returned after the whole records before the tear were applied.
    pub fn drain<F>(&mut self, partition: u32, mut apply: F) -> Result<u64>
    where
        F: FnMut(VertexId, M),
    {
        let p = partition as usize;
        let mut replayed = 0u64;
        for seg in std::mem::take(&mut self.segments[p]) {
            let path = self.seg_path(partition, seg);
            replayed += RecordReader::<Envelope<M>>::open(&path, Arc::clone(&self.stats))?
                .for_each_record(|(dst, msg)| apply(dst, msg))?;
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
        self.spill_all()
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
        claim.read_all(&stats).unwrap()
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
            read_claim(&again, IoStats::new()).into_iter().map(|(d, _)| d).collect();
        assert_eq!(run, (0..12).collect::<Vec<_>>());
        drop(again);
        let mut seen = Vec::new();
        m.drain(0, |d, _| seen.push(d)).unwrap();
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

        let pre: Vec<Envelope<Odd>> =
            claim.read_all(&stats).unwrap();
        assert_eq!(pre, sent[0][..claimed]);
        m.consume_claimed(&claim, pre.len() as u64).unwrap();
        let mut rest = Vec::new();
        m.drain(0, |d, v| rest.push((d, v))).unwrap();
        assert_eq!(rest, sent[0][claimed..]);
        let mut p1 = Vec::new();
        m.drain(1, |d, v| p1.push((d, v))).unwrap();
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
        let err = claim.read_all::<Odd>(&stats).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "claim read: {err:?}");
        let mut applied = Vec::new();
        let err = m.drain(0, |d, v| applied.push((d, v))).unwrap_err();
        match err {
            GraphError::Corrupt(msg) => assert!(msg.contains("got 8 of 13 bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(applied, (0..9).map(odd).collect::<Vec<_>>());
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
        assert_eq!(m.drain(0, |d, v| replayed.push((d, v))).unwrap(), u64::from(n));
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
