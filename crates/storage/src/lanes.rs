//! Adjacency lists placed at their Eq. 1 offsets (DESIGN.md §6g).
//!
//! Once the degree histogram is known, Eq. 1 fixes where every source's
//! list goes in `edges.bin`, so the adjacency stage needs no sort by
//! `(new src, new dst)` when the id map fits in memory: it hands each
//! source's list, sorted by new destination, to [`Lanes`]. The merged
//! source runs arrive in ascending old id, and within one degree group
//! ascending old id is ascending new id (the numbering), so each group's
//! region of the file fills front to back. Each group gets one *lane*: a
//! cursor at the group's offset and a small write buffer. A full buffer,
//! or a list at least as large as the buffer, goes out as one positional
//! write at the cursor, through the converter's fault surface under the
//! label `write-adjacency`; `weights.bin`, when the image has one, follows
//! the same lanes. Each lane folds the CRC32 of its region as it writes,
//! and the file's fingerprint is those CRCs combined in file order, so
//! nothing is read back.

use std::io::{Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_io::{
    crc32_combine, Crc32, FaultSurface, Fingerprint, IoStats, SurfaceWriter, TrackedFile,
};
use graphz_types::prelude::*;

use crate::dos::{DegreeGroup, DosIndex, Payload};

/// The gate label of every lane write.
const WRITE_ADJACENCY: &str = "write-adjacency";

/// One image file the lanes fill, with its path for error context.
struct Sink {
    file: SurfaceWriter<TrackedFile>,
    path: PathBuf,
}

impl Sink {
    fn create(path: &Path, stats: &Arc<IoStats>, surface: &FaultSurface) -> Result<Self> {
        let file = surface.wrap(TrackedFile::create(path, Arc::clone(stats)).ctx("create", path)?);
        Ok(Sink { file: file.labeled(WRITE_ADJACENCY), path: path.to_path_buf() })
    }

    /// One gated write of `bytes` at byte `offset`.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        self.file.get_mut().seek(SeekFrom::Start(offset)).ctx("seek", &self.path)?;
        self.file.write_all(bytes).ctx("write", &self.path)
    }
}

/// `edges.bin` and, for a weighted image, `weights.bin`.
struct Sinks {
    edges: Sink,
    weights: Option<Sink>,
}

impl Sinks {
    /// Write `edges` (and `weights`) at `lane`'s cursor, fold them into the
    /// lane's CRCs and move the cursor past them.
    fn write(&mut self, lane: &mut Lane, edges: &[u8], weights: &[u8]) -> Result<()> {
        let records = cast::len_u64(edges.len() / 4);
        let past = cast::add_u64(lane.cursor, records, "adjacency lane cursor")?;
        if past > lane.end {
            return Err(GraphError::Corrupt(format!(
                "the degree-{} lane runs past its region's end at edge {}",
                lane.group.degree, lane.end
            )));
        }
        let at = cast::mul_u64(lane.cursor, 4, "adjacency lane byte offset")?;
        self.edges.write_at(at, edges)?;
        lane.edges_crc.update(edges);
        if let Some(w) = &mut self.weights {
            w.write_at(at, weights)?;
            lane.weights_crc.update(weights);
        }
        lane.cursor = past;
        Ok(())
    }
}

/// One degree group's region of the image: records `cursor..end` are still
/// to be written, the first `held` of them buffered in the lane's slots.
struct Lane {
    group: DegreeGroup,
    /// Edge record the buffer starts at: everything before it is written.
    cursor: u64,
    /// One past the group's last edge record.
    end: u64,
    /// The lane's first record slot in the shared buffers, and how many
    /// slots it has: `cap`, or its whole region if that is smaller.
    slot: usize,
    room: usize,
    held: usize,
    edges_crc: Crc32,
    weights_crc: Crc32,
}

impl Lane {
    /// The edge record the next list of this lane must start at.
    fn next(&self) -> u64 {
        self.cursor.saturating_add(cast::len_u64(self.held))
    }

    /// The byte range of record slots `from..to` of this lane in a buffer
    /// of `size`-byte records.
    fn bytes(&self, from: usize, to: usize, size: usize) -> std::ops::Range<usize> {
        (self.slot + from) * size..(self.slot + to) * size
    }
}

/// The write lanes of one adjacency stage: one per degree group.
pub(crate) struct Lanes<P> {
    lanes: Vec<Lane>,
    /// First new id of each lane's group, for the lookup by new id.
    first_ids: Vec<VertexId>,
    /// Records a lane buffers before it writes.
    cap: usize,
    /// Every lane's slots, end to end in lane order: the encoded
    /// destinations, and the payloads' bytes (none unweighted). One
    /// allocation each, sized once.
    edges_buf: Vec<u8>,
    weights_buf: Vec<u8>,
    sinks: Sinks,
    /// Encoding buffers of a list written out whole, kept for the next.
    whole: (Vec<u8>, Vec<u8>),
    num_edges: u64,
    _payload: PhantomData<P>,
}

impl<P: Payload> Lanes<P> {
    /// Lanes over the image `index` describes, creating `edges.bin` at
    /// `edges_path` and `weights.bin` at `weights_path` when given. The
    /// lanes with edges share `lane_bytes` of buffer, at least one record
    /// each.
    pub(crate) fn create(
        index: &DosIndex,
        lane_bytes: u64,
        edges_path: &Path,
        weights_path: Option<&Path>,
        stats: &Arc<IoStats>,
        surface: &FaultSurface,
    ) -> Result<Self> {
        let (groups, num_edges) = (index.groups(), index.num_edges());
        let ends = groups.iter().skip(1).map(|g| g.offset).chain(std::iter::once(num_edges));
        let filled = cast::len_u64(groups.iter().filter(|g| g.degree > 0).count()).max(1);
        let record = cast::len_u64(4 + P::SIZE);
        let cap = cast::clamp_usize((lane_bytes / record / filled).max(1));
        let mut slots = 0usize;
        let mut lanes = Vec::with_capacity(groups.len());
        for (&group, end) in groups.iter().zip(ends) {
            let room = cast::clamp_usize(end.saturating_sub(group.offset)).min(cap);
            lanes.push(Lane {
                group,
                cursor: group.offset,
                end,
                slot: slots,
                room,
                held: 0,
                edges_crc: Crc32::new(),
                weights_crc: Crc32::new(),
            });
            slots = cast::add_usize(slots, room, "adjacency lane slots")?;
        }
        let sinks = Sinks {
            edges: Sink::create(edges_path, stats, surface)?,
            weights: weights_path.map(|p| Sink::create(p, stats, surface)).transpose()?,
        };
        Ok(Lanes {
            first_ids: groups.iter().map(|g| g.first_id).collect(),
            lanes,
            cap,
            edges_buf: vec![0; cast::mul_usize(slots, 4, "adjacency lane buffer")?],
            weights_buf: vec![0; cast::mul_usize(slots, P::SIZE, "adjacency lane buffer")?],
            sinks,
            whole: (Vec::new(), Vec::new()),
            num_edges,
            _payload: PhantomData,
        })
    }

    /// The lane of new id `src`'s degree group.
    pub(crate) fn lane_of(&self, src: VertexId) -> Result<usize> {
        self.first_ids
            .partition_point(|&first| first <= src)
            .checked_sub(1)
            .ok_or_else(|| GraphError::Corrupt(format!("new id {src} precedes every degree group")))
    }

    /// The out-degree every list of `lane` has.
    pub(crate) fn degree(&self, lane: usize) -> Degree {
        self.lanes.get(lane).map_or(0, |l| l.group.degree)
    }

    /// Open the list of new id `src`, `len` edges, in `lane`: it must have
    /// the group's degree and start where the lane stands, at `src`'s Eq. 1
    /// offset. Anything else is a [`GraphError::Corrupt`].
    pub(crate) fn begin(&mut self, lane: usize, src: VertexId, len: u64) -> Result<()> {
        let l = self
            .lanes
            .get(lane)
            .ok_or_else(|| GraphError::Corrupt(format!("no write lane {lane} for new id {src}")))?;
        let degree = l.group.degree;
        if len != cast::widen_u32(degree) {
            return Err(GraphError::Corrupt(format!(
                "the list of new id {src} has {len} edges, its degree group {degree}"
            )));
        }
        let offset = DosIndex::eq1_offset(&l.group, src)?;
        if offset != l.next() {
            return Err(GraphError::Corrupt(format!(
                "the list of new id {src} belongs at edge {offset}, its lane stands at {}",
                l.next()
            )));
        }
        Ok(())
    }

    /// Place the whole list of new id `src`, sorted by destination, in
    /// `lane` ([`begin`](Self::begin) checks it). A list at least as large
    /// as the lane's buffer goes out as one write; a smaller one is
    /// buffered, after writing out what the buffer holds if the list does
    /// not fit beside it.
    pub(crate) fn place(
        &mut self,
        lane: usize,
        src: VertexId,
        list: &[(VertexId, P)],
    ) -> Result<()> {
        self.begin(lane, src, cast::len_u64(list.len()))?;
        if self.lanes[lane].held + list.len() > self.lanes[lane].room {
            self.write_buffer(lane)?;
        }
        let l = &mut self.lanes[lane];
        if list.len() >= self.cap {
            let (edges, weights) = &mut self.whole;
            for (buf, size) in [(&mut *edges, 4), (&mut *weights, P::SIZE)] {
                buf.clear();
                buf.reserve_exact(list.len() * size);
                buf.resize(list.len() * size, 0);
            }
            encode(list, edges, weights);
            return self.sinks.write(l, edges, weights);
        }
        // Shorter than `cap` and inside the lane's region (`begin`), the
        // list fits the lane's room.
        let (from, to) = (l.held, l.held + list.len());
        let weights = &mut self.weights_buf[l.bytes(from, to, P::SIZE)];
        encode(list, &mut self.edges_buf[l.bytes(from, to, 4)], weights);
        l.held = to;
        Ok(())
    }

    /// Append one edge of a list [`begin`](Self::begin) opened, written out
    /// through the lane's buffer.
    pub(crate) fn append(&mut self, lane: usize, dst: VertexId, payload: P) -> Result<()> {
        if self.lanes[lane].held >= self.lanes[lane].room {
            self.write_buffer(lane)?;
        }
        let l = &mut self.lanes[lane];
        let weights = &mut self.weights_buf[l.bytes(l.held, l.held + 1, P::SIZE)];
        encode(&[(dst, payload)], &mut self.edges_buf[l.bytes(l.held, l.held + 1, 4)], weights);
        l.held += 1;
        Ok(())
    }

    /// Write out what `lane` buffers.
    fn write_buffer(&mut self, lane: usize) -> Result<()> {
        let l = &mut self.lanes[lane];
        if l.held == 0 {
            return Ok(());
        }
        let edges = &self.edges_buf[l.bytes(0, l.held, 4)];
        let weights = &self.weights_buf[l.bytes(0, l.held, P::SIZE)];
        self.sinks.write(l, edges, weights)?;
        l.held = 0;
        Ok(())
    }

    /// Write out every lane, check that each filled its region, and return
    /// the fingerprints of `edges.bin` and `weights.bin` (when weighted):
    /// the lanes' CRCs combined in file order.
    pub(crate) fn complete(mut self) -> Result<(Fingerprint, Option<Fingerprint>)> {
        for lane in 0..self.lanes.len() {
            self.write_buffer(lane)?;
        }
        let weighted = self.sinks.weights.is_some();
        let (mut edges_crc, mut weights_crc) = (0u32, 0u32);
        for l in &self.lanes {
            if l.cursor != l.end {
                return Err(GraphError::Corrupt(format!(
                    "the degree-{} lane stopped at edge {} of its region's {}..{}",
                    l.group.degree, l.cursor, l.group.offset, l.end
                )));
            }
            let records = cast::sub_u64(l.end, l.group.offset, "adjacency lane records")?;
            let bytes = cast::mul_u64(records, 4, "adjacency lane bytes")?;
            edges_crc = crc32_combine(edges_crc, l.edges_crc.finish(), bytes);
            if weighted {
                weights_crc = crc32_combine(weights_crc, l.weights_crc.finish(), bytes);
            }
        }
        // Every write went straight to its file: nothing is left to flush.
        let len = cast::mul_u64(self.num_edges, 4, "adjacency image bytes")?;
        let weights = weighted.then_some(Fingerprint { len, crc: weights_crc });
        Ok((Fingerprint { len, crc: edges_crc }, weights))
    }
}

/// Encode `list` into `edges` (its destinations) and `weights` (its
/// payloads' bytes, none for an unweighted image): the bytes `edges.bin`
/// and `weights.bin` store for it. Each slice holds exactly the list.
fn encode<P: Payload>(list: &[(VertexId, P)], edges: &mut [u8], weights: &mut [u8]) {
    for (&(dst, _), slot) in list.iter().zip(edges.chunks_exact_mut(4)) {
        slot.copy_from_slice(&dst.to_le_bytes());
    }
    if P::SIZE > 0 {
        for ((_, payload), slot) in list.iter().zip(weights.chunks_exact_mut(P::SIZE)) {
            payload.write_to(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::{crc32, ScratchDir};

    /// The groups of degrees 3 (ids 0–1), 2 (ids 2–4) and 0 (ids 5–6):
    /// 12 edge records.
    fn index() -> DosIndex {
        let groups = vec![
            DegreeGroup { degree: 3, first_id: 0, offset: 0 },
            DegreeGroup { degree: 2, first_id: 2, offset: 6 },
            DegreeGroup { degree: 0, first_id: 5, offset: 12 },
        ];
        DosIndex::new(groups, 7, 12)
    }

    fn lanes(dir: &ScratchDir, lane_bytes: u64, weighted: bool) -> Lanes<f32> {
        let weights = dir.file("weights.bin");
        Lanes::create(
            &index(),
            lane_bytes,
            &dir.file("edges.bin"),
            weighted.then_some(weights.as_path()),
            &IoStats::new(),
            &FaultSurface::none(),
        )
        .unwrap()
    }

    fn list(dsts: &[u32]) -> Vec<(u32, f32)> {
        dsts.iter().map(|&d| (d, d as f32 + 0.5)).collect()
    }

    /// Lists placed in any interleaving of the groups land at their Eq. 1
    /// offsets, and the combined fingerprints are the files' own — for a
    /// buffer of one record (every list written alone), a small one and
    /// one that holds the whole image.
    #[test]
    fn lists_land_at_their_offsets_with_the_files_fingerprints() {
        for lane_bytes in [1, 24, 1 << 20] {
            let dir = ScratchDir::new("lanes").unwrap();
            let mut lanes = lanes(&dir, lane_bytes, true);
            for (src, dsts) in [
                (2, &[0, 1][..]),
                (0, &[1, 2, 3]),
                (3, &[4, 5]),
                (1, &[6, 6, 6]),
                (4, &[0, 2]),
            ] {
                let lane = lanes.lane_of(src).unwrap();
                assert_eq!(lanes.degree(lane), dsts.len() as u32);
                lanes.place(lane, src, &list(dsts)).unwrap();
            }
            let (edges_fp, weights_fp) = lanes.complete().unwrap();
            let edges = std::fs::read(dir.file("edges.bin")).unwrap();
            let dsts = [1u32, 2, 3, 6, 6, 6, 0, 1, 4, 5, 0, 2];
            let want: Vec<u8> = dsts.iter().flat_map(|d| d.to_le_bytes()).collect();
            assert_eq!(edges, want, "lane bytes {lane_bytes}");
            assert_eq!(edges_fp, Fingerprint { len: 48, crc: crc32(&edges) });
            let weights = std::fs::read(dir.file("weights.bin")).unwrap();
            assert_eq!(weights_fp, Some(Fingerprint::of(&weights)));
            assert_eq!(&weights[..4], &1.5f32.to_le_bytes());
        }
    }

    /// A list of the wrong length, or one that does not start where its
    /// lane stands, is corruption, typed; so is a lane left short.
    #[test]
    fn out_of_place_and_wrong_length_lists_are_corrupt() {
        let dir = ScratchDir::new("lanes-corrupt").unwrap();
        let mut lanes = lanes(&dir, 1 << 10, false);
        let corrupt = |r: Result<()>, want: &str| {
            let err = r.unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
            assert!(err.to_string().contains(want), "{err}");
        };
        // New id 0 has degree 3: two edges or four are no list of it.
        corrupt(lanes.place(0, 0, &list(&[1, 2])), "has 2 edges, its degree group 3");
        corrupt(lanes.place(0, 0, &list(&[1, 2, 3, 4])), "has 4 edges");
        // New id 1's list before new id 0's: out of place.
        corrupt(lanes.place(0, 1, &list(&[1, 2, 3])), "belongs at edge 3, its lane stands at 0");
        lanes.place(0, 0, &list(&[1, 2, 3])).unwrap();
        // New id 0 again: its place is taken.
        corrupt(lanes.place(0, 0, &list(&[1, 2, 3])), "belongs at edge 0, its lane stands at 3");
        // A source of the zero-degree group has no list.
        let zero = lanes.lane_of(6).unwrap();
        corrupt(lanes.begin(zero, 6, 1), "has 1 edges, its degree group 0");
        // The streamed form checks the same way.
        corrupt(lanes.begin(1, 3, 2), "belongs at edge 8, its lane stands at 6");
        lanes.begin(1, 2, 2).unwrap();
        lanes.append(1, 0, 0.5).unwrap();
        lanes.append(1, 1, 1.5).unwrap();
        // Ids 1, 3 and 4 never came: the lanes stop short.
        let err = lanes.complete().unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("degree-3 lane stopped at edge 3"), "{err}");
    }
}
