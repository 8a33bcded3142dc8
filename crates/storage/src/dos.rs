//! Degree-Ordered Storage (DOS) — the paper's first contribution (§III).
//!
//! Vertices are sorted by *descending out-degree* and relabeled in that
//! order. Because every vertex with the same degree then occupies a
//! contiguous id range with equal-length adjacency lists, the vertex index
//! needs only one entry per **unique degree**:
//!
//! * `ids_table` — degree → smallest new id with that degree (paper
//!   Table VI),
//! * `id_offset_table` — degree → edge-file offset of that smallest id
//!   (paper Table VII).
//!
//! The adjacency offset of any vertex `x` with degree `d` is then computed,
//! not stored (paper Eq. 1):
//!
//! ```text
//! offset = id_offset_table[d] + (x - ids_table[d]) * d
//! ```
//!
//! Natural graphs have very few unique degrees (§III-D proves
//! `|UD| <= 2*sqrt(|E|)`; see [`unique_degree_bound`]), so this index is
//! orders of magnitude smaller than CSR's per-vertex offsets and always fits
//! in memory — the property Table XI quantifies.
//!
//! Conversion (§III-C) uses only sequential passes and external sorts, so it
//! runs in bounded memory no matter the graph size. The passes run as a
//! *pipeline* of chained lazy sort merges (no intermediate file between a
//! sort and its consumer). The image bytes do not depend on the budget:
//! every sort key in the pipeline determines its record's bytes, so run
//! boundaries cannot show in the output (DESIGN.md §6g). The records
//! carry only what the image needs: after the degree pass an edge is two
//! ids, plus its weight when the image is weighted.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_extsort::{ExternalSorter, SortTimings};
use graphz_io::{
    ChecksummedWriter, FaultSurface, Fingerprint, IoStats, RecordReader, RecordWriter, ScratchDir,
    StageManifest, SurfaceWriter, TrackedFile,
};
use graphz_types::prelude::*;

use crate::edgelist::EdgeListFile;
use crate::meta::MetaFile;

/// Upper bound on the number of unique out-degrees (paper §III-D, Claim 1):
/// `|UD| <= 2 * sqrt(|E|)`.
///
/// Computed in pure integer arithmetic (`isqrt` + ceiling correction) so the
/// bound is exact for every `u64` edge count; the former `f64::sqrt` round
/// trip loses integer precision above 2^53 edges.
pub fn unique_degree_bound(num_edges: u64) -> u64 {
    let root = num_edges.isqrt();
    // Ceiling of the true square root: isqrt floors, so bump when inexact.
    // `root * root` cannot overflow (root <= 2^32 - 1 for any u64 input) and
    // `2 * ceil(sqrt(u64))` tops out near 2^33.
    let ceil_root = root + u64::from(root * root < num_edges);
    2 * ceil_root
}

/// One row of the combined `ids_table` / `id_offset_table`: all vertices in
/// `first_id .. next group's first_id` have out-degree `degree`, and the
/// adjacency list of `first_id` starts at edge-record `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeGroup {
    pub degree: Degree,
    pub first_id: VertexId,
    pub offset: u64,
}

impl FixedCodec for DegreeGroup {
    const SIZE: usize = 16;

    fn write_to(&self, buf: &mut [u8]) {
        buf[..4].copy_from_slice(&self.degree.to_le_bytes());
        buf[4..8].copy_from_slice(&self.first_id.to_le_bytes());
        buf[8..16].copy_from_slice(&self.offset.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        DegreeGroup {
            degree: u32::from_le_bytes(buf[..4].try_into().unwrap()),
            first_id: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            offset: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        }
    }
}

/// The in-memory DOS vertex index: one [`DegreeGroup`] per unique degree,
/// sorted by ascending `first_id` (equivalently descending `degree`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DosIndex {
    groups: Vec<DegreeGroup>,
    num_vertices: u64,
    num_edges: u64,
}

impl DosIndex {
    pub fn new(groups: Vec<DegreeGroup>, num_vertices: u64, num_edges: u64) -> Self {
        debug_assert!(groups.windows(2).all(|w| w[0].first_id < w[1].first_id));
        debug_assert!(groups.windows(2).all(|w| w[0].degree > w[1].degree));
        DosIndex { groups, num_vertices, num_edges }
    }

    pub fn groups(&self) -> &[DegreeGroup] {
        &self.groups
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of unique out-degrees.
    pub fn unique_degrees(&self) -> u64 {
        cast::len_u64(self.groups.len())
    }

    /// Bytes this index occupies (16 per unique degree) — the "GraphZ" row
    /// of Table XI. Saturating: `|UD| * 16` cannot realistically overflow,
    /// and a size *report* should never fail.
    pub fn index_bytes(&self) -> u64 {
        cast::len_u64(self.groups.len()).saturating_mul(cast::len_u64(DegreeGroup::SIZE))
    }

    #[inline]
    fn group_of(&self, v: VertexId) -> &DegreeGroup {
        debug_assert!(cast::widen_u32(v) < self.num_vertices, "vertex {v} out of range");
        // Binary search on ids_table (paper §III-B): find d with
        // ids_table[d] <= v < ids_table[d + 1].
        let idx = self.groups.partition_point(|g| g.first_id <= v);
        &self.groups[idx - 1]
    }

    /// Out-degree of new-id `v`.
    #[inline]
    pub fn degree_of(&self, v: VertexId) -> Degree {
        self.group_of(v).degree
    }

    /// Paper Eq. 1 over one degree group, in checked arithmetic:
    /// `offset = id_offset_table[d] + (v - ids_table[d]) * d`. Overflow (or a
    /// vertex below its group's first id, which only a corrupt index can
    /// produce) surfaces as [`GraphError::OffsetOverflow`] rather than a
    /// wrapped offset that would silently read the wrong adjacency block.
    #[inline]
    fn eq1_offset(g: &DegreeGroup, v: VertexId) -> Result<u64> {
        let rank = cast::sub_u32(v, g.first_id, "dos eq1: v - first_id")?;
        let span =
            cast::mul_u64(cast::widen_u32(rank), cast::widen_u32(g.degree), "dos eq1: rank * degree")?;
        cast::add_u64(g.offset, span, "dos eq1: group offset + span")
    }

    /// Typed out-of-range check shared by the fallible lookups. A release
    /// build used to fall through `group_of`'s `debug_assert` and compute a
    /// garbage offset for an out-of-range id; now every user-facing path
    /// (CLI, serve protocol) gets [`GraphError::UnknownVertex`] instead.
    /// Constructing the error does not allocate, so the serve read path
    /// stays within the `serve-read-alloc` ipa gate.
    #[inline]
    fn check_range(&self, v: VertexId) -> Result<()> {
        if cast::widen_u32(v) >= self.num_vertices {
            return Err(GraphError::UnknownVertex(v));
        }
        Ok(())
    }

    /// Edge-record offset of `v`'s adjacency list — paper Eq. 1. An id at
    /// or beyond `num_vertices` is [`GraphError::UnknownVertex`].
    #[inline]
    pub fn offset_of(&self, v: VertexId) -> Result<u64> {
        self.check_range(v)?;
        Self::eq1_offset(self.group_of(v), v)
    }

    /// `(degree, offset)` with one search. An id at or beyond
    /// `num_vertices` is [`GraphError::UnknownVertex`].
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Result<(Degree, u64)> {
        self.check_range(v)?;
        let g = self.group_of(v);
        Ok((g.degree, Self::eq1_offset(g, v)?))
    }

    /// The degree groups covering new ids `a..b`, each clipped to the range,
    /// as `(first, end, degree)` runs in ascending id order. One binary
    /// search locates `a`'s group; the rest is a linear walk, so a whole
    /// partition costs one search instead of one per vertex. An empty range
    /// (`a >= b`) yields nothing; `b` beyond `num_vertices` is
    /// [`GraphError::UnknownVertex`].
    pub fn degree_runs(
        &self,
        a: VertexId,
        b: VertexId,
    ) -> Result<impl Iterator<Item = (VertexId, VertexId, Degree)> + '_> {
        if a < b {
            self.check_range(b - 1)?;
        }
        let start = self.groups.partition_point(|g| g.first_id <= a).saturating_sub(1);
        let groups = self.groups.get(start..).unwrap_or_default();
        let ends = groups.iter().skip(1).map(|g| g.first_id).chain(std::iter::once(b));
        Ok(groups
            .iter()
            .zip(ends)
            .map(move |(g, end)| (g.first_id.max(a), end.min(b), g.degree))
            .take_while(|&(first, end, _)| first < end))
    }

    /// Out-degrees of new ids `a..b`, expanded from
    /// [`degree_runs`](Self::degree_runs) with one fill per degree group —
    /// what every partition load needs. Same errors as `degree_runs`.
    pub fn degrees(&self, a: VertexId, b: VertexId) -> Result<Vec<Degree>> {
        let mut out = Vec::with_capacity(cast::vertex_index(b.saturating_sub(a)));
        for (_, end, degree) in self.degree_runs(a, b)? {
            out.resize(cast::vertex_index(end - a), degree);
        }
        Ok(out)
    }

    /// Total edges owned by vertices in `from..to` (new-id range).
    pub fn edges_in_range(&self, from: VertexId, to: VertexId) -> Result<u64> {
        if from >= to {
            return Ok(0);
        }
        let end = if cast::widen_u32(to) < self.num_vertices {
            self.offset_of(to)?
        } else {
            self.num_edges
        };
        cast::sub_u64(end, self.offset_of(from)?, "dos edges_in_range: end - start")
    }

    pub fn save(&self, path: &Path, stats: Arc<IoStats>) -> Result<()> {
        // Test/tooling helper: the DOS pipeline writes index.tbl through
        // DosConverter::writer (surface-routed) in the emit stage, so this
        // raw writer is never on a chaos-covered path.
        // flow:allow(fault-surface-bypass) ipa:allow(fault-surface-reach)
        let mut w = RecordWriter::<DegreeGroup>::create(path, stats).ctx("create", path)?;
        w.push_all(self.groups.iter())?;
        w.finish()?;
        Ok(())
    }

    pub fn load(path: &Path, stats: Arc<IoStats>, num_vertices: u64, num_edges: u64) -> Result<Self> {
        let groups = RecordReader::<DegreeGroup>::open(path, stats)?.read_all()?;
        if groups.windows(2).any(|w| w[0].first_id >= w[1].first_id || w[0].degree <= w[1].degree) {
            return Err(GraphError::Corrupt("DOS index groups are not properly ordered".into()));
        }
        if let Some(first) = groups.first() {
            if first.first_id != 0 || first.offset != 0 {
                return Err(GraphError::Corrupt("DOS index must start at id 0, offset 0".into()));
            }
        }
        Ok(DosIndex { groups, num_vertices, num_edges })
    }
}

/// Converts an edge list into a DOS directory (paper §III-C).
///
/// Construct via [`DosConverter::builder`] (the workspace builder
/// convention) or [`DosConverter::new`] for the defaults.
pub struct DosConverter {
    budget: MemoryBudget,
    stats: Arc<IoStats>,
    /// When set, a `weights.bin` file (one `f32` per edge, parallel to
    /// `edges.bin`) is produced from the *original* endpoint ids, so weights
    /// survive the relabeling unchanged.
    weight_fn: Option<fn(VertexId, VertexId) -> f32>,
    /// Fault surface gating every file op of the conversion (default inert).
    surface: FaultSurface,
    /// When set, completed stages found in the scratch root are skipped.
    resume: bool,
    /// Stable scratch root shared with a caller-level pipeline; `None` means
    /// the converter owns (and cleans up) a sibling `<dir>.scratch`.
    scratch_root: Option<PathBuf>,
    /// Optional wall-time sink shared by every stage sorter.
    timings: Option<Arc<SortTimings>>,
}

/// Builder for [`DosConverter`]: `XBuilder` + chainable setters + fallible
/// `build()`.
pub struct DosConverterBuilder {
    budget: Option<MemoryBudget>,
    stats: Option<Arc<IoStats>>,
    weight_fn: Option<fn(VertexId, VertexId) -> f32>,
    surface: FaultSurface,
    resume: bool,
    scratch_root: Option<PathBuf>,
    timings: Option<Arc<SortTimings>>,
}

impl DosConverterBuilder {
    /// Total in-memory bytes the conversion's sorts may hold (required).
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Shared IO statistics sink (required).
    pub fn stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Also emit per-edge weights computed by `f(original_src, original_dst)`.
    pub fn weights(mut self, f: fn(VertexId, VertexId) -> f32) -> Self {
        self.weight_fn = Some(f);
        self
    }

    /// Fault surface gating every file op of the conversion (default: inert).
    /// Chaos tests inject IO faults here; production callers attach a retry
    /// policy and optionally a scratch [`DiskBudget`](graphz_io::DiskBudget).
    pub fn faults(mut self, surface: FaultSurface) -> Self {
        self.surface = surface;
        self
    }

    /// Resume from stage manifests left in the scratch root by an earlier
    /// interrupted conversion (default: off — the scratch root is cleared).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Use `root` as the stable scratch root instead of the converter-owned
    /// sibling `<dir>.scratch`. The caller then owns its lifecycle (the
    /// ingest pipeline shares one root between import and conversion).
    pub fn scratch_root(mut self, root: &Path) -> Self {
        self.scratch_root = Some(root.to_path_buf());
        self
    }

    /// Attach a shared sort-timing sink: every stage sorter accumulates its
    /// run-formation and eager-merge wall time there (benchmark attribution).
    pub fn timings(mut self, timings: Arc<SortTimings>) -> Self {
        self.timings = Some(timings);
        self
    }

    /// Validate the configuration and produce the converter.
    pub fn build(self) -> Result<DosConverter> {
        let budget = self.budget.ok_or_else(|| {
            GraphError::InvalidConfig("DOS conversion requires a memory budget".into())
        })?;
        let stats = self.stats.ok_or_else(|| {
            GraphError::InvalidConfig("DOS conversion requires a stats sink".into())
        })?;
        Ok(DosConverter {
            budget,
            stats,
            weight_fn: self.weight_fn,
            surface: self.surface,
            resume: self.resume,
            scratch_root: self.scratch_root,
            timings: self.timings,
        })
    }
}

/// The stable scratch root for a conversion into `dir`: a sibling directory
/// named `<dir>.scratch`. Stable (no pid or counter in the name) so a
/// restarted process finds the previous attempt's stage manifests.
pub fn scratch_root_for(dir: &Path) -> PathBuf {
    let mut os = dir.as_os_str().to_owned();
    os.push(".scratch");
    PathBuf::from(os)
}

/// Triad record used by the conversion pipeline: `(degree, src, dst)` —
/// paper §III-C's `EDGES` list of `<src, dest, deg>`.
type Triad = (u32, u32, u32);

/// What an edge record of the stages after the degree pass carries beside
/// its two ids: nothing for an unweighted image, the edge's `f32` weight
/// under `--weighted`. The weight is a function of the *old* endpoint ids,
/// so it is taken once, where the triads stage still has both at hand, and
/// rides along to the final pass as four bytes.
trait Payload: Copy + Send + 'static {
    /// Encoded bytes (0: the record is just its two ids).
    const SIZE: usize;
    fn write_to(&self, buf: &mut [u8]);
    fn read_from(buf: &[u8]) -> Self;
    /// The value `weights.bin` stores for this edge, if the image has one.
    fn weight(self) -> Option<f32>;
}

impl Payload for () {
    const SIZE: usize = 0;

    #[inline]
    fn write_to(&self, _buf: &mut [u8]) {}

    #[inline]
    fn read_from(_buf: &[u8]) -> Self {}

    #[inline]
    fn weight(self) -> Option<f32> {
        None
    }
}

impl Payload for f32 {
    const SIZE: usize = <f32 as FixedCodec>::SIZE;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        FixedCodec::write_to(self, buf);
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        <f32 as FixedCodec>::read_from(buf)
    }

    #[inline]
    fn weight(self) -> Option<f32> {
        Some(self)
    }
}

/// An edge record of the stages after the degree pass: `half-relabeled.bin`
/// and the by-dst runs hold `(new_src, old_dst)`, the final sort's runs
/// `(new_src, new_dst)`, each followed by the payload.
#[derive(Clone, Copy)]
struct StageEdge<P> {
    src: u32,
    dst: u32,
    payload: P,
}

impl<P: Payload> FixedCodec for StageEdge<P> {
    const SIZE: usize = 8 + P::SIZE;

    #[inline]
    fn write_to(&self, buf: &mut [u8]) {
        buf[..4].copy_from_slice(&self.src.to_le_bytes());
        buf[4..8].copy_from_slice(&self.dst.to_le_bytes());
        self.payload.write_to(&mut buf[8..]);
    }

    #[inline]
    fn read_from(buf: &[u8]) -> Self {
        StageEdge {
            src: u32::from_le_bytes(buf[..4].try_into().unwrap()),
            dst: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            payload: P::read_from(&buf[8..]),
        }
    }
}

/// Scratch bytes a sort stage needs per edge while the runs of its two
/// chained sorts coexist: one `A` and one `B` record — the DESIGN.md §6h
/// pre-stage disk check's estimate, derived from the record types so it
/// tracks their size.
fn run_bytes<A: FixedCodec, B: FixedCodec>(num_edges: u64) -> u64 {
    num_edges.saturating_mul(cast::len_u64(A::SIZE + B::SIZE))
}

/// Merge fan-in used in disk-degraded mode: high enough that every
/// realistic run count merges in a single pass, so no pre-merge copy of the
/// stage input is ever written.
const DEGRADED_FAN_IN: usize = 4096;

/// The sort key `(a, b)` packed into one integer of the same order, so the
/// run sorts and merges compare once instead of field by field.
#[inline]
fn key2(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// The sort key `(a, b, c)` packed likewise.
#[inline]
fn key3(a: u32, b: u32, c: u32) -> u128 {
    (u128::from(key2(a, b)) << 32) | u128::from(c)
}

/// Adapts the by-`(src, dst)` sorted edge stream into `(deg, src, dst)`
/// triads, all in old ids: each source's contiguous run is buffered to
/// learn its length (= out-degree), then re-emitted with the degree
/// attached. This is pass 2 of §III-C, running concurrently with pass 1's
/// merge — the upstream [`SortedStream`](graphz_extsort::SortedStream)
/// drains while the downstream sorter's run formation consumes these
/// triads. One buffer of destinations serves every source. The triads are
/// the last records that hold the old source id: the walk over them
/// relabels the source and, for a weighted image, takes each edge's weight.
struct TriadEmitter<S: Iterator<Item = Result<Edge>>> {
    inner: S,
    /// The current source, its degree, and its run's destinations.
    src: u32,
    deg: u32,
    dsts: Vec<u32>,
    /// Next index of `dsts` to emit.
    next: usize,
    pending: Option<Edge>,
    done: bool,
}

impl<S: Iterator<Item = Result<Edge>>> TriadEmitter<S> {
    fn new(inner: S) -> Self {
        TriadEmitter {
            inner,
            src: 0,
            deg: 0,
            dsts: Vec::new(),
            next: 0,
            pending: None,
            done: false,
        }
    }
}

impl<S: Iterator<Item = Result<Edge>>> Iterator for TriadEmitter<S> {
    type Item = Result<Triad>;

    fn next(&mut self) -> Option<Result<Triad>> {
        if let Some(&dst) = self.dsts.get(self.next) {
            self.next += 1;
            return Some(Ok((self.deg, self.src, dst)));
        }
        if self.done {
            return None;
        }
        // Gather one source's whole run; its length is the degree.
        self.dsts.clear();
        self.next = 0;
        if let Some(e) = self.pending.take() {
            self.src = e.src;
            self.dsts.push(e.dst);
        }
        loop {
            match self.inner.next() {
                Some(Ok(e)) => {
                    if self.dsts.is_empty() {
                        self.src = e.src;
                    } else if e.src != self.src {
                        self.pending = Some(e);
                        break;
                    }
                    self.dsts.push(e.dst);
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        let &dst = self.dsts.first()?;
        self.deg = match cast::usize_to_u32(self.dsts.len(), "dos out-degree") {
            Ok(d) => d,
            Err(e) => {
                self.done = true;
                self.dsts.clear();
                return Some(Err(e));
            }
        };
        self.next = 1;
        Some(Ok((self.deg, self.src, dst)))
    }
}

/// Relabels destinations of the dst-sorted half-relabeled stream by
/// co-scanning `old2new.bin` (pass 6 of §III-C): each `(new_src, old_dst)`
/// record leaves as `(new_src, new_dst)` with its payload untouched,
/// straight into the final sort's run formation. No old id survives it.
struct RelabelIter<S> {
    inner: S,
    map: RecordReader<u32>,
    map_pos: u64,
    cur_new: Option<u32>,
    failed: bool,
}

impl<S, P> Iterator for RelabelIter<S>
where
    S: Iterator<Item = Result<StageEdge<P>>>,
    P: Payload,
{
    type Item = Result<StageEdge<P>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let half = match self.inner.next()? {
            Ok(rec) => rec,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        while self.map_pos <= cast::widen_u32(half.dst) {
            match self.map.next_record() {
                Ok(v) => {
                    self.cur_new = v;
                    self.map_pos += 1;
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        match self.cur_new {
            Some(new_dst) => Some(Ok(StageEdge { dst: new_dst, ..half })),
            None => {
                self.failed = true;
                Some(Err(GraphError::Corrupt(
                    "old2new.bin shorter than the id space".into(),
                )))
            }
        }
    }
}

/// A stage artifact's writer: bytes pass the fault surface, then a block
/// buffer, then a file sink that folds their fingerprint as they land.
type StageWriter = SurfaceWriter<ChecksummedWriter>;

/// Flush a stage artifact and return the fingerprint of the bytes that
/// reached its file — what the stage manifest records, with no re-read.
fn seal<T: FixedCodec>(w: RecordWriter<T, StageWriter>) -> Result<Fingerprint> {
    Ok(w.into_inner()?.into_inner().get_ref().fingerprint())
}

/// The fingerprint a verified stage manifest recorded for artifact `name`.
fn recorded(m: &StageManifest, name: &str) -> Result<Fingerprint> {
    m.file(name).ok_or_else(|| {
        GraphError::Corrupt(format!("{} manifest lacks a fingerprint for `{name}`", m.stage()))
    })
}

impl DosConverter {
    /// Start building a converter.
    pub fn builder() -> DosConverterBuilder {
        DosConverterBuilder {
            budget: None,
            stats: None,
            weight_fn: None,
            surface: FaultSurface::none(),
            resume: false,
            scratch_root: None,
            timings: None,
        }
    }

    /// Converter with the defaults; shorthand for
    /// `DosConverter::builder().budget(..).stats(..).build()`.
    pub fn new(budget: MemoryBudget, stats: Arc<IoStats>) -> Self {
        DosConverter {
            budget,
            stats,
            weight_fn: None,
            surface: FaultSurface::none(),
            resume: false,
            scratch_root: None,
            timings: None,
        }
    }

    /// Also emit per-edge weights computed by `f(original_src, original_dst)`.
    pub fn with_weights(mut self, f: fn(VertexId, VertexId) -> f32) -> Self {
        self.weight_fn = Some(f);
        self
    }

    /// Build one pipeline-stage sorter. Chained stages keep two sorts alive
    /// at once (an upstream merge drains into a downstream run formation),
    /// so every stage works under half the configured budget. `fan_in`
    /// overrides the merge fan-in when the disk budget forced degraded
    /// (single-pass merge) mode.
    fn sorter<T, K, F>(&self, key: F, fan_in: Option<usize>) -> Result<ExternalSorter<T, K, F>>
    where
        T: FixedCodec,
        K: Ord,
        F: Fn(&T) -> K,
    {
        let mut b = ExternalSorter::builder(key)
            .budget(self.budget.split(2))
            .stats(Arc::clone(&self.stats))
            .faults(self.surface.clone());
        if let Some(t) = &self.timings {
            b = b.timings(Arc::clone(t));
        }
        if let Some(f) = fan_in {
            b = b.fan_in(f);
        }
        b.build()
    }

    /// Pre-stage disk check (DESIGN.md §6h). A sort stage's scratch
    /// footprint is roughly its input bytes as run files plus, when the run
    /// count exceeds the merge fan-in, one more full copy for a pre-merge
    /// pass. When only the pre-merge copy no longer fits the disk budget,
    /// degrade gracefully: raise the fan-in so the merge runs in a single
    /// pass (more seeks, no extra copy). When even the run files cannot fit,
    /// fail up front with a typed [`GraphError::StorageFull`] instead of
    /// dying mid-stage with scratch half-written.
    fn stage_fan_in(&self, stage: &str, input_bytes: u64) -> Result<Option<usize>> {
        let Some(disk) = self.surface.disk() else {
            return Ok(None);
        };
        let remaining = disk.remaining();
        if input_bytes > remaining {
            return Err(GraphError::StorageFull(format!(
                "DOS stage `{stage}` needs about {input_bytes} scratch bytes but only \
                 {remaining} remain in the disk budget"
            )));
        }
        if input_bytes.saturating_mul(2) > remaining {
            return Ok(Some(DEGRADED_FAN_IN));
        }
        Ok(None)
    }

    /// Open `path` for writing with the converter's stats sink, routed
    /// through its fault surface; [`seal`] returns the file's fingerprint.
    fn writer(&self, path: &Path) -> Result<StageWriter> {
        Ok(self.surface.wrap(
            graphz_io::tracked::checksummed_writer(path, Arc::clone(&self.stats))
                .ctx("create", path)?,
        ))
    }

    /// Run the full conversion, producing `edges.bin`, `index.tbl`,
    /// `new2old.bin`, `old2new.bin`, and `meta.txt` under `dir`.
    ///
    /// The seven passes of §III-C run as a pipeline of chained
    /// [`sort_stream`](ExternalSorter::sort_stream)s grouped into five
    /// durable *stages* — `triads`, `old2new`, `new2old`, `adjacency`,
    /// `emit` — each of which commits a checksummed [`StageManifest`] into
    /// the stable scratch root when it completes (DESIGN.md §6h). A
    /// converter built with [`resume(true)`](DosConverterBuilder::resume)
    /// skips stages whose manifests (and recorded artifacts) verify and
    /// redoes everything from the first incomplete stage; because every
    /// stage is a deterministic function of the previous stage's files, the
    /// resumed directory is byte-identical to a clean run's.
    pub fn convert(&self, input: &EdgeListFile, dir: &Path) -> Result<DosGraph> {
        match self.weight_fn {
            None => self.convert_shaped(input, dir, |_, _| ()),
            Some(f) => self.convert_shaped(input, dir, f),
        }
    }

    /// The body of [`convert`](Self::convert) for one record shape: `P` is
    /// `()` for an unweighted image and `f32` for a weighted one, whose
    /// value `weigh(old_src, old_dst)` the triads stage computes.
    ///
    /// Every sort key after the degree pass determines its record: source
    /// relabeling is a bijection, so `new_src` fixes `old_src`, and the
    /// payload is a function of the old pair. Equal keys therefore mean
    /// equal bytes, and the output does not depend on how a sort orders
    /// ties (DESIGN.md §6g).
    fn convert_shaped<P: Payload>(
        &self,
        input: &EdgeListFile,
        dir: &Path,
        weigh: impl Fn(VertexId, VertexId) -> P,
    ) -> Result<DosGraph> {
        std::fs::create_dir_all(dir).ctx("create-dir", dir)?;
        let owns_root = self.scratch_root.is_none();
        let root = self.scratch_root.clone().unwrap_or_else(|| scratch_root_for(dir));
        if owns_root && !self.resume {
            match std::fs::remove_dir_all(&root) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        std::fs::create_dir_all(&root).ctx("create-dir", &root)?;
        let meta = input.meta();
        let num_vertices = meta.num_vertices;

        // A stage is "done" when its manifest loads, names that stage, and
        // every artifact it recorded still verifies (length + CRC). Anything
        // else — missing, torn, CRC-failing, damaged artifacts — reads as
        // incomplete, and the stage plus everything after it is redone.
        let manifest_path = |stage: &str| root.join(format!("{stage}.manifest"));
        let stage_done = |live: bool, stage: &str, base: &Path| -> Result<Option<StageManifest>> {
            if !live {
                return Ok(None);
            }
            let Some(m) = StageManifest::load(&manifest_path(stage))? else {
                return Ok(None);
            };
            if m.stage() != stage {
                return Ok(None);
            }
            let base = base.to_path_buf();
            if !m.verify_files(|name| base.join(name))? {
                return Ok(None);
            }
            Ok(Some(m))
        };
        // `live` stays true while completed stages are being skipped; the
        // first incomplete stage flips it, so later manifests (stale from an
        // older attempt) are redone and re-committed rather than trusted.
        let mut live = self.resume;

        // Stage `triads` (passes 1–3, pipelined): sort edges by (src, dst);
        // stream the merge through the triad emitter into the by-degree
        // sort's run formation; then walk the degree-sorted triads assigning
        // new ids, building the per-unique-degree groups, and emitting
        // half-relabeled edges (new src, old dst, payload). A manifest
        // written for another record shape (the other `--weighted` setting)
        // does not count: its half-relabeled records have another size.
        let half_bytes = cast::len_u64(StageEdge::<P>::SIZE);
        let half = root.join("half-relabeled.bin");
        let assign = root.join("assign.bin"); // (old_id, new_id) per vertex with deg > 0
        let groups_path = root.join("groups.bin");
        let mut groups: Vec<DegreeGroup>;
        let assigned: u64;
        if let Some(m) = stage_done(live, "triads", &root)?
            .filter(|m| m.get_u64("half_record_bytes") == Some(half_bytes))
        {
            assigned = m.get_u64("assigned").ok_or_else(|| {
                GraphError::Corrupt("triads manifest lacks an `assigned` count".into())
            })?;
            groups = RecordReader::<DegreeGroup>::open(&groups_path, Arc::clone(&self.stats))?
                .read_all()?;
        } else {
            live = false;
            // By-src runs and by-deg runs coexist.
            let fan_in = self.stage_fan_in("triads", run_bytes::<Edge, Triad>(meta.num_edges))?;
            groups = Vec::new();
            let mut next_new: u32 = 0;
            let (half_fp, assign_fp) = {
                let by_src_sorter = self.sorter(|e: &Edge| key2(e.src, e.dst), fan_in)?;
                // Descending degree (`!deg` reverses the order). Ties
                // between equal degrees break by ascending old id — the
                // paper breaks them "randomly"; a deterministic break makes
                // runs reproducible, which §IV-C's ordering guarantee
                // requires anyway.
                let by_deg_sorter = self.sorter(|t: &Triad| key3(!t.0, t.1, t.2), fan_in)?;
                let by_src_runs = ScratchDir::new_in(&root, "by-src").ctx("scratch", &root)?;
                let by_deg_runs = ScratchDir::new_in(&root, "by-deg").ctx("scratch", &root)?;
                let by_src = by_src_sorter
                    .sort_stream(input.reader(Arc::clone(&self.stats))?, &by_src_runs)?;
                let mut by_deg =
                    by_deg_sorter.sort_stream(TriadEmitter::new(by_src), &by_deg_runs)?;
                drop(by_src_runs); // pass-1 runs fully drained into pass-2 runs

                // The last pass that knows the old source: the payload (a
                // weight of the original ids) is taken here.
                let mut half_w =
                    RecordWriter::<StageEdge<P>, _>::from_writer(self.writer(&half)?);
                let mut assign_w =
                    RecordWriter::<(u32, u32), _>::from_writer(self.writer(&assign)?);
                let mut cur_src: Option<u32> = None;
                for (edge_offset, t) in (0u64..).zip(&mut by_deg) {
                    let (deg, src, dst) = t?;
                    if cur_src != Some(src) {
                        cur_src = Some(src);
                        let new_id = next_new;
                        next_new += 1;
                        assign_w.push(&(src, new_id))?;
                        if groups.last().map(|g| g.degree) != Some(deg) {
                            groups.push(DegreeGroup {
                                degree: deg,
                                first_id: new_id,
                                offset: edge_offset,
                            });
                        }
                    }
                    half_w.push(&StageEdge {
                        src: next_new - 1,
                        dst,
                        payload: weigh(src, dst),
                    })?;
                }
                (seal(half_w)?, seal(assign_w)?)
            };
            assigned = cast::widen_u32(next_new);
            let mut gw = RecordWriter::<DegreeGroup, _>::from_writer(self.writer(&groups_path)?);
            gw.push_all(groups.iter())?;
            let groups_fp = seal(gw)?;
            let mut m = StageManifest::new("triads");
            m.set("assigned", assigned);
            m.set("half_record_bytes", half_bytes);
            m.record_file("half-relabeled.bin", half_fp);
            m.record_file("assign.bin", assign_fp);
            m.record_file("groups.bin", groups_fp);
            m.commit(&manifest_path("triads"), &self.surface)?;
        }

        // Zero-degree fill (paper: "we need to fill in those vertices with
        // 0 degrees") — a pure function of the triads outputs, so it is
        // recomputed on resume rather than persisted.
        if assigned < num_vertices {
            groups.push(DegreeGroup {
                degree: 0,
                first_id: cast::to_u32(assigned, "dos first zero-degree id")?,
                offset: meta.num_edges,
            });
        }

        // Stage `old2new` (pass 4): materialize old2new.bin by draining the
        // assignment sort's merge straight into the zero-degree co-scan.
        let old2new_path = dir.join("old2new.bin");
        let old2new_fp = if let Some(m) = stage_done(live, "old2new", dir)? {
            recorded(&m, "old2new.bin")?
        } else {
            live = false;
            let fan_in = self.stage_fan_in("old2new", assigned.saturating_mul(16))?;
            let fp = {
                let by_old_sorter = self.sorter(|p: &(u32, u32)| p.0, fan_in)?;
                let by_old_runs = ScratchDir::new_in(&root, "assign").ctx("scratch", &root)?;
                let mut by_old = by_old_sorter.sort_stream(
                    RecordReader::<(u32, u32)>::open(&assign, Arc::clone(&self.stats))?,
                    &by_old_runs,
                )?;
                let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&old2new_path)?);
                let mut pending = by_old.next_record()?;
                let mut next_zero: u32 = cast::to_u32(assigned, "dos first zero-degree id")?;
                for old in 0..cast::to_u32(num_vertices, "dos vertex count")? {
                    match pending {
                        Some((o, n)) if o == old => {
                            w.push(&n)?;
                            pending = by_old.next_record()?;
                        }
                        _ => {
                            w.push(&next_zero)?;
                            next_zero += 1;
                        }
                    }
                }
                if pending.is_some() {
                    return Err(GraphError::Corrupt(
                        "DOS conversion saw a source id beyond num_vertices".into(),
                    ));
                }
                seal(w)?
            };
            let mut m = StageManifest::new("old2new");
            m.record_file("old2new.bin", fp);
            m.commit(&manifest_path("old2new"), &self.surface)?;
            fp
        };

        // Stage `new2old` (pass 5): old2new inverted via one more external
        // sort, its merge draining directly into the new2old writer.
        let new2old_path = dir.join("new2old.bin");
        let new2old_fp = if let Some(m) = stage_done(live, "new2old", dir)? {
            recorded(&m, "new2old.bin")?
        } else {
            live = false;
            let fan_in = self.stage_fan_in("new2old", num_vertices.saturating_mul(16))?;
            let fp = {
                let by_new_sorter = self.sorter(|p: &(u32, u32)| p.0, fan_in)?;
                let by_new_runs = ScratchDir::new_in(&root, "pairs").ctx("scratch", &root)?;
                let olds = RecordReader::<u32>::open(&old2new_path, Arc::clone(&self.stats))?;
                let pairs = olds.enumerate().map(|(old, new)| -> Result<(u32, u32)> {
                    // Pass 4 already proved num_vertices fits u32.
                    Ok((new?, cast::usize_to_u32(old, "dos old id")?))
                });
                let mut by_new = by_new_sorter.sort_stream(pairs, &by_new_runs)?;
                let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&new2old_path)?);
                while let Some((_, old)) = by_new.next_record()? {
                    w.push(&old)?;
                }
                seal(w)?
            };
            let mut m = StageManifest::new("new2old");
            m.record_file("new2old.bin", fp);
            m.commit(&manifest_path("new2old"), &self.surface)?;
            fp
        };

        // Stage `adjacency` (passes 6–7, pipelined): sort half-relabeled
        // edges by old dst, relabel destinations by co-scanning old2new.bin
        // sequentially (paper: "with the mapping from oldid to newid, we
        // sequentially relabel dests") straight into the final sort's run
        // formation, and write the adjacency file (destination ids only;
        // offsets are computed by Eq. 1) plus, when requested, the parallel
        // per-edge weight file from the records' payload.
        let edges_path = dir.join("edges.bin");
        let (edges_fp, weights_fp) = if let Some(m) = stage_done(live, "adjacency", dir)? {
            let weights_fp = match self.weight_fn {
                Some(_) => Some(recorded(&m, "weights.bin")?),
                None => None,
            };
            (recorded(&m, "edges.bin")?, weights_fp)
        } else {
            live = false;
            // By-dst runs and final runs coexist.
            let fan_in = self.stage_fan_in(
                "adjacency",
                run_bytes::<StageEdge<P>, StageEdge<P>>(meta.num_edges),
            )?;
            let mut written: u64 = 0;
            let (edges_fp, weights_fp) = {
                let by_dst_sorter = self.sorter(|r: &StageEdge<P>| key2(r.dst, r.src), fan_in)?;
                let final_sorter = self.sorter(|r: &StageEdge<P>| key2(r.src, r.dst), fan_in)?;
                let by_dst_runs = ScratchDir::new_in(&root, "half-by-dst").ctx("scratch", &root)?;
                let final_runs = ScratchDir::new_in(&root, "final").ctx("scratch", &root)?;
                let by_dst = by_dst_sorter.sort_stream(
                    RecordReader::<StageEdge<P>>::open(&half, Arc::clone(&self.stats))?,
                    &by_dst_runs,
                )?;
                let relabel = RelabelIter {
                    inner: by_dst,
                    map: RecordReader::<u32>::open(&old2new_path, Arc::clone(&self.stats))?,
                    map_pos: 0,
                    cur_new: None,
                    failed: false,
                };
                let mut final_sorted = final_sorter.sort_stream(relabel, &final_runs)?;
                drop(by_dst_runs); // pass-6 runs fully drained into pass-7 runs

                let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&edges_path)?);
                let mut weights_w = match self.weight_fn {
                    Some(_) => Some(RecordWriter::<f32, _>::from_writer(
                        self.writer(&dir.join("weights.bin"))?,
                    )),
                    None => None,
                };
                while let Some(r) = final_sorted.next_record()? {
                    w.push(&r.dst)?;
                    if let (Some(ww), Some(weight)) = (&mut weights_w, r.payload.weight()) {
                        ww.push(&weight)?;
                    }
                    written += 1;
                }
                let edges_fp = seal(w)?;
                let weights_fp = match weights_w {
                    Some(ww) => Some(seal(ww)?),
                    None => None,
                };
                (edges_fp, weights_fp)
            };
            if written != meta.num_edges {
                return Err(GraphError::Corrupt(format!(
                    "DOS conversion wrote {written} edges, expected {}",
                    meta.num_edges
                )));
            }
            let mut m = StageManifest::new("adjacency");
            m.set("written", written);
            m.record_file("edges.bin", edges_fp);
            if let Some(fp) = weights_fp {
                m.record_file("weights.bin", fp);
            }
            m.commit(&manifest_path("adjacency"), &self.surface)?;
            (edges_fp, weights_fp)
        };

        // Stage `emit`: the in-memory index, metadata, and the integrity
        // sidecar (length + CRC32 of every data file, checked by
        // `verify_dos`). The data files' fingerprints are the ones their
        // stages folded while writing them (or, for a stage resume skipped,
        // recorded and re-verified). The sidecar is written after the data
        // files, so an interrupted conversion cannot leave a complete-looking
        // sidecar over partial data.
        let index = DosIndex::new(groups, num_vertices, meta.num_edges);
        let dos_meta = GraphMeta {
            num_vertices,
            num_edges: meta.num_edges,
            unique_degrees: index.unique_degrees(),
            max_degree: index.groups().first().map_or(0, |g| cast::widen_u32(g.degree)),
        };
        if stage_done(live, "emit", dir)?.is_none() {
            let mut w =
                RecordWriter::<DegreeGroup, _>::from_writer(self.writer(&dir.join("index.tbl"))?);
            w.push_all(index.groups().iter())?;
            let index_fp = seal(w)?;
            let mut mf = MetaFile::new();
            mf.set("format", "dos")
                .set("weighted", if self.weight_fn.is_some() { 1 } else { 0 })
                .set_graph_meta(&dos_meta);
            let meta_fp = mf.save_with(&dir.join("meta.txt"), &self.surface)?;

            let mut sums = MetaFile::new();
            sums.set("format", "dos-checksums");
            let mut data_files = vec![
                ("edges.bin", edges_fp),
                ("index.tbl", index_fp),
                ("old2new.bin", old2new_fp),
                ("new2old.bin", new2old_fp),
            ];
            if let Some(fp) = weights_fp {
                data_files.push(("weights.bin", fp));
            }
            for (name, fp) in data_files {
                sums.set(&format!("file:{name}"), fp);
            }
            let sums_fp = sums.save_with(&dir.join("checksums.txt"), &self.surface)?;

            let mut m = StageManifest::new("emit");
            m.record_file("index.tbl", index_fp);
            m.record_file("meta.txt", meta_fp);
            m.record_file("checksums.txt", sums_fp);
            m.commit(&manifest_path("emit"), &self.surface)?;
        }

        // Everything durable: the scratch root (intermediate artifacts and
        // stage manifests) has served its purpose.
        if owns_root {
            let _ = std::fs::remove_dir_all(&root);
        }

        Ok(DosGraph {
            dir: dir.to_path_buf(),
            index,
            meta: dos_meta,
            weighted: self.weight_fn.is_some(),
        })
    }
}

/// An opened DOS directory: the in-memory index plus paths to the data files.
#[derive(Debug, Clone)]
pub struct DosGraph {
    dir: PathBuf,
    index: DosIndex,
    meta: GraphMeta,
    weighted: bool,
}

impl DosGraph {
    pub fn open(dir: &Path, stats: Arc<IoStats>) -> Result<Self> {
        let mf = MetaFile::load(&dir.join("meta.txt"))?;
        if mf.get("format") != Some("dos") {
            return Err(GraphError::Corrupt(format!(
                "{} is not a DOS directory (format={:?})",
                dir.display(),
                mf.get("format")
            )));
        }
        let meta = mf.graph_meta()?;
        let weighted = mf.get("weighted") == Some("1");
        let index =
            DosIndex::load(&dir.join("index.tbl"), stats, meta.num_vertices, meta.num_edges)?;
        Ok(DosGraph { dir: dir.to_path_buf(), index, meta, weighted })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn index(&self) -> &DosIndex {
        &self.index
    }

    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    pub fn edges_path(&self) -> PathBuf {
        self.dir.join("edges.bin")
    }

    /// Whether the conversion emitted per-edge weights.
    pub fn has_weights(&self) -> bool {
        self.weighted
    }

    /// Path of `weights.bin` (one `f32` per edge, parallel to `edges.bin`),
    /// if the graph is weighted.
    pub fn weights_path(&self) -> Option<PathBuf> {
        self.weighted.then(|| self.dir.join("weights.bin"))
    }

    pub fn new2old_path(&self) -> PathBuf {
        self.dir.join("new2old.bin")
    }

    pub fn old2new_path(&self) -> PathBuf {
        self.dir.join("old2new.bin")
    }

    /// Open a reusable random-access cursor over `edges.bin` — the shared
    /// point-lookup surface for the serving layer, the CLI topology
    /// commands, and [`DosGraph::adjacency`]. The file handle and scratch
    /// buffer are opened/allocated once here, so each subsequent
    /// [`AdjCursor::read_into`] is one seek plus one sequential read with
    /// no per-query allocation (ipa `serve-read-alloc`).
    pub fn cursor(&self, stats: Arc<IoStats>) -> Result<AdjCursor> {
        let edges_path = self.edges_path();
        let file = TrackedFile::open(&edges_path, stats).ctx("open", &edges_path)?;
        Ok(AdjCursor { file, buf: Vec::new() })
    }

    /// Random-access read of one vertex's adjacency list (new ids). One seek
    /// plus one sequential read — the access pattern DOS is designed for.
    /// One-shot convenience over [`DosGraph::cursor`]; repeated point
    /// lookups should hold a cursor instead of reopening the file per call.
    pub fn adjacency(&self, v: VertexId, stats: Arc<IoStats>) -> Result<Vec<VertexId>> {
        let mut cursor = self.cursor(stats)?;
        let mut out = Vec::new();
        cursor.read_into(&self.index, v, &mut out)?;
        Ok(out)
    }

    /// Random-access read of one vertex's adjacency list together with the
    /// stored per-edge weights. Errors if the graph is unweighted.
    pub fn adjacency_weighted(
        &self,
        v: VertexId,
        stats: Arc<IoStats>,
    ) -> Result<Vec<(VertexId, f32)>> {
        use std::io::{Read, Seek, SeekFrom};
        let weights_path = self.weights_path().ok_or_else(|| {
            GraphError::InvalidConfig("graph has no weights.bin; convert with_weights".into())
        })?;
        let (deg, offset) = self.index.lookup(v)?;
        let byte_offset = cast::mul_u64(offset, 4, "dos adjacency byte offset")?;
        let byte_len = cast::mul_usize(cast::degree_index(deg), 4, "dos adjacency length")?;
        let edges_path = self.edges_path();
        let mut ef =
            TrackedFile::open(&edges_path, Arc::clone(&stats)).ctx("open", &edges_path)?;
        ef.seek(SeekFrom::Start(byte_offset))?;
        let mut ebuf = vec![0u8; byte_len];
        ef.read_exact(&mut ebuf)?;
        let mut wf = TrackedFile::open(&weights_path, stats).ctx("open", &weights_path)?;
        wf.seek(SeekFrom::Start(byte_offset))?;
        let mut wbuf = vec![0u8; byte_len];
        wf.read_exact(&mut wbuf)?;
        let dsts: Vec<u32> = graphz_types::codec::decode_slice(&ebuf);
        let ws: Vec<f32> = graphz_types::codec::decode_slice(&wbuf);
        Ok(dsts.into_iter().zip(ws).collect())
    }

    /// Load the new→old id map (4 bytes per vertex).
    pub fn load_new2old(&self, stats: Arc<IoStats>) -> Result<Vec<VertexId>> {
        RecordReader::<u32>::open(&self.new2old_path(), stats)?.read_all()
    }

    /// Load the old→new id map (4 bytes per vertex).
    pub fn load_old2new(&self, stats: Arc<IoStats>) -> Result<Vec<VertexId>> {
        RecordReader::<u32>::open(&self.old2new_path(), stats)?.read_all()
    }
}

/// A reusable read-only cursor over a DOS `edges.bin`: one open file handle
/// plus one scratch byte buffer, shared by every point lookup issued
/// through it. This is the allocation-disciplined adjacency read primitive
/// the serving layer's `GraphView` is built on — each [`read_into`] call
/// does one Eq. 1 index lookup, one seek, and one sequential read, reusing
/// both the handle and the buffer (checked by the `serve-read-alloc` ipa
/// rule).
///
/// A cursor is single-threaded by construction (`&mut self` on every read);
/// concurrent readers each open their own via [`DosGraph::cursor`], which
/// is cheap (one `open(2)`), instead of sharing one handle behind a lock.
///
/// [`read_into`]: AdjCursor::read_into
pub struct AdjCursor {
    file: TrackedFile,
    buf: Vec<u8>,
}

impl AdjCursor {
    /// Read the adjacency list of new-id `v` into `out` (cleared first),
    /// returning the out-degree. Out-of-range ids are the typed
    /// [`GraphError::UnknownVertex`].
    pub fn read_into(
        &mut self,
        index: &DosIndex,
        v: VertexId,
        out: &mut Vec<VertexId>,
    ) -> Result<Degree> {
        use std::io::{Read, Seek, SeekFrom};
        let (deg, offset) = index.lookup(v)?;
        let byte_offset = cast::mul_u64(offset, 4, "dos adjacency byte offset")?;
        let byte_len = cast::mul_usize(cast::degree_index(deg), 4, "dos adjacency length")?;
        if self.buf.len() < byte_len {
            self.buf.resize(byte_len, 0);
        }
        self.file.seek(SeekFrom::Start(byte_offset))?;
        self.file.read_exact(&mut self.buf[..byte_len])?;
        graphz_types::codec::decode_into(&self.buf[..byte_len], out);
        Ok(deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    /// DESIGN.md §6h: the pre-stage disk check degrades to a single-pass
    /// merge when only the pre-merge copy no longer fits, and fails with the
    /// typed `StorageFull` when even the run files cannot fit.
    #[test]
    fn stage_fan_in_degrades_then_fails_as_the_budget_shrinks() {
        use graphz_io::{DiskBudget, FaultSurface};
        let no_budget =
            DosConverter::builder().budget(MemoryBudget::from_kib(1)).stats(stats());
        assert_eq!(no_budget.build().unwrap().stage_fan_in("x", 600).unwrap(), None);

        let conv = DosConverter::builder()
            .budget(MemoryBudget::from_kib(1))
            .stats(stats())
            .faults(FaultSurface::none().with_disk_budget(DiskBudget::new(1000)))
            .build()
            .unwrap();
        // Roomy: input plus a full pre-merge copy both fit.
        assert_eq!(conv.stage_fan_in("x", 400).unwrap(), None);
        // Tight: runs fit but a second copy would not — degrade the merge.
        assert_eq!(conv.stage_fan_in("x", 600).unwrap(), Some(DEGRADED_FAN_IN));
        // Exhausted: not even the run files fit — typed failure up front.
        let err = conv.stage_fan_in("x", 2000).unwrap_err();
        assert!(matches!(err, GraphError::StorageFull(_)), "got {err:?}");
        assert!(err.to_string().contains("stage `x`"), "{err}");

        // The estimates follow the stage record types: the triads stage's
        // by-src edge and by-deg triad, the adjacency stage's two edge
        // records — two ids, plus the weight in a weighted image.
        assert_eq!(run_bytes::<Edge, Triad>(1), 20);
        let adjacency = |weighted: bool, edges: u64| {
            let bytes = if weighted {
                run_bytes::<StageEdge<f32>, StageEdge<f32>>(edges)
            } else {
                run_bytes::<StageEdge<()>, StageEdge<()>>(edges)
            };
            conv.stage_fan_in("adjacency", bytes)
        };
        assert_eq!((adjacency(false, 1).unwrap(), adjacency(true, 1).unwrap()), (None, None));
        // 30 edges: 480 B unweighted still fits twice; 720 B weighted does not.
        assert_eq!(adjacency(false, 30).unwrap(), None);
        assert_eq!(adjacency(true, 30).unwrap(), Some(DEGRADED_FAN_IN));
        // 50 edges: 800 B unweighted degrades; 1200 B weighted cannot start.
        assert_eq!(adjacency(false, 50).unwrap(), Some(DEGRADED_FAN_IN));
        let err = adjacency(true, 50).unwrap_err();
        assert!(matches!(err, GraphError::StorageFull(_)), "got {err:?}");
        assert!(err.to_string().contains("stage `adjacency` needs about 1200"), "{err}");
    }

    fn convert(edges: Vec<Edge>) -> (ScratchDir, DosGraph) {
        let dir = ScratchDir::new("dos").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), stats())
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        (dir, dos)
    }

    /// The paper's running example (§III-B, Figure 1 / Tables III–VII): a
    /// 7-vertex graph whose max id exceeds the vertex count. The OCR of the
    /// published tables garbles the concrete ids, so this test pins down the
    /// *construction* under our deterministic tie-break and verifies every
    /// structural property the tables illustrate.
    #[test]
    fn paper_example() {
        // Old ids: 0,1,2,3,5,7,11 (sparse, max id 11 > 7 vertices).
        // Out-degrees: 0 -> {1,2,3,7}: 4;  1 -> {0}: 1;  2 -> {0,7}: 2;
        //              3 -> {2,5}: 2;  7 -> {11}: 1;  5, 11 isolated.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(0, 7),
            Edge::new(1, 0),
            Edge::new(2, 0),
            Edge::new(2, 7),
            Edge::new(3, 2),
            Edge::new(3, 5),
            Edge::new(7, 11),
        ];
        let (_dir, dos) = convert(edges);
        let meta = dos.meta();
        assert_eq!(meta.num_vertices, 12); // dense id space 0..=11
        assert_eq!(meta.num_edges, 10);
        assert_eq!(meta.max_degree, 4);
        // Unique degrees: {4, 2, 1, 0}.
        assert_eq!(meta.unique_degrees, 4);

        let idx = dos.index();
        // ids_table / id_offset_table (Tables VI & VII), deterministic
        // tie-break by ascending old id:
        //   new 0 = old 0 (deg 4), new 1 = old 2 (deg 2), new 2 = old 3
        //   (deg 2), new 3 = old 1 (deg 1), new 4 = old 7 (deg 1), then
        //   zero-degree fill: new 5 = old 4, new 6 = old 5, ... in old order.
        assert_eq!(
            idx.groups(),
            &[
                DegreeGroup { degree: 4, first_id: 0, offset: 0 },
                DegreeGroup { degree: 2, first_id: 1, offset: 4 },
                DegreeGroup { degree: 1, first_id: 3, offset: 8 },
                DegreeGroup { degree: 0, first_id: 5, offset: 10 },
            ]
        );

        // Eq. 1 walkthrough like the paper's "find the offset of vertex 2"
        // narration: vertex 2 has degree 2; first id with degree 2 is 1 at
        // offset 4; offset = 4 + (2 - 1) * 2 = 6.
        assert_eq!(idx.lookup(2).unwrap(), (2, 6));
        assert_eq!(idx.lookup(0).unwrap(), (4, 0));
        assert_eq!(idx.lookup(4).unwrap(), (1, 9));
        assert_eq!(idx.lookup(11).unwrap(), (0, 10));

        let new2old = dos.load_new2old(stats()).unwrap();
        assert_eq!(&new2old[..5], &[0, 2, 3, 1, 7]);
        let old2new = dos.load_old2new(stats()).unwrap();
        assert_eq!(old2new.len(), 12);
        // Bijection check.
        for (new, &old) in new2old.iter().enumerate() {
            assert_eq!(old2new[old as usize] as usize, new);
        }

        // Adjacency of new id 0 (old 0) = {1,2,3,7} relabeled to new ids.
        let adj: HashSet<u32> = dos.adjacency(0, stats()).unwrap().into_iter().collect();
        let expect: HashSet<u32> =
            [1u32, 2, 3, 7].iter().map(|&o| old2new[o as usize]).collect();
        assert_eq!(adj, expect);
    }

    #[test]
    fn relabeling_preserves_graph_structure() {
        let mut edges = Vec::new();
        // A deterministic pseudo-random graph with repeated degrees.
        let mut x: u64 = 12345;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = ((x >> 33) % 50) as u32;
            let dst = ((x >> 17) % 50) as u32;
            edges.push(Edge::new(src, dst));
        }
        let (_dir, dos) = convert(edges.clone());
        let old2new = dos.load_old2new(stats()).unwrap();

        // Expected multiset of relabeled edges.
        let mut expected: HashMap<(u32, u32), u32> = HashMap::new();
        for e in &edges {
            *expected
                .entry((old2new[e.src as usize], old2new[e.dst as usize]))
                .or_default() += 1;
        }
        // Actual: walk every vertex's adjacency via the index.
        let mut actual: HashMap<(u32, u32), u32> = HashMap::new();
        for v in 0..dos.meta().num_vertices as u32 {
            for d in dos.adjacency(v, stats()).unwrap() {
                *actual.entry((v, d)).or_default() += 1;
            }
        }
        assert_eq!(actual, expected);
    }

    #[test]
    fn degrees_are_non_increasing_in_new_order() {
        let edges: Vec<Edge> =
            (0..200u32).flat_map(|i| (0..(i % 7)).map(move |j| Edge::new(i, j))).collect();
        let (_dir, dos) = convert(edges);
        let idx = dos.index();
        let mut prev = u32::MAX;
        for v in 0..dos.meta().num_vertices as u32 {
            let d = idx.degree_of(v);
            assert!(d <= prev, "degree increased at new id {v}");
            prev = d;
        }
    }

    #[test]
    fn offsets_match_cumulative_degrees() {
        let edges: Vec<Edge> =
            (0..100u32).flat_map(|i| (0..(i % 5)).map(move |j| Edge::new(i, j))).collect();
        let (_dir, dos) = convert(edges);
        let idx = dos.index();
        let mut cum: u64 = 0;
        for v in 0..dos.meta().num_vertices as u32 {
            assert_eq!(idx.offset_of(v).unwrap(), cum, "offset mismatch at {v}");
            cum += idx.degree_of(v) as u64;
        }
        assert_eq!(cum, dos.meta().num_edges);
    }

    #[test]
    fn edges_in_range_sums_degrees() {
        let edges: Vec<Edge> =
            (0..50u32).flat_map(|i| (0..(i % 4)).map(move |j| Edge::new(i, j))).collect();
        let (_dir, dos) = convert(edges);
        let idx = dos.index();
        let n = dos.meta().num_vertices as u32;
        assert_eq!(idx.edges_in_range(0, n).unwrap(), dos.meta().num_edges);
        assert_eq!(idx.edges_in_range(5, 5).unwrap(), 0);
        let total: u64 = (3..17u32).map(|v| idx.degree_of(v) as u64).sum();
        assert_eq!(idx.edges_in_range(3, 17).unwrap(), total);
    }

    /// A DOS index over the non-increasing degree sequence `degrees`.
    fn index_of(degrees: &[Degree]) -> DosIndex {
        let mut groups: Vec<DegreeGroup> = Vec::new();
        let mut offset = 0u64;
        for (v, &d) in (0u32..).zip(degrees) {
            if groups.last().map(|g| g.degree) != Some(d) {
                groups.push(DegreeGroup { degree: d, first_id: v, offset });
            }
            offset += u64::from(d);
        }
        DosIndex::new(groups, degrees.len() as u64, offset)
    }

    #[test]
    fn degree_expansion_matches_per_vertex_lookup() {
        let mut x: u64 = 7;
        let mut cases: Vec<Vec<Degree>> = vec![
            vec![],
            vec![0],
            vec![3],
            vec![4, 4, 4, 4],
            vec![5, 2, 2, 1, 0, 0, 0],
            vec![9, 9, 3, 1, 1],
        ];
        for len in [6usize, 13, 24] {
            let mut seq: Vec<Degree> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) % 6) as Degree
                })
                .collect();
            seq.sort_unstable_by(|a, b| b.cmp(a));
            cases.push(seq);
        }
        for seq in &cases {
            let idx = index_of(seq);
            let n = seq.len() as VertexId;
            for a in 0..=n {
                for b in a..=n {
                    let want: Vec<Degree> = (a..b).map(|v| idx.degree_of(v)).collect();
                    assert_eq!(idx.degrees(a, b).unwrap(), want, "{seq:?} {a}..{b}");
                    // Runs tile the range exactly, each inside one group.
                    let mut next = a;
                    for (first, end, d) in idx.degree_runs(a, b).unwrap() {
                        assert_eq!(first, next, "{seq:?} {a}..{b}");
                        assert!(first < end && (first..end).all(|v| idx.degree_of(v) == d));
                        next = end;
                    }
                    assert_eq!(next, b, "{seq:?} {a}..{b}");
                }
            }
            // Empty at the end of the id space; past it is a typed error.
            assert!(idx.degrees(n, n).unwrap().is_empty());
            let err = idx.degrees(0, n + 1).unwrap_err();
            assert!(matches!(err, GraphError::UnknownVertex(v) if v == n), "{err:?}");
        }

        // Named edge cases on the paper example's degree sequence.
        let idx = index_of(&[4, 2, 2, 1, 1, 0, 0, 0]);
        assert!(idx.degrees(3, 3).unwrap().is_empty()); // empty range
        assert!(idx.degrees(5, 2).unwrap().is_empty()); // inverted range
        assert_eq!(idx.degrees(1, 3).unwrap(), vec![2, 2]); // inside one group
        assert_eq!(idx.degrees(4, 8).unwrap(), vec![1, 0, 0, 0]); // into the zero tail
        assert_eq!(idx.degrees(6, 8).unwrap(), vec![0, 0]); // inside the zero tail
        assert_eq!(idx.degree_runs(0, 8).unwrap().count(), 4);
    }

    #[test]
    fn index_is_tiny_compared_to_csr() {
        let edges: Vec<Edge> =
            (0..2000u32).flat_map(|i| (0..(i % 10)).map(move |j| Edge::new(i, j))).collect();
        let (_dir, dos) = convert(edges);
        // CSR would need 8 * (V + 1) bytes; DOS needs 16 per unique degree.
        let csr_bytes = (dos.meta().num_vertices + 1) * 8;
        assert!(dos.index().index_bytes() * 50 < csr_bytes,
            "DOS {} vs CSR {}", dos.index().index_bytes(), csr_bytes);
    }

    #[test]
    fn unique_degree_claim_holds() {
        let edges: Vec<Edge> =
            (0..300u32).flat_map(|i| (0..(i % 20)).map(move |j| Edge::new(i, j))).collect();
        let n_edges = edges.len() as u64;
        let (_dir, dos) = convert(edges);
        assert!(dos.meta().unique_degrees <= unique_degree_bound(n_edges));
    }

    #[test]
    fn reopen_roundtrip() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0), Edge::new(0, 2)];
        let (dir, dos) = convert(edges);
        let reopened = DosGraph::open(&dir.path().join("dos"), stats()).unwrap();
        assert_eq!(reopened.index(), dos.index());
        assert_eq!(reopened.meta(), dos.meta());
    }

    #[test]
    fn corrupt_index_rejected_on_open() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let (dir, _dos) = convert(edges);
        let idx_path = dir.path().join("dos").join("index.tbl");
        // Write garbage groups: unsorted first_ids.
        let bogus = [
            DegreeGroup { degree: 1, first_id: 5, offset: 0 },
            DegreeGroup { degree: 2, first_id: 1, offset: 3 },
        ];
        let bytes: Vec<u8> = bogus.iter().flat_map(|g| g.to_bytes()).collect();
        std::fs::write(&idx_path, bytes).unwrap();
        assert!(matches!(
            DosGraph::open(&dir.path().join("dos"), stats()),
            Err(GraphError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_and_single_edge_graphs() {
        let (_d1, dos1) = convert(vec![Edge::new(0, 0)]);
        assert_eq!(dos1.meta().num_vertices, 1);
        assert_eq!(dos1.index().lookup(0).unwrap(), (1, 0));

        let (_d2, dos2) = convert(vec![Edge::new(3, 3)]);
        assert_eq!(dos2.meta().num_vertices, 4);
        assert_eq!(dos2.index().degree_of(0), 1); // old 3 becomes new 0
        assert_eq!(dos2.index().degree_of(1), 0);
    }

    #[test]
    fn weighted_conversion_preserves_original_id_weights() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(2, 0),
            Edge::new(1, 2),
            Edge::new(2, 2),
        ];
        let dir = ScratchDir::new("dos-weighted").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges.clone()).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), stats())
            .with_weights(graphz_types::derive_weight)
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        assert!(dos.has_weights());
        assert!(dos.weights_path().unwrap().exists());

        let old2new = dos.load_old2new(stats()).unwrap();
        let new2old = dos.load_new2old(stats()).unwrap();
        // Every edge's stored weight must equal the weight derived from the
        // ORIGINAL endpoints, regardless of relabeling.
        let mut seen = 0;
        for v in 0..dos.meta().num_vertices as u32 {
            for (dst, w) in dos.adjacency_weighted(v, stats()).unwrap() {
                let (os, od) = (new2old[v as usize], new2old[dst as usize]);
                assert_eq!(w, graphz_types::derive_weight(os, od), "edge {os}->{od}");
                seen += 1;
            }
        }
        assert_eq!(seen, edges.len());
        let _ = old2new;

        // Unweighted graphs refuse weighted access.
        let plain = DosConverter::new(MemoryBudget::from_kib(64), stats())
            .convert(&el, &dir.path().join("dos-plain"))
            .unwrap();
        assert!(!plain.has_weights());
        assert!(plain.adjacency_weighted(0, stats()).is_err());
        // Reopen keeps the weighted flag.
        let reopened = DosGraph::open(&dir.path().join("dos"), stats()).unwrap();
        assert!(reopened.has_weights());
    }

    #[test]
    fn unique_degree_bound_formula() {
        assert_eq!(unique_degree_bound(100), 20);
        assert_eq!(unique_degree_bound(0), 0);
        assert!(unique_degree_bound(1_000_000) >= 2000);
        // Non-square counts round the root up: ceil(sqrt(2)) = 2.
        assert_eq!(unique_degree_bound(2), 4);
        assert_eq!(unique_degree_bound(99), 20);
        // Exact at the extreme (no f64 precision loss above 2^53):
        // isqrt(u64::MAX) = 2^32 - 1, ceil = 2^32.
        assert_eq!(unique_degree_bound(u64::MAX), 2 * (1u64 << 32));
    }

    #[test]
    fn converter_builder_validates_configuration() {
        assert!(DosConverter::builder().stats(stats()).build().is_err());
        assert!(DosConverter::builder().budget(MemoryBudget::from_kib(64)).build().is_err());
        assert!(DosConverter::builder()
            .budget(MemoryBudget::from_kib(64))
            .stats(stats())
            .weights(graphz_types::derive_weight)
            .build()
            .is_ok());
    }

    /// Every file a conversion produced, name → bytes.
    fn dir_contents(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        let mut out = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            out.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            );
        }
        out
    }

    /// The half-relabeled records are 8 bytes unweighted and 12 weighted, so
    /// a resume that switches `--weighted` must redo the triads stage, not
    /// read the other shape's file.
    #[test]
    fn resume_with_the_other_record_shape_redoes_the_triads_stage() {
        let edges: Vec<Edge> =
            (0..300u32).map(|i| Edge::new(i % 23, (i * 7) % 41)).collect();
        let dir = ScratchDir::new("dos-reshape").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        let root = dir.path().join("root");
        let converter = |weighted: bool, resume: bool| {
            let mut b = DosConverter::builder()
                .budget(MemoryBudget::from_kib(1))
                .stats(stats())
                .scratch_root(&root)
                .resume(resume);
            if weighted {
                b = b.weights(graphz_types::derive_weight);
            }
            b.build().unwrap()
        };
        let clean_dir = dir.path().join("clean");
        DosConverter::new(MemoryBudget::from_kib(1), stats())
            .with_weights(graphz_types::derive_weight)
            .convert(&el, &clean_dir)
            .unwrap();
        for (first, then) in [(false, true), (true, false)] {
            let out = dir.path().join(format!("dos-{first}-{then}"));
            converter(first, false).convert(&el, &out).unwrap();
            let resumed = converter(then, true).convert(&el, &out).unwrap();
            assert_eq!(resumed.has_weights(), then);
            let want_dir = dir.path().join(format!("want-{then}"));
            converter(then, false).convert(&el, &want_dir).unwrap();
            let mut got = dir_contents(&out);
            if !then {
                // The first, weighted run left its weights file behind.
                got.remove("weights.bin");
            }
            assert_eq!(got, dir_contents(&want_dir), "{first} then {then}");
        }
        assert_eq!(dir_contents(&dir.path().join("want-true")), dir_contents(&clean_dir));
    }

    #[test]
    fn eq1_overflow_is_a_typed_error() {
        // A (synthetic) index whose base offset sits at u64::MAX: Eq. 1's
        // `base + rank * degree` must fail loudly, not wrap around to a
        // small offset that would silently read the wrong adjacency block.
        let idx = DosIndex::new(
            vec![DegreeGroup { degree: u32::MAX, first_id: 0, offset: u64::MAX }],
            u64::from(u32::MAX),
            u64::MAX,
        );
        assert_eq!(idx.offset_of(0).unwrap(), u64::MAX); // rank 0: base only
        let e = idx.offset_of(1).unwrap_err();
        assert!(matches!(e, GraphError::OffsetOverflow(_)), "got {e:?}");
        assert!(e.to_string().contains("eq1"), "{e}");
        assert!(matches!(idx.lookup(2), Err(GraphError::OffsetOverflow(_))));
    }
}
