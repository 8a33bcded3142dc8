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
//! runs in bounded memory no matter the graph size. The source is parsed
//! straight into durable by-`(src, dst)` runs; one merge of them counts
//! out-degrees, and the new ids follow from the degree histogram (at most
//! [`unique_degree_bound`] entries) without a sort; a second merge yields
//! each source's edges together and builds the adjacency. When the id map
//! (4 bytes per vertex) fits the half of the budget a second sort would
//! hold ([`id_map_fits`]), the map stays in memory, and the histogram has
//! already fixed every source's Eq. 1 offset: the second merge relabels
//! each source's list from the map, sorts it in memory and writes it at
//! its offset, so the edges pass three times (parse, count, place) and no
//! sort of the whole edge set follows the source runs. Above that, the map
//! is streamed from `old2new.bin`: sources are relabeled by a co-scan,
//! destinations by a second one after a by-destination sort, and a final
//! sort by the new pair writes the files in order (a *pipeline* of lazy
//! sort merges, no intermediate file between a sort and its consumer). The
//! image bytes depend on neither the budget nor the path: every sort key
//! determines its record's bytes, so run boundaries cannot show in the
//! output, and a list's place is a function of the numbering (DESIGN.md
//! §6g); both paths number the vertices the same way. The records carry
//! only what the image needs: after the source runs an edge is two ids,
//! plus its weight when the image is weighted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphz_extsort::{ExternalSorter, Run, SortTimings};
use graphz_io::{
    ChecksummedWriter, FaultSurface, Fingerprint, IoStats, RecordReader, RecordWriter, ScratchDir,
    SurfaceWriter, TrackedFile,
};
use graphz_types::prelude::*;

use crate::edgelist::{
    quarantining, render_quarantine, strict, EdgeListFile, MatrixMarketEdges, TextEdges,
};
use crate::lanes::Lanes;
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
    pub(crate) fn eq1_offset(g: &DegreeGroup, v: VertexId) -> Result<u64> {
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
        // ipa:allow(fault-surface-reach)
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

/// Where the `runs` stage reads its edges from.
pub(crate) enum EdgeSource<'a> {
    /// A binary edge list, read in place.
    Binary(&'a EdgeListFile),
    /// SNAP-style text. With `Some(n)`, up to `n` malformed lines are
    /// quarantined into `quarantine.txt` beside the image instead of
    /// failing the conversion.
    Text { path: &'a Path, max_bad_records: Option<u64> },
    /// A Matrix Market coordinate file.
    MatrixMarket(&'a Path),
}

/// What an edge record of the stages after the degree pass carries beside
/// its two ids: nothing for an unweighted image, the edge's `f32` weight
/// under `--weighted`. The weight is a function of the *old* endpoint ids,
/// so it is taken once, where the adjacency stage still has both at hand,
/// and rides along to the write of `weights.bin` as four bytes.
pub(crate) trait Payload: Copy + Send + 'static {
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

/// An edge record of the adjacency stage: the sorted path's final runs
/// hold `(new_src, new_dst)` and its by-dst runs `(new_src, old_dst)`, an
/// oversize list's sort on the in-memory path `(new_src, new_dst)` too,
/// each followed by the payload.
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

/// Scratch bytes one sort's runs of `num_edges` `R` records take — the unit
/// of the DESIGN.md §6h pre-stage disk check's estimates, derived from the
/// record type so it tracks its size.
fn run_bytes<R: FixedCodec>(num_edges: u64) -> u64 {
    num_edges.saturating_mul(cast::len_u64(R::SIZE))
}

/// Whether a conversion of `num_vertices` ids under `budget` keeps the id
/// map in memory: 4 bytes per vertex within `budget.split(2)`, the half the
/// sorted path's by-destination sort would otherwise hold; the other half
/// holds the adjacency stage's write lanes and lists, or the sorted path's
/// final sort. Then the map is counted, numbered, inverted and applied in
/// memory; otherwise every stage streams it from `old2new.bin`. The image
/// is the same either way.
pub fn id_map_fits(budget: MemoryBudget, num_vertices: u64) -> bool {
    num_vertices.saturating_mul(4) <= budget.split(2).bytes()
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

/// The final sort's key, `(new_src, new_dst)`: one function for both
/// paths, so they share one sorter's code.
fn by_new_pair<P>(r: &StageEdge<P>) -> u64 {
    key2(r.src, r.dst)
}

/// The out-degree histogram: `(degree, number of sources with it)` for
/// every degree a source has, in descending degree. At most
/// `2 * sqrt(|E|)` entries ([`unique_degree_bound`]), so it stays in
/// memory like the index it becomes.
type Histogram = Vec<(Degree, u32)>;

/// The histogram as the `old2new` stage manifest records it:
/// `degree:count` pairs joined by commas.
fn render_histogram(hist: &[(Degree, u32)]) -> String {
    let pairs: Vec<String> = hist.iter().map(|(d, c)| format!("{d}:{c}")).collect();
    pairs.join(",")
}

/// Inverse of [`render_histogram`]; `None` for anything it did not write.
fn parse_histogram(s: &str) -> Option<Histogram> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|pair| {
            let (d, c) = pair.split_once(':')?;
            Some((d.parse().ok()?, c.parse().ok()?))
        })
        .collect()
}

/// The DOS index groups of a histogram (paper Tables VI and VII): each
/// degree's first new id is the number of sources with a larger degree,
/// its offset the edges they own. Vertices without out-edges follow as
/// one zero-degree group. The histogram must account for every edge.
fn degree_groups(hist: &[(Degree, u32)], num_vertices: u64, num_edges: u64) -> Result<Vec<DegreeGroup>> {
    let mut groups = Vec::with_capacity(hist.len() + 1);
    let (mut next_id, mut offset) = (0u64, 0u64);
    for &(degree, count) in hist {
        groups.push(DegreeGroup {
            degree,
            first_id: cast::to_u32(next_id, "dos first id of a degree group")?,
            offset,
        });
        next_id += cast::widen_u32(count);
        let owned = cast::mul_u64(cast::widen_u32(degree), cast::widen_u32(count), "dos group edges")?;
        offset = cast::add_u64(offset, owned, "dos group offset")?;
    }
    if offset != num_edges || next_id > num_vertices {
        return Err(GraphError::Corrupt(format!(
            "degree histogram covers {next_id} sources and {offset} edges, \
             the runs hold {num_vertices} vertices and {num_edges} edges"
        )));
    }
    // Zero-degree fill (paper: "we need to fill in those vertices with 0
    // degrees").
    if next_id < num_vertices {
        groups.push(DegreeGroup {
            degree: 0,
            first_id: cast::to_u32(next_id, "dos first zero-degree id")?,
            offset: num_edges,
        });
    }
    Ok(groups)
}

/// The next new id of every degree: `first_id[d] + seen[d]`, handed out in
/// ascending old id. That is exactly the numbering of a sort by `(degree
/// desc, old id asc)`, the paper's order with its ties broken
/// deterministically; an id with no out-edges takes the next zero-degree
/// id.
struct Numbering(BTreeMap<Degree, u32>);

impl Numbering {
    fn new(groups: &[DegreeGroup]) -> Self {
        Numbering(groups.iter().map(|g| (g.degree, g.first_id)).collect())
    }

    /// The new id of the next old id, whose out-degree is `degree`.
    fn assign(&mut self, degree: Degree) -> Result<u32> {
        let slot = self.0.get_mut(&degree).ok_or_else(|| {
            GraphError::Corrupt(format!("degree {degree} missing from the histogram"))
        })?;
        let id = *slot;
        // Saturating is exact: the histogram bounds every group, so a slot
        // never advances past the last id of its group.
        *slot = slot.saturating_add(1);
        Ok(id)
    }
}

/// The new id of `old` in the in-memory id map.
#[inline]
fn relabel(map: &[u32], old: u32) -> Result<u32> {
    map.get(cast::vertex_index(old))
        .copied()
        .ok_or_else(|| GraphError::Corrupt(format!("old id {old} beyond the id map")))
}

/// Invert the in-memory id map: `new2old[map[old]] = old`. A new id out of
/// range or taken twice is no bijection, so the map is corrupt.
fn invert(map: &[u32]) -> Result<Vec<u32>> {
    // No old id is u32::MAX: the vertex count itself fits a u32.
    const FREE: u32 = u32::MAX;
    let mut new2old = vec![FREE; map.len()];
    for (old, &new) in map.iter().enumerate() {
        let slot = new2old.get_mut(cast::vertex_index(new)).ok_or_else(|| {
            GraphError::Corrupt(format!("id map sends {old} to {new}, beyond {} ids", map.len()))
        })?;
        if *slot != FREE {
            return Err(GraphError::Corrupt(format!(
                "id map sends both {} and {old} to {new}",
                *slot
            )));
        }
        *slot = cast::usize_to_u32(old, "dos old id")?;
    }
    Ok(new2old)
}

/// Reads `old2new.bin` forward in step with a stream whose looked-up old
/// ids never decrease (paper: "with the mapping from oldid to newid, we
/// sequentially relabel"), so each co-scan reads the map once.
struct Old2NewScan {
    map: RecordReader<u32>,
    /// Old ids read so far; `cur` is the new id of old id `read - 1`.
    read: u64,
    cur: Option<u32>,
}

impl Old2NewScan {
    fn open(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Old2NewScan { map: RecordReader::open(path, stats)?, read: 0, cur: None })
    }

    /// The new id of `old`.
    fn new_id(&mut self, old: u32) -> Result<u32> {
        while self.read <= cast::widen_u32(old) {
            self.cur = self.map.next_record()?;
            self.read += 1;
        }
        self.cur.ok_or_else(|| GraphError::Corrupt("old2new.bin shorter than the id space".into()))
    }
}

/// Spill the edges of a source as the durable by-`(src, dst)` runs in
/// `dir`, counting the vertex id space (max id + 1) as they pass. Returns
/// the runs, the vertex count and the edge count.
fn spill_counting<K, F>(
    sorter: &ExternalSorter<Edge, K, F>,
    edges: impl Iterator<Item = Result<Edge>>,
    dir: &Path,
) -> Result<(Vec<Run>, u64, u64)>
where
    K: Ord,
    F: Fn(&Edge) -> K,
{
    let mut num_vertices = 0u64;
    let counted = edges.inspect(|e| {
        if let Ok(e) = e {
            num_vertices = num_vertices.max(cast::widen_u32(e.src.max(e.dst)) + 1);
        }
    });
    let (runs, num_edges) = sorter.spill_runs(counted, dir)?;
    Ok((runs, num_vertices, num_edges))
}

/// The merged source runs, one source's edges at a time: they arrive
/// together, in ascending old source id.
struct BySource<I> {
    edges: I,
    next: Option<Edge>,
}

impl<I: Iterator<Item = Result<Edge>>> BySource<I> {
    fn new(mut edges: I) -> Result<Self> {
        let next = edges.next().transpose()?;
        Ok(BySource { edges, next })
    }

    /// The old id of the next source, if any edge is left.
    fn source(&self) -> Option<u32> {
        self.next.map(|e| e.src)
    }

    /// The next edge of `src`, or `None` once its edges are taken.
    fn take(&mut self, src: u32) -> Result<Option<Edge>> {
        match self.next {
            Some(e) if e.src == src => {
                self.next = self.edges.next().transpose()?;
                Ok(Some(e))
            }
            _ => Ok(None),
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

/// The convert's stages in order, each committing `<stage>.manifest`.
const STAGES: [&str; 5] = ["runs", "old2new", "new2old", "adjacency", "emit"];
/// How many stages precede `adjacency`, the last one that merges the runs.
const BEFORE_ADJACENCY: usize = 3;


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
        self.sorter_within(self.budget.split(2), key, fan_in)
    }

    /// [`sorter`](Self::sorter) holding at most `budget`.
    fn sorter_within<T, K, F>(
        &self,
        budget: MemoryBudget,
        key: F,
        fan_in: Option<usize>,
    ) -> Result<ExternalSorter<T, K, F>>
    where
        T: FixedCodec,
        K: Ord,
        F: Fn(&T) -> K,
    {
        let mut b = ExternalSorter::builder(key)
            .budget(budget)
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

    /// The sorter of the durable source runs: edges by `(src, dst)`.
    fn by_src_sorter(&self) -> Result<ExternalSorter<Edge, u64, impl Fn(&Edge) -> u64>> {
        self.sorter(|e: &Edge| key2(e.src, e.dst), None)
    }

    /// Pre-stage disk check (DESIGN.md §6h): when a stage's scratch
    /// footprint cannot fit the disk budget, fail up front with a typed
    /// [`GraphError::StorageFull`] instead of dying mid-stage with scratch
    /// half-written.
    fn check_disk(&self, stage: &str, input_bytes: u64) -> Result<()> {
        let remaining = self.surface.disk().map_or(u64::MAX, |d| d.remaining());
        if input_bytes > remaining {
            return Err(GraphError::StorageFull(format!(
                "DOS stage `{stage}` needs about {input_bytes} scratch bytes but only \
                 {remaining} remain in the disk budget"
            )));
        }
        Ok(())
    }

    /// [`check_disk`](Self::check_disk) for a sort stage, whose scratch
    /// footprint is roughly its input bytes as run files plus, when the run
    /// count exceeds the merge fan-in, one more full copy for a pre-merge
    /// pass. When only the pre-merge copy no longer fits the disk budget,
    /// degrade gracefully: raise the fan-in so the merge runs in a single
    /// pass (more seeks, no extra copy).
    fn stage_fan_in(&self, stage: &str, input_bytes: u64) -> Result<Option<usize>> {
        let Some(disk) = self.surface.disk() else {
            return Ok(None);
        };
        self.check_disk(stage, input_bytes)?;
        if input_bytes.saturating_mul(2) > disk.remaining() {
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

    /// The stages a resume skips: the longest prefix of committed stage
    /// manifests, all loaded first (they are small), whose artifacts still
    /// verify. Only artifacts something reads again are re-read: every
    /// image file (`checksums.txt` lists its fingerprint) and the source
    /// runs when a stage that merges them will run. A damaged or unreadable
    /// artifact, an `old2new` manifest without its histogram, or an
    /// `adjacency` one of the other record shape (the other `--weighted`
    /// setting) ends the prefix, and every stage from there is redone.
    fn completed_stages<P: Payload>(&self, root: &Path, dir: &Path) -> Result<Vec<MetaFile>> {
        let record_bytes = cast::len_u64(StageEdge::<P>::SIZE);
        let mut done = Vec::new();
        let stages = if self.resume { &STAGES[..] } else { &[] };
        for &stage in stages {
            let path = root.join(format!("{stage}.manifest"));
            let Some(m) = MetaFile::load_stage(&path, stage, &self.stats)? else { break };
            match stage {
                "old2new" if m.get("histogram").and_then(parse_histogram).is_none() => break,
                "adjacency" if m.get_u64("record_bytes").ok() != Some(record_bytes) => break,
                _ => done.push(m),
            }
        }
        let damaged = |m: &MetaFile, base: &Path| {
            !m.files().all(|(name, _)| m.verify_file(name, &base.join(name), &self.stats).is_ok())
        };
        // Stage 0 left the runs in the scratch root; the others, image files.
        let mut kept = (1..done.len()).find(|&i| damaged(&done[i], dir)).unwrap_or(done.len());
        if (1..=BEFORE_ADJACENCY).contains(&kept) && damaged(&done[0], root) {
            kept = 0;
        }
        done.truncate(kept);
        Ok(done)
    }

    /// Run the full conversion of a binary edge list, producing
    /// `edges.bin`, `index.tbl`, `new2old.bin`, `old2new.bin`, and
    /// `meta.txt` under `dir`.
    ///
    /// The passes of §III-C run as five durable *stages* — `runs`,
    /// `old2new`, `new2old`, `adjacency`, `emit` — each of which commits a
    /// checksummed stage manifest ([`MetaFile::stage`]) into the stable
    /// scratch root when it completes (DESIGN.md §6h). A converter built
    /// with [`resume(true)`](DosConverterBuilder::resume) skips the stages
    /// `completed_stages` finds intact and redoes
    /// everything after them; because every stage is a deterministic
    /// function of the previous stages' files, the resumed directory is
    /// byte-identical to a clean run's.
    pub fn convert(&self, input: &EdgeListFile, dir: &Path) -> Result<DosGraph> {
        self.convert_from(EdgeSource::Binary(input), dir)
    }

    /// [`convert`](Self::convert) from any [`EdgeSource`]: text and Matrix
    /// Market sources are parsed straight into the `runs` stage.
    pub(crate) fn convert_from(&self, source: EdgeSource<'_>, dir: &Path) -> Result<DosGraph> {
        match self.weight_fn {
            None => self.convert_shaped(source, dir, |_, _| ()),
            Some(f) => self.convert_shaped(source, dir, f),
        }
    }

    /// Stage `runs`: parse the source (or read a binary edge list in place)
    /// straight into durable by-`(src, dst)` runs under `runs_dir`,
    /// pre-merged to at most the fan-in. Returns the runs, the vertex count
    /// (max id + 1, counted while parsing, or a binary edge list's own)
    /// and the edge count.
    fn runs_stage(
        &self,
        source: EdgeSource<'_>,
        runs_dir: &Path,
        dir: &Path,
    ) -> Result<(Vec<Run>, u64, u64)> {
        match std::fs::remove_dir_all(runs_dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(GraphError::from(e)).ctx("remove-dir", runs_dir),
        }
        std::fs::create_dir_all(runs_dir).ctx("create-dir", runs_dir)?;
        let sorter = self.by_src_sorter()?;
        let stats = || Arc::clone(&self.stats);
        match source {
            EdgeSource::Binary(input) => {
                let meta = input.meta();
                // A binary source knows its edge count up front; text
                // learns it only by parsing, so its first check is the next
                // stage's, on the counts this one commits.
                self.check_disk("runs", meta.num_edges.saturating_mul(cast::len_u64(Edge::SIZE)))?;
                let (runs, max_vertices, num_edges) =
                    spill_counting(&sorter, input.reader(stats())?, runs_dir)?;
                if num_edges != meta.num_edges || max_vertices > meta.num_vertices {
                    return Err(GraphError::Corrupt(format!(
                        "{} holds {num_edges} edges over {max_vertices} vertex ids, its \
                         metadata says {} edges and {} vertices",
                        input.path().display(),
                        meta.num_edges,
                        meta.num_vertices
                    )));
                }
                Ok((runs, meta.num_vertices, num_edges))
            }
            EdgeSource::Text { path, max_bad_records: None } => {
                spill_counting(&sorter, TextEdges::open(path, stats(), strict(path))?, runs_dir)
            }
            EdgeSource::Text { path, max_bad_records: Some(max_bad) } => {
                let mut bad = Vec::new();
                let edges = TextEdges::open(path, stats(), quarantining(path, &mut bad, max_bad))?;
                let spilled = spill_counting(&sorter, edges, runs_dir)?;
                if !bad.is_empty() {
                    // The quarantine report is part of the pipeline's fault
                    // surface: chaos sweeps can fail it like any other
                    // staged write.
                    self.surface.op("quarantine")?;
                    let report = dir.join("quarantine.txt");
                    graphz_io::write_atomic(&report, render_quarantine(&bad).as_bytes())
                        .ctx("write", &report)?;
                }
                Ok(spilled)
            }
            EdgeSource::MatrixMarket(path) => {
                spill_counting(&sorter, MatrixMarketEdges::open(path, stats())?, runs_dir)
            }
        }
    }

    /// Stage `old2new`, first half: merge the runs once, hand each source's
    /// old id and out-degree to `per_source` in old-id order, and count the
    /// degrees into the histogram.
    fn count_degrees(
        &self,
        runs: &[PathBuf],
        mut per_source: impl FnMut(u32, Degree) -> Result<()>,
    ) -> Result<Histogram> {
        let sorter = self.by_src_sorter()?;
        let mut edges = sorter.merge_runs(runs)?;
        let mut counts: BTreeMap<Degree, u32> = BTreeMap::new();
        let mut end_source = |src: u32, degree: u64| -> Result<()> {
            let degree = cast::to_u32(degree, "dos out-degree")?;
            per_source(src, degree)?;
            let count = counts.entry(degree).or_default();
            *count = count.checked_add(1).ok_or_else(|| {
                GraphError::OffsetOverflow("dos degree histogram count".into())
            })?;
            Ok(())
        };
        let mut cur: Option<(u32, u64)> = None;
        while let Some(e) = edges.next_record()? {
            cur = match cur {
                Some((src, degree)) if src == e.src => Some((src, degree + 1)),
                Some((src, degree)) => {
                    end_source(src, degree)?;
                    Some((e.src, 1))
                }
                None => Some((e.src, 1)),
            };
        }
        if let Some((src, degree)) = cur {
            end_source(src, degree)?;
        }
        Ok(counts.into_iter().rev().collect())
    }

    /// Stage `old2new` on the in-memory path: count every out-degree into
    /// a vector indexed by old id, derive the groups from the histogram,
    /// then overwrite the vector in place with the [`Numbering`] and write
    /// it as `old2new.bin` once. Returns the map, the histogram, the groups
    /// and the file's fingerprint.
    fn number_in_memory(
        &self,
        runs: &[PathBuf],
        num_vertices: u64,
        num_edges: u64,
        out: &Path,
    ) -> Result<(Vec<u32>, Histogram, Vec<DegreeGroup>, Fingerprint)> {
        // Old ids are u32s, so the id space must fit one (which also leaves
        // u32::MAX free as `invert`'s empty slot).
        cast::to_u32(num_vertices, "dos vertex count")?;
        let mut map = vec![0u32; cast::to_usize(num_vertices, "dos vertex count")?];
        let hist = self.count_degrees(runs, |src, degree| {
            let slot = map.get_mut(cast::vertex_index(src)).ok_or_else(|| {
                GraphError::Corrupt("DOS conversion saw a source id beyond num_vertices".into())
            })?;
            *slot = degree;
            Ok(())
        })?;
        let groups = degree_groups(&hist, num_vertices, num_edges)?;
        let mut numbering = Numbering::new(&groups);
        let mut w = RecordWriter::<u32, _>::from_writer(self.writer(out)?);
        for slot in &mut map {
            *slot = numbering.assign(*slot)?;
            w.push(slot)?;
        }
        Ok((map, hist, groups, seal(w)?))
    }

    /// Stage `old2new` on the sorted path, second half: walk the degree
    /// scratch file (one `(old id, degree)` per source with edges, in old-id
    /// order) and write `old2new.bin` with the [`Numbering`].
    fn write_old2new(
        &self,
        degrees_path: &Path,
        groups: &[DegreeGroup],
        num_vertices: u64,
        out: &Path,
    ) -> Result<Fingerprint> {
        let mut numbering = Numbering::new(groups);
        let mut degrees = RecordReader::<(u32, u32)>::open(degrees_path, Arc::clone(&self.stats))?;
        let mut w = RecordWriter::<u32, _>::from_writer(self.writer(out)?);
        let mut pending = degrees.next_record()?;
        for old in 0..cast::to_u32(num_vertices, "dos vertex count")? {
            let degree = match pending {
                Some((src, degree)) if src == old => {
                    pending = degrees.next_record()?;
                    degree
                }
                _ => 0,
            };
            w.push(&numbering.assign(degree)?)?;
        }
        if pending.is_some() {
            return Err(GraphError::Corrupt(
                "DOS conversion saw a source id beyond num_vertices".into(),
            ));
        }
        seal(w)
    }

    /// The in-memory id map: the one the `old2new` stage built, or — when
    /// a resume skipped that stage — `old2new.bin`, loaded once (its stage
    /// manifest has verified it).
    fn id_map<'m>(
        &self,
        map: &'m mut Option<Vec<u32>>,
        path: &Path,
        num_vertices: u64,
    ) -> Result<&'m [u32]> {
        let loaded = match map.take() {
            Some(m) => m,
            None => RecordReader::<u32>::open(path, Arc::clone(&self.stats))?.read_all()?,
        };
        if cast::len_u64(loaded.len()) != num_vertices {
            return Err(GraphError::Corrupt(format!(
                "old2new.bin maps {} ids, the runs hold {num_vertices}",
                loaded.len()
            )));
        }
        Ok(map.insert(loaded))
    }

    /// Stage `adjacency` when the id map fits (DESIGN.md §6g): merge the
    /// source runs, which yield each source's edges together in ascending
    /// old id, relabel each list's destinations from `ids`, sort it by new
    /// destination with its payload and hand it to the [`Lanes`], which
    /// write it at its Eq. 1 offset. The lanes and the list being sorted
    /// share the `budget.split(2)` the final sort of the other path holds,
    /// half each; a list larger than its half goes alone through a sorter
    /// of that half, then straight to its offset. Returns the fingerprints
    /// of `edges.bin` and `weights.bin` (when weighted).
    fn place_lists<P: Payload>(
        &self,
        runs: &[PathBuf],
        ids: &[u32],
        index: &DosIndex,
        dir: &Path,
        root: &Path,
        weigh: &impl Fn(VertexId, VertexId) -> P,
    ) -> Result<(Fingerprint, Option<Fingerprint>)> {
        let share = self.budget.split(2);
        let list_share = share.split(2);
        let weights_path = dir.join("weights.bin");
        let mut lanes = Lanes::<P>::create(
            index,
            share.bytes().saturating_sub(list_share.bytes()),
            &dir.join("edges.bin"),
            self.weight_fn.map(|_| weights_path.as_path()),
            &self.stats,
            &self.surface,
        )?;
        // A list in memory costs its `(dst, payload)` pairs and, written
        // out whole, their encoded bytes.
        let per_edge = cast::len_u64(std::mem::size_of::<(u32, P)>() + 4 + P::SIZE);
        let in_memory = list_share.bytes() / per_edge;
        let by_src_sorter = self.by_src_sorter()?;
        let mut sources = BySource::new(by_src_sorter.merge_runs(runs)?)?;
        let mut list: Vec<(u32, P)> = Vec::new();
        while let Some(src) = sources.source() {
            let new_src = relabel(ids, src)?;
            let lane = lanes.lane_of(new_src)?;
            let degree = lanes.degree(lane);
            if cast::widen_u32(degree) <= in_memory {
                // One edge past the degree is enough to fail the list.
                list.clear();
                list.reserve_exact(cast::degree_index(degree) + 1);
                while list.len() <= cast::degree_index(degree) {
                    let Some(e) = sources.take(src)? else { break };
                    list.push((relabel(ids, e.dst)?, weigh(e.src, e.dst)));
                }
                list.sort_unstable_by_key(|r| r.0);
                lanes.place(lane, new_src, &list)?;
            } else {
                // One source: the final sort's key orders by destination,
                // and equal destinations carry equal payloads, so the key
                // fixes the record (DESIGN.md §6g).
                let sorter = self.sorter_within(list_share, by_new_pair::<P>, None)?;
                let scratch = ScratchDir::new_in(root, "list").ctx("scratch", root)?;
                let relabeled = std::iter::from_fn(|| sources.take(src).transpose()).map(|e| {
                    let e = e?;
                    let dst = relabel(ids, e.dst)?;
                    Ok(StageEdge { src: new_src, dst, payload: weigh(e.src, e.dst) })
                });
                let mut sorted = sorter.sort_stream(relabeled, &scratch)?;
                lanes.begin(lane, new_src, sorted.total_records())?;
                while let Some(r) = sorted.next_record()? {
                    lanes.append(lane, r.dst, r.payload)?;
                }
            }
        }
        lanes.complete()
    }

    /// Stage `adjacency` on the sorted path: sources relabeled by
    /// co-scanning old2new.bin, the edges sorted by old dst, the
    /// destinations relabeled by a second co-scan into a final sort by the
    /// new pair, whose merge writes `edges.bin` and `weights.bin` in order.
    /// The by-dst runs coexist with the final sort's, which the pre-stage
    /// disk check counts. Returns the files' fingerprints.
    fn sort_lists<P: Payload>(
        &self,
        runs: &[PathBuf],
        old2new_path: &Path,
        num_edges: u64,
        dir: &Path,
        root: &Path,
        weigh: &impl Fn(VertexId, VertexId) -> P,
    ) -> Result<(Fingerprint, Option<Fingerprint>)> {
        let fan_in =
            self.stage_fan_in("adjacency", run_bytes::<StageEdge<P>>(num_edges).saturating_mul(2))?;
        let by_src_sorter = self.by_src_sorter()?;
        let final_sorter = self.sorter(by_new_pair::<P>, fan_in)?;
        let final_runs = ScratchDir::new_in(root, "final").ctx("scratch", root)?;
        let by_dst_sorter = self.sorter(|r: &StageEdge<P>| key2(r.dst, r.src), fan_in)?;
        let by_dst_runs = ScratchDir::new_in(root, "by-dst").ctx("scratch", root)?;
        let mut sources = Old2NewScan::open(old2new_path, Arc::clone(&self.stats))?;
        let src_relabeled = by_src_sorter.merge_runs(runs)?.map(|e| {
            let e = e?;
            Ok(StageEdge { src: sources.new_id(e.src)?, dst: e.dst, payload: weigh(e.src, e.dst) })
        });
        let by_dst = by_dst_sorter.sort_stream(src_relabeled, &by_dst_runs)?;
        let mut dests = Old2NewScan::open(old2new_path, Arc::clone(&self.stats))?;
        let relabeled = by_dst.map(|r| {
            let r = r?;
            Ok(StageEdge { dst: dests.new_id(r.dst)?, ..r })
        });
        // The by-dst runs drain fully into the final sort's runs here, and
        // go with their scratch dir.
        let mut final_sorted = final_sorter.sort_stream(relabeled, &final_runs)?;

        let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&dir.join("edges.bin"))?);
        let mut weights_w = match self.weight_fn {
            Some(_) => {
                Some(RecordWriter::<f32, _>::from_writer(self.writer(&dir.join("weights.bin"))?))
            }
            None => None,
        };
        let mut written: u64 = 0;
        while let Some(r) = final_sorted.next_record()? {
            w.push(&r.dst)?;
            if let (Some(ww), Some(weight)) = (&mut weights_w, r.payload.weight()) {
                ww.push(&weight)?;
            }
            written += 1;
        }
        if written != num_edges {
            return Err(GraphError::Corrupt(format!(
                "DOS conversion wrote {written} edges, expected {num_edges}"
            )));
        }
        let edges_fp = seal(w)?;
        Ok((edges_fp, weights_w.map(seal).transpose()?))
    }

    /// The body of [`convert_from`](Self::convert_from) for one record
    /// shape: `P` is `()` for an unweighted image and `f32` for a weighted
    /// one, whose value `weigh(old_src, old_dst)` the adjacency stage
    /// computes.
    ///
    /// Every sort key determines its record: the source runs' key is the
    /// whole edge; after the relabeling, `new_src` fixes `old_src` (a
    /// bijection) and the payload is a function of the old pair. Equal keys
    /// therefore mean equal bytes, and the output does not depend on how a
    /// sort orders ties (DESIGN.md §6g). The numbering itself is computed,
    /// not sorted: see [`write_old2new`](Self::write_old2new); and where the
    /// map fits, so is each list's place (`place_lists`).
    fn convert_shaped<P: Payload>(
        &self,
        source: EdgeSource<'_>,
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

        // A resume skips the stages `completed_stages` keeps; the first
        // other stage and every one after it (stale manifests of an older
        // attempt included) are redone and re-committed.
        let manifest_path = |stage: &str| root.join(format!("{stage}.manifest"));
        let done = self.completed_stages::<P>(&root, dir)?;
        let skipped = |stage: &str| done.iter().find(|m| m.get("stage") == Some(stage));

        // Stage `runs` (pass 1): the source parsed straight into durable
        // by-(src, dst) runs — every run a file, named relative to the
        // scratch root in the manifest — which the next stages merge, each
        // as often as it needs.
        let (runs, num_vertices, num_edges) = if let Some(m) = skipped("runs") {
            let runs: Vec<PathBuf> = m.files().map(|(name, _)| root.join(name)).collect();
            (runs, m.get_u64("num_vertices")?, m.get_u64("num_edges")?)
        } else {
            let (runs, num_vertices, num_edges) =
                self.runs_stage(source, &root.join("runs"), dir)?;
            let mut m = MetaFile::stage("runs");
            m.set("num_vertices", num_vertices);
            m.set("num_edges", num_edges);
            let mut paths = Vec::with_capacity(runs.len());
            for run in runs {
                let name = run.path.strip_prefix(&root).map_err(|_| {
                    GraphError::Corrupt(format!("run {} outside the scratch root", run.path.display()))
                })?;
                m.record_file(&name.to_string_lossy(), run.fingerprint);
                paths.push(run.path);
            }
            m.commit(&manifest_path("runs"), &self.surface)?;
            (paths, num_vertices, num_edges)
        };

        // Decided once, from the committed vertex count and the budget: the
        // id map either lives in memory through the adjacency stage or is
        // streamed from old2new.bin by every stage that needs it.
        let fits = id_map_fits(self.budget, num_vertices);
        let mut map: Option<Vec<u32>> = None;

        // Stage `old2new`: one merge of the runs counts every source's
        // degree — into the map itself, or into a degree scratch file on
        // the sorted path — and the in-memory histogram; the groups follow
        // from the histogram, and old2new.bin from the degrees in old-id
        // order. The histogram rides in the manifest, so a resumed run
        // rebuilds the groups without re-reading anything.
        let old2new_path = dir.join("old2new.bin");
        let (old2new_fp, groups) = if let Some(m) = skipped("old2new") {
            let hist = m.get("histogram").and_then(parse_histogram).ok_or_else(|| {
                GraphError::Corrupt("old2new manifest lacks its histogram".into())
            })?;
            (m.file("old2new.bin")?, degree_groups(&hist, num_vertices, num_edges)?)
        } else {
            let (hist, groups, fp) = if fits {
                // 4 bytes per vertex in old2new.bin.
                self.check_disk("old2new", num_vertices.saturating_mul(4))?;
                let (numbered, hist, groups, fp) =
                    self.number_in_memory(&runs, num_vertices, num_edges, &old2new_path)?;
                map = Some(numbered);
                (hist, groups, fp)
            } else {
                // 8 scratch bytes per source with edges, 4 per vertex in
                // old2new.bin.
                self.check_disk("old2new", num_vertices.saturating_mul(12))?;
                let degrees_path = root.join("degrees.bin");
                let mut w =
                    RecordWriter::<(u32, u32), _>::from_writer(self.writer(&degrees_path)?);
                let hist = self.count_degrees(&runs, |src, degree| w.push(&(src, degree)))?;
                seal(w)?;
                let groups = degree_groups(&hist, num_vertices, num_edges)?;
                let fp = self.write_old2new(&degrees_path, &groups, num_vertices, &old2new_path)?;
                (hist, groups, fp)
            };
            let mut m = MetaFile::stage("old2new");
            m.set("histogram", render_histogram(&hist));
            m.record_file("old2new.bin", fp);
            m.commit(&manifest_path("old2new"), &self.surface)?;
            if !fits {
                let _ = std::fs::remove_file(root.join("degrees.bin"));
            }
            (fp, groups)
        };

        // Stage `new2old`: old2new inverted — in memory when the map fits,
        // else by an external sort of `(new, old)` pairs whose merge drains
        // directly into the new2old writer.
        let new2old_path = dir.join("new2old.bin");
        let new2old_fp = if let Some(m) = skipped("new2old") {
            m.file("new2old.bin")?
        } else {
            let fp = if fits {
                self.check_disk("new2old", num_vertices.saturating_mul(4))?;
                let inverse = invert(self.id_map(&mut map, &old2new_path, num_vertices)?)?;
                let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&new2old_path)?);
                w.push_all(inverse.iter())?;
                seal(w)?
            } else {
                let fan_in = self.stage_fan_in("new2old", num_vertices.saturating_mul(16))?;
                let by_new_sorter = self.sorter(|p: &(u32, u32)| p.0, fan_in)?;
                let by_new_runs = ScratchDir::new_in(&root, "pairs").ctx("scratch", &root)?;
                let olds = RecordReader::<u32>::open(&old2new_path, Arc::clone(&self.stats))?;
                let pairs = olds.enumerate().map(|(old, new)| -> Result<(u32, u32)> {
                    // The old2new stage already proved num_vertices fits u32.
                    Ok((new?, cast::usize_to_u32(old, "dos old id")?))
                });
                let mut by_new = by_new_sorter.sort_stream(pairs, &by_new_runs)?;
                let mut w = RecordWriter::<u32, _>::from_writer(self.writer(&new2old_path)?);
                while let Some((_, old)) = by_new.next_record()? {
                    w.push(&old)?;
                }
                seal(w)?
            };
            let mut m = MetaFile::stage("new2old");
            m.record_file("new2old.bin", fp);
            m.commit(&manifest_path("new2old"), &self.surface)?;
            fp
        };

        // The in-memory DOS index: Eq. 1 places every list, and emit
        // writes it.
        let index = DosIndex::new(groups, num_vertices, num_edges);

        // Stage `adjacency`: merge the runs a second time, relabel each
        // edge and take its payload while both old ids are at hand, and
        // write the adjacency file (destination ids only; offsets are
        // computed by Eq. 1) plus, when requested, the parallel per-edge
        // weight file from the records' payload. When the map fits, each
        // source's list is relabeled from it, sorted in memory and written
        // at its Eq. 1 offset (`place_lists`); no sort of the whole edge
        // set runs. Otherwise the lists go through two sorts
        // (`sort_lists`).
        let record_bytes = cast::len_u64(StageEdge::<P>::SIZE);
        let (edges_fp, weights_fp) = if let Some(m) = skipped("adjacency") {
            let weights_fp = self.weight_fn.map(|_| m.file("weights.bin")).transpose()?;
            (m.file("edges.bin")?, weights_fp)
        } else {
            let (edges_fp, weights_fp) = if fits {
                // No scratch: the image itself, 4 B per edge and the
                // weight's 4 more when weighted.
                let image_bytes = num_edges.saturating_mul(4 + cast::len_u64(P::SIZE));
                self.check_disk("adjacency", image_bytes)?;
                let ids = self.id_map(&mut map, &old2new_path, num_vertices)?;
                self.place_lists(&runs, ids, &index, dir, &root, &weigh)?
            } else {
                self.sort_lists(&runs, &old2new_path, num_edges, dir, &root, &weigh)?
            };
            let mut m = MetaFile::stage("adjacency");
            m.set("written", num_edges);
            m.set("record_bytes", record_bytes);
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
        let dos_meta = GraphMeta {
            num_vertices,
            num_edges,
            unique_degrees: index.unique_degrees(),
            max_degree: index.groups().first().map_or(0, |g| cast::widen_u32(g.degree)),
        };
        if skipped("emit").is_none() {
            let mut w =
                RecordWriter::<DegreeGroup, _>::from_writer(self.writer(&dir.join("index.tbl"))?);
            w.push_all(index.groups().iter())?;
            let index_fp = seal(w)?;
            let mut mf = MetaFile::new();
            mf.set("format", "dos")
                .set("weighted", if self.weight_fn.is_some() { 1 } else { 0 })
                .set_graph_meta(&dos_meta);
            let meta_fp =
                mf.save_with(&dir.join("meta.txt"), &self.surface, "save-meta:meta.txt")?;

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
                sums.record_file(name, fp);
            }
            let sums_path = dir.join("checksums.txt");
            let sums_fp = sums.save_with(&sums_path, &self.surface, "save-meta:checksums.txt")?;

            let mut m = MetaFile::stage("emit");
            m.record_file("index.tbl", index_fp);
            m.record_file("meta.txt", meta_fp);
            m.record_file("checksums.txt", sums_fp);
            m.commit(&manifest_path("emit"), &self.surface)?;
        }

        // Everything durable: the scratch root (source runs, intermediate
        // artifacts and stage manifests) has served its purpose.
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
        let mf = MetaFile::load(&dir.join("meta.txt"), &stats)?;
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

        // A stage without a sort only fails or passes.
        conv.check_disk("old2new", 1000).unwrap();
        assert!(matches!(conv.check_disk("old2new", 1001), Err(GraphError::StorageFull(_))));

        // The estimates follow the stage record types: the sorted path's
        // adjacency stage holds two sorts' runs of edge records — two ids,
        // plus the weight in a weighted image.
        let adjacency = |weighted: bool, edges: u64| {
            let bytes = if weighted {
                run_bytes::<StageEdge<f32>>(edges) * 2
            } else {
                run_bytes::<StageEdge<()>>(edges) * 2
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

    /// The map fits when its 4 bytes per vertex fit half the budget, and
    /// not one vertex more.
    #[test]
    fn id_map_fits_up_to_half_the_budget() {
        let budget = MemoryBudget::from_mib(8);
        let boundary = budget.bytes() / 2 / 4;
        assert!(id_map_fits(budget, boundary));
        assert!(!id_map_fits(budget, boundary + 1));
        assert!(id_map_fits(MemoryBudget(2048), 256));
        assert!(!id_map_fits(MemoryBudget(2048), 257));
        assert!(id_map_fits(MemoryBudget(64), 0));
        assert!(!id_map_fits(MemoryBudget(64), u64::MAX));
        // The benchmark's scale-19 id space: fits the 8 MiB default, not 1 MiB.
        assert!(id_map_fits(budget, 1 << 19));
        assert!(!id_map_fits(MemoryBudget::from_mib(1), 1 << 19));
    }

    /// Inverting the in-memory map needs a bijection: a new id out of
    /// range or taken twice is corruption, typed.
    #[test]
    fn inverting_a_map_that_is_no_bijection_is_corrupt() {
        assert_eq!(invert(&[2, 0, 1]).unwrap(), vec![1, 2, 0]);
        assert!(invert(&[]).unwrap().is_empty());
        let err = invert(&[0, 3, 1]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("sends 1 to 3"), "{err}");
        let err = invert(&[1, 0, 1]).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("both 0 and 2 to 1"), "{err}");
        assert!(matches!(relabel(&[1, 0], 2), Err(GraphError::Corrupt(_))));
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

    /// The adjacency stage's records are 8 bytes unweighted and 12
    /// weighted, so a resume that switches `--weighted` must redo the
    /// adjacency stage — and emit after it — while the shape-free stages
    /// before it stand, and produce the bytes of a fresh run with the new
    /// setting.
    #[test]
    fn resume_with_the_other_record_shape_redoes_the_adjacency_stage() {
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
        let manifest = |stage: &str| std::fs::read(root.join(format!("{stage}.manifest"))).unwrap();
        let clean_dir = dir.path().join("clean");
        DosConverter::new(MemoryBudget::from_kib(1), stats())
            .with_weights(graphz_types::derive_weight)
            .convert(&el, &clean_dir)
            .unwrap();
        for (first, then) in [(false, true), (true, false)] {
            let out = dir.path().join(format!("dos-{first}-{then}"));
            converter(first, false).convert(&el, &out).unwrap();
            let kept = ["runs", "old2new", "new2old"].map(manifest);
            let adjacency = manifest("adjacency");
            let resumed = converter(then, true).convert(&el, &out).unwrap();
            assert_eq!(resumed.has_weights(), then);
            assert_eq!(["runs", "old2new", "new2old"].map(manifest), kept, "{first} then {then}");
            assert_ne!(manifest("adjacency"), adjacency, "{first} then {then}: adjacency kept");
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

    /// A hub whose list is longer than the list half of the adjacency
    /// stage's share (a star with repeated edges) goes alone through a sort
    /// of that half, which spills, then to its offset: the image is the one
    /// a 64 MiB build writes, weighted or not, and the only bytes written
    /// beyond the source runs and the image are that sort's runs.
    #[test]
    fn an_oversize_list_is_sorted_alone_to_the_same_bytes() {
        let mut edges: Vec<Edge> = (0..2000u32).map(|i| Edge::new(7, (i * 37) % 300)).collect();
        let mut x: u64 = 99;
        for _ in 0..1500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            edges.push(Edge::new(((x >> 33) % 300) as u32, ((x >> 17) % 300) as u32));
        }
        let e = edges.len() as u64;
        let dir = ScratchDir::new("dos-hub").unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        // 4 KiB: the stage's share is 2048 bytes, which the 1200-byte id map
        // fits; the list half is 1024 bytes, 128 edges at 8 bytes each (a
        // pair and its encoding), 64 weighted.
        let small = MemoryBudget::from_kib(4);
        assert!(id_map_fits(small, 300));
        for weighted in [false, true] {
            let build = |budget: MemoryBudget, name: &str| {
                let io = stats();
                let mut c = DosConverter::new(budget, Arc::clone(&io));
                if weighted {
                    c = c.with_weights(graphz_types::derive_weight);
                }
                let out = dir.path().join(format!("{name}-{weighted}"));
                let hub = u64::from(c.convert(&el, &out).unwrap().index().degree_of(0));
                assert!(hub >= 2000, "the hub is new id 0");
                (out, hub, io.snapshot().bytes_written)
            };
            let (want, ..) = build(MemoryBudget::from_mib(64), "reference");
            let (got, hub, written) = build(small, "hub");
            assert_eq!(dir_contents(&got), dir_contents(&want), "weighted {weighted}");
            // The hub sort's runs at 1024 bytes: full runs of 128 records of
            // 8 bytes (85 of 12 weighted); the last partial run stays in
            // memory.
            let (record, per_run) = if weighted { (12, 85) } else { (8, 128) };
            let hub_runs = hub / per_run * per_run * record;
            let image: u64 = ["edges.bin", "weights.bin", "index.tbl", "old2new.bin", "new2old.bin"]
                .iter()
                .filter_map(|f| std::fs::metadata(got.join(f)).ok())
                .map(|m| m.len())
                .sum();
            assert_eq!(written, 8 * e + image + hub_runs, "weighted {weighted}");
        }
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
