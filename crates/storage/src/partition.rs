//! Memory-budget-driven vertex partitioning.
//!
//! Out-of-core engines split the vertex space into contiguous ranges
//! ("partitions") whose per-vertex state fits in memory (paper §III-E:
//! "vertices are divided into partitions — disjoint sets of vertices which
//! can all fit in memory at once"). Partitions are uniform vertex ranges, so
//! the owner of a vertex is one integer division — the operation GraphZ's
//! message interception performs on every send.
//!
//! This module also computes the paper's Fig. 2 statistic: the fraction of
//! edges whose *both* endpoints land in the top-n% of vertices, which is how
//! the paper quantifies DOS's locality benefit (high-degree vertices cluster
//! in the first partition, so their heavy message traffic stays in memory).

use std::sync::Arc;

use graphz_io::{IoStats, RecordReader};
use graphz_types::prelude::*;

use crate::dos::DosGraph;

/// A division of `0..num_vertices` into equal-width contiguous ranges (the
/// last may be short).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSet {
    num_vertices: u64,
    per_partition: u64,
    num_partitions: u32,
}

impl PartitionSet {
    /// Split `num_vertices` into partitions of at most `per_partition`
    /// vertices.
    pub fn with_width(num_vertices: u64, per_partition: u64) -> Self {
        assert!(per_partition > 0, "partition width must be positive");
        let num_partitions = cast::to_u32(num_vertices.div_ceil(per_partition).max(1), "partition count")
            .expect("partition count bounded by the u32 id space");
        PartitionSet { num_vertices, per_partition, num_partitions }
    }

    /// Split into exactly `n` equal partitions.
    pub fn with_count(num_vertices: u64, n: u32) -> Self {
        assert!(n > 0, "partition count must be positive");
        let per = num_vertices.div_ceil(cast::widen_u32(n)).max(1);
        Self::with_width(num_vertices, per)
    }

    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn per_partition(&self) -> u64 {
        self.per_partition
    }

    /// Which partition owns vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> u32 {
        debug_assert!(cast::widen_u32(v) < self.num_vertices);
        // The quotient is <= v, which already fits u32.
        cast::to_u32(cast::widen_u32(v) / self.per_partition, "partition of vertex")
            .expect("quotient bounded by the vertex id")
    }

    /// Vertex range `[start, end)` of partition `p`.
    #[inline]
    pub fn range(&self, p: u32) -> (VertexId, VertexId) {
        debug_assert!(p < self.num_partitions);
        // Saturating keeps the intermediate in-range; the `min` below then
        // clamps to num_vertices, which the constructor proved fits u32.
        let start = cast::widen_u32(p).saturating_mul(self.per_partition);
        let end = start.saturating_add(self.per_partition).min(self.num_vertices);
        (
            cast::to_u32(start.min(self.num_vertices), "partition start")
                .expect("vertex range bounds fit u32"),
            cast::to_u32(end, "partition end").expect("vertex range bounds fit u32"),
        )
    }

    /// Number of vertices in partition `p`.
    pub fn size(&self, p: u32) -> u64 {
        let (a, b) = self.range(p);
        cast::widen_u32(b - a)
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, VertexId, VertexId)> + '_ {
        (0..self.num_partitions).map(move |p| {
            let (a, b) = self.range(p);
            (p, a, b)
        })
    }
}

/// Computes partition layouts from memory budgets.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    budget: MemoryBudget,
    /// Fraction of the budget available for the resident vertex array; the
    /// rest is reserved for message buffers and pipeline blocks.
    vertex_fraction: f64,
}

impl Partitioner {
    pub fn new(budget: MemoryBudget) -> Self {
        Partitioner { budget, vertex_fraction: 0.5 }
    }

    pub fn with_vertex_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        self.vertex_fraction = fraction;
        self
    }

    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Lay out partitions for `num_vertices` vertices of `vertex_bytes`
    /// resident state each.
    pub fn layout(&self, num_vertices: u64, vertex_bytes: usize) -> PartitionSet {
        let resident = cast::fraction_of(self.budget.bytes(), self.vertex_fraction);
        let per = (resident / cast::len_u64(vertex_bytes.max(1))).max(1);
        PartitionSet::with_width(num_vertices, per)
    }
}

/// Fig. 2: for each cutoff `c` (a vertex count), the fraction of edges whose
/// source **and** destination both have new-id `< c`.
///
/// One sequential pass over `edges.bin`; sources are recovered by walking the
/// DOS index's degree runs ([`DosIndex::degree_runs`](crate::DosIndex::degree_runs)).
pub fn in_partition_message_cdf(
    dos: &DosGraph,
    cutoffs: &[u64],
    stats: Arc<IoStats>,
) -> Result<Vec<f64>> {
    assert!(cutoffs.windows(2).all(|w| w[0] <= w[1]), "cutoffs must be ascending");
    let meta = dos.meta();
    let num_edges = meta.num_edges;
    // first_hit[k] = number of edges whose max(src, dst) falls in
    // [cutoffs[k-1], cutoffs[k]); suffix-summed below.
    let mut first_hit = vec![0u64; cutoffs.len() + 1];
    let mut reader = RecordReader::<u32>::open(&dos.edges_path(), stats)?;
    let num_vertices = cast::to_u32(meta.num_vertices, "fig2 vertex count")?;
    'walk: for (first, end, degree) in dos.index().degree_runs(0, num_vertices)? {
        for v in first..end {
            for _ in 0..degree {
                let Some(dst) = reader.next() else { break 'walk };
                let m = cast::widen_u32(v.max(dst?));
                first_hit[cutoffs.partition_point(|&c| c <= m)] += 1;
            }
        }
    }
    // counts[k] = edges with max endpoint < cutoffs[k] = prefix sum.
    let mut out = Vec::with_capacity(cutoffs.len());
    let mut acc = 0u64;
    for (k, _) in cutoffs.iter().enumerate() {
        acc += first_hit[k];
        out.push(if num_edges == 0 { 0.0 } else { acc as f64 / num_edges as f64 });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::DosConverter;
    use crate::edgelist::EdgeListFile;
    use graphz_io::ScratchDir;
    use graphz_types::Edge;

    #[test]
    fn uniform_partition_math() {
        let p = PartitionSet::with_width(100, 30);
        assert_eq!(p.num_partitions(), 4);
        assert_eq!(p.range(0), (0, 30));
        assert_eq!(p.range(3), (90, 100));
        assert_eq!(p.size(3), 10);
        assert_eq!(p.partition_of(0), 0);
        assert_eq!(p.partition_of(29), 0);
        assert_eq!(p.partition_of(30), 1);
        assert_eq!(p.partition_of(99), 3);
        let ranges: Vec<_> = p.iter().collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[1], (1, 30, 60));
    }

    #[test]
    fn with_count_splits_evenly() {
        let p = PartitionSet::with_count(100, 3);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.per_partition(), 34);
        assert_eq!(p.range(2), (68, 100));
    }

    #[test]
    fn every_vertex_has_exactly_one_partition() {
        let p = PartitionSet::with_width(1000, 77);
        let mut seen = vec![false; 1000];
        for (part, a, b) in p.iter() {
            for v in a..b {
                assert!(!seen[v as usize], "vertex {v} in two partitions");
                seen[v as usize] = true;
                assert_eq!(p.partition_of(v), part);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_graph_gets_one_partition() {
        let p = PartitionSet::with_width(0, 10);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.range(0), (0, 0));
    }

    #[test]
    fn partitioner_respects_budget() {
        // 1 KiB budget, half for vertices, 8-byte vertex state => 64/partition.
        let layout = Partitioner::new(MemoryBudget::from_kib(1)).layout(1000, 8);
        assert_eq!(layout.per_partition(), 64);
        assert_eq!(layout.num_partitions(), 16);
        // Everything fits => single partition.
        let one = Partitioner::new(MemoryBudget::from_mib(1)).layout(1000, 8);
        assert_eq!(one.num_partitions(), 1);
    }

    #[test]
    fn partitioner_fraction() {
        let layout = Partitioner::new(MemoryBudget::from_kib(1))
            .with_vertex_fraction(1.0)
            .layout(1000, 8);
        assert_eq!(layout.per_partition(), 128);
    }

    #[test]
    fn message_cdf_monotone_and_exact_on_star() {
        // Star: vertex 0 points at 1..=9 and they all point back.
        let mut edges: Vec<Edge> = Vec::new();
        for i in 1..10u32 {
            edges.push(Edge::new(0, i));
            edges.push(Edge::new(i, 0));
        }
        let dir = ScratchDir::new("cdf").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        // New id 0 is the hub (degree 9); spokes have degree 1.
        let cdf =
            in_partition_message_cdf(&dos, &[1, 2, 5, 10], Arc::clone(&stats)).unwrap();
        assert_eq!(cdf.len(), 4);
        // cutoff 1: only vertex {0}: no edge has both endpoints < 1.
        assert_eq!(cdf[0], 0.0);
        // cutoff 2: vertices {0,1}: edges 0<->1 qualify = 2 of 18.
        assert!((cdf[1] - 2.0 / 18.0).abs() < 1e-9);
        // cutoff 10: everything.
        assert_eq!(cdf[3], 1.0);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "CDF must be monotone");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn message_cdf_rejects_unsorted_cutoffs() {
        let dir = ScratchDir::new("cdf-bad").unwrap();
        let stats = IoStats::new();
        let el =
            EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), vec![Edge::new(0, 1)])
                .unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let _ = in_partition_message_cdf(&dos, &[5, 1], stats);
    }
}
