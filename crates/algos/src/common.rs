//! Shared algorithm definitions: parameters, result values, and the
//! numerical kernels every engine must agree on.

use graphz_types::prelude::*;

/// The six benchmarks of the paper's evaluation (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Breadth-first search: hop distance from a source.
    Bfs,
    /// Connected components: minimum-label propagation (undirected inputs).
    Cc,
    /// PageRank with damping 0.85.
    PageRank,
    /// Single-source shortest paths over derived edge weights.
    Sssp,
    /// Two-state loopy belief propagation, fixed rounds.
    Bp,
    /// Random-walk visit mass, fixed rounds.
    RandomWalk,
}

impl Algorithm {
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Bfs,
            Algorithm::Cc,
            Algorithm::PageRank,
            Algorithm::Sssp,
            Algorithm::Bp,
            Algorithm::RandomWalk,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bfs => "BFS",
            Algorithm::Cc => "CC",
            Algorithm::PageRank => "PR",
            Algorithm::Sssp => "SSSP",
            Algorithm::Bp => "BP",
            Algorithm::RandomWalk => "RW",
        }
    }

    /// Whether the algorithm expects a symmetrized (undirected) input, as
    /// the paper's CC benchmark does.
    pub fn wants_symmetrized(self) -> bool {
        matches!(self, Algorithm::Cc)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters shared by every engine's run of an algorithm.
#[derive(Debug, Clone, Copy)]
pub struct AlgoParams {
    pub algorithm: Algorithm,
    /// Source vertex (original id) for BFS / SSSP.
    pub source: VertexId,
    /// Iteration cap.
    pub max_iterations: u32,
    /// PageRank convergence tolerance.
    pub pr_tolerance: f32,
    /// Fixed rounds for RandomWalk / Belief Propagation.
    pub rounds: u32,
}

impl AlgoParams {
    pub fn new(algorithm: Algorithm) -> Self {
        AlgoParams { algorithm, source: 0, max_iterations: 100, pr_tolerance: 1e-4, rounds: 10 }
    }

    pub fn with_source(mut self, source: VertexId) -> Self {
        self.source = source;
        self
    }

    pub fn with_max_iterations(mut self, max: u32) -> Self {
        self.max_iterations = max;
        self
    }

    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }
}

/// Final per-vertex values, indexed by original vertex id.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoValues {
    /// BFS hop counts (`u32::MAX` = unreachable).
    Hops(Vec<u32>),
    /// Canonical component labels (minimum original id in the component).
    Labels(Vec<u32>),
    /// PageRank scores.
    Ranks(Vec<f32>),
    /// Shortest-path costs (`f32::INFINITY` = unreachable).
    Costs(Vec<f32>),
    /// Normalized two-state beliefs.
    Beliefs(Vec<[f32; 2]>),
    /// Random-walk visit mass.
    Visits(Vec<f32>),
}

impl AlgoValues {
    pub fn len(&self) -> usize {
        match self {
            AlgoValues::Hops(v) => v.len(),
            AlgoValues::Labels(v) => v.len(),
            AlgoValues::Ranks(v) => v.len(),
            AlgoValues::Costs(v) => v.len(),
            AlgoValues::Beliefs(v) => v.len(),
            AlgoValues::Visits(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum relative difference against another result of the same kind.
    ///
    /// Used by tests and the harness to confirm engines agree. Panics if the
    /// variants differ — that is a harness bug, not a data condition.
    pub fn max_relative_error(&self, other: &AlgoValues) -> f64 {
        fn rel(a: f64, b: f64) -> f64 {
            if a == b {
                return 0.0; // covers infinities and exact zeros
            }
            (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
        }
        match (self, other) {
            (AlgoValues::Hops(a), AlgoValues::Hops(b)) => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| if x == y { 0.0 } else { 1.0 })
                .fold(0.0, f64::max),
            (AlgoValues::Labels(a), AlgoValues::Labels(b)) => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| if x == y { 0.0 } else { 1.0 })
                .fold(0.0, f64::max),
            (AlgoValues::Ranks(a), AlgoValues::Ranks(b)) => {
                a.iter().zip(b).map(|(&x, &y)| rel(x as f64, y as f64)).fold(0.0, f64::max)
            }
            (AlgoValues::Costs(a), AlgoValues::Costs(b)) => {
                a.iter().zip(b).map(|(&x, &y)| rel(x as f64, y as f64)).fold(0.0, f64::max)
            }
            (AlgoValues::Beliefs(a), AlgoValues::Beliefs(b)) => a
                .iter()
                .zip(b)
                .flat_map(|(x, y)| [(x[0], y[0]), (x[1], y[1])])
                .map(|(x, y)| rel(x as f64, y as f64))
                .fold(0.0, f64::max),
            (AlgoValues::Visits(a), AlgoValues::Visits(b)) => {
                a.iter().zip(b).map(|(&x, &y)| rel(x as f64, y as f64)).fold(0.0, f64::max)
            }
            _ => panic!("comparing AlgoValues of different kinds"),
        }
    }
}

/// One run's final values as a single pass: `(original id, value)` for
/// every vertex, in the engine's storage order. A consumer holds only what
/// it keeps — the CLI's `--top K` listing keeps K rows — and
/// [`collect`](Self::collect) is the consumer that keeps all V.
pub struct ValueStream<'a, T> {
    num_vertices: u64,
    drive: StreamDriver<'a, T>,
}

/// Passes each `(original id, value)` to the callback it is handed and
/// returns how many it passed.
type StreamDriver<'a, T> = Box<dyn FnOnce(&mut dyn FnMut(VertexId, T)) -> Result<u64> + 'a>;

impl<'a, T> ValueStream<'a, T> {
    /// A stream of `num_vertices` values that `drive` produces. Every id it
    /// passes must be below `num_vertices`.
    pub fn new(
        num_vertices: u64,
        drive: impl FnOnce(&mut dyn FnMut(VertexId, T)) -> Result<u64> + 'a,
    ) -> Self {
        ValueStream { num_vertices, drive: Box::new(drive) }
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Pass every `(original id, value)` to `f`; returns the count.
    pub fn for_each(self, mut f: impl FnMut(VertexId, T)) -> Result<u64> {
        (self.drive)(&mut f)
    }

    /// Collect into a vector indexed by original id.
    pub fn collect(self) -> Result<Vec<T>>
    where
        T: Clone + Default,
    {
        let mut out = vec![T::default(); cast::to_usize(self.num_vertices, "vertex count")?];
        self.for_each(|id, value| out[cast::vertex_index(id)] = value)?;
        Ok(out)
    }
}

/// A finished run's values, streamed: the one-pass form of [`AlgoValues`].
pub enum ResultStream<'a> {
    Hops(ValueStream<'a, u32>),
    /// Raw min-fold labels: the vertices of one component share a label
    /// that is a vertex id in the engine's own id space (for GraphZ a
    /// storage id, below V). [`collect`](Self::collect) canonicalizes them.
    Labels(ValueStream<'a, u32>),
    Ranks(ValueStream<'a, f32>),
    Costs(ValueStream<'a, f32>),
    Beliefs(ValueStream<'a, [f32; 2]>),
    Visits(ValueStream<'a, f32>),
}

impl ResultStream<'_> {
    /// Collect into [`AlgoValues`] indexed by original id, with labels
    /// canonicalized: 4-8 bytes per vertex.
    pub fn collect(self) -> Result<AlgoValues> {
        Ok(match self {
            ResultStream::Hops(s) => AlgoValues::Hops(s.collect()?),
            ResultStream::Labels(s) => AlgoValues::Labels(canonicalize_labels(&s.collect()?)),
            ResultStream::Ranks(s) => AlgoValues::Ranks(s.collect()?),
            ResultStream::Costs(s) => AlgoValues::Costs(s.collect()?),
            ResultStream::Beliefs(s) => AlgoValues::Beliefs(s.collect()?),
            ResultStream::Visits(s) => AlgoValues::Visits(s.collect()?),
        })
    }
}

/// Canonicalize raw min-fold component labels: every vertex gets the
/// *minimum original id* of its component, making labels comparable across
/// engines that propagate labels in different id spaces (GraphZ propagates
/// storage ids, the baselines original ids — the partition into components
/// is what matters).
///
/// Labels below `raw.len()` — every engine's, since they are vertex ids —
/// index a dense table; a larger label falls back to a map.
pub fn canonicalize_labels(raw: &[u32]) -> Vec<u32> {
    let mut dense: Vec<u32> = vec![u32::MAX; raw.len()];
    let mut sparse: std::collections::HashMap<u32, u32> = Default::default();
    for (v, &label) in raw.iter().enumerate() {
        let rep = match dense.get_mut(label as usize) {
            Some(rep) => rep,
            None => sparse.entry(label).or_insert(u32::MAX),
        };
        *rep = (*rep).min(v as u32);
    }
    raw.iter()
        .map(|&label| match dense.get(label as usize) {
            Some(&rep) => rep,
            None => sparse[&label],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Numerical kernels shared by every engine implementation.
// ---------------------------------------------------------------------------

/// PageRank damping factor.
pub const PR_DAMPING: f32 = 0.85;

/// The non-normalized PageRank recurrence the paper's Eq. 2 uses:
/// `r = (1 - d) + d * sum(votes)`.
#[inline]
pub fn pr_rank(votes: f32) -> f32 {
    (1.0 - PR_DAMPING) + PR_DAMPING * votes
}

/// SSSP edge weight — every engine derives it from *original* endpoint ids
/// so no engine has to store weights (see `graphz_types::derive_weight`).
#[inline]
pub fn sssp_weight(src_original: VertexId, dst_original: VertexId) -> Weight {
    derive_weight(src_original, dst_original)
}

/// BP vertex prior in probability space, derived from the original id.
#[inline]
pub fn bp_prior(original_id: VertexId) -> [f32; 2] {
    let w = derive_weight(original_id, !original_id) - 1.0; // [0, 1)
    let p = 0.2 + 0.6 * w;
    [p, 1.0 - p]
}

/// The symmetric pairwise potential (agreement-favoring Potts model).
pub const BP_POTENTIAL: [[f32; 2]; 2] = [[0.7, 0.3], [0.3, 0.7]];

/// The log-domain message a vertex with `belief` sends its neighbors:
/// `ln(normalize(potential x belief))`.
#[inline]
pub fn bp_message(belief: [f32; 2]) -> [f32; 2] {
    let m0 = BP_POTENTIAL[0][0] * belief[0] + BP_POTENTIAL[0][1] * belief[1];
    let m1 = BP_POTENTIAL[1][0] * belief[0] + BP_POTENTIAL[1][1] * belief[1];
    let z = m0 + m1;
    [(m0 / z).ln(), (m1 / z).ln()]
}

/// Fold accumulated log-messages into a normalized belief:
/// `normalize(prior * exp(acc))`.
#[inline]
pub fn bp_combine(prior: [f32; 2], acc: [f32; 2]) -> [f32; 2] {
    let b0 = prior[0].ln() + acc[0];
    let b1 = prior[1].ln() + acc[1];
    // Subtract the max before exponentiating for numerical stability.
    let m = b0.max(b1);
    let e0 = (b0 - m).exp();
    let e1 = (b1 - m).exp();
    let z = e0 + e1;
    [e0 / z, e1 / z]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::all().len(), 6);
        assert_eq!(Algorithm::PageRank.name(), "PR");
        assert!(Algorithm::Cc.wants_symmetrized());
        assert!(!Algorithm::Bfs.wants_symmetrized());
        assert_eq!(Algorithm::Sssp.to_string(), "SSSP");
    }

    #[test]
    fn params_builder() {
        let p = AlgoParams::new(Algorithm::Bfs)
            .with_source(7)
            .with_max_iterations(5)
            .with_rounds(3);
        assert_eq!(p.source, 7);
        assert_eq!(p.max_iterations, 5);
        assert_eq!(p.rounds, 3);
    }

    #[test]
    fn relative_error_detects_differences() {
        let a = AlgoValues::Ranks(vec![1.0, 2.0]);
        let b = AlgoValues::Ranks(vec![1.0, 2.2]);
        let err = a.max_relative_error(&b);
        assert!(err > 0.05 && err < 0.15, "{err}");
        assert_eq!(a.max_relative_error(&a), 0.0);
        // Infinities compare equal to themselves.
        let c = AlgoValues::Costs(vec![f32::INFINITY]);
        assert_eq!(c.max_relative_error(&c), 0.0);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn relative_error_rejects_kind_mismatch() {
        AlgoValues::Ranks(vec![]).max_relative_error(&AlgoValues::Hops(vec![]));
    }

    #[test]
    fn canonical_labels_pick_min_member() {
        // Vertices 0,2 share label 9; vertices 1,3 share label 5.
        let raw = vec![9, 5, 9, 5];
        let canon = canonicalize_labels(&raw);
        assert_eq!(canon, vec![0, 1, 0, 1]);
    }

    #[test]
    fn canonical_labels_match_a_map_for_labels_past_the_table() {
        // The map the dense table replaced: the oracle for any label.
        fn by_map(raw: &[u32]) -> Vec<u32> {
            let mut rep: std::collections::HashMap<u32, u32> = Default::default();
            for (v, &label) in raw.iter().enumerate() {
                let entry = rep.entry(label).or_insert(u32::MAX);
                *entry = (*entry).min(v as u32);
            }
            raw.iter().map(|l| rep[l]).collect()
        }
        // Labels equal to and far past `len`, mixed with in-table ones.
        let raw = vec![100, 5, 100, 7, 5, u32::MAX, 2, u32::MAX];
        assert_eq!(canonicalize_labels(&raw), vec![0, 1, 0, 3, 1, 5, 6, 5]);
        assert_eq!(canonicalize_labels(&raw), by_map(&raw));
        let mut x = 12345u32;
        let raw: Vec<u32> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (x >> 16) % 700
            })
            .collect();
        assert_eq!(canonicalize_labels(&raw), by_map(&raw));
        assert_eq!(canonicalize_labels(&[]), Vec::<u32>::new());
    }

    #[test]
    fn bp_kernels_are_normalized() {
        let prior = bp_prior(42);
        assert!((prior[0] + prior[1] - 1.0).abs() < 1e-6);
        assert!(prior[0] > 0.19 && prior[0] < 0.81);
        let msg = bp_message([0.9, 0.1]);
        let back = [msg[0].exp(), msg[1].exp()];
        assert!((back[0] + back[1] - 1.0).abs() < 1e-6);
        let belief = bp_combine(prior, msg);
        assert!((belief[0] + belief[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pr_rank_formula() {
        assert!((pr_rank(0.0) - 0.15).abs() < 1e-7);
        assert!((pr_rank(1.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn sssp_weight_is_original_id_based() {
        assert_eq!(sssp_weight(3, 4), derive_weight(3, 4));
        assert!(sssp_weight(3, 4) >= 1.0 && sssp_weight(3, 4) < 2.0);
    }
}
