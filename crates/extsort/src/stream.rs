//! Lazy merged output of an external sort.
//!
//! [`SortedStream`] is the pull side of [`ExternalSorter::sort_stream`]
//! (crate root): run formation has already happened eagerly; the stream
//! owns the (≤ fan-in) remaining run sources and merges them record by
//! record through a [`LoserTree`](crate::losertree::LoserTree). Consumers
//! drain it directly into the next pipeline stage — the DOS converter feeds
//! one sort's output straight into the next sort's run formation without an
//! intermediate file, so the merge drains while downstream work proceeds.
//!
//! Merge order is `(key, source index)` ascending. Sources are numbered in
//! spill order with the in-memory tail run last, which reproduces exactly
//! the `(key, run, seq)` order of the historical heap-based merge: a run is
//! internally sorted, so at most one record per run is ever pending and the
//! `seq` component can never decide a comparison.

use std::vec;

use graphz_io::RecordReader;
use graphz_types::{FixedCodec, Result};

/// One merge input: a spilled run file or the in-memory tail run.
pub(crate) enum RunSource<T: FixedCodec> {
    File(RecordReader<T>),
    Memory(vec::IntoIter<T>),
}

impl<T: FixedCodec> RunSource<T> {
    fn next(&mut self) -> Result<Option<T>> {
        match self {
            RunSource::File(r) => r.next_record(),
            RunSource::Memory(it) => Ok(it.next()),
        }
    }
}

/// Iterator over the globally sorted records of a completed run formation.
///
/// Yields `Result<T>`: scratch-file corruption or IO failure surfaces at
/// the record that hits it, after which the stream is exhausted.
pub struct SortedStream<'s, T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    sources: Vec<RunSource<T>>,
    /// Head record (and its key) of each source; `None` = exhausted.
    heads: Vec<Option<(K, T)>>,
    tree: crate::losertree::LoserTree,
    key: &'s F,
    total: u64,
}

impl<'s, T, K, F> SortedStream<'s, T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    pub(crate) fn new(
        mut sources: Vec<RunSource<T>>,
        key: &'s F,
        total: u64,
    ) -> Result<Self> {
        let mut heads = Vec::with_capacity(sources.len());
        for s in sources.iter_mut() {
            heads.push(s.next()?.map(|r| (key(&r), r)));
        }
        let tree = crate::losertree::LoserTree::new(heads.len(), |a, b| beats(&heads, a, b));
        Ok(SortedStream { sources, heads, tree, key, total })
    }

    /// Total number of records this stream will yield (known up front from
    /// run formation).
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// The next record in global sort order, or `None` when drained.
    pub fn next_record(&mut self) -> Result<Option<T>> {
        let Some(w) = self.tree.winner() else { return Ok(None) };
        let Some((_, rec)) = self.heads[w].take() else { return Ok(None) };
        self.heads[w] = self.sources[w].next()?.map(|r| ((self.key)(&r), r));
        let heads = &self.heads;
        self.tree.replay(w, &|a, b| beats(heads, a, b));
        Ok(Some(rec))
    }
}

/// Strict "source `a` merges before source `b`" relation: `(key, index)`
/// ascending, exhausted sources last.
fn beats<K: Ord, T>(heads: &[Option<(K, T)>], a: usize, b: usize) -> bool {
    match (&heads[a], &heads[b]) {
        (Some((ka, _)), Some((kb, _))) => (ka, a) < (kb, b),
        (Some(_), None) => true,
        (None, _) => false,
    }
}

impl<T, K, F> Iterator for SortedStream<'_, T, K, F>
where
    T: FixedCodec,
    K: Ord,
    F: Fn(&T) -> K,
{
    type Item = Result<T>;

    fn next(&mut self) -> Option<Result<T>> {
        self.next_record().transpose()
    }
}
