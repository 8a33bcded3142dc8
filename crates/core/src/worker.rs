//! The Worker stage (paper §V, Fig. 4).
//!
//! The Worker applies `program.update` over the resident partition in
//! ascending vertex order, on the engine thread. Each partition runs as one
//! [`ShardState`] — its whole vertex range — so every in-partition dynamic
//! message applies mid-sweep, the paper's sequential-equivalent schedule.
//! A partition's pending messages are replayed into its slab before the
//! Worker starts ([`replay`]). Messages it cannot apply in place go to the
//! MsgManager as they are sent, one `defer` per message, so which of them
//! spill depends only on the send sequence and the MsgManager's cap. The
//! only overlap is around the Worker, never inside it: the Sio read-ahead
//! thread streams adjacency ahead of it and the prefetcher loads the next
//! partition.

use std::sync::Arc;

use graphz_types::{cast, GraphError, Result, VertexId};

use crate::msgmanager::MsgManager;
use crate::program::{Outgoing, UpdateContext, VertexProgram};
use crate::sio::{ActiveSet, AdjBatch, BatchPool};

/// Apply one replayed message to the slab of the partition whose first
/// vertex is `first`. `false` when `dst` is not one of the slab's vertices:
/// the caller reports where the message came from.
pub fn replay<P: VertexProgram>(
    program: &P,
    first: VertexId,
    slab: &mut [P::VertexData],
    dst: VertexId,
    msg: &P::Message,
) -> bool {
    match slab.get_mut(dst.wrapping_sub(first) as usize) {
        Some(slot) => {
            program.apply_message(dst, slot, msg);
            true
        }
        None => false,
    }
}

/// One partition's vertex slab, plus the counters its updates produced.
pub struct ShardState<P: VertexProgram> {
    first: VertexId,
    /// State of the partition's vertices, `first..first + data.len()`.
    data: Vec<P::VertexData>,
    changed: u64,
    sent: u64,
    dynamic_applied: u64,
    /// Messages addressed outside `0..num_vertices`, dropped at routing and
    /// reported by the engine as a typed error at the partition barrier.
    rejected: u64,
    iteration: u32,
    num_vertices: u64,
    dynamic: bool,
    /// Uniform partition width, for routing deferred messages to their
    /// destination partition.
    per_partition: u64,
    outbox: Vec<Outgoing<P::Message>>,
}

impl<P: VertexProgram> ShardState<P> {
    fn start(job: ShardStart<P>) -> Self {
        ShardState {
            first: job.first,
            data: job.data,
            changed: 0,
            sent: 0,
            dynamic_applied: 0,
            rejected: 0,
            iteration: job.iteration,
            num_vertices: job.num_vertices,
            dynamic: job.dynamic,
            per_partition: job.per_partition.max(1),
            outbox: Vec::new(),
        }
    }

    /// Update every vertex of `batch` and route what each update sent
    /// (paper Alg. 7): a destination inside this partition is applied at
    /// once when dynamic messages are on; any other in-range destination is
    /// deferred to the MsgManager for its partition, a pure function of
    /// `dst` and the partition width. An [`Outgoing::Neighbors`] broadcast
    /// is expanded here, neighbor by neighbor, into that same
    /// apply-or-defer, so it never touches the outbox per edge.
    ///
    /// The partition's bounds, slab and counters live in locals for the
    /// whole batch, so a `defer` never forces them to be reloaded from
    /// `self`. A spill that fails is held by the MsgManager and returned
    /// once the batch is done.
    fn process(
        &mut self,
        program: &P,
        batch: &AdjBatch,
        msgs: &mut MsgManager<P::Message>,
    ) -> Result<()> {
        let (first, dynamic) = (self.first, self.dynamic);
        let (iteration, num_vertices, per_partition) =
            (self.iteration, self.num_vertices, self.per_partition);
        let data = self.data.as_mut_slice();
        let outbox = &mut self.outbox;
        let (mut changed, mut sent, mut dynamic_applied, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let mut route = |data: &mut [P::VertexData], dst: VertexId, msg: &P::Message| {
            // Dynamic fast path: the destination is resident in this
            // partition. One unsigned compare both tests residency and
            // bounds the index.
            let own = if dynamic { data.get_mut(dst.wrapping_sub(first) as usize) } else { None };
            if let Some(slot) = own {
                program.apply_message(dst, slot, msg);
                dynamic_applied += 1;
                return;
            }
            // Anything past the last vertex is the program's bug, reported
            // at the barrier.
            let dst_wide = cast::widen_u32(dst);
            if dst_wide >= num_vertices {
                rejected += 1;
                return;
            }
            // ipa:allow(panic-freedom) — per_partition is clamped to >= 1 in start
            let p = (dst_wide / per_partition) as u32;
            msgs.defer(p, dst, msg.clone());
        };
        for (v, neighbors, weights) in batch.vertices_weighted() {
            let mut ctx = UpdateContext {
                iteration,
                num_vertices,
                neighbors,
                weights,
                outbox: &mut *outbox,
                changed: false,
            };
            // ipa:allow(panic-freedom) — Sio streams only this partition's vertices
            program.update(v, &mut data[(v - first) as usize], &mut ctx);
            changed += u64::from(ctx.changed);
            for out in outbox.iter() {
                match out {
                    Outgoing::To(dst, msg) => {
                        sent += 1;
                        route(data, *dst, msg);
                    }
                    Outgoing::Neighbors(msg) => {
                        sent += neighbors.len() as u64;
                        for &dst in neighbors {
                            route(data, dst, msg);
                        }
                    }
                }
            }
            outbox.clear();
        }
        self.changed += changed;
        self.sent += sent;
        self.dynamic_applied += dynamic_applied;
        self.rejected += rejected;
        msgs.take_failure()
    }

    /// Mark in `active` (bit `i` = the partition's `i`-th vertex) every
    /// vertex that wants an update this iteration.
    fn mark_active(&self, program: &P, active: &mut ActiveSet) {
        for (i, d) in self.data.iter().enumerate() {
            if program.wants_update(d, self.iteration) {
                active.insert(i);
            }
        }
    }

    /// Whether any vertex of `[lo, hi)` wants an update now — the gap
    /// re-check: a dynamic message may have woken a vertex inside a block
    /// the Sio stream skipped. A range outside the partition answers
    /// `true`, so a malformed gap is read rather than lost.
    fn wakes_in(&self, program: &P, lo: VertexId, hi: VertexId) -> bool {
        let range = lo.wrapping_sub(self.first) as usize..hi.wrapping_sub(self.first) as usize;
        match self.data.get(range) {
            Some(data) => data.iter().any(|d| program.wants_update(d, self.iteration)),
            None => true,
        }
    }

    fn finish(self) -> ShardResult<P> {
        ShardResult {
            data: self.data,
            changed: self.changed,
            sent: self.sent,
            dynamic_applied: self.dynamic_applied,
            rejected: self.rejected,
        }
    }
}

/// Everything the Worker needs to begin an iteration over a partition.
pub struct ShardStart<P: VertexProgram> {
    /// First vertex of the partition; `data` holds its whole range.
    pub first: VertexId,
    /// The partition's vertex state, its pending messages replayed.
    pub data: Vec<P::VertexData>,
    pub iteration: u32,
    pub num_vertices: u64,
    pub dynamic: bool,
    /// Uniform partition width of the engine's partition set.
    pub per_partition: u64,
}

/// What the Worker hands back at the partition barrier.
pub struct ShardResult<P: VertexProgram> {
    pub data: Vec<P::VertexData>,
    pub changed: u64,
    pub sent: u64,
    pub dynamic_applied: u64,
    /// Messages addressed outside `0..num_vertices`, which were dropped.
    pub rejected: u64,
}

/// Runs one partition at a time through an inline [`ShardState`] on the
/// engine thread, recycling streamed batches into the Sio [`BatchPool`].
pub struct Executor<P: VertexProgram> {
    program: Arc<P>,
    pool: Arc<BatchPool>,
    state: Option<ShardState<P>>,
}

impl<P: VertexProgram> Executor<P> {
    pub fn new(program: Arc<P>, pool: Arc<BatchPool>) -> Self {
        Executor { program, pool, state: None }
    }

    /// The program and the started partition's state, or a typed error if
    /// the engine fed a partition it never started.
    fn started(&mut self) -> Result<(&P, &mut ShardState<P>)> {
        match self.state.as_mut() {
            Some(state) => Ok((&self.program, state)),
            None => Err(GraphError::InvalidConfig("batch fed to an un-started partition".into())),
        }
    }

    /// Hand the Worker a partition's vertex data, its messages replayed.
    pub fn start(&mut self, job: ShardStart<P>) {
        self.state = Some(ShardState::start(job));
    }

    /// Update the vertices of one streamed batch, deferring what they send
    /// to other partitions with `msgs`, then recycle the batch.
    pub fn feed(&mut self, batch: AdjBatch, msgs: &mut MsgManager<P::Message>) -> Result<()> {
        let (program, state) = self.started()?;
        let routed = state.process(program, &batch, msgs);
        self.pool.put(batch);
        routed
    }

    /// Update the vertices of a resident adjacency. The batch is borrowed,
    /// never moved or recycled, so it serves every iteration of the run.
    pub fn feed_resident(
        &mut self,
        batch: &AdjBatch,
        msgs: &mut MsgManager<P::Message>,
    ) -> Result<()> {
        let (program, state) = self.started()?;
        state.process(program, batch, msgs)
    }

    /// Mark in `active` every vertex of the partition that wants an update,
    /// after its replay.
    pub fn mark_active(&mut self, active: &mut ActiveSet) -> Result<()> {
        let (program, state) = self.started()?;
        state.mark_active(program, active);
        Ok(())
    }

    /// Whether any vertex in `[lo, hi)` wants an update now, with every
    /// batch fed so far applied.
    pub fn wakes_in(&mut self, lo: VertexId, hi: VertexId) -> Result<bool> {
        let (program, state) = self.started()?;
        Ok(state.wakes_in(program, lo, hi))
    }

    /// Partition barrier: the partition's slab and what its updates produced.
    pub fn finish(&mut self) -> Result<ShardResult<P>> {
        let state = self.state.take().ok_or_else(|| {
            GraphError::InvalidConfig("finish for an un-started partition".into())
        })?;
        Ok(state.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UpdateContext;
    use crate::sio::PoolCounters;
    use graphz_io::{IoStats, ScratchDir};

    /// Counts, at every vertex, the edges of every batch it is fed.
    struct OutDegree;

    impl VertexProgram for OutDegree {
        type VertexData = u64;
        type Message = u64;

        fn update(&self, _vid: VertexId, data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
            *data += ctx.neighbors().len() as u64;
        }

        fn apply_message(&self, _vid: VertexId, _data: &mut u64, _msg: &u64) {}
    }

    #[test]
    fn resident_pieces_are_reused_not_consumed() {
        let piece = AdjBatch {
            first_vertex: 0,
            degrees: vec![2, 0, 1],
            edges: vec![1, 2, 0],
            weights: vec![],
        };
        let pool = BatchPool::new(4);
        let dir = ScratchDir::new("worker-resident").unwrap();
        let mut msgs = MsgManager::new(dir.file("msgs"), 1, 1024, IoStats::new()).unwrap();
        let mut exec: Executor<OutDegree> = Executor::new(Arc::new(OutDegree), Arc::clone(&pool));
        for iteration in 0..3 {
            exec.start(ShardStart {
                first: 0,
                data: vec![iteration; 3],
                iteration: 0,
                num_vertices: 3,
                dynamic: true,
                per_partition: 3,
            });
            exec.feed_resident(&piece, &mut msgs).unwrap();
            let out = exec.finish().unwrap();
            assert_eq!(out.data, vec![iteration + 2, iteration, iteration + 1]);
        }
        assert_eq!(pool.counters(), PoolCounters::default(), "a resident piece is never recycled");
    }

    #[test]
    fn feeding_an_unstarted_partition_is_a_typed_error() {
        let pool = BatchPool::new(1);
        let dir = ScratchDir::new("worker-unstarted").unwrap();
        let mut msgs = MsgManager::new(dir.file("msgs"), 1, 1024, IoStats::new()).unwrap();
        let mut exec: Executor<OutDegree> = Executor::new(Arc::new(OutDegree), pool);
        let fed = exec.feed(AdjBatch::default(), &mut msgs);
        assert!(matches!(fed, Err(GraphError::InvalidConfig(_))));
        assert!(matches!(exec.finish(), Err(GraphError::InvalidConfig(_))));
    }
}
