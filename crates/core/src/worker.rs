//! The Worker stage (paper §V, Fig. 4).
//!
//! The Worker applies `program.update` over the resident partition in
//! ascending vertex order, on the engine thread. Each partition's pass
//! starts one `Worker` over its whole vertex range, so every in-partition
//! dynamic message applies mid-sweep, the paper's sequential-equivalent
//! schedule. A partition's pending messages are replayed into its slab
//! before the Worker starts ([`replay`]). Messages it cannot apply in place
//! go to the MsgManager as they are sent, one `defer` per message, so which
//! of them spill depends only on the send sequence and the MsgManager's cap.
//! The only overlap is around the Worker, never inside it: the Sio
//! read-ahead thread streams adjacency ahead of it and the prefetcher loads
//! the next partition.

use graphz_storage::PartitionSet;
use graphz_types::{cast, Result, VertexId};

use crate::msgmanager::MsgManager;
use crate::program::{Outgoing, UpdateContext, VertexProgram};
use crate::sio::{ActiveSet, AdjBatch};

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
    let slot = slab.get_mut(dst.wrapping_sub(first) as usize);
    slot.map(|slot| program.apply_message(dst, slot, msg)).is_some()
}

/// One partition's vertex slab — the state of vertices `first..first +
/// data.len()` — plus what its updates produced: vertices changed, messages
/// sent, messages applied in place, and messages addressed outside
/// `0..num_vertices`, dropped at routing and reported by the engine as a
/// typed error at the partition barrier.
pub(crate) struct Worker<P: VertexProgram> {
    pub(crate) first: VertexId,
    pub(crate) data: Vec<P::VertexData>,
    pub(crate) changed: u64,
    pub(crate) sent: u64,
    pub(crate) dynamic_applied: u64,
    pub(crate) rejected: u64,
    iteration: u32,
    num_vertices: u64,
    dynamic: bool,
    /// Uniform partition width, for routing deferred messages to their
    /// destination partition.
    per_partition: u64,
    outbox: Vec<Outgoing<P::Message>>,
}

impl<P: VertexProgram> Worker<P> {
    /// Start an iteration over the partition of `partitions` whose vertices
    /// from `first` on hold `data`, its pending messages replayed.
    pub(crate) fn start(
        first: VertexId,
        data: Vec<P::VertexData>,
        iteration: u32,
        partitions: &PartitionSet,
        dynamic: bool,
    ) -> Self {
        Worker {
            first,
            data,
            changed: 0,
            sent: 0,
            dynamic_applied: 0,
            rejected: 0,
            iteration,
            num_vertices: partitions.num_vertices(),
            dynamic,
            per_partition: partitions.per_partition().max(1),
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
    pub(crate) fn process(
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
            let mut ctx =
                UpdateContext::new(iteration, num_vertices, neighbors, weights, &mut *outbox);
            // ipa:allow(panic-freedom) — Sio streams only this partition's vertices
            program.update(v, &mut data[(v - first) as usize], &mut ctx);
            changed += u64::from(ctx.changed());
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
    pub(crate) fn mark_active(&self, program: &P, active: &mut ActiveSet) {
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
    pub(crate) fn wakes_in(&self, program: &P, lo: VertexId, hi: VertexId) -> bool {
        let range = lo.wrapping_sub(self.first) as usize..hi.wrapping_sub(self.first) as usize;
        match self.data.get(range) {
            Some(data) => data.iter().any(|d| program.wants_update(d, self.iteration)),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UpdateContext;
    use crate::sio::{BatchPool, PoolCounters};
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

    /// The resident adjacency is one borrowed batch that every iteration's
    /// Worker processes in place: never moved, consumed or recycled.
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
        for iteration in 0..3 {
            let partitions = PartitionSet::with_width(3, 3);
            let mut worker: Worker<OutDegree> =
                Worker::start(0, vec![iteration; 3], 0, &partitions, true);
            worker.process(&OutDegree, &piece, &mut msgs).unwrap();
            assert_eq!(worker.data, vec![iteration + 2, iteration, iteration + 1]);
        }
        assert_eq!(pool.counters(), PoolCounters::default(), "a resident piece is never recycled");
    }
}
