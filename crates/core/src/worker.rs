//! The deterministic parallel Worker stage.
//!
//! The paper's Worker (§V, Fig. 4) applies `program.update` over the
//! resident partition. Here that work is split across *logical shards* —
//! contiguous sub-ranges of the partition's vertex range — executed by a
//! persistent pool of worker threads. Determinism comes from one rule:
//!
//! **The shard plan is a function of the partition and `worker_shards`
//! only, never of the thread count.** Threads merely execute a fixed
//! logical schedule: shard *s* always runs on worker `s % workers`, jobs
//! for a shard are FIFO, shards touch disjoint vertex ranges, and every
//! message that crosses a shard boundary is deferred into the sending
//! shard's ordered buffer and applied at the partition barrier in
//! `(shard, send order)` sequence. `pipeline_threads: N` is therefore
//! bit-identical to `pipeline_threads: 1` — the single-threaded executor
//! runs the *same* sharded schedule inline through the same
//! [`ShardState`] code path.
//!
//! Messages whose destination lies inside the *sending shard* keep the
//! paper's dynamic-message fast path and are applied immediately.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use graphz_types::{cast, GraphError, Result, VertexId};

use crate::program::{Outgoing, UpdateContext, VertexProgram};
use crate::sio::{ActiveSet, AdjBatch, BatchPool};

/// Shards smaller than this are not worth a hand-off; `plan_shards` lowers
/// the shard count for small partitions so tiny graphs run single-sharded
/// (and thus byte-for-byte like the pre-sharding engine).
pub const MIN_SHARD_VERTICES: usize = 16;

/// Split the partition `[a, b)` into at most `max_shards` contiguous vertex
/// ranges. Deterministic in its arguments alone — in particular it never
/// looks at how many worker threads exist.
pub fn plan_shards(a: VertexId, b: VertexId, max_shards: usize) -> Vec<(VertexId, VertexId)> {
    let count = (b - a) as usize;
    if count == 0 {
        return Vec::new();
    }
    let shards = max_shards.max(1).min(count.div_ceil(MIN_SHARD_VERTICES)).max(1);
    let per = count.div_ceil(shards);
    (0..shards)
        .map(|s| (a + ((s * per).min(count)) as VertexId, a + (((s + 1) * per).min(count)) as VertexId))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Index of the shard containing `v` (plan ranges are contiguous and sorted).
pub fn shard_of(plan: &[(VertexId, VertexId)], v: VertexId) -> usize {
    match plan.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
        Ok(i) => i,
        Err(i) => i - 1,
    }
}

/// Route one Dispatcher batch to the shards it overlaps. The common case —
/// the batch lies inside a single shard — moves the batch without copying;
/// only batches straddling a shard boundary are sliced, and the slices are
/// carved into recycled buffers from `pool` (the straddler itself goes back
/// into the pool) so the steady state allocates nothing.
pub fn split_batch(
    batch: AdjBatch,
    plan: &[(VertexId, VertexId)],
    pool: &BatchPool,
) -> Vec<(usize, AdjBatch)> {
    let lo = batch.first_vertex;
    let hi = lo + batch.degrees.len() as VertexId;
    if lo >= hi {
        pool.put(batch);
        return Vec::new();
    }
    let s0 = shard_of(plan, lo);
    // ipa:allow(panic-freedom) — shard_of returns an index into plan by construction
    if hi <= plan[s0].1 {
        return vec![(s0, batch)];
    }
    let mut out = Vec::new();
    let mut v = lo;
    let mut edge_at = 0usize;
    let mut s = s0;
    while v < hi {
        // ipa:allow(panic-freedom) — plan covers [0, num_vertices): s stays in range while v < hi
        let end = plan[s].1.min(hi);
        let vi = (v - lo) as usize;
        let mut piece = pool.take();
        piece.first_vertex = v;
        piece.degrees.clear();
        // ipa:allow(panic-freedom) — vi + (end - v) <= degrees.len(): end <= hi == lo + degrees.len()
        piece.degrees.extend_from_slice(&batch.degrees[vi..vi + (end - v) as usize]);
        let edge_count: usize = piece.degrees.iter().map(|&d| d as usize).sum();
        piece.edges.clear();
        // ipa:allow(panic-freedom) — batch invariant: edges.len() == sum(degrees) >= edge_at + edge_count
        piece.edges.extend_from_slice(&batch.edges[edge_at..edge_at + edge_count]);
        piece.weights.clear();
        if !batch.weights.is_empty() {
            // ipa:allow(panic-freedom) — weights.len() == edges.len() when weighted
            piece.weights.extend_from_slice(&batch.weights[edge_at..edge_at + edge_count]);
        }
        out.push((s, piece));
        edge_at += edge_count;
        v = end;
        s += 1;
    }
    pool.put(batch);
    out
}

/// Messages grouped by destination partition (first-touch group order; each
/// group in shard-local send order).
pub type DeferredGroups<M> = Vec<(u32, Vec<(VertexId, M)>)>;

/// One shard's owned slice of the partition, plus everything its updates
/// produced. The same struct runs inline (1 thread) and on the pool (N
/// threads), which is what makes the two bit-identical.
pub struct ShardState<P: VertexProgram> {
    first: VertexId,
    /// State of the vertices this shard owns, `first..first + data.len()`.
    data: Vec<P::VertexData>,
    /// Messages leaving this shard, coalesced into per-destination-partition
    /// buffers indexed by partition id (each bucket in shard-local send
    /// order). Sized once in [`ShardState::start`], so deferring a message
    /// in [`ShardState::process`] is an O(1) push with no allocation and no
    /// group scan. [`ShardState::finish`] converts the non-empty buckets to
    /// [`DeferredGroups`]; per-destination order — the only order the
    /// replay contract observes — is exactly the `(shard, send order)`
    /// sequence projected onto that destination.
    deferred: Vec<Vec<(VertexId, P::Message)>>,
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
    /// destination partition without a barrier-side pass.
    per_partition: u64,
    outbox: Vec<Outgoing<P::Message>>,
}

impl<P: VertexProgram> ShardState<P> {
    fn start(job: ShardStart<P>, program: &P) -> Self {
        let per_partition = job.per_partition.max(1);
        // One bucket per destination partition, allocated here (outside the
        // per-message path) so routing never allocates or scans.
        let partitions = job.num_vertices.div_ceil(per_partition) as usize;
        let mut state = ShardState {
            first: job.first,
            data: job.data,
            deferred: (0..partitions).map(|_| Vec::new()).collect(),
            changed: 0,
            sent: 0,
            dynamic_applied: 0,
            rejected: 0,
            iteration: job.iteration,
            num_vertices: job.num_vertices,
            dynamic: job.dynamic,
            per_partition,
            outbox: Vec::new(),
        };
        // Replay this shard's pending messages before any update runs.
        // Grouping the global replay stream by shard preserves per-vertex
        // order (each vertex lives in exactly one shard), so the result is
        // identical to the sequential replay.
        for (dst, msg) in job.replay {
            // ipa:allow(panic-freedom) — replay is routed per shard: dst is owned by this shard
            program.apply_message(dst, &mut state.data[(dst - state.first) as usize], &msg);
        }
        state
    }

    /// Update every vertex of `batch` and route what each update sent
    /// (paper Alg. 7): a destination inside this shard is applied at once
    /// when dynamic messages are on; any other in-range destination is
    /// deferred to its partition's bucket — an O(1) push, since bucket
    /// membership is a pure function of `dst` and the partition width, the
    /// same for every thread count. An [`Outgoing::Neighbors`] broadcast is
    /// expanded here, neighbor by neighbor, into that same apply-or-defer,
    /// so it never touches the outbox per edge.
    ///
    /// The shard's bounds, slab, buckets and counters live in locals for the
    /// whole batch, so a bucket push (which may reallocate) never forces
    /// them to be reloaded from `self`.
    fn process(&mut self, program: &P, batch: &AdjBatch) {
        let (first, dynamic) = (self.first, self.dynamic);
        let (iteration, num_vertices, per_partition) =
            (self.iteration, self.num_vertices, self.per_partition);
        let data = self.data.as_mut_slice();
        let deferred = self.deferred.as_mut_slice();
        let outbox = &mut self.outbox;
        let (mut changed, mut sent, mut dynamic_applied, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let mut route = |data: &mut [P::VertexData], dst: VertexId, msg: &P::Message| {
            // Intra-shard dynamic fast path: the destination is owned by
            // this shard, so the apply races with nothing. One unsigned
            // compare both tests ownership and bounds the index.
            let own = if dynamic { data.get_mut(dst.wrapping_sub(first) as usize) } else { None };
            if let Some(slot) = own {
                program.apply_message(dst, slot, msg);
                dynamic_applied += 1;
                return;
            }
            // ipa:allow(panic-freedom) — per_partition is clamped to >= 1 in start
            let p = (cast::widen_u32(dst) / per_partition) as usize;
            // dst < num_vertices puts p inside the buckets sized in start;
            // anything else is the program's bug, reported at the barrier.
            match deferred.get_mut(p) {
                Some(bucket) if cast::widen_u32(dst) < num_vertices => {
                    bucket.push((dst, msg.clone()))
                }
                _ => rejected += 1,
            }
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
            // ipa:allow(panic-freedom) — batches are split on shard bounds: this shard owns v
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
    }

    /// Mark in `active` (bit `i` = this shard's `i`-th vertex) every vertex
    /// that wants an update in this shard's iteration.
    fn mark_active(&self, program: &P, active: &mut ActiveSet) {
        for (i, d) in self.data.iter().enumerate() {
            if program.wants_update(d, self.iteration) {
                active.insert(i);
            }
        }
    }

    /// Whether any vertex of `[lo, hi)` wants an update now — the gap
    /// re-check: a dynamic message may have woken a vertex inside a block
    /// the Sio stream skipped. A range outside the shard answers `true`, so
    /// a malformed gap is read rather than lost.
    fn wakes_in(&self, program: &P, lo: VertexId, hi: VertexId) -> bool {
        let range = lo.wrapping_sub(self.first) as usize..hi.wrapping_sub(self.first) as usize;
        match self.data.get(range) {
            Some(data) => data.iter().any(|d| program.wants_update(d, self.iteration)),
            None => true,
        }
    }

    fn finish(self, shard: usize) -> ShardResult<P> {
        ShardResult {
            shard,
            data: self.data,
            deferred: self
                .deferred
                .into_iter()
                .enumerate()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(p, bucket)| (p as u32, bucket))
                .collect(),
            changed: self.changed,
            sent: self.sent,
            dynamic_applied: self.dynamic_applied,
            rejected: self.rejected,
        }
    }
}

/// Everything a shard needs to begin an iteration over its vertex range.
pub struct ShardStart<P: VertexProgram> {
    pub shard: usize,
    /// First vertex of the shard's range; `data` holds the whole range.
    pub first: VertexId,
    pub data: Vec<P::VertexData>,
    /// This shard's slice of the partition's replay stream, in send order.
    pub replay: Vec<(VertexId, P::Message)>,
    pub iteration: u32,
    pub num_vertices: u64,
    pub dynamic: bool,
    /// Uniform partition width of the engine's partition set.
    pub per_partition: u64,
}

/// What a shard hands back at the partition barrier.
pub struct ShardResult<P: VertexProgram> {
    pub shard: usize,
    pub data: Vec<P::VertexData>,
    /// Cross-shard messages grouped by destination partition (first-touch
    /// group order; each group in shard-local send order).
    pub deferred: DeferredGroups<P::Message>,
    pub changed: u64,
    pub sent: u64,
    pub dynamic_applied: u64,
    /// Messages addressed outside `0..num_vertices`, which were dropped.
    pub rejected: u64,
}

enum Job<P: VertexProgram> {
    Start(Box<ShardStart<P>>),
    Piece { shard: usize, batch: AdjBatch },
    /// A piece of a resident adjacency: shared, never recycled.
    Resident { shard: usize, batch: Arc<AdjBatch> },
    Finish { shard: usize },
}

/// Default job-queue depth per worker when no [`queue_cap`] override is set.
///
/// [`queue_cap`]: graphz_types::EngineOptions::queue_cap
pub const DEFAULT_JOB_QUEUE_CAP: usize = 8;

fn worker_died() -> GraphError {
    GraphError::Io(std::io::Error::other("worker thread panicked"))
}

/// Worker threads a pool runs for `threads` pipeline threads and at most
/// `max_shards` shards per partition: one per shard at most, since shard
/// *s* always runs on worker `s % workers` and a worker with no shard would
/// sit idle for the whole run.
pub fn pool_workers(threads: usize, max_shards: usize) -> usize {
    threads.max(1).min(max_shards.max(1))
}

/// A persistent pool of Worker threads. Spawned once per [`Engine::run`]
/// and reused for every partition of every iteration — no per-batch or
/// per-partition thread spawns.
///
/// [`Engine::run`]: crate::Engine::run
pub struct WorkerPool<P: VertexProgram> {
    txs: Vec<Sender<Job<P>>>,
    results: Receiver<ShardResult<P>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<P: VertexProgram> WorkerPool<P> {
    /// Spawns [`pool_workers`]`(threads, max_shards)` workers.
    /// `max_shards` also bounds how many `Finish` results can be outstanding
    /// at once (one partition's worth), sizing the result queue so workers
    /// never block on it. `queue_cap` (when set) overrides every queue
    /// depth — including down to capacity 1, which [`Executor::finish`]
    /// is written to tolerate.
    pub fn spawn(
        threads: usize,
        max_shards: usize,
        queue_cap: Option<usize>,
        program: Arc<P>,
        pool: Arc<BatchPool>,
    ) -> Result<Self> {
        let workers = pool_workers(threads, max_shards);
        let results_cap = queue_cap.unwrap_or(max_shards.max(1)).max(1);
        let job_cap = queue_cap.unwrap_or(DEFAULT_JOB_QUEUE_CAP).max(1);
        let (result_tx, results) = bounded::<ShardResult<P>>(results_cap);
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = bounded::<Job<P>>(job_cap);
            let program = Arc::clone(&program);
            let batch_pool = Arc::clone(&pool);
            let result_tx = result_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("graphz-worker-{w}"))
                .spawn(move || {
                    let mut states: HashMap<usize, ShardState<P>> = HashMap::new();
                    for job in rx {
                        match job {
                            Job::Start(start) => {
                                let shard = start.shard;
                                states.insert(shard, ShardState::start(*start, &program));
                            }
                            Job::Piece { shard, batch } => {
                                // A piece for an un-started shard is an
                                // engine protocol bug; exiting closes this
                                // worker's queues, which the engine observes
                                // as a typed send error — no panic.
                                let Some(state) = states.get_mut(&shard) else { return };
                                state.process(&program, &batch);
                                batch_pool.put(batch);
                            }
                            Job::Resident { shard, batch } => {
                                let Some(state) = states.get_mut(&shard) else { return };
                                state.process(&program, &batch);
                            }
                            Job::Finish { shard } => {
                                let Some(state) = states.remove(&shard) else { return };
                                if result_tx.send(state.finish(shard)).is_err() {
                                    return; // engine hung up
                                }
                            }
                        }
                    }
                })
                .map_err(std::io::Error::other)?;
            txs.push(tx);
            handles.push(handle);
        }
        Ok(WorkerPool { txs, results, handles })
    }

    fn tx(&self, shard: usize) -> &Sender<Job<P>> {
        // ipa:allow(panic-freedom) — spawn() rejects zero workers: nonzero divisor, in-range index
        &self.txs[shard % self.txs.len()]
    }
}

impl<P: VertexProgram> Drop for WorkerPool<P> {
    fn drop(&mut self) {
        self.txs.clear(); // close every job queue; workers drain and exit
        for h in self.handles.drain(..) {
            // A barrier abandoned mid-stream (an emit error) can leave
            // results published — and workers blocked publishing more into a
            // full results queue. Keep draining while waiting so every
            // worker can finish its queue and observe the closed channel.
            while !h.is_finished() {
                while self.results.try_recv().is_ok() {}
                std::thread::yield_now();
            }
            let _ = h.join();
        }
    }
}

/// The inline executor's state for `shard`, or a typed error if the engine
/// routed a batch to a shard it never started.
fn started<P: VertexProgram>(
    states: &mut [Option<ShardState<P>>],
    shard: usize,
) -> Result<&mut ShardState<P>> {
    states.get_mut(shard).and_then(Option::as_mut).ok_or_else(|| {
        // ipa:allow(hot-path-alloc) — built only on an engine protocol bug, never per batch
        GraphError::InvalidConfig(format!("batch routed to un-started shard {shard}"))
    })
}

/// Executes one partition's shard schedule: inline on the engine thread, or
/// fanned out over the [`WorkerPool`]. Both paths drive the identical
/// [`ShardState`] logic, so their results are bit-for-bit the same.
pub enum Executor<P: VertexProgram> {
    Inline { program: Arc<P>, pool: Arc<BatchPool>, states: Vec<Option<ShardState<P>>> },
    Pooled(WorkerPool<P>),
}

impl<P: VertexProgram> Executor<P> {
    /// A pool when there are several threads *and* several shards to run
    /// on them, the same schedule inline otherwise. One shard always runs
    /// inline on the engine thread — a single worker would only add a
    /// hand-off — which keeps its state in reach of the activity checks
    /// ([`mark_active`](Self::mark_active), [`wakes_in`](Self::wakes_in)).
    pub fn new(
        threads: usize,
        max_shards: usize,
        queue_cap: Option<usize>,
        program: Arc<P>,
        pool: Arc<BatchPool>,
    ) -> Result<Self> {
        if threads > 1 && max_shards > 1 {
            Ok(Executor::Pooled(WorkerPool::spawn(threads, max_shards, queue_cap, program, pool)?))
        } else {
            Ok(Executor::Inline { program, pool, states: Vec::new() })
        }
    }

    /// Hand a shard its vertex data and replay stream.
    pub fn start(&mut self, job: ShardStart<P>) -> Result<()> {
        match self {
            Executor::Inline { program, states, .. } => {
                let shard = job.shard;
                if states.len() <= shard {
                    states.resize_with(shard + 1, || None);
                }
                // ipa:allow(panic-freedom) — resized to shard + 1 just above
                states[shard] = Some(ShardState::start(job, program));
                Ok(())
            }
            Executor::Pooled(pool) => {
                pool.tx(job.shard).send(Job::Start(Box::new(job))).map_err(|_| worker_died())
            }
        }
    }

    /// Feed one (already shard-routed) batch to its shard.
    pub fn feed(&mut self, shard: usize, batch: AdjBatch) -> Result<()> {
        match self {
            Executor::Inline { program, pool, states } => {
                started(states, shard)?.process(program, &batch);
                pool.put(batch);
                Ok(())
            }
            Executor::Pooled(pool) => {
                pool.tx(shard).send(Job::Piece { shard, batch }).map_err(|_| worker_died())
            }
        }
    }

    /// Feed a shard its piece of a resident adjacency. The batch is borrowed
    /// inline and shared with a pooled worker, never moved or recycled, so
    /// the same pieces serve every iteration of the run.
    pub fn feed_resident(&mut self, shard: usize, batch: &Arc<AdjBatch>) -> Result<()> {
        match self {
            Executor::Inline { program, states, .. } => {
                started(states, shard)?.process(program, batch);
                Ok(())
            }
            Executor::Pooled(pool) => pool
                .tx(shard)
                .send(Job::Resident { shard, batch: Arc::clone(batch) })
                .map_err(|_| worker_died()),
        }
    }

    /// Mark in `active` every vertex of `shard` that wants an update, after
    /// its replay. Returns `false`, marking nothing, on the pooled executor,
    /// whose shard state lives on a worker thread.
    pub fn mark_active(&mut self, shard: usize, active: &mut ActiveSet) -> Result<bool> {
        match self {
            Executor::Inline { program, states, .. } => {
                started(states, shard)?.mark_active(program, active);
                Ok(true)
            }
            Executor::Pooled(_) => Ok(false),
        }
    }

    /// Whether any vertex of `shard` in `[lo, hi)` wants an update now,
    /// with every batch fed so far applied. Always `true` on the pooled
    /// executor.
    pub fn wakes_in(&mut self, shard: usize, lo: VertexId, hi: VertexId) -> Result<bool> {
        match self {
            Executor::Inline { program, states, .. } => {
                Ok(started(states, shard)?.wakes_in(program, lo, hi))
            }
            Executor::Pooled(_) => Ok(true),
        }
    }

    /// Barrier: collect every shard's result, returned sorted by shard.
    /// Thin wrapper over [`finish_with`](Self::finish_with) for callers that
    /// want the whole partition at once.
    pub fn finish(&mut self, shards: usize) -> Result<Vec<ShardResult<P>>> {
        let mut out: Vec<ShardResult<P>> = Vec::with_capacity(shards);
        self.finish_with(shards, |r| {
            out.push(r);
            Ok(())
        })?;
        Ok(out)
    }

    /// Streaming barrier: invoke `emit` on every shard's result in strict
    /// shard order, releasing each result *as soon as its shard's order is
    /// settled* — i.e. the moment shards `0..=s` have all reported — instead
    /// of waiting for the whole partition and sorting. The emission order is
    /// a constant of the plan, so the merge stays bit-identical to the old
    /// collect-then-sort barrier while the engine's merge work (slab
    /// reassembly, message enqueue) overlaps still-running shards.
    ///
    /// Finish jobs are dispatched with `try_send`, draining any already-
    /// available results whenever a job queue is full. A blocking send here
    /// would deadlock at small queue capacities: with capacity-1 queues the
    /// engine could wait to enqueue `Finish(s₂)` for a worker that is itself
    /// blocked publishing `result(s₀)` into the full results queue — a
    /// two-party wait cycle the model checker's wait-for graph catches, and
    /// this loop structurally avoids.
    pub fn finish_with<F>(&mut self, shards: usize, mut emit: F) -> Result<()>
    where
        F: FnMut(ShardResult<P>) -> Result<()>,
    {
        match self {
            Executor::Inline { states, .. } => {
                for (shard, slot) in states.iter_mut().enumerate().take(shards) {
                    let state = slot.take().ok_or_else(|| {
                        GraphError::InvalidConfig(format!("finish for un-started shard {shard}"))
                    })?;
                    emit(state.finish(shard))?;
                }
            }
            Executor::Pooled(pool) => {
                // Out-of-order arrivals park in their shard's slot; the
                // settled prefix is emitted eagerly.
                let mut slots: Vec<Option<ShardResult<P>>> = Vec::new();
                slots.resize_with(shards, || None);
                let mut next_emit = 0usize;
                let mut received = 0usize;
                let mut dispatched = 0usize;
                while dispatched < shards {
                    match pool.tx(dispatched).try_send(Job::Finish { shard: dispatched }) {
                        Ok(()) => dispatched += 1,
                        Err(TrySendError::Full(_)) => {
                            // Unblock workers stuck publishing results, then
                            // retry the same shard.
                            while let Ok(r) = pool.results.try_recv() {
                                received += 1;
                                let s = r.shard;
                                // ipa:allow(panic-freedom) — workers echo job.shard < shards == slots.len()
                                slots[s] = Some(r);
                            }
                            while next_emit < shards {
                                // ipa:allow(panic-freedom) — next_emit < shards == slots.len()
                                match slots[next_emit].take() {
                                    Some(r) => {
                                        emit(r)?;
                                        next_emit += 1;
                                    }
                                    None => break,
                                }
                            }
                            std::thread::yield_now();
                        }
                        Err(TrySendError::Disconnected(_)) => return Err(worker_died()),
                    }
                }
                while received < shards {
                    match pool.results.recv() {
                        Ok(r) => {
                            received += 1;
                            let s = r.shard;
                            // ipa:allow(panic-freedom) — workers echo job.shard < shards == slots.len()
                            slots[s] = Some(r);
                        }
                        Err(_) => return Err(worker_died()),
                    }
                    while next_emit < shards {
                        // ipa:allow(panic-freedom) — next_emit < shards == slots.len()
                        match slots[next_emit].take() {
                            Some(r) => {
                                emit(r)?;
                                next_emit += 1;
                            }
                            None => break,
                        }
                    }
                }
                debug_assert_eq!(next_emit, shards, "all results received implies all emitted");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UpdateContext;
    use crate::sio::PoolCounters;

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

    fn spawn(threads: usize, shards: usize) -> WorkerPool<OutDegree> {
        WorkerPool::spawn(threads, shards, None, Arc::new(OutDegree), BatchPool::new(4)).unwrap()
    }

    #[test]
    fn pool_spawns_no_worker_without_a_shard() {
        assert_eq!(pool_workers(2, 1), 1);
        assert_eq!(spawn(2, 1).handles.len(), 1, "threads = 2, shards = 1: one worker");
        assert_eq!(spawn(2, 8).handles.len(), 2);
        assert_eq!(spawn(8, 3).handles.len(), 3);
        assert_eq!(pool_workers(0, 0), 1);
    }

    #[test]
    fn resident_pieces_are_reused_not_consumed() {
        let piece = Arc::new(AdjBatch {
            first_vertex: 0,
            degrees: vec![2, 0, 1],
            edges: vec![1, 2, 0],
            weights: vec![],
        });
        for threads in [1usize, 2] {
            let pool = BatchPool::new(4);
            let mut exec: Executor<OutDegree> =
                Executor::new(threads, 1, None, Arc::new(OutDegree), Arc::clone(&pool)).unwrap();
            for iteration in 0..3 {
                exec.start(ShardStart {
                    shard: 0,
                    first: 0,
                    data: vec![iteration; 3],
                    replay: Vec::new(),
                    iteration: 0,
                    num_vertices: 3,
                    dynamic: true,
                    per_partition: 3,
                })
                .unwrap();
                exec.feed_resident(0, &piece).unwrap();
                let out = exec.finish(1).unwrap();
                assert_eq!(out[0].data, vec![iteration + 2, iteration, iteration + 1]);
            }
            assert_eq!(pool.counters(), PoolCounters::default(), "threads={threads}");
            assert_eq!(Arc::strong_count(&piece), 1, "threads={threads}: workers hold no piece");
        }
    }

    #[test]
    fn shard_plan_is_thread_independent_and_covers_range() {
        let plan = plan_shards(100, 300, 8);
        assert!(plan.len() <= 8);
        assert_eq!(plan.first().unwrap().0, 100);
        assert_eq!(plan.last().unwrap().1, 300);
        for w in plan.windows(2) {
            assert_eq!(w[0].1, w[1].0, "shards must tile the range");
        }
        // Small partitions collapse to one shard (pre-sharding behaviour).
        assert_eq!(plan_shards(0, 10, 8), vec![(0, 10)]);
        assert_eq!(plan_shards(5, 5, 8), vec![]);
        // Max shards of 1 is always a single range.
        assert_eq!(plan_shards(0, 1000, 1), vec![(0, 1000)]);
    }

    #[test]
    fn shard_of_finds_containing_range() {
        let plan = plan_shards(0, 64, 4);
        for (i, &(lo, hi)) in plan.iter().enumerate() {
            assert_eq!(shard_of(&plan, lo), i);
            assert_eq!(shard_of(&plan, hi - 1), i);
        }
    }

    #[test]
    fn split_batch_moves_single_shard_batches_and_slices_straddlers() {
        let pool = BatchPool::new(4);
        let plan = vec![(0u32, 32u32), (32, 64)];
        // Entirely inside shard 0: moved, not copied.
        let whole = AdjBatch {
            first_vertex: 4,
            degrees: vec![1, 2],
            edges: vec![9, 8, 7],
            weights: vec![],
        };
        let parts = split_batch(whole.clone(), &plan, &pool);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1, whole);
        // Straddles the boundary at 32.
        let straddler = AdjBatch {
            first_vertex: 30,
            degrees: vec![1, 2, 3, 1],
            edges: vec![0, 1, 2, 3, 4, 5, 6],
            weights: (0..7).map(|i| i as f32).collect(),
        };
        let parts = split_batch(straddler.clone(), &plan, &pool);
        assert_eq!(parts.len(), 2);
        let (s_a, a) = &parts[0];
        let (s_b, b) = &parts[1];
        assert_eq!((*s_a, a.first_vertex, a.degrees.clone()), (0, 30, vec![1, 2]));
        assert_eq!(a.edges, vec![0, 1, 2]);
        assert_eq!(a.weights, vec![0.0, 1.0, 2.0]);
        assert_eq!((*s_b, b.first_vertex, b.degrees.clone()), (1, 32, vec![3, 1]));
        assert_eq!(b.edges, vec![3, 4, 5, 6]);
        assert_eq!(b.weights, vec![3.0, 4.0, 5.0, 6.0]);
        // The sliced straddler was recycled into the pool, not dropped.
        assert_eq!(pool.take(), straddler);
    }

    #[test]
    fn split_batch_reuses_pooled_buffers_for_straddler_pieces() {
        let pool = BatchPool::new(8);
        let plan = vec![(0u32, 2u32), (2, 4)];
        let straddler = AdjBatch {
            first_vertex: 0,
            degrees: vec![1, 1, 1, 1],
            edges: vec![10, 11, 12, 13],
            weights: vec![],
        };
        // First split mints fresh pieces (pool empty) and recycles the
        // original; from then on pieces come from the pool.
        let first = split_batch(straddler.clone(), &plan, &pool);
        assert_eq!(first.len(), 2);
        for (_, piece) in first {
            pool.put(piece);
        }
        let before = pool.counters();
        let again = split_batch(straddler, &plan, &pool);
        assert_eq!(again.len(), 2);
        let after = pool.counters();
        assert_eq!(after.fresh, before.fresh, "steady-state split must not allocate");
        assert_eq!(after.reused, before.reused + 2);
    }
}
