//! Memory budgets and engine options.
//!
//! The paper evaluates every system as a function of how much RAM it may use
//! (Fig. 6 sweeps the budget; Table X classifies graphs by how far they
//! exceed it). [`MemoryBudget`] is the single knob that plays the role of
//! "machine RAM" for every engine in this workspace.

/// How many bytes of vertex/message state an engine may keep resident.
///
/// This models the paper's RAM sizes. The budget covers the per-partition
/// vertex array and message buffers — the things the engines deliberately
/// size to memory — not transient block buffers, which are small constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoryBudget(pub u64);

impl MemoryBudget {
    pub const fn bytes(self) -> u64 {
        self.0
    }

    pub const fn from_mib(mib: u64) -> Self {
        MemoryBudget(mib * 1024 * 1024)
    }

    pub const fn from_kib(kib: u64) -> Self {
        MemoryBudget(kib * 1024)
    }

    /// How many records of `record_size` bytes fit in this budget (at least 1,
    /// so degenerate budgets still make forward progress one record at a
    /// time rather than deadlocking).
    pub fn records(self, record_size: usize) -> u64 {
        (self.0 / record_size as u64).max(1)
    }

    /// Split this budget evenly across `shards` concurrent consumers.
    ///
    /// Each shard receives `floor(bytes / shards)` bytes (never rounding the
    /// aggregate above the original budget), and the split never collapses to
    /// zero: like [`records`](Self::records), a degenerate budget still lets
    /// every shard make forward progress one byte at a time. The split is a
    /// pure function of `(budget, shards)`, which is what lets the sharded
    /// ingest pipeline keep a deterministic run plan for a fixed
    /// configuration.
    pub fn split(self, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        MemoryBudget((self.0 / n).max(1))
    }

    /// Number of partitions needed to process `total` records of
    /// `record_size` bytes `fraction`-of-budget at a time.
    pub fn partitions_for(self, total: u64, record_size: usize, fraction: f64) -> u32 {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let per_part = ((self.records(record_size) as f64 * fraction) as u64).max(1);
        total.div_ceil(per_part).max(1) as u32
    }
}

impl std::fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", b / (1024 * 1024))
        } else if b >= 1024 && b.is_multiple_of(1024) {
            write!(f, "{}KiB", b / 1024)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Feature switches for the GraphZ engine, used by the Fig. 7 ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Use degree-ordered storage (DOS). When off, the engine runs over the
    /// original vertex order with a dense per-vertex index, like the
    /// "GraphZ w/o DOS" configuration of Fig. 7.
    pub use_dos: bool,
    /// Apply messages to in-memory destinations immediately (ordered dynamic
    /// messages). When off, *every* message is buffered and replayed at the
    /// start of the destination partition's next load, emulating a
    /// static-message system ("GraphZ w/o DOS and DM" in Fig. 7).
    pub dynamic_messages: bool,
    /// Number of pipeline worker threads for the Sio → Dispatcher → Worker
    /// stages. `1` runs the deterministic single-threaded scheduler (results
    /// are identical either way; the guarantee is tested).
    pub pipeline_threads: usize,
    /// Keep the vertex array resident across iterations when the whole graph
    /// fits in one partition, skipping the per-iteration spill/reload — the
    /// paper's §VI-E future work ("does not have many in-memory
    /// optimizations") — and keep the adjacency resident too when it also
    /// fits the budget left after the vertex array, so the graph is read
    /// once per run instead of once per iteration. On by default; results
    /// are bit-identical either way, so `false` survives only as the
    /// ablation control that reproduces the paper's own always-spill,
    /// always-stream behaviour. See [`ExecutionPlan::resident`] and
    /// [`ExecutionPlan::resident_adjacency`].
    pub in_memory_fast_path: bool,
    /// Spill cross-partition messages on a dedicated MsgManager thread
    /// (the paper's four-component pipeline, §V Fig. 4) instead of on the
    /// Worker. Byte-identical spill files; only scheduling changes.
    pub background_spill: bool,
    /// Prefetch the next partition's vertex slab, partition index, and
    /// spilled message run on a background thread while the current partition
    /// computes (GridGraph-style double buffering). Pure scheduling: results
    /// are bit-identical with prefetch on or off.
    pub prefetch: bool,
    /// Maximum number of logical Worker shards per partition. The shard plan
    /// is a function of the partition's vertex range and this value only —
    /// never of `pipeline_threads` — which is what makes results bit-identical
    /// across thread counts: threads merely execute a fixed logical schedule.
    ///
    /// `1` (the default) keeps the paper's sequential-equivalent semantics:
    /// the whole partition is one shard, so every in-partition dynamic
    /// message applies mid-sweep and traversal cascades span the partition.
    /// Values `> 1` trade some of that same-iteration cascade reach (cross-
    /// shard messages defer to the partition barrier) for parallel updates.
    pub worker_shards: usize,
    /// Force every bounded pipeline queue (Sio batches, Worker jobs and
    /// results, background spill jobs, batch-pool recycler) to this
    /// capacity. `None` keeps each stage's tuned default. Results are
    /// bit-identical for any capacity ≥ 1 — queue depth is pure scheduling —
    /// which the capacity-1 regression suite and the model checker both
    /// enforce.
    pub queue_cap: Option<usize>,
    /// Let the engine degrade `worker_shards` (and with it the pooled
    /// executor) to the serial path when the graph is too small for the
    /// coordination to pay — see [`plan_execution`](Self::plan_execution).
    /// The decision is a pure function of graph shape and these options, so
    /// determinism across thread counts is untouched; it does change *which*
    /// fixed schedule runs, which is why it is opt-in rather than default.
    pub adaptive: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            use_dos: true,
            dynamic_messages: true,
            pipeline_threads: 2,
            in_memory_fast_path: true,
            background_spill: false,
            prefetch: true,
            worker_shards: 1,
            queue_cap: None,
            adaptive: false,
        }
    }
}

/// The execution plan the engine actually runs: [`EngineOptions`] resolved
/// against the shape of the graph by
/// [`EngineOptions::plan_execution`]. Every field is a pure function of the
/// options, the graph's shape (edges, partitions, slab and adjacency bytes)
/// and the memory budget — never of detected cores, load, or timing — so two
/// runs over the same graph with the same options and budget always execute
/// the same logical schedule. `worker_shards` is the only field that selects
/// a schedule; the rest change where bytes live and which thread moves them,
/// never the result bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// Effective logical Worker shards per partition. Differs from
    /// `options.worker_shards` only when `adaptive` degraded a too-small
    /// graph to the serial single-shard schedule.
    pub worker_shards: usize,
    /// Effective pipeline thread count. Pure scheduling: any value yields
    /// bit-identical results for a fixed `worker_shards`. `1` whenever the
    /// adjacency is resident and the plan has one shard: no IO is left to
    /// overlap, so the Worker runs inline.
    pub pipeline_threads: usize,
    /// Whether the partition prefetcher runs. Pure scheduling; disabled when
    /// the partition count cannot hide a load.
    pub prefetch: bool,
    /// Whether the vertex slab stays in memory for the whole run instead of
    /// being flushed and reloaded every iteration: `in_memory_fast_path`
    /// and a single partition. Pure residency; the on-disk vertex array is
    /// still brought current before every checkpoint and at the end of the
    /// run.
    pub resident: bool,
    /// Whether the partition's adjacency — edge targets, per-edge weights
    /// when the image has them, and per-vertex degrees — also stays in
    /// memory: `resident`, and the adjacency fits the budget left after the
    /// vertex slab. The engine then reads the adjacency once per run instead
    /// of streaming it every iteration. Pure residency, like `resident`.
    pub resident_adjacency: bool,
}

impl ExecutionPlan {
    /// What stays in memory for the whole run: `none`, `slab`, or
    /// `slab+adjacency`.
    pub fn residency(&self) -> &'static str {
        match (self.resident, self.resident_adjacency) {
            (false, _) => "none",
            (true, false) => "slab",
            (true, true) => "slab+adjacency",
        }
    }
}

impl EngineOptions {
    /// Adaptive-plan threshold: with fewer edges per shard than this, the
    /// per-shard work is smaller than the hand-off + barrier coordination it
    /// buys (tuned against `BENCH_grid.json`'s crossover — batches of this
    /// size stream in microseconds), so the plan degrades to the serial
    /// schedule.
    pub const MIN_EDGES_PER_SHARD: u64 = 1024;

    /// Prefetch pays only when a *third* partition exists: with ≤2 the
    /// "next" partition is the one the barrier is about to need anyway, and
    /// the measured effect is pure overhead (`BENCH_throughput.json`).
    pub const MIN_PREFETCH_PARTITIONS: u32 = 3;

    /// Resolve these options against the graph's shape. The inputs are
    /// deliberately limited to the graph shape (`num_edges`, the partition
    /// count the memory budget produced), the budget with the bytes that
    /// would live in it — `slab_bytes` of vertex state, `adjacency_bytes` of
    /// edges, weights and degrees — and the options themselves — **never**
    /// thread availability or timing — so the returned plan, and therefore
    /// the result bits, are identical on every machine and for every
    /// `pipeline_threads` value.
    pub fn plan_execution(
        &self,
        num_edges: u64,
        num_partitions: u32,
        budget: MemoryBudget,
        slab_bytes: u64,
        adjacency_bytes: u64,
    ) -> ExecutionPlan {
        let mut worker_shards = self.worker_shards.max(1);
        let mut pipeline_threads = self.pipeline_threads.max(1);
        if self.adaptive
            && worker_shards > 1
            && num_edges / (worker_shards as u64) < Self::MIN_EDGES_PER_SHARD
        {
            // Too little work per shard for the hand-off to pay: run the
            // serial schedule (single shard, inline executor).
            worker_shards = 1;
            pipeline_threads = 1;
        }
        let prefetch = self.prefetch && num_partitions >= Self::MIN_PREFETCH_PARTITIONS;
        let resident = self.in_memory_fast_path && num_partitions == 1;
        let resident_adjacency = resident
            && budget.bytes().checked_sub(slab_bytes).is_some_and(|left| adjacency_bytes <= left);
        if resident_adjacency && worker_shards == 1 {
            pipeline_threads = 1;
        }
        ExecutionPlan { worker_shards, pipeline_threads, prefetch, resident, resident_adjacency }
    }
}

impl EngineOptions {
    /// Shard count used by [`with_parallel_workers`](Self::with_parallel_workers):
    /// fixed, so every thread count executes the same logical schedule.
    pub const PARALLEL_WORKER_SHARDS: usize = 8;

    /// The full-featured configuration (the "GraphZ" bars in the paper).
    pub fn full() -> Self {
        Self::default()
    }

    /// Parallel Worker configuration: `threads` pipeline threads executing a
    /// fixed [`PARALLEL_WORKER_SHARDS`](Self::PARALLEL_WORKER_SHARDS)-shard
    /// schedule per partition. Results are bit-identical for any `threads`
    /// value because the schedule never depends on it.
    pub fn with_parallel_workers(threads: usize) -> Self {
        EngineOptions {
            pipeline_threads: threads.max(1),
            worker_shards: Self::PARALLEL_WORKER_SHARDS,
            ..Self::default()
        }
    }

    /// Fig. 7's "GraphZ w/o DOS" configuration.
    pub fn without_dos() -> Self {
        EngineOptions { use_dos: false, ..Self::default() }
    }

    /// Fig. 7's "GraphZ w/o DOS and DM" configuration.
    pub fn without_dos_and_dm() -> Self {
        EngineOptions { use_dos: false, dynamic_messages: false, ..Self::default() }
    }

    /// Force every bounded pipeline queue to `cap` (≥ 1). Used by the
    /// capacity-1 regression suite to prove queue depth never affects
    /// results.
    pub fn with_queue_cap(self, cap: usize) -> Self {
        EngineOptions { queue_cap: Some(cap.max(1)), ..self }
    }

    /// Builder-style construction following the workspace API convention
    /// (`XBuilder` + chainable setters + fallible `build()`): invalid
    /// combinations surface as [`GraphError::InvalidConfig`] instead of being
    /// silently clamped.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder { opts: Self::default() }
    }
}

/// Builder for [`EngineOptions`].
///
/// Produced by [`EngineOptions::builder`]. Every setter is chainable;
/// [`build`](Self::build) validates the configuration (thread, shard, and
/// queue-capacity counts must be ≥ 1) and returns a typed error rather than
/// clamping, so misconfigurations are visible at the call site.
#[derive(Debug, Clone)]
pub struct EngineOptionsBuilder {
    opts: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Toggle degree-ordered storage (Fig. 7 ablation).
    pub fn use_dos(mut self, on: bool) -> Self {
        self.opts.use_dos = on;
        self
    }

    /// Toggle ordered dynamic messages (Fig. 7 ablation).
    pub fn dynamic_messages(mut self, on: bool) -> Self {
        self.opts.dynamic_messages = on;
        self
    }

    /// Pipeline thread count for the Sio → Dispatcher → Worker stages.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.pipeline_threads = threads;
        self
    }

    /// Logical Worker shards per partition (the fixed schedule knob; see
    /// [`EngineOptions::worker_shards`]).
    pub fn worker_shards(mut self, shards: usize) -> Self {
        self.opts.worker_shards = shards;
        self
    }

    /// Toggle background partition prefetch.
    pub fn prefetch(mut self, on: bool) -> Self {
        self.opts.prefetch = on;
        self
    }

    /// Toggle the dedicated MsgManager spill thread.
    pub fn background_spill(mut self, on: bool) -> Self {
        self.opts.background_spill = on;
        self
    }

    /// Toggle the §VI-E in-memory fast path (on by default; `false` is the
    /// ablation control).
    pub fn in_memory_fast_path(mut self, on: bool) -> Self {
        self.opts.in_memory_fast_path = on;
        self
    }

    /// Force every bounded pipeline queue to `cap`.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.opts.queue_cap = Some(cap);
        self
    }

    /// Toggle the adaptive execution plan (serial degrade for small graphs;
    /// see [`EngineOptions::plan_execution`]).
    pub fn adaptive(mut self, on: bool) -> Self {
        self.opts.adaptive = on;
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> crate::error::Result<EngineOptions> {
        use crate::error::GraphError;
        if self.opts.pipeline_threads == 0 {
            return Err(GraphError::InvalidConfig("pipeline_threads must be >= 1".into()));
        }
        if self.opts.worker_shards == 0 {
            return Err(GraphError::InvalidConfig("worker_shards must be >= 1".into()));
        }
        if self.opts.queue_cap == Some(0) {
            return Err(GraphError::InvalidConfig("queue_cap must be >= 1".into()));
        }
        Ok(self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan with a budget no adjacency fits in, so only the options, edge
    /// count and partition count decide.
    fn streamed(o: &EngineOptions, num_edges: u64, num_partitions: u32) -> ExecutionPlan {
        o.plan_execution(num_edges, num_partitions, MemoryBudget(0), 0, 1)
    }

    #[test]
    fn budget_units() {
        assert_eq!(MemoryBudget::from_mib(2).bytes(), 2 * 1024 * 1024);
        assert_eq!(MemoryBudget::from_kib(3).bytes(), 3 * 1024);
        assert_eq!(MemoryBudget::from_mib(2).to_string(), "2MiB");
        assert_eq!(MemoryBudget::from_kib(3).to_string(), "3KiB");
        assert_eq!(MemoryBudget(100).to_string(), "100B");
    }

    #[test]
    fn records_never_zero() {
        assert_eq!(MemoryBudget(1).records(1024), 1);
        assert_eq!(MemoryBudget::from_kib(1).records(4), 256);
    }

    #[test]
    fn split_is_even_and_never_zero() {
        assert_eq!(MemoryBudget::from_kib(8).split(4), MemoryBudget::from_kib(2));
        assert_eq!(MemoryBudget(10).split(3), MemoryBudget(3));
        assert_eq!(MemoryBudget(1).split(16), MemoryBudget(1));
        assert_eq!(MemoryBudget::from_mib(1).split(0), MemoryBudget::from_mib(1));
        // Deterministic: same inputs, same split.
        assert_eq!(MemoryBudget(12345).split(7), MemoryBudget(12345).split(7));
    }

    #[test]
    fn options_builder_matches_presets() {
        let b = EngineOptions::builder().build().unwrap();
        assert_eq!(b, EngineOptions::default());
        let par = EngineOptions::builder()
            .threads(4)
            .worker_shards(EngineOptions::PARALLEL_WORKER_SHARDS)
            .build()
            .unwrap();
        assert_eq!(par, EngineOptions::with_parallel_workers(4));
        let ab = EngineOptions::builder().use_dos(false).dynamic_messages(false).build().unwrap();
        assert_eq!(ab, EngineOptions::without_dos_and_dm());
        let capped = EngineOptions::builder().queue_cap(3).build().unwrap();
        assert_eq!(capped.queue_cap, Some(3));
    }

    #[test]
    fn options_builder_rejects_zeroes() {
        assert!(EngineOptions::builder().threads(0).build().is_err());
        assert!(EngineOptions::builder().worker_shards(0).build().is_err());
        assert!(EngineOptions::builder().queue_cap(0).build().is_err());
    }

    #[test]
    fn adaptive_plan_is_pure_and_degrades_small_graphs() {
        let opts = EngineOptions::builder()
            .threads(8)
            .worker_shards(8)
            .adaptive(true)
            .build()
            .unwrap();
        // Plenty of work per shard: the parallel schedule stands.
        let big = streamed(&opts, 8 * EngineOptions::MIN_EDGES_PER_SHARD, 4);
        assert_eq!(big.worker_shards, 8);
        assert_eq!(big.pipeline_threads, 8);
        // One edge short of the threshold per shard: serial degrade.
        let small = streamed(&opts, 8 * EngineOptions::MIN_EDGES_PER_SHARD - 1, 4);
        assert_eq!(small.worker_shards, 1);
        assert_eq!(small.pipeline_threads, 1);
        // The shard decision never depends on pipeline_threads: every thread
        // count resolves to the same worker_shards.
        for threads in [1, 2, 8, 64] {
            let o = EngineOptions { pipeline_threads: threads, ..opts };
            assert_eq!(streamed(&o, 100, 4).worker_shards, 1);
            assert_eq!(streamed(&o, 1 << 20, 4).worker_shards, 8);
        }
        // Without adaptive, the requested schedule always stands.
        let fixed = EngineOptions { adaptive: false, ..opts };
        assert_eq!(streamed(&fixed, 1, 4).worker_shards, 8);
        assert_eq!(streamed(&fixed, 1, 4).pipeline_threads, 8);
    }

    #[test]
    fn prefetch_plan_requires_three_partitions() {
        let opts = EngineOptions::full();
        assert!(opts.prefetch, "full options request prefetch");
        // ≤2 partitions cannot hide a load behind compute: auto-disabled.
        assert!(!streamed(&opts, 1 << 20, 1).prefetch);
        assert!(!streamed(&opts, 1 << 20, 2).prefetch);
        assert!(streamed(&opts, 1 << 20, 3).prefetch);
        assert!(streamed(&opts, 1 << 20, 64).prefetch);
        // An explicit prefetch=false is never overridden back on.
        let off = EngineOptions { prefetch: false, ..opts };
        assert!(!streamed(&off, 1 << 20, 64).prefetch);
    }

    #[test]
    fn resident_plan_requires_one_partition() {
        let opts = EngineOptions::full();
        assert!(opts.in_memory_fast_path, "the fast path is the default");
        assert!(streamed(&opts, 1 << 20, 1).resident);
        // Off whenever the graph does not fit one partition, at any shape.
        for partitions in [2, 3, 8, 64] {
            assert!(!streamed(&opts, 1 << 20, partitions).resident, "{partitions}");
        }
        // The ablation control is never overridden back on.
        let off = EngineOptions { in_memory_fast_path: false, ..opts };
        assert!(!streamed(&off, 1 << 20, 1).resident);
        // Pure: independent of edge count, threads, shards and prefetch.
        for (edges, threads, shards, prefetch) in
            [(0, 1, 1, true), (1, 8, 8, false), (u64::MAX, 2, 8, true)]
        {
            let o = EngineOptions {
                pipeline_threads: threads,
                worker_shards: shards,
                prefetch,
                ..opts
            };
            assert!(streamed(&o, edges, 1).resident);
            assert!(!streamed(&o, edges, 2).resident);
            assert_eq!(streamed(&o, edges, 1), streamed(&o, edges, 1));
        }
    }

    #[test]
    fn resident_adjacency_needs_the_adjacency_to_fit_after_the_slab() {
        let opts = EngineOptions::full();
        let budget = MemoryBudget::from_mib(64);
        let slab = 4 << 20;
        let left = budget.bytes() - slab;
        // Fits exactly: the whole budget is slab + adjacency.
        let exact = opts.plan_execution(1 << 20, 1, budget, slab, left);
        assert!(exact.resident && exact.resident_adjacency);
        assert_eq!(exact.residency(), "slab+adjacency");
        // One byte over: the slab stays, the adjacency streams.
        let over = opts.plan_execution(1 << 20, 1, budget, slab, left + 1);
        assert!(over.resident && !over.resident_adjacency);
        assert_eq!(over.residency(), "slab");
        // A slab larger than the budget leaves no room at all.
        assert!(!opts.plan_execution(1, 1, MemoryBudget(8), 9, 0).resident_adjacency);
        // More than one partition never keeps anything resident.
        for partitions in [2, 3, 8] {
            let p = opts.plan_execution(1 << 20, partitions, budget, slab, 1);
            assert!(!p.resident_adjacency, "{partitions}");
            assert_eq!(p.residency(), "none");
        }
        // The ablation control is never overridden back on.
        let off = EngineOptions { in_memory_fast_path: false, ..opts };
        assert!(!off.plan_execution(1 << 20, 1, budget, slab, 1).resident_adjacency);
    }

    #[test]
    fn resident_adjacency_runs_one_shard_inline() {
        let budget = MemoryBudget::from_mib(64);
        // The default asks for 2 threads and 1 shard: resident adjacency
        // leaves no IO to overlap, so the plan runs inline.
        let opts = EngineOptions::full();
        assert_eq!(opts.pipeline_threads, 2);
        assert_eq!(opts.plan_execution(1 << 20, 1, budget, 0, 1).pipeline_threads, 1);
        // Streamed adjacency (one byte over, or many partitions) keeps them.
        let over = opts.plan_execution(1 << 20, 1, budget, 0, budget.bytes() + 1);
        assert_eq!(over.pipeline_threads, 2);
        assert_eq!(opts.plan_execution(1 << 20, 8, budget, 0, 1).pipeline_threads, 2);
        // Several shards keep their threads even with the adjacency resident.
        let par = EngineOptions::with_parallel_workers(4);
        let p = par.plan_execution(1 << 20, 1, budget, 0, 1);
        assert!(p.resident_adjacency);
        assert_eq!((p.worker_shards, p.pipeline_threads), (8, 4));
    }

    #[test]
    fn partition_count_covers_everything() {
        let b = MemoryBudget::from_kib(1); // 256 4-byte records
        assert_eq!(b.partitions_for(256, 4, 1.0), 1);
        assert_eq!(b.partitions_for(257, 4, 1.0), 2);
        assert_eq!(b.partitions_for(1024, 4, 0.5), 8);
        assert_eq!(b.partitions_for(0, 4, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn partition_fraction_validated() {
        MemoryBudget::from_kib(1).partitions_for(10, 4, 0.0);
    }

    #[test]
    fn ablation_presets() {
        assert!(EngineOptions::full().use_dos);
        assert!(!EngineOptions::without_dos().use_dos);
        assert!(EngineOptions::without_dos().dynamic_messages);
        let ab = EngineOptions::without_dos_and_dm();
        assert!(!ab.use_dos && !ab.dynamic_messages);
        assert!(EngineOptions::full().in_memory_fast_path);
        assert!(EngineOptions::with_parallel_workers(4).in_memory_fast_path);
        let control = EngineOptions::builder().in_memory_fast_path(false).build().unwrap();
        assert_eq!(control, EngineOptions { in_memory_fast_path: false, ..EngineOptions::full() });
        assert!(EngineOptions::full().prefetch);
        assert!(EngineOptions::full().worker_shards >= 1);
        let par = EngineOptions::with_parallel_workers(4);
        assert_eq!(par.pipeline_threads, 4);
        assert_eq!(par.worker_shards, EngineOptions::PARALLEL_WORKER_SHARDS);
        assert_eq!(EngineOptions::with_parallel_workers(0).pipeline_threads, 1);
        assert_eq!(EngineOptions::full().queue_cap, None);
        assert_eq!(EngineOptions::full().with_queue_cap(0).queue_cap, Some(1));
        assert_eq!(EngineOptions::with_parallel_workers(4).with_queue_cap(1).queue_cap, Some(1));
    }
}
