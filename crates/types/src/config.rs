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
    /// pure function of `(budget, shards)`.
    pub fn split(self, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        MemoryBudget((self.0 / n).max(1))
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
    /// Threads for the Sio → Dispatcher → Worker pipeline. `1` reads the
    /// adjacency inline on the engine thread; any value `≥ 2` runs the Sio
    /// read-ahead thread, which overlaps disk reads with the Worker's
    /// compute. The Worker itself always runs inline, one vertex at a time
    /// in ascending order — the paper's sequential-equivalent schedule — so
    /// results are bit-identical for every value (the guarantee is tested).
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
    /// Compatibility name for the benchmark's engine adapter
    /// (`benchmark/src/layers.rs`), which still assigns it from
    /// `Command::Run::prefetch`. The engine has no partition prefetcher and
    /// nothing reads this field; it defaults to `false` and goes away with
    /// that adapter.
    #[doc(hidden)]
    pub prefetch: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            use_dos: true,
            dynamic_messages: true,
            pipeline_threads: 2,
            in_memory_fast_path: true,
            prefetch: false,
        }
    }
}

/// The execution plan the engine actually runs: [`EngineOptions`] resolved
/// against the shape of the graph by
/// [`EngineOptions::plan_execution`]. Every field is a pure function of the
/// options, the partition count, the slab and adjacency bytes and the memory
/// budget — never of detected cores, load, or timing. No field selects a
/// schedule: each changes only where bytes live and which thread moves them,
/// never the result bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// Effective pipeline thread count (see
    /// [`EngineOptions::pipeline_threads`]). `1` whenever the adjacency is
    /// resident: no IO is left to overlap, so the Sio stage runs inline.
    pub pipeline_threads: usize,
    /// Whether the vertex slab stays in memory instead of being flushed and
    /// reloaded every iteration: `in_memory_fast_path` and a single
    /// partition. Pure residency: the engine holds the slab from its
    /// initial values to the final listing and never writes it to its
    /// working file; checkpoints frame it from memory.
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
    /// Resolve these options against the graph's shape. The inputs are
    /// deliberately limited to the partition count the memory budget
    /// produced, the budget with the bytes that would live in it —
    /// `slab_bytes` of vertex state, `adjacency_bytes` of edges, weights and
    /// degrees — and the options themselves — **never** thread availability
    /// or timing — so the returned plan is identical on every machine.
    pub fn plan_execution(
        &self,
        num_partitions: u32,
        budget: MemoryBudget,
        slab_bytes: u64,
        adjacency_bytes: u64,
    ) -> ExecutionPlan {
        let resident = self.in_memory_fast_path && num_partitions == 1;
        let resident_adjacency = resident
            && budget.bytes().checked_sub(slab_bytes).is_some_and(|left| adjacency_bytes <= left);
        let pipeline_threads = if resident_adjacency { 1 } else { self.pipeline_threads.max(1) };
        ExecutionPlan { pipeline_threads, resident, resident_adjacency }
    }

    /// The full-featured configuration (the "GraphZ" bars in the paper).
    pub fn full() -> Self {
        Self::default()
    }

    /// Compatibility name for the benchmark's engine adapter
    /// (`benchmark/src/layers.rs`), which still calls it when handed
    /// `--threads N` with `N > 1` — a flag `graphz run` no longer accepts,
    /// so the call never runs. Returns [`full`](Self::full); goes away with
    /// that adapter.
    #[doc(hidden)]
    pub fn with_parallel_workers(_threads: usize) -> Self {
        Self::full()
    }

    /// Fig. 7's "GraphZ w/o DOS" configuration.
    pub fn without_dos() -> Self {
        EngineOptions { use_dos: false, ..Self::default() }
    }

    /// Fig. 7's "GraphZ w/o DOS and DM" configuration.
    pub fn without_dos_and_dm() -> Self {
        EngineOptions { use_dos: false, dynamic_messages: false, ..Self::default() }
    }

    /// Builder-style construction following the workspace API convention
    /// (`XBuilder` + chainable setters + fallible `build()`): invalid
    /// combinations surface as
    /// [`GraphError::InvalidConfig`](crate::GraphError::InvalidConfig)
    /// instead of being silently clamped.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder { opts: Self::default() }
    }
}

/// Builder for [`EngineOptions`].
///
/// Produced by [`EngineOptions::builder`]. Every setter is chainable;
/// [`build`](Self::build) validates the configuration (the thread count
/// must be ≥ 1) and returns a typed error rather than clamping, so
/// misconfigurations are visible at the call site.
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

    /// Toggle the §VI-E in-memory fast path (on by default; `false` is the
    /// ablation control).
    pub fn in_memory_fast_path(mut self, on: bool) -> Self {
        self.opts.in_memory_fast_path = on;
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> crate::error::Result<EngineOptions> {
        use crate::error::GraphError;
        if self.opts.pipeline_threads == 0 {
            return Err(GraphError::InvalidConfig("pipeline_threads must be >= 1".into()));
        }
        Ok(self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan with a budget no adjacency fits in, so only the options and the
    /// partition count decide.
    fn streamed(o: &EngineOptions, num_partitions: u32) -> ExecutionPlan {
        o.plan_execution(num_partitions, MemoryBudget(0), 0, 1)
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
        let threads = EngineOptions::builder().threads(4).build().unwrap();
        assert_eq!(threads, EngineOptions { pipeline_threads: 4, ..EngineOptions::full() });
        let ab = EngineOptions::builder().use_dos(false).dynamic_messages(false).build().unwrap();
        assert_eq!(ab, EngineOptions::without_dos_and_dm());
    }

    #[test]
    fn options_builder_rejects_zeroes() {
        assert!(EngineOptions::builder().threads(0).build().is_err());
    }

    #[test]
    fn resident_plan_requires_one_partition() {
        let opts = EngineOptions::full();
        assert!(opts.in_memory_fast_path, "the fast path is the default");
        assert!(streamed(&opts, 1).resident);
        // Off whenever the graph does not fit one partition, at any shape.
        for partitions in [2, 3, 8, 64] {
            assert!(!streamed(&opts, partitions).resident, "{partitions}");
        }
        // The ablation control is never overridden back on.
        let off = EngineOptions { in_memory_fast_path: false, ..opts };
        assert!(!streamed(&off, 1).resident);
        // Pure: independent of threads.
        for threads in [1, 8, 2] {
            let o = EngineOptions { pipeline_threads: threads, ..opts };
            assert!(streamed(&o, 1).resident);
            assert!(!streamed(&o, 2).resident);
            assert_eq!(streamed(&o, 1), streamed(&o, 1));
        }
    }

    #[test]
    fn resident_adjacency_needs_the_adjacency_to_fit_after_the_slab() {
        let opts = EngineOptions::full();
        let budget = MemoryBudget::from_mib(64);
        let slab = 4 << 20;
        let left = budget.bytes() - slab;
        // Fits exactly: the whole budget is slab + adjacency.
        let exact = opts.plan_execution(1, budget, slab, left);
        assert!(exact.resident && exact.resident_adjacency);
        assert_eq!(exact.residency(), "slab+adjacency");
        // One byte over: the slab stays, the adjacency streams.
        let over = opts.plan_execution(1, budget, slab, left + 1);
        assert!(over.resident && !over.resident_adjacency);
        assert_eq!(over.residency(), "slab");
        // A slab larger than the budget leaves no room at all.
        assert!(!opts.plan_execution(1, MemoryBudget(8), 9, 0).resident_adjacency);
        // More than one partition never keeps anything resident.
        for partitions in [2, 3, 8] {
            let p = opts.plan_execution(partitions, budget, slab, 1);
            assert!(!p.resident_adjacency, "{partitions}");
            assert_eq!(p.residency(), "none");
        }
        // The ablation control is never overridden back on.
        let off = EngineOptions { in_memory_fast_path: false, ..opts };
        assert!(!off.plan_execution(1, budget, slab, 1).resident_adjacency);
    }

    #[test]
    fn resident_adjacency_runs_one_shard_inline() {
        let budget = MemoryBudget::from_mib(64);
        // The default asks for 2 threads: resident adjacency leaves no IO to
        // overlap, so the plan runs inline.
        let opts = EngineOptions::full();
        assert_eq!(opts.pipeline_threads, 2);
        assert_eq!(opts.plan_execution(1, budget, 0, 1).pipeline_threads, 1);
        // Streamed adjacency (one byte over, or many partitions) keeps them.
        let over = opts.plan_execution(1, budget, 0, budget.bytes() + 1);
        assert_eq!(over.pipeline_threads, 2);
        assert_eq!(opts.plan_execution(8, budget, 0, 1).pipeline_threads, 2);
    }

    #[test]
    fn ablation_presets() {
        assert!(EngineOptions::full().use_dos);
        assert!(!EngineOptions::without_dos().use_dos);
        assert!(EngineOptions::without_dos().dynamic_messages);
        let ab = EngineOptions::without_dos_and_dm();
        assert!(!ab.use_dos && !ab.dynamic_messages);
        assert!(EngineOptions::full().in_memory_fast_path);
        let control = EngineOptions::builder().in_memory_fast_path(false).build().unwrap();
        assert_eq!(control, EngineOptions { in_memory_fast_path: false, ..EngineOptions::full() });
    }
}
