//! The GraphZ engine: partition-at-a-time asynchronous execution with
//! ordered dynamic messages (paper §IV-B, §V).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphz_io::{
    FaultSurface, FramedWriter, IoSnapshot, IoStats, RecordReader, ScratchDir,
    StagedDir, SurfaceWriter, TrackedFile,
};
use graphz_storage::{PartitionSet, Partitioner};
use graphz_types::codec::decode_slice;
use graphz_types::{
    cast, EngineOptions, FixedCodec, GraphError, IoCtx, MemoryBudget, Result, VertexId,
};

/// On-disk checkpoint layout version (`manifest.txt` + framed files) —
/// defined once in [`crate::generations`], shared with every non-engine
/// consumer of a checkpoint root (the serving layer's snapshot pinning).
use crate::generations::{self, CheckpointTimes, InFlightCommit, Retention, CHECKPOINT_VERSION};

/// A framed checkpoint file being written: the frame takes the payload's
/// length and CRC32 as it streams through, and every write passes the
/// fault surface *unbuffered* so chaos tests see a deterministic op
/// sequence.
type FrameFile = FramedWriter<SurfaceWriter<TrackedFile>>;

fn create_frame(dst: &Path, stats: &Arc<IoStats>, surface: &FaultSurface) -> Result<FrameFile> {
    let out = TrackedFile::create(dst, Arc::clone(stats)).ctx("create", dst)?;
    FramedWriter::new(surface.wrap(out)).ctx("write", dst)
}

/// One checkpoint generation on its way to disk. It is planned when the
/// iteration that ends in it starts and staged at its first gated op — the
/// first partition's vertex bytes, or the resident slab at the iteration's
/// end — after the commit in flight has joined, so the previous
/// generation's commit ops all come before this one's frame header. The
/// vertex frame takes each partition's bytes right after that partition's
/// flush — from the slab the engine holds, never read back from the working
/// file — and the generation is sealed once the iteration's last partition
/// and the message spills are in.
struct PendingGeneration {
    dest: PathBuf,
    next_iteration: u32,
    stats: Arc<IoStats>,
    surface: FaultSurface,
    staged: Option<(StagedDir, FrameFile)>,
}

impl PendingGeneration {
    fn new(
        dest: PathBuf,
        next_iteration: u32,
        stats: &Arc<IoStats>,
        surface: &FaultSurface,
    ) -> Self {
        let (stats, surface) = (Arc::clone(stats), surface.clone());
        PendingGeneration { dest, next_iteration, stats, surface, staged: None }
    }

    /// The staged tree and its vertex frame, taken out of `self`: staged
    /// now — once `behind` has joined — if this is the generation's first
    /// gated op.
    fn take_staged(&mut self, behind: &mut InFlightCommit) -> Result<(StagedDir, FrameFile)> {
        if let Some(staged) = self.staged.take() {
            return Ok(staged);
        }
        behind.wait()?;
        let dest = &self.dest;
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent).ctx("create-dir", parent)?;
        }
        let staged = StagedDir::stage(dest, &self.surface).ctx("stage", dest)?;
        let frame = staged.path().join("vertices.bin");
        let vertices = create_frame(&frame, &self.stats, &self.surface)?;
        Ok((staged, vertices))
    }

    /// Append the next partition's vertex bytes (partitions come in
    /// ascending order, so the frame is the vertex array in storage order).
    fn append(&mut self, behind: &mut InFlightCommit, bytes: &[u8]) -> Result<()> {
        let pair = self.take_staged(behind)?;
        let (staged, vertices) = self.staged.insert(pair);
        vertices.write_all(bytes).ctx("write", staged.path())
    }

    /// Seal the generation: end the vertex frame, frame every spill segment
    /// of `msgs_dir`, and write the manifest into the staged tree, which is
    /// returned ready to commit. One CRC pass per file (the frame's own);
    /// the commit adds one fsync per file.
    fn seal(
        mut self,
        behind: &mut InFlightCommit,
        msgs_dir: &Path,
        partitions: u32,
        counters: crate::msgmanager::MsgCounters,
    ) -> Result<StagedDir> {
        let (staged, mut vertices) = self.take_staged(behind)?;
        let mut mf = graphz_storage::meta::MetaFile::new();
        mf.set("format", "graphz-checkpoint")
            .set("version", CHECKPOINT_VERSION)
            .set("next_iteration", self.next_iteration)
            .set("partitions", partitions)
            .set("msg_buffered", counters.buffered)
            .set("msg_spilled", counters.spilled)
            .set("msg_replayed", counters.replayed);

        mf.record_file("vertices.bin", vertices.finish().ctx("write", staged.path())?);

        let msg_dst = staged.path().join("msgs");
        std::fs::create_dir(&msg_dst).ctx("create-dir", &msg_dst)?;
        let mut spill_names: Vec<std::ffi::OsString> = Vec::new();
        for entry in std::fs::read_dir(msgs_dir).ctx("read-dir", msgs_dir)? {
            spill_names.push(entry.ctx("read-dir", msgs_dir)?.file_name());
        }
        // Deterministic order so fault-sweep op counts are reproducible.
        spill_names.sort();
        let mut buf = vec![0u8; 64 * 1024];
        for name in spill_names {
            // Spill segments are sealed files: copied, framed on the way.
            let (src, dst) = (msgs_dir.join(&name), msg_dst.join(&name));
            let mut reader =
                graphz_io::tracked::reader(&src, Arc::clone(&self.stats)).ctx("read", &src)?;
            let mut frame = create_frame(&dst, &self.stats, &self.surface)?;
            loop {
                let n = reader.read(&mut buf).ctx("read", &src)?;
                if n == 0 {
                    break;
                }
                frame.write_all(&buf[..n]).ctx("write", &dst)?;
            }
            let fingerprint = frame.finish().ctx("write", &dst)?;
            mf.record_file(&format!("msgs/{}", name.to_string_lossy()), fingerprint);
        }

        // The manifest is one more staged file: written once, gated, and
        // fsynced with the rest of the tree by the commit.
        let manifest = staged.path().join("manifest.txt");
        let out =
            TrackedFile::create(&manifest, Arc::clone(&self.stats)).ctx("create", &manifest)?;
        self.surface
            .wrap(out)
            .labeled("write-manifest")
            .write_all(mf.render().as_bytes())
            .ctx("write", &manifest)?;
        Ok(staged)
    }
}

/// Encode `slab` into the reusable `buf`.
fn encode_slab<V: FixedCodec>(buf: &mut Vec<u8>, slab: &[V]) {
    buf.resize(slab.len() * V::SIZE, 0);
    for (v, out) in slab.iter().zip(buf.chunks_exact_mut(V::SIZE)) {
        v.write_to(out);
    }
}

/// Read vertices `[a, b)` of a vertex file into the reusable `bytes` —
/// one seek, one read — and return them.
fn read_vertices<'b, V: FixedCodec>(
    file: &mut TrackedFile,
    bytes: &'b mut Vec<u8>,
    a: VertexId,
    b: VertexId,
) -> Result<&'b [u8]> {
    bytes.resize((b - a) as usize * V::SIZE, 0);
    file.seek(SeekFrom::Start(a as u64 * V::SIZE as u64))?;
    file.read_exact(bytes)?;
    Ok(bytes)
}

/// The initial values of the vertices from `a` on with out-degrees
/// `degrees`, as `program.init` makes them.
fn initial_slab<P: VertexProgram>(
    program: &P,
    a: VertexId,
    degrees: &[u32],
) -> Vec<P::VertexData> {
    degrees.iter().zip(a..).map(|(&d, vid)| program.init(vid, d)).collect()
}

/// The working vertex file at `path` in `slot`, opened for reading and
/// writing on first use; the first flush of a partitioned run creates it.
fn working_file<'f>(
    slot: &'f mut Option<TrackedFile>,
    path: &Path,
    stats: &Arc<IoStats>,
) -> Result<&'f mut TrackedFile> {
    Ok(match slot.take() {
        Some(file) => slot.insert(file),
        None => slot.insert(TrackedFile::open_rw(path, Arc::clone(stats)).ctx("open-rw", path)?),
    })
}

/// Vertices `[a, b)` encoded into the reusable `buf`: read from the working
/// file (`path`, opened into `file` on first use) if it holds them
/// (`stored`), else made by `program.init` from the index degrees.
fn partition_bytes<'b, P: VertexProgram>(
    (program, store, stats): (&P, &dyn GraphStore, &Arc<IoStats>),
    (path, file): (&Path, &mut Option<TrackedFile>),
    stored: bool,
    buf: &'b mut Vec<u8>,
    (a, b): (VertexId, VertexId),
) -> Result<&'b [u8]> {
    if stored {
        let file = working_file(file, path, stats)?;
        return read_vertices::<P::VertexData>(file, buf, a, b).ctx("read", path);
    }
    let (_, degrees) = store.partition_index(a, b, stats)?;
    encode_slab(buf, &initial_slab(program, a, &degrees));
    Ok(buf)
}

/// `count` records of `path` from record `first` on, in a vector of that
/// capacity, read in one pass through one 64 KiB buffer. A file that ends
/// early is [`GraphError::Corrupt`] naming it.
fn read_records_at<T: FixedCodec>(
    path: &Path,
    (first, count): (u64, u64),
    stats: &Arc<IoStats>,
) -> Result<Vec<T>> {
    let mut file = TrackedFile::open(path, Arc::clone(stats)).ctx("open", path)?;
    file.seek(SeekFrom::Start(first * T::SIZE as u64)).ctx("seek", path)?;
    let range = file.take(count * T::SIZE as u64);
    let mut out = Vec::with_capacity(cast::to_usize(count, "record count")?);
    let read = RecordReader::<T, _>::from_reader(range)
        .try_for_each_record(|record| {
            out.push(record);
            Ok(())
        })
        .ctx("read", path)?;
    if read != count {
        let path = path.display();
        return Err(GraphError::Corrupt(format!(
            "{path} ended early: {read} of {count} records from record {first}"
        )));
    }
    Ok(out)
}

/// Granularity of dirty write-back: a flushed slab is compared with the
/// bytes it was loaded from in blocks of about this many bytes (a whole
/// number of records).
const SLAB_BLOCK: usize = 4096;

/// Write back only what changed: encode `slab` block by block through the
/// reusable `scratch`, compare each block with `loaded` — the bytes the
/// partition was read from — and write each run of differing blocks over
/// the vertex file's records starting at vertex `first`. Afterwards
/// `loaded` holds the new bytes. Returns the bytes written.
fn write_dirty<V: FixedCodec>(
    file: &mut TrackedFile,
    loaded: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    first: VertexId,
    slab: &[V],
) -> Result<u64> {
    let base = first as u64 * V::SIZE as u64;
    let mut write_run = |bytes: &[u8], at: usize| -> Result<u64> {
        file.seek(SeekFrom::Start(base + at as u64))?;
        file.write_all(bytes)?;
        Ok(bytes.len() as u64)
    };
    // Bytes that do not match the slab's shape say nothing: write it all.
    let whole = loaded.len() != slab.len() * V::SIZE;
    if whole {
        loaded.clear();
        loaded.resize(slab.len() * V::SIZE, 0);
    }
    let per_block = (SLAB_BLOCK / V::SIZE).max(1);
    let mut written = 0u64;
    let mut run_start: Option<usize> = None;
    for (k, values) in slab.chunks(per_block).enumerate() {
        let at = k * per_block * V::SIZE;
        encode_slab(scratch, values);
        let old = &mut loaded[at..at + scratch.len()];
        if whole || old != scratch.as_slice() {
            old.copy_from_slice(scratch);
            run_start.get_or_insert(at);
        } else if let Some(from) = run_start.take() {
            written += write_run(&loaded[from..at], from)?;
        }
    }
    if let Some(from) = run_start {
        written += write_run(&loaded[from..], from)?;
    }
    Ok(written)
}

/// Bytes a resident adjacency of `num_vertices` vertices and `num_edges`
/// edges occupies: a `u32` target per edge, an `f32` weight per edge when the
/// image is weighted, and a `u32` degree per vertex.
fn adjacency_bytes(num_vertices: u64, num_edges: u64, weighted: bool) -> u64 {
    let per_edge = if weighted { 8 } else { 4 };
    num_edges.saturating_mul(per_edge).saturating_add(num_vertices.saturating_mul(4))
}

use crate::msgmanager::MsgManager;
use crate::program::VertexProgram;
use crate::sio;
use crate::store::GraphStore;
use crate::worker::{replay, Worker};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Memory the engine may use for resident vertex state and message
    /// buffers — the "RAM" knob of the paper's evaluation.
    pub budget: MemoryBudget,
    /// Ablation switches (DOS / dynamic messages / pipelining), Fig. 7.
    pub options: EngineOptions,
    /// Edges per Sio block.
    pub batch_edges: usize,
    /// Where spill files live; defaults to the system temp dir.
    pub scratch_base: Option<PathBuf>,
    /// Root directory for periodic checkpoint generations (`gen-NNNNNNNN/`
    /// subdirectories). `None` disables mid-run checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint after every `n` completed iterations (0 = never). Takes
    /// effect only when `checkpoint_dir` is set.
    pub checkpoint_every: u32,
    /// The fault surface every checkpoint file op passes: planned faults
    /// and the retry policy for transient ones. Production code leaves it
    /// inert ([`FaultSurface::none`]); chaos tests arm it.
    pub checkpoint_surface: FaultSurface,
    /// Test hook: keep every checkpoint generation instead of the newest
    /// [`RETAINED_GENERATIONS`](crate::generations::RETAINED_GENERATIONS),
    /// for suites that inspect the whole history (`golden_values.rs`, and
    /// every split run of the plan matrix in `crates/algos/tests/common/`).
    /// Production code, the CLI included, leaves it `false`.
    pub keep_all_generations: bool,
}

impl EngineConfig {
    pub fn new(budget: MemoryBudget) -> Self {
        EngineConfig {
            budget,
            options: EngineOptions::default(),
            batch_edges: sio::DEFAULT_BATCH_EDGES,
            scratch_base: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            checkpoint_surface: FaultSurface::none(),
            keep_all_generations: false,
        }
    }

    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    pub fn with_batch_edges(mut self, batch_edges: usize) -> Self {
        assert!(batch_edges > 0);
        self.batch_edges = batch_edges;
        self
    }

    /// Write a checkpoint generation under `dir` after every `n` completed
    /// iterations.
    pub fn checkpoint_every(mut self, dir: impl Into<PathBuf>, n: u32) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = n;
        self
    }

    /// Keep every checkpoint generation (test hook; see
    /// [`keep_all_generations`](Self::keep_all_generations)).
    pub fn keeping_all_generations(mut self) -> Self {
        self.keep_all_generations = true;
        self
    }

    /// Route checkpoint IO through a fault surface (chaos tests only).
    pub fn with_checkpoint_faults(mut self, surface: FaultSurface) -> Self {
        self.checkpoint_surface = surface;
        self
    }
}

/// Wall-clock time spent in each pipeline stage, as observed from the
/// engine thread (with the Sio read-ahead thread, reads overlap compute —
/// these measure where the *engine* waited).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    /// Loading the partition index and vertex slab.
    pub load: Duration,
    /// Draining pending messages and applying them to the slab.
    pub replay: Duration,
    /// Streaming adjacency batches through the Worker stage, which hands
    /// each deferred message to the MsgManager (and its spills) as it is
    /// sent.
    pub compute: Duration,
    /// Writing the partition's vertex slab back to disk.
    pub flush: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.load + self.replay + self.compute + self.flush
    }
}

impl std::ops::Add for StageTimes {
    type Output = StageTimes;

    fn add(self, rhs: StageTimes) -> StageTimes {
        StageTimes {
            load: self.load + rhs.load,
            replay: self.replay + rhs.replay,
            compute: self.compute + rhs.compute,
            flush: self.flush + rhs.flush,
        }
    }
}

/// Per-iteration progress record (convergence analysis, debugging).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    /// 0-based iteration number.
    pub iteration: u32,
    /// Vertices that [`UpdateContext::mark_changed`]-ed.
    ///
    /// [`UpdateContext::mark_changed`]: crate::UpdateContext::mark_changed
    pub changed: u64,
    /// Messages emitted by `update()` calls this iteration.
    pub messages_sent: u64,
    /// Messages applied via the dynamic fast path this iteration.
    pub dynamic_applied: u64,
    /// Engine-thread wall time per pipeline stage this iteration.
    pub stages: StageTimes,
    /// Cumulative batch-pool counters at the end of this iteration. A
    /// steady-state run shows `fresh` flat after the first iteration: every
    /// adjacency batch is a recycled buffer.
    pub pool: sio::PoolCounters,
}

/// What activity-aware scheduling saved, or wrote, in one [`Engine::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Partition passes not run at all: the partition had no pending
    /// messages and no vertex that wanted an update.
    pub passes_skipped: u64,
    /// Adjacency bytes (edge targets, plus weights when the image has them)
    /// the Sio stream seeked past inside the partitions it did load.
    pub adjacency_bytes_skipped: u64,
    /// Skipped blocks read back after a dynamic message woke a vertex
    /// inside them.
    pub gaps_reread: u64,
    /// Working vertex-file bytes written: the whole slab at a partition's
    /// first flush, the changed 4 KiB blocks at every later one, and, at the
    /// run's end, the initial values of each partition no flush has written.
    /// Always 0 on the resident plan, which never writes the file.
    pub slab_bytes_written: u64,
}

/// What one [`Engine::run`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Iterations executed (including the final quiet one).
    pub iterations: u32,
    /// Whether the run stopped because an iteration changed nothing.
    pub converged: bool,
    /// Number of partitions the vertex space was split into.
    pub partitions: u32,
    /// Messages emitted by `update()` calls.
    pub messages_sent: u64,
    /// Messages applied immediately because the destination was resident
    /// (the dynamic-message fast path).
    pub dynamic_applied: u64,
    /// Messages buffered for non-resident partitions.
    pub buffered: u64,
    /// Buffered messages that overflowed to spill files.
    pub spilled: u64,
    /// Buffered messages replayed at partition loads.
    pub replayed: u64,
    /// The most messages the MsgManager held in memory at once: at most
    /// its cap (a quarter of the budget, in envelopes) plus one.
    pub msg_high_water: u64,
    /// IO charged to this run (engine traffic only).
    pub io: IoSnapshot,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Engine-thread wall time per pipeline stage, summed over the run.
    pub stages: StageTimes,
    /// Batch-pool allocation/reuse counters over the whole run.
    pub pool: sio::PoolCounters,
    /// Bytes activity-aware scheduling skipped, and slab bytes written.
    pub activity: ActivityCounters,
    /// The execution plan the run resolved to (read-ahead, residency) — a
    /// pure function of graph shape, budget and options.
    pub plan: graphz_types::ExecutionPlan,
    /// Checkpoint generations committed, and the time spent sealing them on
    /// the engine thread, waiting to join their commits, and committing
    /// them behind the engine. [`StageTimes`] counts none of it.
    pub checkpoint: CheckpointTimes,
    /// Per-iteration progress (one entry per executed iteration).
    pub per_iteration: Vec<IterationStats>,
}

/// The GraphZ engine, generic over the vertex program.
pub struct Engine<P: VertexProgram> {
    store: Box<dyn GraphStore>,
    program: P,
    config: EngineConfig,
    stats: Arc<IoStats>,
    scratch: ScratchDir,
    partitions: PartitionSet,
    /// The execution plan: a pure function of the graph's shape, the budget
    /// and the options (never thread availability or timing), resolved once.
    /// It decides where bytes live and which thread moves them, never the
    /// result bits.
    plan: graphz_types::ExecutionPlan,
    /// The working vertex file. It holds only what memory does not: the
    /// partitions a flush (or a restore) has written, and never the resident
    /// plan's slab.
    vertices_path: PathBuf,
    /// Per partition: whether the working file holds its values. A partition
    /// no flush has written still has `program.init`'s values, made again
    /// wherever they are needed; a partitioned run's end writes them, so
    /// after a run the file is complete.
    stored: Vec<bool>,
    /// The resident plan's whole vertex array, owned here between runs from
    /// `initialize()` on. `None` on every other plan, and after a restore
    /// until the next run loads the restored file.
    slab: Option<Vec<P::VertexData>>,
    msgs: MsgManager<P::Message>,
    /// Per partition: whether a vertex may want an update the next time the
    /// partition comes up. Reset to all-`true` whenever a run starts — after
    /// a restore too, so it is never part of a checkpoint — then seeded from
    /// the initial values by a fresh run's `initialize()` and recomputed
    /// from the slab at every flush.
    active: Vec<bool>,
    initialized: bool,
    /// Global iteration counter: persists across `run` calls (and through
    /// checkpoint/restore) so iteration-dependent programs stay correct when
    /// a long computation is resumed.
    next_iteration: u32,
}

impl<P: VertexProgram> Engine<P> {
    pub fn new(
        store: Box<dyn GraphStore>,
        program: P,
        config: EngineConfig,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let scratch = match &config.scratch_base {
            Some(base) => ScratchDir::new_in(base, "graphz-engine").ctx("scratch", base)?,
            None => ScratchDir::new("graphz-engine")?,
        };
        let partitions = Partitioner::new(config.budget)
            .layout(store.num_vertices(), P::VertexData::SIZE);
        let msgs = MsgManager::new(
            scratch.file("msgs"),
            partitions.num_partitions(),
            config.budget.bytes() / 4,
            Arc::clone(&stats),
        )?;
        let num_vertices = store.num_vertices();
        let plan = config.options.plan_execution(
            partitions.num_partitions(),
            config.budget,
            num_vertices.saturating_mul(P::VertexData::SIZE as u64),
            adjacency_bytes(num_vertices, store.num_edges(), store.weights_path().is_some()),
        );
        let vertices_path = scratch.file("vertices.bin");
        let active = vec![true; partitions.num_partitions() as usize];
        Ok(Engine {
            store,
            program,
            config,
            stats,
            scratch,
            stored: vec![false; partitions.num_partitions() as usize],
            partitions,
            plan,
            vertices_path,
            slab: None,
            msgs,
            active,
            initialized: false,
            next_iteration: 0,
        })
    }

    pub fn store(&self) -> &dyn GraphStore {
        self.store.as_ref()
    }

    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    pub fn num_partitions(&self) -> u32 {
        self.partitions.num_partitions()
    }

    pub fn scratch_dir(&self) -> &ScratchDir {
        &self.scratch
    }

    /// Translate an original vertex id into the engine's storage id (needed
    /// for algorithm parameters like a BFS source).
    pub fn to_storage_id(&self, original: VertexId) -> Result<VertexId> {
        self.store.to_storage_id(original, &self.stats)
    }

    /// Start the computation over (called automatically by `run`): seed each
    /// partition's activity bit from its initial values. The resident plan
    /// keeps the initial vertex array in memory; no plan writes it to the
    /// working file, whose partitions the first flush of each writes.
    pub fn initialize(&mut self) -> Result<()> {
        self.slab = None;
        for (part, a, b) in self.partitions.iter() {
            let (_, degrees) = self.store.partition_index(a, b, &self.stats)?;
            let program = &self.program;
            let mut initial = degrees.iter().zip(a..).map(|(&d, vid)| program.init(vid, d));
            self.active[part as usize] = initial.any(|value| program.wants_update(&value, 0));
            // The resident plan's one partition is the whole vertex array.
            if self.plan.resident {
                self.slab = Some(initial_slab(program, a, &degrees));
            }
        }
        self.stored.fill(false);
        self.initialized = true;
        self.next_iteration = 0;
        Ok(())
    }

    /// Run up to `max_iterations` *further* iterations, stopping early after
    /// any iteration in which no vertex
    /// [`UpdateContext::mark_changed`](crate::UpdateContext::mark_changed)-ed.
    /// Consecutive `run` calls continue the global iteration count, so
    /// `run(3)` followed by `run(7)` is equivalent to one `run(10)`
    /// (checkpointable long computations rely on this).
    pub fn run(&mut self, max_iterations: u32) -> Result<RunSummary> {
        let start = Instant::now();
        let io_before = self.stats.snapshot();
        // Conservative at every start: whatever happened since the last
        // flush (a restore, say) is treated as activity.
        self.active.fill(true);
        if !self.initialized {
            self.initialize()?;
        }
        let num_vertices = self.store.num_vertices();
        let mut iterations = 0;
        let mut converged = false;
        let mut per_iteration: Vec<IterationStats> = Vec::new();
        let mut pool = sio::PoolCounters::default();
        let mut activity = ActivityCounters::default();
        // Each generation commits on its own thread behind the next
        // iteration; dropping this on an error return joins it.
        let mut commits = InFlightCommit::default();
        let plan = self.plan;

        if num_vertices > 0 {
            let first_iteration = self.next_iteration;
            let mut pass = PartitionPass::open(self);
            let (config, surface) = (pass.config, &pass.config.checkpoint_surface);
            for step in 0..max_iterations {
                let iter = first_iteration + step;
                iterations = step + 1;

                // Periodic crash-safe checkpoint. The generation number is
                // the iteration count a restored engine resumes at, so the
                // sequence keeps ascending across crash/resume cycles. It is
                // planned now so each partition's flush can feed its frame,
                // and staged at the first of them, once the previous
                // generation's commit has joined.
                let every = config.checkpoint_every;
                let mut generation = match &config.checkpoint_dir {
                    Some(root) if every > 0 && (step + 1) % every == 0 => {
                        let dest = generations::generation_path(root, iter + 1);
                        Some(PendingGeneration::new(dest, iter + 1, pass.stats, surface))
                    }
                    _ => None,
                };

                let done = pass.sweep(iter, generation.as_mut(), &mut commits)?;
                per_iteration.push(done);

                if let Some(mut g) = generation.take() {
                    let (t_seal, waited_before) = (Instant::now(), commits.times().waited);
                    pass.frame_resident(&mut g, &mut commits)?;
                    pass.msgs.flush()?;
                    let (counters, parts) =
                        (pass.msgs.counters(), pass.partitions.num_partitions());
                    let committed = g.next_iteration;
                    let staged = g.seal(&mut commits, pass.msgs.dir(), parts, counters)?;
                    // A join the resident frame's staging waited on is
                    // `waited` time, not sealing.
                    let waited = commits.times().waited - waited_before;
                    commits.add_seal(t_seal.elapsed().saturating_sub(waited));
                    // The fsyncs, the rename and retention run behind the
                    // next iteration; its first gated op joins them.
                    let retention = match &config.checkpoint_dir {
                        Some(root) if !config.keep_all_generations => {
                            Some(Retention { root: root.clone(), committed })
                        }
                        _ => None,
                    };
                    commits.start(staged, retention, surface)?;
                }

                if done.changed == 0 {
                    converged = true;
                    break;
                }
            }
            // No commit outlives the run: the last generation is durable and
            // retained before the run counts its iterations.
            commits.wait()?;
            let finished = pass.finish();
            self.next_iteration += iterations;
            (pool, activity) = finished?;
        } else {
            converged = true;
        }

        let mc = self.msgs.counters();
        let total = |count: fn(&IterationStats) -> u64| per_iteration.iter().map(count).sum();
        Ok(RunSummary {
            iterations,
            converged,
            partitions: self.partitions.num_partitions(),
            messages_sent: total(|s| s.messages_sent),
            dynamic_applied: total(|s| s.dynamic_applied),
            buffered: mc.buffered,
            spilled: mc.spilled,
            replayed: mc.replayed,
            msg_high_water: mc.high_water,
            io: self.stats.snapshot() - io_before,
            wall: start.elapsed(),
            stages: per_iteration.iter().fold(StageTimes::default(), |t, s| t + s.stages),
            pool,
            activity,
            plan,
            checkpoint: commits.times(),
            per_iteration,
        })
    }

    /// Checkpoint the engine's whole computation state — vertex values,
    /// pending messages, iteration counter — into `dir`. The engine can
    /// continue running afterwards; a fresh engine over the same graph and
    /// program can [`restore`](Self::restore) and continue where this one
    /// left off.
    ///
    /// The write is crash-consistent: everything is staged into `dir.tmp/`,
    /// each file is wrapped in a checksummed frame and listed with its
    /// length and CRC32 in `manifest.txt`, the tree is fsynced, and the
    /// staging directory is atomically renamed over `dir`. A failure at any
    /// point leaves either the previous checkpoint or the new one (a crash
    /// mid-swap leaves it as `dir.old`, which the next checkpoint puts back).
    pub fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        if !self.initialized {
            return Err(GraphError::InvalidConfig(
                "cannot checkpoint before the engine has initialized".into(),
            ));
        }
        self.msgs.flush()?;
        // The same writer a run uses, with no partition teed from a flush:
        // every partition's vertices come from where they live. It commits
        // on this thread, so there is never a commit in flight to join.
        let mut idle = InFlightCommit::default();
        let mut g = PendingGeneration::new(
            dir.to_path_buf(),
            self.next_iteration,
            &self.stats,
            &self.config.checkpoint_surface,
        );
        let (mut file, mut buf) = (None, Vec::new());
        for (part, a, b) in self.partitions.iter() {
            let bytes = match &self.slab {
                Some(slab) => {
                    encode_slab(&mut buf, slab);
                    &buf[..]
                }
                None => partition_bytes(
                    (&self.program, self.store.as_ref(), &self.stats),
                    (&self.vertices_path, &mut file),
                    self.stored[part as usize],
                    &mut buf,
                    (a, b),
                )?,
            };
            g.append(&mut idle, bytes)?;
        }
        let (counters, parts) = (self.msgs.counters(), self.partitions.num_partitions());
        // Typed so the ipa call graph resolves `commit` to `StagedDir`'s
        // alone, not to every workspace `commit` (DESIGN.md §6k).
        let staged: StagedDir = g.seal(&mut idle, self.msgs.dir(), parts, counters)?;
        staged.commit().ctx("commit", dir)
    }

    /// Restore a computation previously saved with
    /// [`checkpoint`](Self::checkpoint). The engine must have been built
    /// over the same graph, program, and budget (partition layout is
    /// verified).
    ///
    /// Every file is read once: unframed into a staged scratch name and
    /// verified against the manifest's length and CRC32 as it streams. The
    /// staged files replace the engine's only after all of them verified;
    /// damage surfaces as typed
    /// [`GraphError::Corrupt`] (or [`GraphError::NotFound`] for a missing
    /// checkpoint), never as silently wrong values.
    pub fn restore(&mut self, dir: &Path) -> Result<()> {
        // Structural validation + checksum verification live in the shared
        // generations module (the serving layer pins generations through
        // the same code); the partition-compatibility check and the apply
        // pass are engine-specific.
        let manifest = generations::GenerationManifest::load(dir, &self.stats)?;
        let partitions = manifest.partitions()?;
        if partitions != self.partitions.num_partitions() {
            return Err(GraphError::InvalidConfig(format!(
                "checkpoint has {partitions} partitions, engine has {} — graph or budget mismatch",
                self.partitions.num_partitions()
            )));
        }

        // Staging pass: unframe every listed file once into a staged name
        // under the engine's scratch directory, checking it against its
        // manifest entry as it streams. Nothing the engine uses is touched
        // yet, so a damaged generation leaves the engine as it was.
        let staging = self.scratch.file("restore");
        match std::fs::remove_dir_all(&staging) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(GraphError::from(e)).ctx("remove-dir", &staging),
        }
        std::fs::create_dir_all(&staging).ctx("create-dir", &staging)?;
        let mut moves = Vec::new();
        for (i, (rel, _)) in manifest.meta().files().enumerate() {
            let dst = if rel == "vertices.bin" {
                self.vertices_path.clone()
            } else if let Some(name) = rel.strip_prefix("msgs/") {
                self.msgs.dir().join(name)
            } else {
                return Err(GraphError::Corrupt(format!(
                    "checkpoint manifest lists unexpected file `{rel}`"
                )));
            };
            let staged = staging.join(format!("{i:06}"));
            manifest.unframe_to(rel, &staged, &self.stats)?;
            moves.push((staged, dst));
        }

        let mf = manifest.meta();
        let counters = crate::msgmanager::MsgCounters {
            buffered: mf.get_u64("msg_buffered")?,
            spilled: mf.get_u64("msg_spilled")?,
            replayed: mf.get_u64("msg_replayed")?,
            high_water: 0,
        };

        // Apply pass: every file verified; move them into place.
        for entry in std::fs::read_dir(self.msgs.dir()).ctx("read-dir", self.msgs.dir())? {
            let _ = std::fs::remove_file(entry.ctx("read-dir", self.msgs.dir())?.path());
        }
        for (staged, dst) in &moves {
            std::fs::rename(staged, dst).ctx("rename", dst)?;
        }
        let _ = std::fs::remove_dir(&staging);
        // Also closes the segment files the removed spills were open in.
        self.msgs.restore(counters);
        // The restored file holds every partition; the next run loads it.
        self.slab = None;
        self.stored.fill(true);
        self.next_iteration = manifest.next_iteration()?;
        self.initialized = true;
        Ok(())
    }

    /// Resume from the newest valid checkpoint generation under `root`
    /// (as written by [`EngineConfig::checkpoint_every`]).
    ///
    /// Generations are scanned newest-first; a damaged one — torn rename,
    /// truncated file, checksum mismatch — is skipped and the next older
    /// generation is tried. Returns the `next_iteration` of the generation
    /// resumed, or `None` if no usable generation exists (the caller starts
    /// from scratch). Only crash damage is skipped: a generation from an
    /// incompatible engine layout still fails with
    /// [`GraphError::InvalidConfig`].
    pub fn resume_latest(&mut self, root: &Path) -> Result<Option<u32>> {
        for generation in generations::list_generations(root)? {
            match self.restore(&generation.path) {
                Ok(()) => return Ok(Some(generation.number)),
                // Crash damage: skip to the next older generation.
                Err(GraphError::Corrupt(_) | GraphError::NotFound(_) | GraphError::Io(_)) => {
                    continue
                }
                Err(other) => return Err(other),
            }
        }
        Ok(None)
    }

    fn ensure_ran(&self) -> Result<()> {
        if self.initialized {
            Ok(())
        } else {
            Err(GraphError::InvalidConfig("engine has not run yet".into()))
        }
    }

    /// Pass every final value to `f` in storage order: straight from the
    /// resident slab, else one partition's bytes at a time (at most half the
    /// budget), as [`partition_bytes`] finds them.
    fn for_each_in_storage_order(
        &self,
        mut f: impl FnMut(P::VertexData) -> Result<()>,
    ) -> Result<()> {
        self.ensure_ran()?;
        if let Some(slab) = &self.slab {
            return slab.iter().try_for_each(|value| f(value.clone()));
        }
        let (mut file, mut buf) = (None, Vec::new());
        for (part, a, b) in self.partitions.iter() {
            let bytes = partition_bytes(
                (&self.program, self.store.as_ref(), &self.stats),
                (&self.vertices_path, &mut file),
                self.stored[part as usize],
                &mut buf,
                (a, b),
            )?;
            let size = P::VertexData::SIZE;
            bytes.chunks_exact(size).map(P::VertexData::read_from).try_for_each(&mut f)?;
        }
        Ok(())
    }

    /// Final vertex values in storage order.
    pub fn values(&self) -> Result<Vec<P::VertexData>> {
        let mut out = Vec::new();
        self.for_each_in_storage_order(|value| {
            out.push(value);
            Ok(())
        })?;
        Ok(out)
    }

    /// Stream the final values in storage order, each with its *original*
    /// id: one pass over the values — the resident slab, or the working file
    /// through one read buffer — zipped with the store's id map
    /// ([`GraphStore::original_id_stream`]), holding one read buffer of it.
    /// Returns the vertex count. A damaged id map stops the pass with the
    /// [`GraphError::Corrupt`] that names it; the values before the damage
    /// have already been passed to `f`.
    pub fn for_each_value<F: FnMut(VertexId, P::VertexData)>(&self, mut f: F) -> Result<u64> {
        let mut originals = self.store.original_id_stream(&self.stats)?;
        let mut count = 0u64;
        self.for_each_in_storage_order(|value| {
            // The id stream yields exactly one id per vertex.
            if let Some(id) = originals.next() {
                f(id?, value);
                count += 1;
            }
            Ok(())
        })?;
        Ok(count)
    }

    /// Final vertex values re-ordered by *original* vertex id, for
    /// comparison with other engines: [`for_each_value`](Self::for_each_value)
    /// collected into a vector indexed by original id.
    pub fn values_by_original_id(&self) -> Result<Vec<P::VertexData>> {
        let n = cast::to_usize(self.store.num_vertices(), "vertex count")?;
        let mut out: Vec<P::VertexData> = vec![P::VertexData::default(); n];
        // The stream checks every id against V, so the index is in bounds.
        self.for_each_value(|id, value| out[cast::vertex_index(id)] = value)?;
        Ok(out)
    }
}

/// A partition loaded for the Worker: its slab and its index.
struct Loaded<V> {
    slab: Vec<V>,
    start_edge: u64,
    degrees: Vec<u32>,
}

/// How the compute stage feeds the Worker: the resident adjacency, a
/// stream over every block (opened before the replay, so Sio reads ahead
/// while it applies), or one over the blocks of the vertices that want an
/// update, known only once the replay has applied.
enum Feed {
    Resident,
    Stream(sio::AdjacencyStream),
    Tracked { start_edge: u64, degrees: Vec<u32> },
}

/// A partition's pass through the pipeline (paper §V, Fig. 4), as four
/// stages: [`load`](Self::load), [`replay`](Self::replay) (which starts
/// the Worker), [`compute`](Self::compute) and [`flush`](Self::flush). It
/// holds the engine for one [`Engine::run`] and owns every buffer the
/// partitions reuse.
struct PartitionPass<'e, P: VertexProgram> {
    store: &'e dyn GraphStore,
    program: &'e P,
    stats: &'e Arc<IoStats>,
    config: &'e EngineConfig,
    partitions: &'e PartitionSet,
    msgs: &'e mut MsgManager<P::Message>,
    active: &'e mut [bool],
    plan: graphz_types::ExecutionPlan,
    vertices_path: &'e Path,
    /// Which partitions the working file holds (see [`Engine`]'s field).
    stored: &'e mut [bool],
    /// The working vertex file, opened by the first load or flush that
    /// needs it: loads of written partitions read it, flushes write it.
    vfile: Option<TrackedFile>,
    /// The partition's slab bytes as loaded (none, for a partition loaded
    /// from `program.init`); after its flush, as written.
    slab_bytes: Vec<u8>,
    /// The block a flush encodes into to find the blocks that changed.
    block_bytes: Vec<u8>,
    /// Reads back a skipped block a dynamic message woke: opened with the
    /// run's first stream that may skip blocks.
    gap_reader: Option<sio::GapReader>,
    /// The engine's resident slab: the vertex array, when the plan keeps it
    /// in memory across iterations (§VI-E future work) instead of flushing
    /// and reloading it. A load takes it, a flush puts it back, so the
    /// engine holds it again when the run ends.
    resident: &'e mut Option<Vec<P::VertexData>>,
    /// The whole adjacency, when the plan keeps it resident too.
    adjacency: Option<sio::AdjBatch>,
    /// The stream's batches, pre-warmed to the most in flight (the Sio
    /// producer's hand + its queue + the Worker's hand + a gap read back):
    /// after iteration 1 no take() mints a fresh batch.
    pool: Arc<sio::BatchPool>,
    /// The iteration in progress: its number, counters and stage times.
    progress: IterationStats,
    activity: ActivityCounters,
}

impl<'e, P: VertexProgram> PartitionPass<'e, P> {
    /// Open the run's pass over the engine's state. It reads nothing: the
    /// resident slab is in memory, or the first load reads it.
    fn open(engine: &'e mut Engine<P>) -> Self {
        let Engine {
            store,
            program,
            stats,
            config,
            partitions,
            plan,
            vertices_path,
            stored,
            slab,
            msgs,
            active,
            ..
        } = engine;
        PartitionPass {
            store: &**store,
            program,
            stats,
            config,
            partitions,
            msgs,
            active,
            plan: *plan,
            vertices_path,
            stored,
            vfile: None,
            slab_bytes: Vec::new(),
            block_bytes: Vec::new(),
            gap_reader: None,
            resident: slab,
            adjacency: None,
            pool: sio::BatchPool::prewarmed(3 + sio::SIO_QUEUE_CAP),
            progress: IterationStats::default(),
            activity: ActivityCounters::default(),
        }
    }

    /// Run iteration `iteration` over every partition in order, feeding
    /// each flushed partition into `generation`; returns what it did.
    fn sweep(
        &mut self,
        iteration: u32,
        mut generation: Option<&mut PendingGeneration>,
        commits: &mut InFlightCommit,
    ) -> Result<IterationStats> {
        self.progress = IterationStats { iteration, ..IterationStats::default() };
        let partitions = self.partitions;
        for (part, a, b) in partitions.iter() {
            // Nothing to replay or update: the pass would change no byte.
            // A checkpoint takes its vertices from the working file, or from
            // `program.init` if no flush has written them (the resident slab
            // is framed at the iteration's end instead).
            if !self.active[part as usize] && self.msgs.pending_in(part) == 0 {
                self.activity.passes_skipped += 1;
                if let (Some(g), None) = (generation.as_deref_mut(), &*self.resident) {
                    let bytes = partition_bytes(
                        (self.program, self.store, self.stats),
                        (self.vertices_path, &mut self.vfile),
                        self.stored[part as usize],
                        &mut self.slab_bytes,
                        (a, b),
                    )?;
                    g.append(commits, bytes)?;
                }
                continue;
            }
            let loaded = self.load(part, a, b)?;
            let (mut worker, feed) = self.replay(part, loaded)?;
            self.compute(&mut worker, feed, part)?;
            self.flush(part, worker, generation.as_deref_mut(), commits)?;
        }
        self.progress.pool = self.pool.counters();
        Ok(self.progress)
    }

    /// Load stage (MsgManager phase A): the slab and index — the slab from
    /// memory on the resident plan, from `program.init` for a partition no
    /// flush has written, else read now.
    fn load(&mut self, part: u32, a: VertexId, b: VertexId) -> Result<Loaded<P::VertexData>> {
        let t_load = Instant::now();
        let (start_edge, mut degrees) = match self.adjacency {
            Some(_) => (0, Vec::new()),
            None => self.store.partition_index(a, b, self.stats)?,
        };
        let slab = match self.resident.take() {
            Some(slab) => slab,
            None if self.stored[part as usize] => {
                let file = working_file(&mut self.vfile, self.vertices_path, self.stats)?;
                decode_slice(read_vertices::<P::VertexData>(file, &mut self.slab_bytes, a, b)?)
            }
            None => {
                // Its first flush writes the whole slab.
                self.slab_bytes.clear();
                initial_slab(self.program, a, &degrees)
            }
        };
        if self.plan.resident_adjacency && self.adjacency.is_none() {
            let whole = self.load_adjacency(start_edge, a, std::mem::take(&mut degrees))?;
            self.adjacency = Some(whole);
        }
        self.progress.stages.load += t_load.elapsed();
        Ok(Loaded { slab, start_edge, degrees })
    }

    /// Replay stage: drain the partition's pending messages into the slab
    /// in send order, and start the Worker on it. A stream that may skip
    /// blocks waits for the replay to know which; any other opens first.
    fn replay(&mut self, part: u32, loaded: Loaded<P::VertexData>) -> Result<(Worker<P>, Feed)> {
        let t_replay = Instant::now();
        let Loaded { mut slab, start_edge, degrees } = loaded;
        let (a, iteration, program) =
            (self.partitions.range(part).0, self.progress.iteration, self.program);
        let feed = if self.adjacency.is_some() {
            Feed::Resident
        } else if slab.iter().all(|v| program.wants_update(v, iteration)) {
            Feed::Stream(self.open_stream(start_edge, a, degrees, None, &self.pool)?)
        } else {
            Feed::Tracked { start_edge, degrees }
        };
        self.msgs.drain(part, |dst, msg| replay(program, a, &mut slab, dst, &msg))?;
        let dynamic = self.config.options.dynamic_messages;
        let worker = Worker::start(a, slab, iteration, self.partitions, dynamic);
        self.progress.stages.replay += t_replay.elapsed();
        Ok((worker, feed))
    }

    /// Compute stage (Sio → Dispatcher → Worker): feed the Worker the
    /// resident adjacency, or open the partition's stream — a tracked one
    /// skips the blocks of quiet vertices — and run it through
    /// [`stream_batches`](Self::stream_batches). At the barrier a message
    /// sent past the last vertex fails the run.
    fn compute(&mut self, worker: &mut Worker<P>, feed: Feed, part: u32) -> Result<()> {
        let t_compute = Instant::now();
        let program = self.program;
        let bytes_per_edge: u64 = if self.store.weights_path().is_some() { 8 } else { 4 };
        let stream = match feed {
            Feed::Resident => {
                if let Some(whole) = &self.adjacency {
                    worker.process(program, whole, self.msgs)?;
                }
                None
            }
            Feed::Stream(stream) => Some(stream),
            Feed::Tracked { start_edge, degrees } => {
                let mut active = sio::ActiveSet::new(worker.data.len());
                worker.mark_active(program, &mut active);
                if active.is_empty() {
                    // No vertex updates, so none sends and none can wake:
                    // the adjacency is skipped unread.
                    let edges: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
                    self.activity.adjacency_bytes_skipped += edges * bytes_per_edge;
                    None
                } else {
                    // A stream that skips blocks comes with the reader that
                    // reads a woken one back, opened once per run.
                    if self.gap_reader.is_none() {
                        self.gap_reader = Some(sio::GapReader::open(
                            &self.store.edges_path(),
                            self.store.weights_path().as_deref(),
                            Arc::clone(self.stats),
                        )?);
                    }
                    let (first, pool) = (worker.first, &self.pool);
                    Some(self.open_stream(start_edge, first, degrees, Some(active), pool)?)
                }
            }
        };
        if let Some(stream) = stream {
            self.stream_batches(worker, stream, bytes_per_edge)?;
        }
        if worker.rejected > 0 {
            return Err(GraphError::Algorithm(format!(
                "iteration {}, partition {part}: {} message(s) sent to a vertex id >= \
                 num_vertices ({})",
                self.progress.iteration,
                worker.rejected,
                self.store.num_vertices()
            )));
        }
        self.progress.changed += worker.changed;
        self.progress.messages_sent += worker.sent;
        self.progress.dynamic_applied += worker.dynamic_applied;
        self.progress.stages.compute += t_compute.elapsed();
        Ok(())
    }

    /// The compute stage's per-batch loop: each batch of `stream` goes
    /// through the Worker and back to the pool; a gap is re-checked when
    /// the sweep reaches it (an in-pass dynamic message may have woken a
    /// vertex in it) and read back if so. A root of
    /// the `hot-path-alloc` and `panic-freedom` analyses (DESIGN.md §6k),
    /// so it opens nothing: the stream and the gap reader come from
    /// [`compute`](Self::compute). The typed `stream.next_block()` call
    /// puts the inline Sio stage's block read and decode under both.
    fn stream_batches(
        &mut self,
        worker: &mut Worker<P>,
        mut stream: sio::AdjacencyStream,
        bytes_per_edge: u64,
    ) -> Result<()> {
        let program = self.program;
        while let Some(block) = stream.next_block() {
            let batch = match block? {
                sio::Block::Batch(batch) => batch,
                sio::Block::Gap(gap) => {
                    // Typed: the ipa call graph resolves an untyped
                    // `gap.range()` to every workspace `range`.
                    let (lo, hi) = sio::Gap::range(&gap);
                    if !worker.wakes_in(program, lo, hi) {
                        self.activity.adjacency_bytes_skipped += gap.edges * bytes_per_edge;
                        sio::BatchPool::put(&self.pool, gap.batch);
                        continue;
                    }
                    self.activity.gaps_reread += 1;
                    match &mut self.gap_reader {
                        Some(reader) => sio::GapReader::read(reader, gap)?,
                        None => return Err(GraphError::InvalidConfig(
                            "an adjacency gap from a stream opened without its reader".into(),
                        )),
                    }
                }
            };
            let routed = worker.process(program, &batch, self.msgs);
            sio::BatchPool::put(&self.pool, batch);
            routed?;
        }
        Ok(())
    }

    /// Flush stage: note whether the partition has work next iteration,
    /// write back the slab blocks that changed (or keep the slab resident),
    /// and tee the written bytes into the generation's frame.
    fn flush(
        &mut self,
        part: u32,
        worker: Worker<P>,
        generation: Option<&mut PendingGeneration>,
        commits: &mut InFlightCommit,
    ) -> Result<()> {
        let t_flush = Instant::now();
        let (first, slab, next) = (worker.first, worker.data, self.progress.iteration + 1);
        self.active[part as usize] = slab.iter().any(|v| self.program.wants_update(v, next));
        if self.plan.resident {
            *self.resident = Some(slab);
        } else {
            let file = working_file(&mut self.vfile, self.vertices_path, self.stats)?;
            self.activity.slab_bytes_written +=
                write_dirty(file, &mut self.slab_bytes, &mut self.block_bytes, first, &slab)?;
            self.stored[part as usize] = true;
        }
        self.progress.stages.flush += t_flush.elapsed();
        if let (Some(g), false) = (generation, self.plan.resident) {
            g.append(commits, &self.slab_bytes)?;
        }
        Ok(())
    }

    /// Frame the resident slab into `generation`, from memory: the resident
    /// plan never writes the working file.
    fn frame_resident(
        &mut self,
        generation: &mut PendingGeneration,
        commits: &mut InFlightCommit,
    ) -> Result<()> {
        let Some(slab) = &*self.resident else { return Ok(()) };
        encode_slab(&mut self.slab_bytes, slab);
        generation.append(commits, &self.slab_bytes)
    }

    /// End the run. The resident slab stays with the engine, unwritten. On
    /// any other plan each partition no flush has written gets its initial
    /// values in the working file, all of it (cleared `slab_bytes` say
    /// nothing of the file), so the file is complete. Returns the pool's and
    /// the activity counters.
    fn finish(mut self) -> Result<(sio::PoolCounters, ActivityCounters)> {
        if self.resident.is_none() {
            for (part, a, b) in self.partitions.iter() {
                if self.stored[part as usize] {
                    continue;
                }
                let (_, degrees) = self.store.partition_index(a, b, self.stats)?;
                let slab = initial_slab(self.program, a, &degrees);
                let file = working_file(&mut self.vfile, self.vertices_path, self.stats)?;
                self.slab_bytes.clear();
                self.activity.slab_bytes_written +=
                    write_dirty(file, &mut self.slab_bytes, &mut self.block_bytes, a, &slab)?;
                self.stored[part as usize] = true;
            }
        }
        if let Some(file) = &mut self.vfile {
            file.flush()?;
        }
        Ok((self.pool.counters(), self.activity))
    }

    /// Open the Sio stream over the partition from vertex `first`, its
    /// batches drawn from `pool`: every block, or with `active` only the
    /// blocks holding a marked vertex.
    fn open_stream(
        &self,
        start_edge: u64,
        first: VertexId,
        degrees: Vec<u32>,
        active: Option<sio::ActiveSet>,
        pool: &Arc<sio::BatchPool>,
    ) -> Result<sio::AdjacencyStream> {
        sio::stream_partition_weighted(
            &self.store.edges_path(),
            self.store.weights_path().as_deref(),
            start_edge,
            first,
            degrees,
            self.config.batch_edges,
            Arc::clone(self.stats),
            self.plan.pipeline_threads > 1,
            Some(Arc::clone(pool)),
            active,
        )
    }

    /// Read the adjacency of the partition starting at vertex `a` into one
    /// batch, in one pass (a resident plan has no read-ahead thread): the
    /// index's `degrees` moved in, then its edges from record `start_edge`
    /// on and their weights, each through one 64 KiB buffer.
    fn load_adjacency(
        &self,
        start_edge: u64,
        a: VertexId,
        degrees: Vec<u32>,
    ) -> Result<sio::AdjBatch> {
        let range = (start_edge, degrees.iter().map(|&d| u64::from(d)).sum());
        let edges = read_records_at(&self.store.edges_path(), range, self.stats)?;
        let weights = match self.store.weights_path() {
            Some(path) => read_records_at(&path, range, self.stats)?,
            None => Vec::new(),
        };
        Ok(sio::AdjBatch { first_vertex: a, degrees, edges, weights })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UpdateContext;
    use crate::store::{DenseStore, DosStore};
    use graphz_storage::{CsrFiles, DosConverter, EdgeListFile};
    use graphz_types::Edge;

    /// Counts, at every vertex, how many messages it has received; each
    /// iteration every vertex sends `1` to each out-neighbor. After k
    /// full iterations vertex v holds (approximately) k * in_degree(v).
    struct InDegreeCounter {
        rounds: u32,
    }

    impl VertexProgram for InDegreeCounter {
        type VertexData = u64;
        type Message = u64;

        fn update(&self, _vid: VertexId, _data: &mut u64, ctx: &mut UpdateContext<'_, u64>) {
            if ctx.iteration() < self.rounds {
                ctx.mark_changed();
                for &n in ctx.neighbors() {
                    ctx.send(n, 1);
                }
            }
        }

        fn apply_message(&self, _vid: VertexId, data: &mut u64, msg: &u64) {
            *data += msg;
        }
    }

    fn test_graph() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 0),
            Edge::new(3, 1),
        ]
    }

    fn dos_engine(
        edges: Vec<Edge>,
        budget: MemoryBudget,
        options: EngineOptions,
        rounds: u32,
    ) -> (graphz_io::ScratchDir, Engine<InDegreeCounter>) {
        dos_engine_cfg(edges, EngineConfig::new(budget).with_options(options), rounds)
    }

    fn dos_engine_cfg(
        edges: Vec<Edge>,
        config: EngineConfig,
        rounds: u32,
    ) -> (graphz_io::ScratchDir, Engine<InDegreeCounter>) {
        program_engine(edges, config, InDegreeCounter { rounds })
    }

    fn program_engine<P: VertexProgram>(
        edges: Vec<Edge>,
        config: EngineConfig,
        program: P,
    ) -> (graphz_io::ScratchDir, Engine<P>) {
        let dir = graphz_io::ScratchDir::new("engine-test").unwrap();
        let stats = IoStats::new();
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let dos = DosConverter::new(MemoryBudget::from_kib(64), Arc::clone(&stats))
            .convert(&el, &dir.path().join("dos"))
            .unwrap();
        let engine = Engine::new(Box::new(DosStore::new(dos)), program, config, stats).unwrap();
        (dir, engine)
    }

    /// Hop counts from vertex 0, declaring every vertex without a better
    /// offer quiet.
    struct Hops;

    impl VertexProgram for Hops {
        type VertexData = (u32, u32);
        type Message = u32;

        fn init(&self, vid: VertexId, _degree: u32) -> (u32, u32) {
            (u32::MAX, if vid == 0 { 0 } else { u32::MAX })
        }

        fn update(&self, _vid: VertexId, data: &mut (u32, u32), ctx: &mut UpdateContext<'_, u32>) {
            if data.1 < data.0 {
                data.0 = data.1;
                ctx.mark_changed();
                ctx.send_to_neighbors(data.0 + 1);
            }
        }

        fn apply_message(&self, _vid: VertexId, data: &mut (u32, u32), msg: &u32) {
            data.1 = data.1.min(*msg);
        }

        fn wants_update(&self, data: &(u32, u32), _iteration: u32) -> bool {
            data.1 < data.0
        }
    }

    /// `P` with the default, always-`true` `wants_update`: the schedule
    /// without activity skipping.
    struct Eager<P>(P);

    impl<P: VertexProgram> VertexProgram for Eager<P> {
        type VertexData = P::VertexData;
        type Message = P::Message;

        fn init(&self, vid: VertexId, degree: u32) -> P::VertexData {
            self.0.init(vid, degree)
        }

        fn update(
            &self,
            vid: VertexId,
            data: &mut P::VertexData,
            ctx: &mut UpdateContext<'_, P::Message>,
        ) {
            self.0.update(vid, data, ctx)
        }

        fn apply_message(&self, vid: VertexId, data: &mut P::VertexData, msg: &P::Message) {
            self.0.apply_message(vid, data, msg)
        }
    }

    #[test]
    fn counts_in_degrees_single_partition() {
        let (_dir, mut engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            1,
        );
        assert_eq!(engine.num_partitions(), 1);
        let summary = engine.run(10).unwrap();
        assert!(summary.converged);
        assert_eq!(summary.iterations, 2); // 1 active + 1 quiet
        assert_eq!(summary.messages_sent, 7);
        let by_orig = engine.values_by_original_id().unwrap();
        // in-degrees: 0<-{2,3}=2, 1<-{0,3}=2, 2<-{0,1}=2, 3<-{0}=1
        assert_eq!(by_orig, vec![2, 2, 2, 1]);
    }

    #[test]
    fn many_partitions_give_identical_results() {
        let (_d1, mut e1) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            3,
        );
        // 16-byte budget for vertex slabs => 1 vertex per partition.
        let (_d2, mut e2) =
            dos_engine(test_graph(), MemoryBudget(16), EngineOptions::full(), 3);
        assert!(e2.num_partitions() > 1);
        let s1 = e1.run(10).unwrap();
        let s2 = e2.run(10).unwrap();
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(
            e1.values_by_original_id().unwrap(),
            e2.values_by_original_id().unwrap()
        );
        assert!(s2.buffered > 0, "multi-partition run must buffer messages");
    }

    #[test]
    fn ablations_change_io_not_results() {
        // 32-byte budget => 2 u64 vertices per partition, so some messages
        // are partition-local (DM fast path) and some cross partitions.
        let budget = MemoryBudget(32);
        let (_d1, mut full) = dos_engine(test_graph(), budget, EngineOptions::full(), 3);
        let (_d2, mut nodm) = dos_engine(
            test_graph(),
            budget,
            EngineOptions { dynamic_messages: false, ..EngineOptions::full() },
            3,
        );
        let s_full = full.run(10).unwrap();
        let s_nodm = nodm.run(10).unwrap();
        assert_eq!(
            full.values_by_original_id().unwrap(),
            nodm.values_by_original_id().unwrap()
        );
        // Without DM every message is buffered; with DM some apply directly.
        assert_eq!(s_nodm.dynamic_applied, 0);
        assert!(s_full.dynamic_applied > 0, "expected partition-local messages");
        assert!(s_nodm.buffered > s_full.buffered);
        assert_eq!(s_full.messages_sent, s_full.dynamic_applied + s_full.buffered);
    }

    #[test]
    fn pipelined_matches_single_threaded() {
        let (_d1, mut st) = dos_engine(
            test_graph(),
            MemoryBudget(16),
            EngineOptions { pipeline_threads: 1, ..EngineOptions::full() },
            3,
        );
        let (_d2, mut mt) = dos_engine(
            test_graph(),
            MemoryBudget(16),
            EngineOptions { pipeline_threads: 4, ..EngineOptions::full() },
            3,
        );
        st.run(10).unwrap();
        mt.run(10).unwrap();
        assert_eq!(
            st.values_by_original_id().unwrap(),
            mt.values_by_original_id().unwrap()
        );
    }

    #[test]
    fn dense_store_matches_dos_store() {
        let dir = graphz_io::ScratchDir::new("engine-dense").unwrap();
        let stats = IoStats::new();
        let el =
            EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), test_graph()).unwrap();
        let csr = CsrFiles::convert(
            &el,
            &dir.path().join("csr"),
            Arc::clone(&stats),
            MemoryBudget::from_kib(64),
        )
        .unwrap();
        let dense =
            DenseStore::new(csr, MemoryBudget::from_mib(1), Arc::clone(&stats)).unwrap();
        let mut engine = Engine::new(
            Box::new(dense),
            InDegreeCounter { rounds: 2 },
            EngineConfig::new(MemoryBudget::from_mib(1)),
            stats,
        )
        .unwrap();
        engine.run(10).unwrap();
        let dense_vals = engine.values_by_original_id().unwrap();

        let (_d, mut dos_engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            2,
        );
        dos_engine.run(10).unwrap();
        assert_eq!(dense_vals, dos_engine.values_by_original_id().unwrap());
    }

    #[test]
    fn values_before_run_is_an_error() {
        let (_dir, engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            1,
        );
        assert!(engine.values().is_err());
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let (_dir, mut engine) =
            dos_engine(vec![Edge::new(0, 0)], MemoryBudget::from_mib(1), EngineOptions::full(), 0);
        let s = engine.run(5).unwrap();
        assert!(s.converged);
    }

    #[test]
    fn in_memory_fast_path_same_results_less_io() {
        let budget = MemoryBudget::from_mib(1); // single partition
        let (_d1, mut slow) = dos_engine(
            test_graph(),
            budget,
            EngineOptions { in_memory_fast_path: false, ..EngineOptions::full() },
            4,
        );
        let (_d2, mut fast) = dos_engine(test_graph(), budget, EngineOptions::full(), 4);
        let s_slow = slow.run(10).unwrap();
        let s_fast = fast.run(10).unwrap();
        assert!(s_fast.plan.resident, "the default plans a resident single partition");
        assert!(!s_slow.plan.resident);
        assert_eq!(s_slow.iterations, s_fast.iterations);
        assert_eq!(
            slow.values_by_original_id().unwrap(),
            fast.values_by_original_id().unwrap()
        );
        assert!(
            s_fast.io.bytes_read < s_slow.io.bytes_read,
            "fast path must skip per-iteration reloads: {} vs {}",
            s_fast.io.bytes_read,
            s_slow.io.bytes_read
        );
        assert!(s_fast.io.bytes_written < s_slow.io.bytes_written);
    }

    #[test]
    fn resident_adjacency_is_read_once_per_run() {
        // Never converges, so every run executes exactly its cap.
        let budget = MemoryBudget::from_mib(1);
        let mut read = Vec::new();
        for iterations in [2, 10] {
            let (_d, mut engine) =
                dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
            let s = engine.run(iterations).unwrap();
            assert_eq!(s.iterations, iterations);
            assert!(s.plan.resident_adjacency, "a graph that fits keeps its adjacency");
            assert_eq!(s.plan.pipeline_threads, 1, "a resident adjacency runs inline");
            assert_eq!(s.pool, sio::PoolCounters::default(), "no batch-pool traffic");
            read.push(s.io.bytes_read);
        }
        assert_eq!(read[0], read[1], "bytes read must not grow with iterations");
        // The streamed control rereads the adjacency every iteration.
        let streamed: Vec<u64> = [2, 10]
            .into_iter()
            .map(|iterations| {
                let opts = EngineOptions { in_memory_fast_path: false, ..EngineOptions::full() };
                let (_d, mut engine) = dos_engine(test_graph(), budget, opts, u32::MAX);
                engine.run(iterations).unwrap().io.bytes_read
            })
            .collect();
        assert!(streamed[1] > streamed[0]);
        assert!(read[1] < streamed[1]);
    }

    /// The resident plan keeps the working file out of it: a run reads the
    /// adjacency (7 edges of 4 bytes) and nothing else, writes nothing, and
    /// the values, and a checkpoint of them, come from memory. `run(3)` and
    /// `run(7)` each pay only their own adjacency read and end where one
    /// `run(10)` does.
    #[test]
    fn a_resident_run_reads_only_its_adjacency_and_writes_nothing() {
        let (budget, adjacency) = (MemoryBudget::from_mib(1), 7 * 4);
        let (_d1, mut whole) = dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
        let (_d2, mut split) = dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
        let runs = [whole.run(10).unwrap(), split.run(3).unwrap(), split.run(7).unwrap()];
        for s in &runs {
            assert_eq!(s.plan.residency(), "slab+adjacency");
            assert_eq!((s.io.bytes_read, s.io.bytes_written), (adjacency, 0), "{s:?}");
            assert_eq!(s.activity.slab_bytes_written, 0);
        }
        assert_eq!(runs[1].iterations + runs[2].iterations, runs[0].iterations);
        let before = split.stats.snapshot();
        assert_eq!(whole.values().unwrap(), split.values().unwrap());
        let ckpt = graphz_io::ScratchDir::new("engine-resident-ckpt").unwrap();
        split.checkpoint(ckpt.path()).unwrap();
        assert_eq!(split.stats.snapshot().bytes_read, before.bytes_read, "read from memory");
        for engine in [&whole, &split] {
            let working = engine.scratch_dir().file("vertices.bin");
            assert!(!working.exists(), "a run that fits wrote {}", working.display());
        }
    }

    /// A resident adjacency whose file ends early fails the run's load with
    /// `Corrupt` naming the file.
    #[test]
    fn a_short_resident_adjacency_is_corrupt_naming_its_file() {
        let (dir, mut engine) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 2);
        let edges = dir.path().join("dos").join("edges.bin");
        let len = std::fs::metadata(&edges).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&edges).unwrap().set_len(len - 4).unwrap();
        match engine.run(3) {
            Err(GraphError::Corrupt(msg)) => assert!(msg.contains("edges.bin ended early"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A restore drops the resident slab: the next run reads the restored
    /// vertex file once (4 vertices of 8 bytes), with its adjacency, and
    /// ends where an uninterrupted run does.
    #[test]
    fn a_resident_run_after_restore_reads_the_restored_file_once() {
        let (budget, adjacency, vertices) = (MemoryBudget::from_mib(1), 7 * 4, 4 * 8);
        let ckpt = graphz_io::ScratchDir::new("engine-resident-restore").unwrap();
        let (_d1, mut reference) =
            dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
        reference.run(10).unwrap();
        let (_d2, mut first) = dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
        first.run(4).unwrap();
        first.checkpoint(ckpt.path()).unwrap();
        let (_d3, mut resumed) = dos_engine(test_graph(), budget, EngineOptions::full(), u32::MAX);
        resumed.restore(ckpt.path()).unwrap();
        let s = resumed.run(6).unwrap();
        assert!(s.plan.resident_adjacency);
        assert_eq!((s.io.bytes_read, s.io.bytes_written), (adjacency + vertices, 0), "{s:?}");
        assert_eq!(resumed.values().unwrap(), reference.values().unwrap());
    }

    /// No partitioned run writes initial values to read them back: a first
    /// iteration at four partitions, where every vertex updates and sends
    /// along every edge, reads its adjacency (512 edges of 4 bytes) and no
    /// vertex byte, and writes each of the 256 8-byte values once. The
    /// messages crossing a partition boundary stay within the MsgManager's
    /// cap (a quarter of the 1 KiB budget in 12-byte envelopes), so nothing
    /// spills.
    #[test]
    fn a_first_partitioned_iteration_reads_no_vertex_bytes_and_writes_each_once() {
        let edges: Vec<Edge> = (0..256u32)
            .flat_map(|i| [Edge::new(i, (i + 1) % 256), Edge::new(i, (i + 2) % 256)])
            .collect();
        let (_d, mut engine) =
            dos_engine(edges, MemoryBudget(2 * 64 * 8), EngineOptions::full(), u32::MAX);
        let s = engine.run(1).unwrap();
        assert_eq!(s.partitions, 4);
        assert_eq!((s.spilled, s.messages_sent), (0, 512), "{s:?}");
        assert_eq!((s.io.bytes_read, s.io.bytes_written), (512 * 4, 256 * 8), "{s:?}");
        assert_eq!(s.activity.slab_bytes_written, 256 * 8);
    }

    #[test]
    fn slab_resident_plan_streams_an_adjacency_that_does_not_fit() {
        // 4 u64 vertices: a 64-byte budget holds the 32-byte slab in one
        // partition, but not the 44-byte adjacency (7 edges + 4 degrees) too.
        let budget = MemoryBudget(64);
        let (_d1, mut slab_only) = dos_engine(test_graph(), budget, EngineOptions::full(), 4);
        let (_d2, mut whole) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 4);
        let s = slab_only.run(10).unwrap();
        assert_eq!(s.partitions, 1);
        assert!(s.plan.resident && !s.plan.resident_adjacency, "{:?}", s.plan);
        assert_eq!(s.plan.pipeline_threads, 2, "streamed adjacency keeps the pipeline");
        whole.run(10).unwrap();
        assert_eq!(
            slab_only.values_by_original_id().unwrap(),
            whole.values_by_original_id().unwrap()
        );
    }

    #[test]
    fn fast_path_is_inert_when_multi_partition() {
        // With several partitions the option must not change behaviour.
        let budget = MemoryBudget(32);
        let (_d1, mut a) = dos_engine(
            test_graph(),
            budget,
            EngineOptions { in_memory_fast_path: false, ..EngineOptions::full() },
            3,
        );
        let (_d2, mut b) = dos_engine(test_graph(), budget, EngineOptions::full(), 3);
        let ra = a.run(10).unwrap();
        let rb = b.run(10).unwrap();
        assert!(rb.partitions > 1);
        assert!(!rb.plan.resident, "more than one partition never plans residency");
        assert_eq!(ra.io, rb.io);
        assert_eq!(
            a.values_by_original_id().unwrap(),
            b.values_by_original_id().unwrap()
        );
    }

    #[test]
    fn torn_spill_segment_fails_the_run_with_corrupt() {
        // Dense cross-partition traffic at a tiny budget leaves spilled
        // messages pending when the run stops at its cap; a checkpoint
        // flushes the in-memory tails to their segments too.
        let edges: Vec<Edge> = (0..48u32)
            .flat_map(|i| (0..5u32).map(move |j| Edge::new(i, (i * 11 + j * 17) % 48)))
            .collect();
        let (dir, mut engine) = dos_engine(edges, MemoryBudget(64), EngineOptions::full(), 5);
        let s = engine.run(2).unwrap();
        assert!(s.partitions >= 3 && s.spilled > 0, "budget must force spills: {s:?}");
        engine.checkpoint(&dir.path().join("ckpt")).unwrap();
        let msgs = engine.scratch_dir().file("msgs");
        let mut segs: Vec<PathBuf> =
            std::fs::read_dir(&msgs).unwrap().map(|e| e.unwrap().path()).collect();
        segs.sort();
        let seg = segs.first().expect("a pending spill segment");
        let len = std::fs::metadata(seg).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(seg).unwrap().set_len(len - 3).unwrap();
        match engine.run(10) {
            Err(GraphError::Corrupt(msg)) => assert!(msg.contains("truncated record"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn in_memory_messages_never_exceed_the_cap_plus_one() {
        // 256 vertices of 8 out-edges each in 8 partitions of 32: a pass
        // defers about 220 messages, and the cap (a quarter of the 512-byte
        // budget in 12-byte envelopes) is 10.
        let edges: Vec<Edge> = (0..256u32)
            .flat_map(|i| (0..8u32).map(move |j| Edge::new(i, (i * 37 + j * 101 + 1) % 256)))
            .collect();
        let budget = MemoryBudget(512);
        let cap = budget.bytes() / 4 / (4 + <u64 as FixedCodec>::SIZE as u64);
        assert_eq!(cap, 10);
        let (_d, mut engine) = dos_engine(edges, budget, EngineOptions::full(), 3);
        let s = engine.run(5).unwrap();
        assert_eq!(s.partitions, 8);
        let first = &s.per_iteration[0];
        let deferred = first.messages_sent - first.dynamic_applied;
        // Some pass deferred far more than the cap before its barrier.
        assert!(deferred > 8 * (cap + 1) * 10, "{deferred} deferred");
        assert!(s.spilled > 0, "{s:?}");
        assert!(
            (1..=cap + 1).contains(&s.msg_high_water),
            "held {} messages, cap {cap}",
            s.msg_high_water
        );
    }

    #[test]
    fn a_spilled_message_outside_its_partition_fails_the_run_with_corrupt() {
        // As above, but the first pending segment's first envelope is
        // readdressed to a vertex of another partition.
        let edges: Vec<Edge> = (0..48u32)
            .flat_map(|i| (0..5u32).map(move |j| Edge::new(i, (i * 11 + j * 17) % 48)))
            .collect();
        let (dir, mut engine) = dos_engine(edges, MemoryBudget(64), EngineOptions::full(), 5);
        let s = engine.run(2).unwrap();
        assert!(s.partitions >= 3 && s.spilled > 0, "budget must force spills: {s:?}");
        engine.checkpoint(&dir.path().join("ckpt")).unwrap();
        let msgs = engine.scratch_dir().file("msgs");
        let mut segs: Vec<PathBuf> =
            std::fs::read_dir(&msgs).unwrap().map(|e| e.unwrap().path()).collect();
        segs.sort();
        let seg = segs.first().expect("a pending spill segment");
        let name = seg.file_name().unwrap().to_string_lossy().into_owned();
        let part: u32 = name["msgs-".len().."msgs-".len() + 5].parse().unwrap();
        let other = (part + 1) % engine.num_partitions();
        let stray = engine.partitions.range(other).0;
        let mut bytes = std::fs::read(seg).unwrap();
        bytes[..4].copy_from_slice(&stray.to_le_bytes());
        std::fs::write(seg, bytes).unwrap();
        match engine.run(10) {
            Err(GraphError::Corrupt(msg)) => {
                assert!(msg.contains(&name), "{msg}");
                assert!(msg.contains(&format!("vertex {stray}, which is not in")), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn parallel_message_replay_matches_sequential() {
        // Many partitions + many cross-partition messages force the replay
        // path; compare the inline Sio stage against the read-ahead thread.
        let edges: Vec<Edge> = (0..64u32)
            .flat_map(|i| (0..4u32).map(move |j| Edge::new(i, (i * 7 + j * 13) % 64)))
            .collect();
        let budget = MemoryBudget(128); // 8 u64 vertices per partition
        let mut results = Vec::new();
        for threads in [1usize, 8] {
            let (_d, mut engine) = dos_engine(
                edges.clone(),
                budget,
                EngineOptions { pipeline_threads: threads, ..EngineOptions::full() },
                4,
            );
            let summary = engine.run(10).unwrap();
            assert!(summary.replayed > 0, "replay path must be exercised");
            results.push(engine.values_by_original_id().unwrap());
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn pipeline_threads_bit_identical_across_thread_counts() {
        // 96 vertices / 48 per partition → 2 partitions: exercises
        // cross-partition deferral and the barrier hand-off. The Worker runs
        // inline whatever the thread count, so every count must produce
        // byte-identical state and counters.
        let edges: Vec<Edge> = (0..96u32)
            .flat_map(|i| (0..4u32).map(move |j| Edge::new(i, (i * 7 + j * 13) % 96)))
            .collect();
        let budget = MemoryBudget(8 * 48);
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            let (_d, mut engine) = dos_engine(
                edges.clone(),
                budget,
                EngineOptions { pipeline_threads: threads, ..EngineOptions::full() },
                4,
            );
            let s = engine.run(10).unwrap();
            results.push((
                engine.values_by_original_id().unwrap(),
                s.iterations,
                s.messages_sent,
                s.dynamic_applied,
                s.buffered,
            ));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn batch_pool_reuses_buffers_across_iterations() {
        // The engine prewarms the pool to the structural in-flight bound, so
        // every take() is a recycle: `fresh` stays zero for the whole run —
        // not just after iteration 1 — inline or with the read-ahead
        // thread, and the pipeline visibly recycles buffers each iteration.
        let edges: Vec<Edge> = (0..96u32)
            .flat_map(|i| (0..4u32).map(move |j| Edge::new(i, (i * 7 + j * 13) % 96)))
            .collect();
        let budget = MemoryBudget(8 * 48);
        for threads in [1usize, 2, 8] {
            let (_d, mut engine) = dos_engine(
                edges.clone(),
                budget,
                EngineOptions { pipeline_threads: threads, ..EngineOptions::full() },
                4,
            );
            let s = engine.run(10).unwrap();
            assert!(s.iterations >= 2, "need multiple iterations, got {}", s.iterations);
            assert_eq!(s.pool.fresh, 0, "threads={threads}: prewarmed pool must never miss");
            assert!(s.pool.reused > 0, "threads={threads}: the pipeline must recycle");
            let mut prev = 0u64;
            for (i, it) in s.per_iteration.iter().enumerate() {
                assert_eq!(it.pool.fresh, 0, "threads={threads} iteration {i}");
                assert!(
                    it.pool.reused > prev,
                    "threads={threads} iteration {i}: no buffers recycled this iteration"
                );
                prev = it.pool.reused;
            }
        }
    }

    #[test]
    fn stage_times_sum_across_iterations() {
        let (_dir, mut engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            3,
        );
        let s = engine.run(10).unwrap();
        assert!(s.stages.total() > Duration::ZERO);
        let sum = s
            .per_iteration
            .iter()
            .fold(StageTimes::default(), |acc, i| acc + i.stages);
        assert_eq!(sum, s.stages);
    }

    #[test]
    fn per_iteration_stats_account_for_totals() {
        let (_dir, mut engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            3,
        );
        let s = engine.run(10).unwrap();
        assert_eq!(s.per_iteration.len() as u32, s.iterations);
        assert_eq!(
            s.per_iteration.iter().map(|i| i.messages_sent).sum::<u64>(),
            s.messages_sent
        );
        assert_eq!(
            s.per_iteration.iter().map(|i| i.dynamic_applied).sum::<u64>(),
            s.dynamic_applied
        );
        // The final (converged) iteration is quiet.
        assert_eq!(s.per_iteration.last().unwrap().changed, 0);
        // Earlier iterations were active.
        assert!(s.per_iteration[0].changed > 0);
    }

    #[test]
    fn split_runs_equal_one_long_run() {
        let budget = MemoryBudget(32); // several partitions
        let (_d1, mut whole) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        let (_d2, mut split) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        let s_whole = whole.run(20).unwrap();
        let a = split.run(3).unwrap();
        assert_eq!(a.iterations, 3);
        assert!(!a.converged);
        let b = split.run(20).unwrap();
        assert_eq!(a.iterations + b.iterations, s_whole.iterations);
        assert_eq!(
            whole.values_by_original_id().unwrap(),
            split.values_by_original_id().unwrap()
        );
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let budget = MemoryBudget(32);
        let ckpt_dir = graphz_io::ScratchDir::new("engine-ckpt").unwrap();

        // Reference: one uninterrupted run.
        let (_d1, mut reference) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        reference.run(20).unwrap();

        // Interrupted run: 2 iterations, checkpoint, drop the engine.
        let (_d2, mut first) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        first.run(2).unwrap();
        first.checkpoint(ckpt_dir.path()).unwrap();
        drop(first);

        // Fresh engine restores and finishes.
        let (_d3, mut resumed) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        resumed.restore(ckpt_dir.path()).unwrap();
        let tail = resumed.run(20).unwrap();
        assert!(tail.converged);
        assert_eq!(
            resumed.values_by_original_id().unwrap(),
            reference.values_by_original_id().unwrap()
        );
    }

    /// A checkpoint over an existing one that fails its swap leaves the
    /// first restorable, not moved aside.
    #[test]
    fn a_checkpoint_failing_its_swap_keeps_the_previous_one() {
        use graphz_io::{FaultPlan, FaultState, RetryPolicy};
        let ckpt = graphz_io::ScratchDir::new("engine-ckpt-twice").unwrap();
        let dir = ckpt.path().join("ckpt");
        // The first checkpoint's swap is the first `rename`; fail the second.
        let faults = FaultState::at_label_occurrence(FaultPlan::fail_at(u64::MAX), "rename", 1);
        let surface =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());
        let config = EngineConfig::new(MemoryBudget(32)).with_checkpoint_faults(surface);
        let (_d1, mut engine) = dos_engine_cfg(test_graph(), config, 6);
        engine.run(2).unwrap();
        engine.checkpoint(&dir).unwrap();
        let first = engine.values().unwrap();
        engine.run(2).unwrap();
        assert_ne!(engine.values().unwrap(), first);
        assert!(engine.checkpoint(&dir).is_err());
        assert!(faults.fired());

        let (_d2, mut restored) = dos_engine(test_graph(), MemoryBudget(32), EngineOptions::full(), 6);
        restored.restore(&dir).unwrap();
        assert_eq!(restored.values().unwrap(), first);
    }

    #[test]
    fn restore_rejects_layout_mismatch() {
        let ckpt_dir = graphz_io::ScratchDir::new("engine-ckpt-bad").unwrap();
        let (_d1, mut a) =
            dos_engine(test_graph(), MemoryBudget(32), EngineOptions::full(), 2);
        a.run(1).unwrap();
        a.checkpoint(ckpt_dir.path()).unwrap();
        // Different budget => different partition layout => refused.
        let (_d2, mut b) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 2);
        b.initialize().unwrap();
        let err = b.restore(ckpt_dir.path()).unwrap_err();
        assert!(matches!(err, graphz_types::GraphError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn checkpoint_before_init_is_an_error() {
        let ckpt_dir = graphz_io::ScratchDir::new("engine-ckpt-early").unwrap();
        let (_d, mut e) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 1);
        assert!(e.checkpoint(ckpt_dir.path()).is_err());
    }

    #[test]
    fn layout_mismatch_message_names_both_counts() {
        let ckpt_dir = graphz_io::ScratchDir::new("engine-ckpt-msg").unwrap();
        let (_d1, mut a) = dos_engine(test_graph(), MemoryBudget(32), EngineOptions::full(), 2);
        a.run(1).unwrap();
        a.checkpoint(ckpt_dir.path()).unwrap();
        let (_d2, mut b) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 2);
        b.initialize().unwrap();
        let msg = b.restore(ckpt_dir.path()).unwrap_err().to_string();
        let expected = format!(
            "checkpoint has {} partitions, engine has 1 — graph or budget mismatch",
            a.num_partitions()
        );
        assert!(msg.contains(&expected), "got: {msg}");
    }

    #[test]
    fn restore_missing_checkpoint_is_not_found() {
        let dir = graphz_io::ScratchDir::new("engine-ckpt-missing").unwrap();
        let (_d, mut e) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 2);
        e.initialize().unwrap();
        let err = e.restore(&dir.path().join("nope")).unwrap_err();
        assert!(matches!(err, graphz_types::GraphError::NotFound(_)), "{err:?}");
    }

    #[test]
    fn restore_rejects_corrupted_checkpoint_file() {
        let ckpt_dir = graphz_io::ScratchDir::new("engine-ckpt-corrupt").unwrap();
        let (_d1, mut a) = dos_engine(test_graph(), MemoryBudget(32), EngineOptions::full(), 4);
        a.run(2).unwrap();
        a.checkpoint(ckpt_dir.path()).unwrap();

        // Flip one payload byte in the framed vertex file.
        let vpath = ckpt_dir.path().join("vertices.bin");
        let mut bytes = std::fs::read(&vpath).unwrap();
        bytes[graphz_io::framed::HEADER_LEN] ^= 0xFF;
        std::fs::write(&vpath, bytes).unwrap();

        let (_d2, mut b) = dos_engine(test_graph(), MemoryBudget(32), EngineOptions::full(), 4);
        b.initialize().unwrap();
        let err = b.restore(ckpt_dir.path()).unwrap_err();
        assert!(matches!(err, graphz_types::GraphError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn checkpoint_every_resume_latest_matches_uninterrupted_run() {
        let budget = MemoryBudget(32);
        let gens = graphz_io::ScratchDir::new("engine-gens").unwrap();

        let (_d1, mut reference) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        reference.run(20).unwrap();

        // Periodically-checkpointing run killed after 3 iterations.
        let cfg = EngineConfig::new(budget)
            .with_options(EngineOptions::full())
            .checkpoint_every(gens.path(), 1);
        let (_d2, mut first) = dos_engine_cfg(test_graph(), cfg, 6);
        first.run(3).unwrap();
        drop(first);

        let (_d3, mut resumed) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        let gen = resumed.resume_latest(gens.path()).unwrap();
        assert_eq!(gen, Some(3), "newest generation should be gen 3");
        let tail = resumed.run(20).unwrap();
        assert!(tail.converged);
        assert_eq!(
            resumed.values_by_original_id().unwrap(),
            reference.values_by_original_id().unwrap()
        );
    }

    #[test]
    fn resume_latest_skips_truncated_newest_generation() {
        let budget = MemoryBudget(32);
        let gens = graphz_io::ScratchDir::new("engine-gens-trunc").unwrap();

        let (_d1, mut reference) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        reference.run(20).unwrap();

        let cfg = EngineConfig::new(budget)
            .with_options(EngineOptions::full())
            .checkpoint_every(gens.path(), 1);
        let (_d2, mut first) = dos_engine_cfg(test_graph(), cfg, 6);
        first.run(3).unwrap();
        drop(first);

        // Simulate a torn newest generation: chop the vertex file short.
        let newest = gens.path().join("gen-00000003").join("vertices.bin");
        let len = std::fs::metadata(&newest).unwrap().len();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..len as usize / 2]).unwrap();

        let (_d3, mut resumed) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        let gen = resumed.resume_latest(gens.path()).unwrap();
        assert_eq!(gen, Some(2), "damaged gen 3 must be skipped for gen 2");
        let tail = resumed.run(20).unwrap();
        assert!(tail.converged);
        assert_eq!(
            resumed.values_by_original_id().unwrap(),
            reference.values_by_original_id().unwrap()
        );
    }

    /// A resume reads the manifest and each file of the generation it
    /// restores exactly once: unframed into a staged name and checked as it
    /// streams, then moved into place.
    #[test]
    fn resume_latest_reads_the_generation_once() {
        let budget = MemoryBudget(32);
        let gens = graphz_io::ScratchDir::new("engine-gens-once").unwrap();
        let cfg = EngineConfig::new(budget)
            .with_options(EngineOptions::full())
            .checkpoint_every(gens.path(), 1);
        let (_d1, mut first) = dos_engine_cfg(test_graph(), cfg, 6);
        first.run(3).unwrap();
        drop(first);
        let newest = gens.path().join("gen-00000003");
        let manifest = crate::generations::GenerationManifest::load(&newest, &IoStats::new()).unwrap();
        let files: u64 = manifest
            .meta()
            .files()
            .map(|(rel, _)| std::fs::metadata(newest.join(rel)).unwrap().len())
            .sum();
        let listed = manifest.meta().files().count();
        assert!(listed > 1, "the generation should hold message files too");
        // The manifest itself is read through the engine's stats as well.
        let manifest_len = std::fs::metadata(newest.join("manifest.txt")).unwrap().len();

        let (_d2, mut resumed) = dos_engine(test_graph(), budget, EngineOptions::full(), 6);
        let before = resumed.stats.snapshot().bytes_read;
        assert_eq!(resumed.resume_latest(gens.path()).unwrap(), Some(3));
        assert_eq!(resumed.stats.snapshot().bytes_read - before, manifest_len + files);
        assert!(!resumed.scratch.file("restore").exists(), "staging left behind");
    }

    #[test]
    fn resume_latest_with_no_checkpoints_is_none() {
        let gens = graphz_io::ScratchDir::new("engine-gens-none").unwrap();
        let (_d, mut e) =
            dos_engine(test_graph(), MemoryBudget::from_mib(1), EngineOptions::full(), 2);
        // Root doesn't exist at all.
        assert_eq!(e.resume_latest(&gens.path().join("missing")).unwrap(), None);
        // Root exists but holds no generation directories.
        std::fs::create_dir_all(gens.path().join("gen-bogus.tmp")).unwrap();
        assert_eq!(e.resume_latest(gens.path()).unwrap(), None);
    }

    #[test]
    fn sparse_frontier_reads_less_and_every_vertex_active_reads_the_same() {
        // A 512-vertex ring with a back edge per vertex, eight partitions of
        // 64 (u32, u32) vertices, blocks of at most 16 edges: a hop count
        // from vertex 0 keeps one partition busy per iteration.
        let edges: Vec<Edge> = (0..512u32)
            .flat_map(|i| [Edge::new(i, (i + 1) % 512), Edge::new(i, i / 2)])
            .collect();
        let config = || EngineConfig::new(MemoryBudget(2 * 64 * 8)).with_batch_edges(16);
        let (_d1, mut lazy) = program_engine(edges.clone(), config(), Hops);
        let (_d2, mut eager) = program_engine(edges.clone(), config(), Eager(Hops));
        assert_eq!(lazy.num_partitions(), 8);
        let s_lazy = lazy.run(100).unwrap();
        let s_eager = eager.run(100).unwrap();
        assert_eq!(lazy.values().unwrap(), eager.values().unwrap());
        assert_eq!(
            (s_lazy.iterations, s_lazy.messages_sent, s_lazy.buffered, s_lazy.replayed),
            (s_eager.iterations, s_eager.messages_sent, s_eager.buffered, s_eager.replayed)
        );
        assert!(
            s_lazy.io.bytes_read < s_eager.io.bytes_read,
            "a sparse frontier must read less: {} vs {}",
            s_lazy.io.bytes_read,
            s_eager.io.bytes_read
        );
        // Both write back only changed blocks, and a quiet pass changes none.
        assert_eq!(s_lazy.io.bytes_written, s_eager.io.bytes_written);
        let act = s_lazy.activity;
        assert!(act.passes_skipped > 0 && act.adjacency_bytes_skipped > 0, "{act:?}");
        assert!(act.gaps_reread > 0, "the frontier wakes blocks the stream skipped: {act:?}");
        assert!(act.slab_bytes_written > 0 && act.slab_bytes_written < s_lazy.io.bytes_written);
        let eager_act = s_eager.activity;
        assert_eq!((eager_act.passes_skipped, eager_act.adjacency_bytes_skipped), (0, 0));

        // Every vertex wants an update every iteration: the same bytes move.
        let (_d3, mut counter) =
            program_engine(edges.clone(), config(), InDegreeCounter { rounds: 3 });
        let (_d4, mut wrapped) =
            program_engine(edges, config(), Eager(InDegreeCounter { rounds: 3 }));
        let (a, b) = (counter.run(6).unwrap(), wrapped.run(6).unwrap());
        assert_eq!(a.io.bytes_read, b.io.bytes_read);
        assert_eq!(a.io.bytes_written, b.io.bytes_written);
        assert_eq!(a.activity, b.activity);
        assert_eq!(counter.values().unwrap(), wrapped.values().unwrap());
    }

    #[test]
    fn dirty_write_back_writes_only_changed_blocks() {
        let dir = graphz_io::ScratchDir::new("engine-dirty").unwrap();
        let path = dir.file("v.bin");
        let stats = IoStats::new();
        // 3000 u64 records = 24000 bytes: blocks of 4096, the last partial.
        let old: Vec<u64> = (0..3000).collect();
        let mut loaded = graphz_types::codec::encode_slice(&old);
        std::fs::write(&path, &loaded).unwrap();
        let mut file = TrackedFile::open_rw(&path, Arc::clone(&stats)).unwrap();
        let mut new = old.clone();
        new[10] = 7; // block 0
        new[1100] = 7; // block 2 (byte 8800)
        new[2999] = 7; // block 5, the partial tail
        let mut scratch = Vec::new();
        let written = write_dirty(&mut file, &mut loaded, &mut scratch, 0, &new).unwrap();
        assert_eq!(written, 4096 + 4096 + (24000 - 5 * 4096));
        assert_eq!(loaded, graphz_types::codec::encode_slice(&new), "loaded tracks the new bytes");
        assert_eq!(std::fs::read(&path).unwrap(), loaded);
        // Nothing changed: nothing written. A partition at an offset too.
        assert_eq!(write_dirty(&mut file, &mut loaded, &mut scratch, 0, &new).unwrap(), 0);
        let tail = &new[2000..];
        let mut tail_loaded = graphz_types::codec::encode_slice(tail);
        let mut moved = tail.to_vec();
        moved[0] = 1;
        let w = write_dirty(&mut file, &mut tail_loaded, &mut scratch, 2000, &moved).unwrap();
        assert_eq!(w, 4096);
        let on_disk: Vec<u64> = graphz_types::codec::decode_slice(&std::fs::read(&path).unwrap());
        assert_eq!(on_disk[2000], 1);
        assert_eq!(on_disk[2001..], new[2001..]);
    }

    #[test]
    fn max_iterations_caps_run() {
        let (_dir, mut engine) = dos_engine(
            test_graph(),
            MemoryBudget::from_mib(1),
            EngineOptions::full(),
            u32::MAX, // never stops on its own
        );
        let s = engine.run(3).unwrap();
        assert_eq!(s.iterations, 3);
        assert!(!s.converged);
    }
}
