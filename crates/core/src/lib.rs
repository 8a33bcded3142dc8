//! The GraphZ out-of-core graph engine (paper §IV–§V).
//!
//! GraphZ keeps the vertex-centric programming model of systems like
//! GraphChi but adds two innovations:
//!
//! 1. **Degree-ordered storage** (implemented in `graphz-storage::dos`) —
//!    the whole vertex index fits in memory, and high-degree vertices
//!    cluster in the first partitions so most message traffic is
//!    partition-local.
//! 2. **Ordered dynamic messages** — a message carries computation: the
//!    user-supplied [`VertexProgram::apply_message`] runs as soon as the
//!    destination vertex is memory-resident, so no intermediate message
//!    state survives longer than it must, and execution is deterministic
//!    ("sequential-equivalent", §IV-C).
//!
//! The runtime mirrors the paper's four components (§V, Fig. 4):
//!
//! * **Sio** streams raw edge blocks off disk ([`sio`]),
//! * the **Dispatcher** parses them into per-vertex adjacency lists
//!   (also [`sio`]; the two stages share the pipeline thread),
//! * the **Worker** applies `update()` in ascending vertex order and
//!   intercepts outgoing messages ([`worker`]); the engine's partition
//!   pass (load, replay, compute, flush — [`engine`]) starts one per
//!   partition and runs it inline on the engine thread, while with
//!   `pipeline_threads > 1` the Sio stage reads ahead on a thread of its
//!   own,
//! * the **MsgManager** buffers cross-partition messages and replays them in
//!   order when the destination partition loads ([`msgmanager`]).
//!
//! A [`prefetch`] stage double-buffers partition loads so the Worker never
//! waits on the vertex file.
//!
//! Passes are activity-aware ([`VertexProgram::wants_update`]): a partition
//! with nothing pending and nothing to update is not loaded at all, the
//! Sio stream seeks past adjacency blocks of quiet vertices, and
//! a flush writes back only the slab blocks that changed.

#![forbid(unsafe_code)]

pub mod engine;
pub mod generations;
pub mod graphchi_compat;
pub mod msgmanager;
pub mod prefetch;
pub mod program;
pub mod sio;
pub mod store;
pub mod worker;

pub use engine::{ActivityCounters, Engine, EngineConfig, RunSummary, StageTimes};
pub use generations::{
    generation_path, list_generations, parse_generation_name, CheckpointTimes, Generation,
    GenerationManifest,
};
pub use program::{Outgoing, UpdateContext, VertexProgram};
pub use store::{DenseStore, DosStore, GraphStore, OriginalIds};
