//! The paper's six benchmark algorithms (§VI-A) — Connected Components,
//! Breadth-First Search, PageRank, Single-Source Shortest Paths, Belief
//! Propagation, and RandomWalk — implemented three times over, once per
//! engine programming model:
//!
//! * [`graphz`] — GraphZ `update()` / `apply_message()` programs,
//! * [`graphchi`] — GraphChi edge-value programs,
//! * [`xstream`] — X-Stream scatter/gather programs,
//!
//! plus [`mod@reference`] in-memory implementations (the "plain C" rows of the
//! paper's Tables I–II) used both as the LOC baseline and as ground truth in
//! tests.
//!
//! Each algorithm lives in its own file per engine so the Table IX
//! lines-of-code comparison can be regenerated by counting real source
//! files (`graphz-bench`'s `table09_loc_engines`).
//!
//! # Cross-engine semantics
//!
//! The monotone algorithms (BFS, CC, SSSP) run genuinely *asynchronously*
//! on GraphZ and GraphChi (min-folds are order-insensitive, and asynchrony
//! cuts iteration counts — Table XIV) and bulk-synchronously on X-Stream;
//! all three reach identical fixed points. PageRank is asynchronous on the
//! async engines and converges to the same fixed point within tolerance.
//! RandomWalk and Belief Propagation have no monotone fixed point, so their
//! messages carry an iteration *parity tag*; each engine folds a message
//! into the bucket for the iteration it belongs to, giving bit-comparable
//! bulk-synchronous trajectories on every engine while still exercising
//! each engine's full IO path.

#![forbid(unsafe_code)]

pub mod common;
pub mod graphchi;
pub mod graphz;
pub mod reference;
pub mod runner;
pub mod xstream;

pub use common::{Algorithm, AlgoParams, AlgoValues, ResultStream, ValueStream};
pub use runner::{AlgoOutcome, EngineKind};
