//! On-disk graph storage formats.
//!
//! Three formats live here:
//!
//! * [`edgelist`] — the raw interchange format: a flat file of `(src, dst)`
//!   records, plus SNAP-style text import/export.
//! * [`csr`] — compressed sparse rows, the *conventional* out-of-core index
//!   format whose per-vertex index the paper's degree-ordered storage
//!   replaces (paper §III-A).
//! * [`dos`] — **degree-ordered storage**, the paper's first contribution
//!   (§III): vertices relabeled by descending out-degree so the vertex index
//!   needs one entry per *unique degree* instead of per vertex, and the
//!   adjacency offset of any vertex is computed by Eq. 1.
//!
//! [`partition`] computes memory-budget-driven partition boundaries over
//! either ordering, and [`meta`] is the tiny `key=value` sidecar format all
//! directory layouts use.
//!
//! The input side is unified behind [`ingest::IngestPipeline`]: one builder
//! that detects the source format and runs the staged DOS conversion, which
//! parses text (one byte-level line parser, strict or quarantining — the
//! same one [`EdgeListFile::import_text`] and
//! [`EdgeListFile::import_text_quarantined`] use) straight into its sorted
//! source runs. Its bytes do not depend on the memory budget (DESIGN.md
//! §6g).

#![forbid(unsafe_code)]

pub mod csr;
pub mod dos;
pub mod edgelist;
pub mod ingest;
mod lanes;
pub mod meta;
pub mod partition;
mod text;
pub mod verify;

pub use csr::{CsrFiles, CsrGraph};
pub use dos::{
    id_map_fits, scratch_root_for, AdjCursor, DosConverter, DosConverterBuilder, DosGraph, DosIndex,
};
pub use edgelist::{BadRecord, EdgeListFile};
pub use ingest::{IngestPipeline, IngestPipelineBuilder, IngestTimings};
pub use partition::{PartitionSet, Partitioner};
pub use verify::{verify_dos, VerifyReport, Violation};
