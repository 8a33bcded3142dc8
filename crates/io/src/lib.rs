//! Instrumented file IO for out-of-core graph engines.
//!
//! Every engine in this workspace (GraphZ and both baselines) performs its
//! disk traffic through this crate so that:
//!
//! 1. reads, writes, bytes, and seeks are counted identically for all of
//!    them ([`IoStats`]), reproducing the paper's Fig. 9 IO statistics, and
//! 2. the recorded IO trace can be converted into *modeled* device time for
//!    an HDD or SSD ([`DeviceModel`]), which substitutes for the paper's
//!    physical disks (our scaled-down files sit in the OS page cache, so
//!    wall-clock time alone cannot reproduce HDD/SSD effects; see DESIGN.md
//!    §3).
//!
//! It also holds the integrity primitives: a file's [`Fingerprint`] (length
//! and CRC32, taken by [`CrcWriter`] while writing), the [`framed`] format
//! and the atomic writers. The one manifest type that records fingerprints
//! (`meta.txt`, `checksums.txt`, checkpoint and convert stage manifests) is
//! `graphz_storage::meta::MetaFile`.

#![forbid(unsafe_code)]

pub mod atomic;
pub mod checksum;
pub mod device;
pub mod fault;
pub mod framed;
pub mod record;
pub mod scratch;
pub mod stats;
pub mod tracked;

pub use atomic::{write_atomic, AtomicFile, StagedDir};
pub use checksum::{crc32, crc32_combine, crc32_stream, Crc32, CrcWriter, Fingerprint};
pub use device::{DeviceKind, DeviceModel};
pub use fault::{
    DiskBudget, FaultKind, FaultPlan, FaultState, FaultSurface, RetryPolicy, SurfaceWriter,
};
pub use framed::{FramedReader, FramedWriter};
pub use record::{RecordReader, RecordWriter};
pub use scratch::ScratchDir;
pub use stats::{IoSnapshot, IoStats, PrefetchSnapshot};
pub use tracked::{ChecksummedWriter, TrackedFile, TrackedReader, TrackedWriter};
