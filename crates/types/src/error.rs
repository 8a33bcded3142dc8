//! Error type shared by all GraphZ crates.

use std::fmt;
use std::path::{Path, PathBuf};

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced anywhere in the GraphZ stack.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying file IO failed.
    Io(std::io::Error),
    /// A stored file is malformed (bad magic, truncated record, ...).
    Corrupt(String),
    /// The requested entity (vertex, partition, file) does not exist.
    NotFound(String),
    /// The engine cannot satisfy its memory budget — e.g. GraphChi's dense
    /// vertex index exceeding available memory on the xlarge graph (paper
    /// §VI-C: "GraphChi does not work for such a large graph ... because
    /// GraphChi's vertex index does not fit into memory").
    IndexExceedsMemory { index_bytes: u64, budget_bytes: u64 },
    /// An engine or converter was configured inconsistently.
    InvalidConfig(String),
    /// The device ran out of space (ENOSPC, or a scratch disk budget was
    /// exhausted). Distinct from [`GraphError::Io`] so ingest callers can
    /// react — free space, shrink the budget, or point scratch elsewhere —
    /// instead of treating a full disk as an unexplained IO failure.
    StorageFull(String),
    /// An algorithm-level failure (e.g. source vertex out of range).
    Algorithm(String),
    /// A point query named a vertex id outside the graph — the serving
    /// layer's typed "no such vertex" answer. Carries the raw id (not a
    /// formatted string) so the read path can construct it without
    /// allocating and the protocol layer can render it as a structured
    /// `unknown-vertex` response instead of a debug dump.
    UnknownVertex(crate::VertexId),
    /// Offset, length, or id arithmetic overflowed its integer type — e.g.
    /// the DOS Eq. 1 byte offset exceeding `u64`, or a `u64` file length
    /// that does not fit this platform's `usize`. Surfacing this as a typed
    /// error (instead of wrapping silently or panicking) is what lets the
    /// storage layer promise overflow-safe offset math (see
    /// [`crate::cast`]).
    OffsetOverflow(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            GraphError::NotFound(m) => write!(f, "not found: {m}"),
            GraphError::IndexExceedsMemory { index_bytes, budget_bytes } => write!(
                f,
                "vertex index ({index_bytes} bytes) exceeds the memory budget \
                 ({budget_bytes} bytes); the engine cannot run out-of-core"
            ),
            GraphError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            GraphError::StorageFull(m) => write!(f, "storage full: {m}"),
            GraphError::Algorithm(m) => write!(f, "algorithm error: {m}"),
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::OffsetOverflow(m) => write!(f, "offset arithmetic overflow: {m}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        // `InvalidData` is how byte-level layers (checksum framing, codec
        // validation) signal a malformed stream; surface it as the typed
        // corruption error rather than a generic IO failure.
        if e.kind() == std::io::ErrorKind::InvalidData {
            // ipa:allow(hot-path-alloc) — allocates only on the error path, which ends the run
            GraphError::Corrupt(e.to_string())
        } else if e.kind() == std::io::ErrorKind::StorageFull {
            // ENOSPC from the OS, or a scratch disk budget tripping: either
            // way the caller should see "storage full", not "io error".
            // ipa:allow(hot-path-alloc) — allocates only on the error path, which ends the run
            GraphError::StorageFull(e.to_string())
        } else {
            GraphError::Io(e)
        }
    }
}

/// Payload attached to [`GraphError::Io`] naming the operation and file that
/// failed, so `io error: No such file or directory` becomes traceable.
#[derive(Debug)]
pub struct IoContext {
    pub op: &'static str,
    pub path: PathBuf,
    pub source: std::io::Error,
}

impl fmt::Display for IoContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for IoContext {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Attach operation + path context to IO errors flowing into [`GraphError`].
///
/// The context rides inside the `std::io::Error` payload, so callers that
/// match on `GraphError::Io(_)` (and on the error kind) keep working; only
/// the message gains the `op path:` prefix.
pub trait IoCtx<T> {
    fn ctx(self, op: &'static str, path: &Path) -> Result<T>;
}

impl<T> IoCtx<T> for std::result::Result<T, std::io::Error> {
    fn ctx(self, op: &'static str, path: &Path) -> Result<T> {
        self.map_err(|source| {
            let kind = source.kind();
            let wrapped =
                std::io::Error::new(kind, IoContext { op, path: path.to_path_buf(), source });
            GraphError::from(wrapped)
        })
    }
}

impl<T> IoCtx<T> for Result<T> {
    fn ctx(self, op: &'static str, path: &Path) -> Result<T> {
        self.map_err(|e| match e {
            GraphError::Io(source) => {
                let kind = source.kind();
                let wrapped =
                    std::io::Error::new(kind, IoContext { op, path: path.to_path_buf(), source });
                GraphError::Io(wrapped)
            }
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = GraphError::IndexExceedsMemory { index_bytes: 100, budget_bytes: 50 };
        let s = e.to_string();
        assert!(s.contains("100 bytes"));
        assert!(s.contains("budget"));
        assert!(GraphError::NotFound("x".into()).to_string().contains("not found"));
    }

    #[test]
    fn offset_overflow_display_names_the_computation() {
        let e = GraphError::OffsetOverflow("dos offset: 7 * 8".into());
        let s = e.to_string();
        assert!(s.contains("offset arithmetic overflow"), "{s}");
        assert!(s.contains("dos offset"), "{s}");
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn storage_full_becomes_typed_error() {
        let io = std::io::Error::new(std::io::ErrorKind::StorageFull, "scratch budget exhausted");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::StorageFull(_)), "got {e:?}");
        let s = e.to_string();
        assert!(s.contains("storage full"), "{s}");
        assert!(s.contains("scratch budget exhausted"), "{s}");
    }

    #[test]
    fn invalid_data_becomes_typed_corruption() {
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, "bad checksum");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Corrupt(_)), "got {e:?}");
        assert!(e.to_string().contains("bad checksum"));
    }

    #[test]
    fn ctx_names_op_and_path() {
        let p = Path::new("/tmp/ckpt/vertices.bin");
        let r: std::result::Result<(), std::io::Error> =
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        let e = r.ctx("read", p).unwrap_err();
        assert!(matches!(e, GraphError::Io(_)), "got {e:?}");
        let msg = e.to_string();
        assert!(msg.contains("read /tmp/ckpt/vertices.bin"), "{msg}");
        assert!(msg.contains("gone"), "{msg}");
        // The original kind survives wrapping.
        if let GraphError::Io(inner) = &e {
            assert_eq!(inner.kind(), std::io::ErrorKind::NotFound);
        }
    }

    #[test]
    fn ctx_on_graph_result_passes_non_io_through() {
        let r: Result<()> = Err(GraphError::Corrupt("x".into()));
        let e = r.ctx("read", Path::new("/f")).unwrap_err();
        assert!(matches!(e, GraphError::Corrupt(_)));
    }
}
