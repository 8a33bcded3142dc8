//! Shared atomic IO counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic IO counters shared by every file an engine opens.
///
/// Engines clone the `Arc<IoStats>` into each [`TrackedFile`]; the harness
/// snapshots it before/after a run to charge exactly that run's traffic
/// (paper Fig. 9 counts reads and writes per algorithm per engine).
///
/// [`TrackedFile`]: crate::TrackedFile
#[derive(Debug, Default)]
pub struct IoStats {
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    seeks: AtomicU64,
}

impl IoStats {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_write(&self, bytes: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A non-sequential access: the file position moved somewhere other than
    /// the end of the previous access. On a magnetic disk each of these is a
    /// head movement; the [`DeviceModel`](crate::DeviceModel) charges them.
    #[inline]
    pub fn record_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`IoStats`]; supports subtraction so harnesses can
/// charge intervals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    pub read_ops: u64,
    pub write_ops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub seeks: u64,
}

impl IoSnapshot {
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops - rhs.read_ops,
            write_ops: self.write_ops - rhs.write_ops,
            bytes_read: self.bytes_read - rhs.bytes_read,
            bytes_written: self.bytes_written - rhs.bytes_written,
            seeks: self.seeks - rhs.seeks,
        }
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops + rhs.read_ops,
            write_ops: self.write_ops + rhs.write_ops,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            seeks: self.seeks + rhs.seeks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(100);
        s.record_read(50);
        s.record_write(10);
        s.record_seek();
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.bytes_read, 150);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.bytes_written, 10);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.total_bytes(), 160);
        assert_eq!(snap.total_ops(), 3);
    }

    #[test]
    fn snapshot_arithmetic() {
        let s = IoStats::new();
        s.record_read(100);
        let a = s.snapshot();
        s.record_read(100);
        s.record_write(7);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.bytes_read, 100);
        assert_eq!(d.bytes_written, 7);
        let sum = a + d;
        assert_eq!(sum, b);
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        let s = IoStats::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().read_ops, 4000);
    }
}
