//! Files whose every read, write, and seek is recorded in shared [`IoStats`].

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::checksum::CrcWriter;
use crate::stats::IoStats;

/// A file handle that records its traffic into a shared [`IoStats`].
///
/// Sequentiality is tracked per handle: an access whose starting offset is
/// not the end of the previous access counts as a seek. That makes the seek
/// counter a faithful proxy for magnetic-disk head movements, which the
/// [`DeviceModel`](crate::DeviceModel) charges per operation.
pub struct TrackedFile {
    file: File,
    stats: Arc<IoStats>,
    /// Next offset a purely sequential access would start at.
    expected_pos: u64,
    /// Current actual file position.
    pos: u64,
}

impl TrackedFile {
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        Ok(Self::from_file(File::open(path)?, stats))
    }

    pub fn create(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        // ipa:allow(fault-surface-reach) — byte-level primitive under every writer; gating is the call-site contract
        Ok(Self::from_file(File::create(path)?, stats))
    }

    /// Open for both reading and writing, creating the file if absent.
    pub fn open_rw(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        // ipa:allow(fault-surface-reach) — byte-level primitive under every writer; gating is the call-site contract
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Self::from_file(file, stats))
    }

    /// Open in append mode, creating the file if absent. The position
    /// trackers start at the current end of file, so appends after reopening
    /// count as sequential (they are, on disk).
    pub fn append(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        // ipa:allow(fault-surface-reach) — byte-level primitive under every writer; gating is the call-site contract; ipa:allow(hot-path-alloc) — the MsgManager spill opens a segment here once per segment, never per message
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(TrackedFile { file, stats, expected_pos: len, pos: len })
    }

    pub fn from_file(file: File, stats: Arc<IoStats>) -> Self {
        TrackedFile { file, stats, expected_pos: 0, pos: 0 }
    }

    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    pub fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    #[inline]
    fn note_access(&mut self, len: u64) {
        if self.pos != self.expected_pos {
            self.stats.record_seek();
        }
        self.expected_pos = self.pos + len;
        self.pos = self.expected_pos;
    }
}

impl Read for TrackedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(buf)?;
        self.note_access(n as u64);
        self.stats.record_read(n as u64);
        Ok(n)
    }
}

impl Write for TrackedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.note_access(n as u64);
        self.stats.record_write(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Seek for TrackedFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = self.file.seek(pos)?;
        self.pos = new;
        Ok(new)
    }
}

/// Buffered sequential reader over a [`TrackedFile`].
///
/// The buffer size doubles as the engine's "block size": each refill is one
/// tracked read op, exactly like the Sio component of the paper reading raw
/// blocks (§V-A).
pub type TrackedReader = BufReader<TrackedFile>;

/// Buffered writer over a [`TrackedFile`]; each flush of the internal buffer
/// is one tracked write op.
pub type TrackedWriter = BufWriter<TrackedFile>;

/// Default IO block size (64 KiB), a typical out-of-core engine block.
pub const DEFAULT_BLOCK: usize = 64 * 1024;

/// Open `path` for buffered sequential reading with the default block size.
pub fn reader(path: &Path, stats: Arc<IoStats>) -> io::Result<TrackedReader> {
    reader_with_block(path, stats, DEFAULT_BLOCK)
}

/// Open `path` for buffered sequential reading with an explicit block size.
pub fn reader_with_block(
    path: &Path,
    stats: Arc<IoStats>,
    block: usize,
) -> io::Result<TrackedReader> {
    Ok(BufReader::with_capacity(block, TrackedFile::open(path, stats)?))
}

/// Create/truncate `path` for buffered writing with the default block size.
pub fn writer(path: &Path, stats: Arc<IoStats>) -> io::Result<TrackedWriter> {
    writer_with_block(path, stats, DEFAULT_BLOCK)
}

/// Create/truncate `path` for buffered writing with an explicit block size.
pub fn writer_with_block(
    path: &Path,
    stats: Arc<IoStats>,
    block: usize,
) -> io::Result<TrackedWriter> {
    // ipa:allow(fault-surface-reach) — byte-level primitive under every writer; gating is the call-site contract
    Ok(BufWriter::with_capacity(block, TrackedFile::create(path, stats)?))
}

/// Buffered writer whose file sink folds the [`Fingerprint`] of every byte
/// that reaches the file, in whole blocks; each flush of the buffer is one
/// tracked write op, as with [`TrackedWriter`].
///
/// [`Fingerprint`]: crate::Fingerprint
pub type ChecksummedWriter = BufWriter<CrcWriter<TrackedFile>>;

/// Create/truncate `path` for buffered writing with the default block size,
/// fingerprinting the bytes as they land.
pub fn checksummed_writer(path: &Path, stats: Arc<IoStats>) -> io::Result<ChecksummedWriter> {
    let file = TrackedFile::create(path, stats)?;
    Ok(BufWriter::with_capacity(DEFAULT_BLOCK, CrcWriter::new(file)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn sequential_io_counts_no_seeks() {
        let dir = ScratchDir::new("tracked-seq").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("f.bin");
        {
            let mut f = TrackedFile::create(&path, Arc::clone(&stats)).unwrap();
            f.write_all(&[1u8; 100]).unwrap();
            f.write_all(&[2u8; 100]).unwrap();
        }
        {
            let mut f = TrackedFile::open(&path, Arc::clone(&stats)).unwrap();
            let mut buf = [0u8; 50];
            for _ in 0..4 {
                f.read_exact(&mut buf).unwrap();
            }
        }
        let s = stats.snapshot();
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.bytes_read, 200);
        assert_eq!(s.seeks, 0, "sequential access must not count seeks");
    }

    #[test]
    fn random_access_counts_seeks() {
        let dir = ScratchDir::new("tracked-rand").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("f.bin");
        {
            let mut f = TrackedFile::create(&path, Arc::clone(&stats)).unwrap();
            f.write_all(&[0u8; 1000]).unwrap();
        }
        let mut f = TrackedFile::open(&path, Arc::clone(&stats)).unwrap();
        let mut b = [0u8; 10];
        f.seek(SeekFrom::Start(500)).unwrap();
        f.read_exact(&mut b).unwrap(); // jumped: 1 seek
        f.read_exact(&mut b).unwrap(); // sequential: no seek
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_exact(&mut b).unwrap(); // jumped back: 1 seek
        assert_eq!(stats.snapshot().seeks, 2);
    }

    #[test]
    fn buffered_reader_reads_in_blocks() {
        let dir = ScratchDir::new("tracked-buf").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("f.bin");
        {
            let mut w = writer_with_block(&path, Arc::clone(&stats), 1024).unwrap();
            w.write_all(&vec![7u8; 4096]).unwrap();
            w.flush().unwrap();
        }
        let read_stats = IoStats::new();
        let mut r = reader_with_block(&path, Arc::clone(&read_stats), 1024).unwrap();
        let mut chunk = [0u8; 256];
        for _ in 0..16 {
            r.read_exact(&mut chunk).unwrap();
        }
        let s = read_stats.snapshot();
        assert_eq!(s.bytes_read, 4096);
        // 16 small reads serviced by 4 block refills of the tracked file.
        assert_eq!(s.read_ops, 4, "read_ops = {}", s.read_ops);
    }

    #[test]
    fn append_mode_counts_sequential_writes() {
        let dir = ScratchDir::new("tracked-app").unwrap();
        let stats = IoStats::new();
        let path = dir.file("log.bin");
        {
            let mut f = TrackedFile::append(&path, Arc::clone(&stats)).unwrap();
            f.write_all(b"aaa").unwrap();
        }
        {
            let mut f = TrackedFile::append(&path, Arc::clone(&stats)).unwrap();
            f.write_all(b"bbb").unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"aaabbb");
        assert_eq!(stats.snapshot().seeks, 0, "appends are sequential");
        assert_eq!(stats.snapshot().bytes_written, 6);
    }

    #[test]
    fn open_rw_supports_update_in_place() {
        let dir = ScratchDir::new("tracked-rw").unwrap();
        let stats = IoStats::new();
        let path = dir.path().join("f.bin");
        let mut f = TrackedFile::open_rw(&path, Arc::clone(&stats)).unwrap();
        f.write_all(b"hello").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(b"J").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut s = String::new();
        f.read_to_string(&mut s).unwrap();
        assert_eq!(s, "Jello");
    }
}
