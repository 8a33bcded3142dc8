//! Typed readers/writers for streams of fixed-size records.
//!
//! All on-disk structures in the workspace — edge lists, vertex arrays,
//! message spills, index tables — are homogeneous streams of [`FixedCodec`]
//! records. These adapters add the (de)serialization loop once so every
//! format shares the same carefully buffered, instrumented IO path.

use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

use graphz_types::{FixedCodec, GraphError, Result};

use crate::framed::{FramedReader, FramedWriter};
use crate::stats::IoStats;
use crate::tracked;

/// Streaming reader of `T` records from a tracked file.
pub struct RecordReader<T: FixedCodec, R: Read = tracked::TrackedReader> {
    inner: R,
    buf: Vec<u8>,
    _marker: PhantomData<T>,
}

impl<T: FixedCodec> RecordReader<T> {
    /// Open `path` with the default block size.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self::from_reader(tracked::reader(path, stats)?))
    }
}

impl<T: FixedCodec> RecordReader<T, FramedReader<tracked::TrackedReader>> {
    /// Open a checksummed record file written by
    /// [`RecordWriter::create_framed`]. Truncation, torn writes, and bit rot
    /// surface as [`GraphError::Corrupt`] from the read that reaches the
    /// damage, instead of as silently wrong records.
    pub fn open_framed(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self::from_reader(FramedReader::new(tracked::reader(path, stats)?)?))
    }
}

impl<T: FixedCodec, R: Read> RecordReader<T, R> {
    pub fn from_reader(inner: R) -> Self {
        RecordReader { inner, buf: vec![0u8; T::SIZE], _marker: PhantomData }
    }

    /// Read the next record, or `None` at a clean end-of-stream.
    ///
    /// A partial trailing record is a corruption error, not EOF: every format
    /// in this workspace writes whole records only.
    pub fn next_record(&mut self) -> Result<Option<T>> {
        match read_exact_or_eof(&mut self.inner, &mut self.buf)? {
            FillResult::Full => Ok(Some(T::read_from(&self.buf))),
            FillResult::Eof => Ok(None),
            FillResult::Partial(n) => Err(GraphError::Corrupt(format!(
                "truncated record: got {n} of {} bytes",
                T::SIZE
            ))),
        }
    }

    /// Read up to `max` records into `out` (cleared first); returns how many
    /// records were read.
    pub fn read_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize> {
        out.clear();
        while out.len() < max {
            match self.next_record()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out.len())
    }

    /// Drain the remaining records into a vector. The bytes are read in
    /// bulk — about 64 KiB per call, a whole number of records — and decoded
    /// through `chunks_exact`; a partial trailing record is the same
    /// corruption error [`next_record`](Self::next_record) reports, and a
    /// framed reader's checksum failure surfaces as it does there.
    pub fn read_all(self) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.read_chunks(|chunk| {
            out.extend(chunk.chunks_exact(T::SIZE).map(T::read_from));
            Ok(())
        })?;
        Ok(out)
    }

    /// Pass the remaining records to `f` in order, read and decoded in bulk
    /// as [`read_all`](Self::read_all) does, but holding only one 64 KiB
    /// read in memory at a time. Records before a partial trailing record
    /// (or a framed checksum failure) have already been passed to `f` when
    /// the error is returned. Returns the record count.
    pub fn for_each_record<F: FnMut(T)>(self, mut f: F) -> Result<u64> {
        self.try_for_each_record(|rec| {
            f(rec);
            Ok(())
        })
    }

    /// [`for_each_record`](Self::for_each_record) with a fallible `f`: the
    /// first error `f` returns stops the read and is returned.
    pub fn try_for_each_record<F: FnMut(T) -> Result<()>>(self, mut f: F) -> Result<u64> {
        let mut count = 0u64;
        self.read_chunks(|chunk| {
            for rec in chunk.chunks_exact(T::SIZE) {
                f(T::read_from(rec))?;
            }
            count += (chunk.len() / T::SIZE) as u64;
            Ok(())
        })?;
        Ok(count)
    }

    /// Read the rest of the stream about 64 KiB per call, handing `sink`
    /// each read's whole records as one byte slice; an error from `sink`
    /// stops the read.
    fn read_chunks<F: FnMut(&[u8]) -> Result<()>>(mut self, mut sink: F) -> Result<()> {
        let mut buf = vec![0u8; (64 * 1024 / T::SIZE).max(1) * T::SIZE];
        // Bytes at the front of `buf` not yet decoded: a record split
        // across two reads.
        let mut held = 0;
        loop {
            let n = match self.inner.read(&mut buf[held..]) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            let filled = held + n;
            let whole = filled - filled % T::SIZE;
            sink(&buf[..whole])?;
            buf.copy_within(whole..filled, 0);
            held = filled - whole;
        }
        if held > 0 {
            return Err(GraphError::Corrupt(format!(
                "truncated record: got {held} of {} bytes",
                T::SIZE
            )));
        }
        Ok(())
    }
}

impl<T: FixedCodec, R: Read> Iterator for RecordReader<T, R> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Result<T>> {
        self.next_record().transpose()
    }
}

enum FillResult {
    Full,
    Eof,
    Partial(usize),
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<FillResult> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { FillResult::Eof } else { FillResult::Partial(filled) })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(FillResult::Full)
}

/// Streaming writer of `T` records to a tracked file.
pub struct RecordWriter<T: FixedCodec, W: Write = tracked::TrackedWriter> {
    inner: W,
    buf: Vec<u8>,
    written: u64,
    _marker: PhantomData<T>,
}

impl<T: FixedCodec> RecordWriter<T> {
    /// Create/truncate `path` with the default block size.
    pub fn create(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        // ipa:allow(fault-surface-reach) — writer primitive; the surface gates above this layer
        Ok(Self::from_writer(tracked::writer(path, stats)?))
    }
}

impl<T: FixedCodec> RecordWriter<T, FramedWriter<tracked::TrackedWriter>> {
    /// Create/truncate `path` as a checksummed record file: a versioned
    /// header precedes the records and a length+CRC32 footer follows them.
    /// Must be closed with [`finish`](Self::finish), which seals the footer;
    /// a crash before that leaves a file readers reject as truncated.
    pub fn create_framed(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        // ipa:allow(fault-surface-reach) — writer primitive; the surface gates above this layer
        Ok(Self::from_writer(FramedWriter::new(tracked::writer(path, stats)?)?))
    }
}

impl<T: FixedCodec, W: Write> RecordWriter<T, FramedWriter<W>> {
    /// Seal the frame footer, flush, and return the record count. Use this
    /// instead of [`finish`](Self::finish) — plain `finish` flushes records
    /// but leaves the frame open, which readers treat as a torn file.
    pub fn finish_framed(mut self) -> Result<u64> {
        self.inner.finish()?;
        Ok(self.written)
    }
}

impl<T: FixedCodec, W: Write> RecordWriter<T, W> {
    pub fn from_writer(inner: W) -> Self {
        RecordWriter { inner, buf: vec![0u8; T::SIZE], written: 0, _marker: PhantomData }
    }

    pub fn push(&mut self, record: &T) -> Result<()> {
        record.write_to(&mut self.buf);
        self.inner.write_all(&self.buf)?;
        self.written += 1;
        Ok(())
    }

    pub fn push_all<'a, I: IntoIterator<Item = &'a T>>(&mut self, records: I) -> Result<()>
    where
        T: 'a,
    {
        for r in records {
            self.push(r)?;
        }
        Ok(())
    }

    /// Number of records written so far.
    pub fn count(&self) -> u64 {
        self.written
    }

    /// Flush buffered bytes and return the record count.
    pub fn finish(mut self) -> Result<u64> {
        self.inner.flush()?;
        Ok(self.written)
    }

    /// Flush buffered bytes and hand back the inner writer, for state it
    /// folded while writing (a [`CrcWriter`](crate::CrcWriter)'s
    /// fingerprint).
    pub fn into_inner(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Convenience: write a whole slice of records to `path`.
pub fn write_records<T: FixedCodec>(path: &Path, stats: Arc<IoStats>, records: &[T]) -> Result<()> {
    // ipa:allow(fault-surface-reach) — offline convenience for tools and fixtures, not a pipeline write path
    let mut w = RecordWriter::<T>::create(path, stats)?;
    w.push_all(records)?;
    w.finish()?;
    Ok(())
}

/// Convenience: read every record in `path`.
pub fn read_records<T: FixedCodec>(path: &Path, stats: Arc<IoStats>) -> Result<Vec<T>> {
    RecordReader::<T>::open(path, stats)?.read_all()
}

/// Convenience: write a whole slice of records to `path` as a checksummed
/// framed file.
pub fn write_records_framed<T: FixedCodec>(
    path: &Path,
    stats: Arc<IoStats>,
    records: &[T],
) -> Result<()> {
    let mut w = RecordWriter::<T, _>::create_framed(path, stats)?;
    w.push_all(records)?;
    w.finish_framed()?;
    Ok(())
}

/// Convenience: read and verify every record in a checksummed framed file.
pub fn read_records_framed<T: FixedCodec>(path: &Path, stats: Arc<IoStats>) -> Result<Vec<T>> {
    RecordReader::<T, _>::open_framed(path, stats)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use graphz_types::Edge;

    #[test]
    fn roundtrip_edges() {
        let dir = ScratchDir::new("rec").unwrap();
        let stats = IoStats::new();
        let path = dir.file("edges.bin");
        let edges: Vec<Edge> = (0..1000).map(|i| Edge::new(i, i * 2 + 1)).collect();
        write_records(&path, Arc::clone(&stats), &edges).unwrap();
        let back: Vec<Edge> = read_records(&path, Arc::clone(&stats)).unwrap();
        assert_eq!(back, edges);
    }

    #[test]
    fn truncated_record_is_corruption() {
        let dir = ScratchDir::new("rec-trunc").unwrap();
        let stats = IoStats::new();
        let path = dir.file("bad.bin");
        std::fs::write(&path, [1, 2, 3, 4, 5]).unwrap(); // 5 bytes, not a multiple of 8
        let mut r = RecordReader::<Edge>::open(&path, stats).unwrap();
        let err = r.next_record().unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn read_all_reports_a_truncated_tail_as_corruption() {
        let dir = ScratchDir::new("rec-trunc-all").unwrap();
        let stats = IoStats::new();
        let path = dir.file("bad.bin");
        let mut bytes = graphz_types::codec::encode_slice(&[1u64, 2, 3]);
        bytes.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_records::<u64>(&path, stats).unwrap_err();
        match err {
            GraphError::Corrupt(m) => assert!(m.contains("got 3 of 8 bytes"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Hands out at most `step` bytes per read, so records straddle reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_all_matches_record_at_a_time_across_split_reads() {
        // 12-byte records: neither the bulk buffer nor the short reads line
        // up with record boundaries.
        let records: Vec<(u32, u32, u32)> =
            (0..20_000u32).map(|i| (i, i.wrapping_mul(7), !i)).collect();
        let bytes = graphz_types::codec::encode_slice(&records);
        for step in [1usize, 5, 13, 4096, 1 << 20] {
            let trickle = Trickle { bytes: &bytes, step };
            let bulk = RecordReader::<(u32, u32, u32), _>::from_reader(trickle).read_all().unwrap();
            assert_eq!(bulk, records, "step {step}");
        }
        let one_by_one: Vec<(u32, u32, u32)> =
            RecordReader::<(u32, u32, u32), _>::from_reader(Trickle { bytes: &bytes, step: 7 })
                .collect::<Result<_>>()
                .unwrap();
        assert_eq!(one_by_one, records);
    }

    #[test]
    fn empty_file_yields_no_records() {
        let dir = ScratchDir::new("rec-empty").unwrap();
        let stats = IoStats::new();
        let path = dir.file("empty.bin");
        std::fs::write(&path, []).unwrap();
        let recs: Vec<u64> = read_records(&path, stats).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn batched_reads_respect_max() {
        let dir = ScratchDir::new("rec-batch").unwrap();
        let stats = IoStats::new();
        let path = dir.file("n.bin");
        let vals: Vec<u32> = (0..10).collect();
        write_records(&path, Arc::clone(&stats), &vals).unwrap();
        let mut r = RecordReader::<u32>::open(&path, stats).unwrap();
        let mut batch = Vec::new();
        assert_eq!(r.read_batch(&mut batch, 4).unwrap(), 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(r.read_batch(&mut batch, 4).unwrap(), 4);
        assert_eq!(r.read_batch(&mut batch, 4).unwrap(), 2);
        assert_eq!(batch, vec![8, 9]);
        assert_eq!(r.read_batch(&mut batch, 4).unwrap(), 0);
    }

    #[test]
    fn try_for_each_record_stops_at_the_first_error() {
        let dir = ScratchDir::new("rec-try").unwrap();
        let stats = IoStats::new();
        let path = dir.file("t.bin");
        let vals: Vec<u32> = (0..100_000).collect();
        write_records(&path, Arc::clone(&stats), &vals).unwrap();
        let mut seen = Vec::new();
        let err = RecordReader::<u32>::open(&path, Arc::clone(&stats))
            .unwrap()
            .try_for_each_record(|v| {
                if v == 7 {
                    return Err(GraphError::Corrupt(format!("stop at {v}")));
                }
                seen.push(v);
                Ok(())
            })
            .unwrap_err();
        assert!(err.to_string().contains("stop at 7"), "{err}");
        assert_eq!(seen, (0..7).collect::<Vec<u32>>());
        let n = RecordReader::<u32>::open(&path, stats).unwrap().try_for_each_record(|_| Ok(()));
        assert_eq!(n.unwrap(), 100_000);
    }

    #[test]
    fn iterator_interface() {
        let dir = ScratchDir::new("rec-iter").unwrap();
        let stats = IoStats::new();
        let path = dir.file("i.bin");
        write_records(&path, Arc::clone(&stats), &[10u64, 20, 30]).unwrap();
        let r = RecordReader::<u64>::open(&path, stats).unwrap();
        let vals: Result<Vec<u64>> = r.collect();
        assert_eq!(vals.unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn framed_roundtrip() {
        let dir = ScratchDir::new("rec-framed").unwrap();
        let stats = IoStats::new();
        let path = dir.file("f.bin");
        let edges: Vec<Edge> = (0..500).map(|i| Edge::new(i, i + 1)).collect();
        write_records_framed(&path, Arc::clone(&stats), &edges).unwrap();
        let back: Vec<Edge> = read_records_framed(&path, stats).unwrap();
        assert_eq!(back, edges);
    }

    #[test]
    fn framed_detects_truncation_as_corrupt() {
        let dir = ScratchDir::new("rec-framed-trunc").unwrap();
        let stats = IoStats::new();
        let path = dir.file("f.bin");
        let vals: Vec<u64> = (0..100).collect();
        write_records_framed(&path, Arc::clone(&stats), &vals).unwrap();
        // Chop the footer plus a record off the end: an unframed reader
        // would silently return fewer records.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 24]).unwrap();
        let err = read_records_framed::<u64>(&path, stats).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn framed_detects_bitrot_as_corrupt() {
        let dir = ScratchDir::new("rec-framed-rot").unwrap();
        let stats = IoStats::new();
        let path = dir.file("f.bin");
        let vals: Vec<u64> = (0..100).collect();
        write_records_framed(&path, Arc::clone(&stats), &vals).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_records_framed::<u64>(&path, stats).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn unsealed_framed_file_reads_as_corrupt() {
        let dir = ScratchDir::new("rec-framed-unsealed").unwrap();
        let stats = IoStats::new();
        let path = dir.file("f.bin");
        {
            let mut w =
                RecordWriter::<u32, _>::create_framed(&path, Arc::clone(&stats)).unwrap();
            w.push(&7).unwrap();
            // Simulate a crash: flush records but never seal the footer.
            use std::io::Write as _;
            w.inner.flush().unwrap();
            std::mem::forget(w);
        }
        let err = read_records_framed::<u32>(&path, stats).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn writer_counts_records() {
        let dir = ScratchDir::new("rec-count").unwrap();
        let stats = IoStats::new();
        let mut w = RecordWriter::<u32>::create(&dir.file("c.bin"), stats).unwrap();
        w.push(&1).unwrap();
        w.push(&2).unwrap();
        assert_eq!(w.count(), 2);
        assert_eq!(w.finish().unwrap(), 2);
    }
}
