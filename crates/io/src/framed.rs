//! Self-verifying byte streams: a versioned header plus a length+CRC32
//! footer around an arbitrary payload.
//!
//! Record files are homogeneous streams of fixed-size records with no
//! redundancy, so a torn write or truncation either shifts every later field
//! (caught only by luck) or silently drops a tail of records. Wrapping the
//! stream in a frame makes both failure modes loud: the reader validates the
//! header magic/version up front and, at end-of-stream, compares the payload
//! length and CRC32 against the footer. Any mismatch surfaces as
//! [`std::io::ErrorKind::InvalidData`], which `GraphError::from` turns into
//! the typed `GraphError::Corrupt`.
//!
//! Layout (all little-endian):
//!
//! ```text
//! +----------------------+---------+-----------------------------------+
//! | header (12 bytes)    | payload | footer (16 bytes)                 |
//! | magic "GZFR" | u32   |         | u64 payload_len | u32 crc | "GZFE"|
//! |              version |         |                                   |
//! +----------------------+---------+-----------------------------------+
//! ```
//!
//! The frame is an inner layer: `FramedWriter`/`FramedReader` wrap any
//! `Write`/`Read`, and [`RecordWriter`](crate::RecordWriter) /
//! [`RecordReader`](crate::RecordReader) compose with them via
//! `from_writer`/`from_reader` (or the `create_framed`/`open_framed`
//! shorthands).

use std::io::{self, Read, Write};

use graphz_types::codec::{read_u32_le, read_u64_le};

use crate::checksum::{Crc32, Fingerprint};

pub const FRAME_MAGIC: [u8; 4] = *b"GZFR";
pub const FRAME_END_MAGIC: [u8; 4] = *b"GZFE";
pub const FRAME_VERSION: u32 = 1;
pub const HEADER_LEN: usize = 8;
pub const FOOTER_LEN: usize = 16;

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes the frame header eagerly, checksums the payload as it streams
/// through, and appends the footer on [`finish`](Self::finish).
///
/// `finish` must be called; a dropped, unfinished writer leaves a footerless
/// stream that readers reject as truncated — which is exactly the crash
/// semantics the format exists to detect.
pub struct FramedWriter<W: Write> {
    inner: W,
    crc: Crc32,
    len: u64,
    finished: bool,
}

impl<W: Write> FramedWriter<W> {
    pub fn new(mut inner: W) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        let fields = FRAME_MAGIC.into_iter().chain(FRAME_VERSION.to_le_bytes());
        for (dst, b) in header.iter_mut().zip(fields) {
            *dst = b;
        }
        inner.write_all(&header)?;
        Ok(FramedWriter { inner, crc: Crc32::new(), len: 0, finished: false })
    }

    /// Payload bytes written so far.
    pub fn payload_len(&self) -> u64 {
        self.len
    }

    /// Write the footer and flush. Idempotent. Returns the payload length
    /// and CRC32 the footer records — the digest a manifest lists for this
    /// file, taken while the bytes streamed through, so nobody reads the file
    /// back to checksum it.
    pub fn finish(&mut self) -> io::Result<Fingerprint> {
        let crc = self.crc.finish();
        if self.finished {
            return Ok(Fingerprint { len: self.len, crc });
        }
        let mut footer = [0u8; FOOTER_LEN];
        let fields =
            self.len.to_le_bytes().into_iter().chain(crc.to_le_bytes()).chain(FRAME_END_MAGIC);
        for (dst, b) in footer.iter_mut().zip(fields) {
            *dst = b;
        }
        self.inner.write_all(&footer)?;
        self.inner.flush()?;
        self.finished = true;
        Ok(Fingerprint { len: self.len, crc })
    }

    /// Finish (if not already finished) and return the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for FramedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        debug_assert!(!self.finished, "write after finish");
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Validates the header on construction and withholds the trailing 16 bytes
/// from the payload so the footer can be checked at end-of-stream.
///
/// Truncation (missing/short footer), a payload length mismatch, and a CRC
/// mismatch all surface as `InvalidData` from the `read` that hits
/// end-of-stream; a clean, verified end reads as ordinary EOF (`Ok(0)`).
pub struct FramedReader<R: Read> {
    inner: R,
    /// Lookahead holding the most recent `tail_len` undelivered bytes; once
    /// EOF is seen these 16 bytes are the footer.
    tail: [u8; FOOTER_LEN],
    tail_len: usize,
    crc: Crc32,
    len: u64,
    /// Set after the footer has been validated (or validation failed).
    done: bool,
    /// Set once the footer matched the payload.
    verified: bool,
}

impl<R: Read> FramedReader<R> {
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match inner.read(&mut header[filled..]) {
                Ok(0) => {
                    return Err(corrupt(format!(
                        "framed stream truncated in header: got {filled} of {HEADER_LEN} bytes"
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if header[..4] != FRAME_MAGIC {
            return Err(corrupt(format!(
                "bad frame magic {:02x?} (expected {:02x?})",
                &header[..4],
                FRAME_MAGIC
            )));
        }
        let version = read_u32_le(&header[4..8]);
        if version != FRAME_VERSION {
            return Err(corrupt(format!(
                "unsupported frame version {version} (expected {FRAME_VERSION})"
            )));
        }
        Ok(FramedReader {
            inner,
            tail: [0u8; FOOTER_LEN],
            tail_len: 0,
            crc: Crc32::new(),
            len: 0,
            done: false,
            verified: false,
        })
    }

    fn check_footer(&mut self) -> io::Result<()> {
        self.done = true;
        if self.tail_len < FOOTER_LEN {
            return Err(corrupt(format!(
                "framed stream truncated: {} trailing bytes where a {FOOTER_LEN}-byte \
                 footer was expected (payload so far: {} bytes)",
                self.tail_len, self.len
            )));
        }
        let stored_len = read_u64_le(&self.tail[0..8]);
        let stored_crc = read_u32_le(&self.tail[8..12]);
        if self.tail[12..16] != FRAME_END_MAGIC {
            return Err(corrupt(format!(
                "bad frame end magic {:02x?} (expected {:02x?}) — stream torn or overwritten",
                &self.tail[12..16],
                FRAME_END_MAGIC
            )));
        }
        if stored_len != self.len {
            return Err(corrupt(format!(
                "frame length mismatch: footer says {stored_len} bytes, stream carried {}",
                self.len
            )));
        }
        let actual = self.crc.finish();
        if stored_crc != actual {
            return Err(corrupt(format!(
                "frame checksum mismatch: footer {stored_crc:#010x}, computed {actual:#010x}"
            )));
        }
        self.verified = true;
        Ok(())
    }

    /// The payload length and CRC32 of a stream read to its verified end;
    /// `None` before that. Callers comparing a file against a manifest entry
    /// take the digest from here instead of checksumming the payload again.
    pub fn verified(&self) -> Option<Fingerprint> {
        self.verified.then(|| Fingerprint { len: self.len, crc: self.crc.finish() })
    }

    fn fill_inner(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

impl<R: Read> Read for FramedReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.done || out.is_empty() {
            return Ok(0);
        }
        // Keep the lookahead full so EOF always leaves the footer in `tail`.
        while self.tail_len < FOOTER_LEN {
            let tl = self.tail_len;
            let n = self.fill_inner_tail(tl)?;
            if n == 0 {
                self.check_footer()?;
                return Ok(0);
            }
            self.tail_len += n;
        }
        if out.len() > FOOTER_LEN {
            return self.deliver(out);
        }
        // A short read goes through a stack block, so no read allocates.
        let mut block = [0u8; 2 * FOOTER_LEN];
        let n = self.deliver(&mut block[..FOOTER_LEN + out.len()])?;
        out[..n].copy_from_slice(&block[..n]);
        Ok(n)
    }
}

impl<R: Read> FramedReader<R> {
    /// Read fresh bytes into `buf[16..]` (`buf` is longer than the
    /// lookahead), then deliver the first `n` bytes of (lookahead ++ fresh)
    /// in `buf[..n]`; the final 16 bytes of that concatenation become the new
    /// lookahead.
    fn deliver(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_inner(&mut buf[FOOTER_LEN..])?;
        if n == 0 {
            self.check_footer()?;
            return Ok(0);
        }
        let mut next = [0u8; FOOTER_LEN];
        if n <= FOOTER_LEN {
            next[..FOOTER_LEN - n].copy_from_slice(&self.tail[n..]);
            next[FOOTER_LEN - n..].copy_from_slice(&buf[FOOTER_LEN..FOOTER_LEN + n]);
            buf[..n].copy_from_slice(&self.tail[..n]);
        } else {
            next.copy_from_slice(&buf[n..n + FOOTER_LEN]);
            buf[..FOOTER_LEN].copy_from_slice(&self.tail);
        }
        self.tail = next;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }
}

impl<R: Read> FramedReader<R> {
    fn fill_inner_tail(&mut self, from: usize) -> io::Result<usize> {
        loop {
            match self.inner.read(&mut self.tail[from..FOOTER_LEN]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut w = FramedWriter::new(Vec::new()).unwrap();
        w.write_all(payload).unwrap();
        w.into_inner().unwrap()
    }

    fn read_all(bytes: &[u8]) -> io::Result<Vec<u8>> {
        let mut r = FramedReader::new(bytes)?;
        let mut out = Vec::new();
        // Small chunks exercise the lookahead shifting paths.
        let mut buf = [0u8; 5];
        loop {
            let n = r.read(&mut buf)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        for size in [0usize, 1, 15, 16, 17, 100, 8192, 100_000] {
            let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let framed = frame(&payload);
            assert_eq!(framed.len(), HEADER_LEN + size + FOOTER_LEN);
            assert_eq!(read_all(&framed).unwrap(), payload, "size {size}");
            // Reads at, just past and well past the lookahead, and the
            // growing reads of `read_to_end`; the digest matches the writer's.
            for chunk in [16usize, 17, 33, 4096] {
                let mut r = FramedReader::new(&framed[..]).unwrap();
                let (mut out, mut buf) = (Vec::new(), vec![0u8; chunk]);
                while let n @ 1.. = r.read(&mut buf).unwrap() {
                    out.extend_from_slice(&buf[..n]);
                }
                assert_eq!(out, payload, "size {size}, chunk {chunk}");
                assert_eq!(r.verified(), Some(Fingerprint::of(&payload)));
            }
            let mut r = FramedReader::new(&framed[..]).unwrap();
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, payload, "size {size}, read_to_end");
        }
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 7 % 256) as u8).collect();
        let framed = frame(&payload);
        for cut in 0..framed.len() {
            let err = read_all(&framed[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: wrong kind {err:?}"
            );
        }
    }

    #[test]
    fn any_corrupted_byte_is_detected() {
        let payload: Vec<u8> = (0..64u32).map(|i| i as u8).collect();
        let framed = frame(&payload);
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            let res = read_all(&bad);
            assert!(res.is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        let framed = frame(b"hello world");
        let mut longer = framed.clone();
        longer.extend_from_slice(&[0u8; 3]);
        assert!(read_all(&longer).is_err(), "trailing garbage accepted");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut framed = frame(b"x");
        framed[4] = 9;
        let err = match FramedReader::new(&framed[..]) {
            Err(e) => e,
            Ok(_) => panic!("version 9 accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn verified_reader_reports_payload_digest() {
        let payload = b"some payload bytes".to_vec();
        let framed = frame(&payload);
        let mut r = FramedReader::new(&framed[..]).unwrap();
        io::copy(&mut r, &mut io::sink()).unwrap();
        let digest = r.verified().unwrap();
        assert_eq!(digest.len, payload.len() as u64);
        assert_eq!(digest.crc, crate::checksum::crc32(&payload));
        // The writer hands out the same digest it wrote into the footer.
        let mut w = FramedWriter::new(Vec::new()).unwrap();
        w.write_all(&payload).unwrap();
        assert_eq!(w.finish().unwrap(), digest);
        assert_eq!(w.finish().unwrap(), digest, "finish is idempotent");
    }

    #[test]
    fn unfinished_writer_leaves_detectable_stream() {
        let mut w = FramedWriter::new(Vec::new()).unwrap();
        w.write_all(b"will never be finished").unwrap();
        // Simulate a crash: take the buffer without finish().
        let bytes = {
            w.flush().unwrap();
            // Reconstruct what landed on disk: header + payload, no footer.
            let mut v = Vec::new();
            v.extend_from_slice(&FRAME_MAGIC);
            v.extend_from_slice(&FRAME_VERSION.to_le_bytes());
            v.extend_from_slice(b"will never be finished");
            v
        };
        assert!(read_all(&bytes).is_err());
    }
}
