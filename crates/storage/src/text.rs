//! Byte-level reading and parsing of SNAP-style text edge lists.
//!
//! One line parser serves the DOS conversion's `runs` stage and the
//! edge-list import, strict
//! ([`EdgeListFile::import_text`](crate::EdgeListFile::import_text)) or
//! quarantining
//! ([`EdgeListFile::import_text_quarantined`](crate::EdgeListFile::import_text_quarantined)),
//! all through one edge stream (`edgelist::TextEdges`).
//! [`TextLines`] hands out lines straight
//! from 64 KiB blocks, so no line is copied into a `String`, and parses
//! each in the same pass that finds its end: a line made only of ASCII
//! digits and blanks (space, tab, CR, LF) is read without building a
//! `str`. Every other line — comments, `+5`, non-ASCII blanks, garbage,
//! invalid UTF-8 — goes to the `str` parse, whose verdicts define what the
//! import accepts: trim Unicode whitespace, skip blank lines and `#`
//! comments, split on Unicode whitespace, and read the first two fields as
//! `u32` (further fields are ignored). The fast path only ever answers
//! where the `str` parse would answer the same.

use std::io::{self, Read};

use graphz_types::prelude::*;

/// Bytes read per refill of [`TextLines`].
const BLOCK: usize = 64 * 1024;

/// Why a line is not an edge. The import paths word the location
/// themselves; [`Display`](std::fmt::Display) gives the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineError {
    NotUtf8,
    /// Fewer than two fields.
    MissingField,
    /// The named field (`src` or `dst`) does not parse as a `u32`.
    NotU32(&'static str),
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::NotUtf8 => write!(f, "line is not valid UTF-8"),
            LineError::MissingField => write!(f, "expected `src dst`"),
            LineError::NotU32(field) => write!(f, "{field} is not a u32"),
        }
    }
}

/// A line's verdict: `Ok(None)` for blanks and `#` comments, `Ok(Some)`
/// for a `src dst` pair.
pub(crate) type Verdict = std::result::Result<Option<Edge>, LineError>;

/// What the fast path makes of the bytes at the start of a buffer.
enum Plain {
    /// A whole line of ASCII digits and blanks, this long (through its
    /// `\n`), that is blank or has at least two fields whose first two fit
    /// a `u32`.
    Line(usize, Option<Edge>),
    /// Only digits and blanks so far, but no `\n` before the buffer ends.
    Open,
    /// Anything else: a lone field, an overflow, or a byte that is not a
    /// digit or blank. [`parse_str`] decides.
    Other,
}

/// The fast path: one pass over the bytes, parsing fields as it looks for
/// the end of the line.
#[inline]
fn parse_plain(b: &[u8]) -> Plain {
    let mut ids = [0u32; 2];
    let mut fields = 0usize;
    let mut i = 0;
    loop {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\r') {
            i += 1;
        }
        let Some(&first) = b.get(i) else {
            return Plain::Open;
        };
        if first == b'\n' {
            return match fields {
                0 => Plain::Line(i + 1, None),
                1 => Plain::Other,
                _ => Plain::Line(i + 1, Some(Edge::new(ids[0], ids[1]))),
            };
        }
        if !first.is_ascii_digit() {
            return Plain::Other;
        }
        let mut id = u32::from(first - b'0');
        i += 1;
        while let Some(&c) = b.get(i) {
            if !c.is_ascii_digit() {
                if !matches!(c, b' ' | b'\t' | b'\r' | b'\n') {
                    return Plain::Other;
                }
                break;
            }
            id = match id.checked_mul(10).and_then(|id| id.checked_add(u32::from(c - b'0'))) {
                Some(id) => id,
                None => return Plain::Other,
            };
            i += 1;
        }
        if let Some(slot) = ids.get_mut(fields) {
            *slot = id;
        }
        fields += 1;
    }
}

/// The `str` parse every line not taken by [`parse_plain`] goes through.
fn parse_str(line: &[u8]) -> Verdict {
    let line = std::str::from_utf8(line).map_err(|_| LineError::NotUtf8)?.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let mut field = |name: &'static str| -> std::result::Result<VertexId, LineError> {
        it.next().ok_or(LineError::MissingField)?.parse().map_err(|_| LineError::NotU32(name))
    };
    let src = field("src")?;
    let dst = field("dst")?;
    Ok(Some(Edge::new(src, dst)))
}

/// The first line of `b` — its length through the `\n` and its verdict —
/// or `None` when `b` holds no whole line. At the end of the input
/// (`eof`), trailing bytes without a `\n` are the last line.
#[inline]
fn first_line(b: &[u8], eof: bool) -> Option<(usize, Verdict)> {
    match parse_plain(b) {
        Plain::Line(len, parsed) => Some((len, Ok(parsed))),
        Plain::Open if !eof => None,
        Plain::Open | Plain::Other => {
            let len = match b.iter().position(|&c| c == b'\n') {
                Some(i) => i + 1,
                None if eof && !b.is_empty() => b.len(),
                None => return None,
            };
            Some((len, parse_str(&b[..len])))
        }
    }
}

/// Lines of a byte stream and their verdicts, served from a block buffer
/// refilled `BLOCK` bytes at a time. A line longer than the buffer grows
/// it.
pub(crate) struct TextLines<R> {
    src: R,
    buf: Vec<u8>,
    /// Start of the first line not yet handed out.
    head: usize,
    /// End of the bytes read so far.
    tail: usize,
    eof: bool,
}

impl<R: Read> TextLines<R> {
    pub(crate) fn new(src: R) -> Self {
        TextLines { src, buf: vec![0; BLOCK], head: 0, tail: 0, eof: false }
    }

    /// The next line — its bytes including the `\n` (the last line may
    /// lack one) and its verdict — or `None` at the end of the input.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(&[u8], Verdict)>> {
        loop {
            if let Some((len, verdict)) = first_line(&self.buf[self.head..self.tail], self.eof) {
                let start = self.head;
                self.head += len;
                return Ok(Some((&self.buf[start..self.head], verdict)));
            }
            if self.eof {
                return Ok(None);
            }
            // Keep the partial line, at the front of the buffer.
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.tail == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            // Fill the buffer, so a line is rescanned only after the
            // buffer grew: linear in the line's length for any reader.
            while self.tail < self.buf.len() {
                match self.src.read(&mut self.buf[self.tail..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => self.tail += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn lines_of(bytes: &[u8], step: usize) -> Vec<(Vec<u8>, Verdict)> {
        let mut lines = TextLines::new(Trickle(bytes, step));
        let mut out = Vec::new();
        while let Some((line, verdict)) = lines.next_line().unwrap() {
            out.push((line.to_vec(), verdict));
        }
        out
    }

    #[test]
    fn lines_split_like_read_until_and_parse_like_the_str_parse() {
        let long = "7 ".repeat(BLOCK) + "\n";
        let text = format!("0 1\n\n# c\r\n{long}2 3\n4 x\n5 6");
        let mut want = Vec::new();
        let mut rest = text.as_bytes();
        while !rest.is_empty() {
            let end = rest.iter().position(|&b| b == b'\n').map_or(rest.len(), |i| i + 1);
            want.push((rest[..end].to_vec(), parse_str(&rest[..end])));
            rest = &rest[end..];
        }
        for step in [1usize, 3, 4096, usize::MAX] {
            assert_eq!(lines_of(text.as_bytes(), step), want, "step {step}");
        }
        assert!(lines_of(b"", 7).is_empty());
    }

    #[test]
    fn fast_path_agrees_with_the_str_parse() {
        let cases: &[&[u8]] = &[
            b"0 1\n",
            b"  12\t34 \r\n",
            b"\n",
            b" \t\r\n",
            b"5 6 7\n",
            b"5 6 99999999999\n",
            b"5 6 x\n",
            b"4294967295 0",
            b"4294967295 0\n",
            b"4294967296 0\n",
            b"7\n",
            b"007 08\n",
            b"+5 6\n",
            b"#1 2\n",
            b"  # 1 2\n",
            b"1\xc2\xa02\n",
            b"1 2\x0b\n",
            b"1 \xff\n",
            b"1a 2\n",
        ];
        for &line in cases {
            let want = parse_str(line);
            for step in [1usize, usize::MAX] {
                let got = lines_of(line, step);
                assert_eq!(got, vec![(line.to_vec(), want)], "{:?}", String::from_utf8_lossy(line));
            }
            if let Plain::Line(len, fast) = parse_plain(line) {
                let shown = String::from_utf8_lossy(line);
                assert_eq!((len, Ok(fast)), (line.len(), want), "{shown:?}");
            }
        }
        assert!(matches!(parse_plain(b"4294967296 0\n"), Plain::Other));
        assert!(matches!(parse_plain(b"+5 6\n"), Plain::Other));
        assert!(matches!(parse_plain(b"5 6"), Plain::Open));
        assert_eq!(parse_str(b"+5 6\n"), Ok(Some(Edge::new(5, 6))));
        assert_eq!(parse_str(b"7\n"), Err(LineError::MissingField));
        assert_eq!(parse_str(b"1 x\n"), Err(LineError::NotU32("dst")));
        assert_eq!(parse_str(b"1 \xff\n"), Err(LineError::NotUtf8));
    }
}
