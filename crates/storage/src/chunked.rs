//! Chunked parallel import of SNAP-style text edge lists.
//!
//! The chunk plan is a pure function of `(total_bytes, chunk_bytes)` — never
//! of thread count or timing (the workspace's deterministic-schedule rule,
//! DESIGN.md §6d/§6g): the file is cut into fixed-size byte spans, each span
//! owns exactly the lines that *begin* inside it, and chunk `i` is parsed by
//! worker `i % threads`. Reassembling parsed chunks in index order therefore
//! reproduces the serial line order exactly, so the resulting binary edge
//! list is byte-identical to [`EdgeListFile::import_text`] for every thread
//! count and chunk size. The collector streams each chunk into the edge
//! list as it arrives, so memory holds one parsed chunk per worker, not the
//! file.
//!
//! A line "begins at" byte `p` when `p == 0` or the previous byte is `\n`.
//! A worker assigned span `[start, end)` seeks to `start - 1` (when
//! `start > 0`) and discards through the first newline — if the previous
//! byte *was* the newline this consumes exactly that byte, so a line
//! beginning exactly at `start` is kept; otherwise the discarded bytes are
//! the tail of a line owned by the previous chunk. It then parses every line
//! beginning before `end`, reading past `end` to finish the final line.

use std::io::{Seek, SeekFrom};
use std::path::Path;
use std::sync::{mpsc, Arc};

use graphz_io::{IoStats, TrackedFile};
use graphz_types::prelude::*;

use crate::edgelist::{EdgeListFile, EdgeListWriter};
use crate::text::{LineError, TextLines};

/// Default span size for parallel text parsing (1 MiB — large enough that
/// per-chunk overhead vanishes, small enough that the parsed chunks in
/// flight, about 1 MiB of edges per worker plus the one being written, stay
/// well under the conversion's sort budget).
pub const DEFAULT_CHUNK_BYTES: u64 = 1 << 20;

/// One byte span of the chunk plan: the lines beginning in `start..end`
/// belong to this chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    pub start: u64,
    pub end: u64,
}

/// Cut `total_bytes` into fixed-size spans. Pure function of its arguments:
/// the plan (and therefore which lines each chunk owns) is identical for
/// every thread count.
pub fn plan_chunks(total_bytes: u64, chunk_bytes: u64) -> Vec<ChunkSpan> {
    let step = chunk_bytes.max(1);
    let mut spans = Vec::new();
    let mut at = 0u64;
    while at < total_bytes {
        let next = total_bytes.min(at.saturating_add(step));
        spans.push(ChunkSpan { start: at, end: next });
        at = next;
    }
    spans
}

/// Open `text_path` at the first line `span` owns (see the module docs for
/// the ownership rule); returns the line reader and that line's offset.
fn open_span(
    text_path: &Path,
    stats: &Arc<IoStats>,
    span: ChunkSpan,
) -> Result<(TextLines<TrackedFile>, u64)> {
    let mut file = TrackedFile::open(text_path, Arc::clone(stats)).ctx("open", text_path)?;
    if span.start == 0 {
        return Ok((TextLines::new(file), 0));
    }
    file.seek(SeekFrom::Start(span.start - 1))?;
    let mut lines = TextLines::new(file);
    // Discard through the first newline: exactly that byte when the line
    // before ends at `start - 1`, else the tail the previous chunk owns.
    let skipped = lines.next_line()?.map_or(0, |(line, _)| line.len());
    let at = cast::add_u64(span.start - 1, cast::len_u64(skipped), "text chunk position")?;
    Ok((lines, at))
}

/// Parse the lines a single span owns.
fn parse_span(text_path: &Path, stats: &Arc<IoStats>, span: ChunkSpan) -> Result<Vec<Edge>> {
    let (mut lines, mut at) = open_span(text_path, stats, span)?;
    let mut edges = Vec::new();
    while at < span.end {
        let Some((line, verdict)) = lines.next_line()? else {
            break;
        };
        let next = cast::add_u64(at, cast::len_u64(line.len()), "text chunk position")?;
        match verdict {
            Ok(Some(e)) => edges.push(e),
            Ok(None) => {}
            Err(LineError::NotUtf8) => {
                return Err(GraphError::Corrupt(format!(
                    "{}: bytes {at}..{next}: line is not valid UTF-8",
                    text_path.display()
                )))
            }
            Err(e) => {
                return Err(GraphError::Corrupt(format!("{}: byte {at}: {e}", text_path.display())))
            }
        }
        at = next;
    }
    Ok(edges)
}

/// One malformed input line, quarantined instead of aborting the import.
///
/// `line` is the global 1-based line number (chunk-local counts are summed
/// in plan order, so the number is identical for every thread count and
/// chunk size), `byte` the offset where the line begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    pub line: u64,
    pub byte: u64,
    pub text: String,
    pub reason: String,
}

/// What one span's lenient parse produced: the good edges, the number of
/// lines the span owns (good or bad, including blanks and comments), and
/// the malformed lines with span-local line indices.
struct LenientSpan {
    edges: Vec<Edge>,
    owned_lines: u64,
    bad: Vec<BadRecord>, // `line` is 0-based *within* the span here
}

/// Lenient variant of [`parse_span`]: malformed lines (bad field counts,
/// non-numeric ids, invalid UTF-8) are collected instead of aborting. IO
/// errors still abort — they say nothing about the input's content.
fn parse_span_lenient(
    text_path: &Path,
    stats: &Arc<IoStats>,
    span: ChunkSpan,
) -> Result<LenientSpan> {
    let (mut lines, mut at) = open_span(text_path, stats, span)?;
    let mut out = LenientSpan { edges: Vec::new(), owned_lines: 0, bad: Vec::new() };
    while at < span.end {
        let Some((line, verdict)) = lines.next_line()? else {
            break;
        };
        match verdict {
            Ok(Some(e)) => out.edges.push(e),
            Ok(None) => {}
            Err(e) => out.bad.push(BadRecord {
                line: out.owned_lines,
                byte: at,
                text: String::from_utf8_lossy(line).trim_end().to_string(),
                reason: e.to_string(),
            }),
        }
        out.owned_lines += 1;
        at = cast::add_u64(at, cast::len_u64(line.len()), "text chunk position")?;
    }
    Ok(out)
}

/// Parse every span of `plan` with `parse` and hand the results to `sink`
/// in plan order.
///
/// With `threads > 1`, chunk `i` is parsed by worker `i % threads`, and each
/// worker hands its chunks over a rendezvous channel of its own; the
/// collector receives chunk `i` from worker `i % threads`. A worker that
/// finishes a chunk waits until the collector takes it, so at most one
/// parsed chunk per worker plus the one in `sink` are in memory, whatever
/// the size of the file. The first error in plan order — a chunk's parse
/// error or the sink's — is the one returned: the collector meets errors in
/// the order the serial parser would. Returning drops the channels, which
/// stops every worker at its next hand-over.
fn for_each_span<T: Send>(
    plan: &[ChunkSpan],
    threads: usize,
    parse: impl Fn(ChunkSpan) -> Result<T> + Sync,
    mut sink: impl FnMut(T) -> Result<()>,
) -> Result<()> {
    if threads <= 1 || plan.len() <= 1 {
        for span in plan {
            sink(parse(*span)?)?;
        }
        return Ok(());
    }
    let workers = threads.min(plan.len());
    std::thread::scope(|scope| -> Result<()> {
        let mut inboxes = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Result<T>>(0);
            inboxes.push(rx);
            let parse = &parse;
            std::thread::Builder::new()
                .name(format!("graphz-parse-{worker}"))
                .spawn_scoped(scope, move || {
                    for span in plan.iter().skip(worker).step_by(workers) {
                        if tx.send(parse(*span)).is_err() {
                            return; // the collector stopped at an earlier chunk
                        }
                    }
                })?;
        }
        for (idx, inbox) in (0..plan.len()).zip(inboxes.iter().cycle()) {
            let parsed = inbox
                .recv()
                .map_err(|_| GraphError::Corrupt(format!("parse worker lost chunk {idx}")))?;
            sink(parsed?)?;
        }
        Ok(())
    })
}

/// Import a SNAP-style text file, quarantining up to `max_bad_records`
/// malformed lines instead of aborting on the first one.
///
/// Returns the imported edge list (malformed lines simply dropped from it)
/// plus the quarantined records with **global 1-based line numbers** —
/// chunk-local counts are summed in plan order as the chunks reach the
/// writer, so numbering, edges, and output bytes are identical for every
/// `threads` and `chunk_bytes`. Exceeding `max_bad_records` is a typed
/// [`GraphError::Corrupt`] naming the first offending line, raised at the
/// chunk that exceeds it, and leaves no edge list behind.
pub fn import_text_quarantined(
    text_path: &Path,
    bin_path: &Path,
    stats: Arc<IoStats>,
    threads: usize,
    chunk_bytes: u64,
    max_bad_records: u64,
) -> Result<(EdgeListFile, Vec<BadRecord>)> {
    let total_bytes = std::fs::metadata(text_path).ctx("stat", text_path)?.len();
    let plan = plan_chunks(total_bytes, chunk_bytes);
    let mut bad: Vec<BadRecord> = Vec::new();
    let mut lines_before: u64 = 0;
    let file = EdgeListWriter::write_streamed(bin_path, Arc::clone(&stats), |w| {
        let parse = |span| parse_span_lenient(text_path, &stats, span);
        for_each_span(&plan, threads, parse, |span| {
            // Chunk-local line indices become global 1-based numbers via a
            // running prefix sum of each span's owned-line count.
            for mut b in span.bad {
                b.line = cast::add_u64(lines_before, b.line, "quarantine line number")? + 1;
                bad.push(b);
            }
            if cast::len_u64(bad.len()) > max_bad_records {
                let first = bad.first().map_or(0, |b| b.line);
                return Err(GraphError::Corrupt(format!(
                    "{}: malformed records exceed --max-bad-records {max_bad_records} \
                     (first at line {first})",
                    text_path.display(),
                )));
            }
            lines_before = cast::add_u64(lines_before, span.owned_lines, "quarantine line count")?;
            span.edges.into_iter().try_for_each(|e| w.push(e))
        })
    })?;
    Ok((file, bad))
}

/// Import a SNAP-style text file by parsing `chunk_bytes`-sized spans on
/// `threads` workers and streaming the parsed chunks into the edge list in
/// plan order (memory: one chunk per worker, see [`for_each_span`]).
///
/// Byte-identical to [`EdgeListFile::import_text`] for every `threads` and
/// `chunk_bytes`; `threads <= 1` delegates to the serial path outright. A
/// parse error is the earliest chunk's, and leaves no edge list behind.
pub fn import_text_chunked(
    text_path: &Path,
    bin_path: &Path,
    stats: Arc<IoStats>,
    threads: usize,
    chunk_bytes: u64,
) -> Result<EdgeListFile> {
    if threads <= 1 {
        return EdgeListFile::import_text(text_path, bin_path, stats);
    }
    let total_bytes = std::fs::metadata(text_path).ctx("stat", text_path)?.len();
    let plan = plan_chunks(total_bytes, chunk_bytes);
    if plan.len() <= 1 {
        return EdgeListFile::import_text(text_path, bin_path, stats);
    }
    EdgeListWriter::write_streamed(bin_path, Arc::clone(&stats), |w| {
        let parse = |span| parse_span(text_path, &stats, span);
        for_each_span(&plan, threads, parse, |edges| edges.into_iter().try_for_each(|e| w.push(e)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::ScratchDir;

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    #[test]
    fn plan_covers_the_file_exactly() {
        assert!(plan_chunks(0, 16).is_empty());
        let plan = plan_chunks(100, 32);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0], ChunkSpan { start: 0, end: 32 });
        assert_eq!(plan[3], ChunkSpan { start: 96, end: 100 });
        for w in plan.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Degenerate chunk size still terminates.
        assert_eq!(plan_chunks(3, 0).len(), 3);
    }

    /// Deterministic pseudo-random text graph with comments, blank lines,
    /// and mixed whitespace, shaped to land line breaks on chunk borders.
    fn sample_text(lines: usize) -> String {
        let mut out = String::from("# header comment\n\n");
        let mut x: u64 = 7;
        for i in 0..lines {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let src = (x >> 33) % 97;
            let dst = (x >> 11) % 97;
            if i % 17 == 0 {
                out.push_str("# interior comment\n");
            }
            if i % 23 == 0 {
                out.push('\n');
            }
            out.push_str(&format!("{src}\t{dst}\n"));
        }
        out
    }

    #[test]
    fn chunked_import_matches_serial_bytes() {
        let dir = ScratchDir::new("chunked").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, sample_text(500)).unwrap();
        let serial_bin = dir.file("serial.bin");
        EdgeListFile::import_text(&txt, &serial_bin, stats()).unwrap();
        let serial = std::fs::read(&serial_bin).unwrap();
        assert!(!serial.is_empty());
        for threads in [2usize, 3, 8] {
            for chunk_bytes in [7u64, 64, 1 << 20] {
                let bin = dir.file(&format!("par-{threads}-{chunk_bytes}.bin"));
                let f =
                    import_text_chunked(&txt, &bin, stats(), threads, chunk_bytes).unwrap();
                assert_eq!(
                    std::fs::read(&bin).unwrap(),
                    serial,
                    "threads={threads} chunk_bytes={chunk_bytes}"
                );
                assert_eq!(f.meta(), EdgeListFile::open(&serial_bin).unwrap().meta());
            }
        }
    }

    #[test]
    fn file_without_trailing_newline() {
        let dir = ScratchDir::new("chunked-tail").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n1 2\n2 3").unwrap();
        let f = import_text_chunked(&txt, &dir.file("g.bin"), stats(), 4, 4).unwrap();
        assert_eq!(f.meta().num_edges, 3);
        let serial = EdgeListFile::import_text(&txt, &dir.file("s.bin"), stats()).unwrap();
        assert_eq!(
            std::fs::read(dir.file("g.bin")).unwrap(),
            std::fs::read(dir.file("s.bin")).unwrap()
        );
        assert_eq!(f.meta(), serial.meta());
    }

    #[test]
    fn garbage_is_a_typed_error_naming_the_byte() {
        let dir = ScratchDir::new("chunked-bad").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\n0 2\n0 3\n1 nope\n2 0\n").unwrap();
        let err = import_text_chunked(&txt, &dir.file("g.bin"), stats(), 2, 4).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn two_failing_chunks_report_the_earlier_and_leave_no_file() {
        let dir = ScratchDir::new("chunked-two-bad").unwrap();
        let txt = dir.file("g.txt");
        // Eight-byte lines and eight-byte chunks: line `i` is chunk `i`.
        let mut text: String = (0..40).map(|i| format!("{:03} {:03}\n", i, i + 1)).collect();
        text.replace_range(5 * 8..5 * 8 + 7, "005 xyz");
        text.replace_range(30 * 8..30 * 8 + 7, "030 -1 ");
        std::fs::write(&txt, &text).unwrap();
        let want = format!("corrupt data: {}: byte 40: dst is not a u32", txt.display());
        for threads in [2usize, 3, 7] {
            let bin = dir.file(&format!("imported-{threads}.bin"));
            let err = import_text_chunked(&txt, &bin, stats(), threads, 8).unwrap_err();
            assert_eq!(err.to_string(), want, "threads={threads}");
            assert!(!bin.exists(), "threads={threads}: a failed import leaves no edge list");
        }
    }

    #[test]
    fn single_chunk_and_single_thread_delegate_to_serial() {
        let dir = ScratchDir::new("chunked-serial").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "5 6\n6 7\n").unwrap();
        let a = import_text_chunked(&txt, &dir.file("a.bin"), stats(), 1, 4).unwrap();
        let b = import_text_chunked(&txt, &dir.file("b.bin"), stats(), 8, 1 << 20).unwrap();
        assert_eq!(a.meta(), b.meta());
        assert_eq!(
            std::fs::read(dir.file("a.bin")).unwrap(),
            std::fs::read(dir.file("b.bin")).unwrap()
        );
    }

    #[test]
    fn quarantine_collects_bad_lines_with_stable_global_numbers() {
        let dir = ScratchDir::new("chunked-quar").unwrap();
        let txt = dir.file("g.txt");
        // Line numbers (1-based): 1 comment, 2 good, 3 bad, 4 good, 5 blank,
        // 6 bad, 7 good.
        std::fs::write(&txt, "# header\n0 1\n1 nope\n1 2\n\n999999999999 0\n2 0\n").unwrap();
        // Reference: the same file with the bad lines removed.
        let serial_bin = dir.file("clean.bin");
        std::fs::write(dir.file("clean.txt"), "# header\n0 1\n1 2\n\n2 0\n").unwrap();
        EdgeListFile::import_text(&dir.file("clean.txt"), &serial_bin, stats()).unwrap();
        let want = std::fs::read(&serial_bin).unwrap();
        for (threads, chunk) in [(1usize, 4u64), (1, 1 << 20), (3, 4), (4, 7)] {
            let bin = dir.file(&format!("q-{threads}-{chunk}.bin"));
            let (f, bad) =
                import_text_quarantined(&txt, &bin, stats(), threads, chunk, 10).unwrap();
            assert_eq!(f.meta().num_edges, 3, "threads={threads} chunk={chunk}");
            assert_eq!(std::fs::read(&bin).unwrap(), want, "threads={threads} chunk={chunk}");
            let lines: Vec<u64> = bad.iter().map(|b| b.line).collect();
            assert_eq!(lines, vec![3, 6], "threads={threads} chunk={chunk}");
            assert_eq!(bad[0].text, "1 nope");
            assert!(bad[0].reason.contains("not a u32"), "{}", bad[0].reason);
            assert!(bad[1].reason.contains("not a u32"), "{}", bad[1].reason);
        }
    }

    #[test]
    fn quarantine_over_budget_is_a_typed_error() {
        let dir = ScratchDir::new("chunked-quar-cap").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\nbad one\nbad two\n1 2\n").unwrap();
        let err = import_text_quarantined(&txt, &dir.file("g.bin"), stats(), 2, 4, 1)
            .unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("max-bad-records"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(!dir.file("g.bin").exists(), "an import over the limit leaves no edge list");
        // With a budget that fits, the same file imports.
        let (f, bad) =
            import_text_quarantined(&txt, &dir.file("ok.bin"), stats(), 2, 4, 2).unwrap();
        assert_eq!(f.meta().num_edges, 2);
        assert_eq!(bad.len(), 2);
    }

    /// One line's verdict under the reference parse: the good edge (or
    /// `None` for a blank/comment), or the chunked path's reason.
    type Verdict = std::result::Result<Option<Edge>, String>;

    /// The reference: the `str` parse the import used before the byte-level
    /// parser, applied line by line. Returns each line's start offset, raw
    /// bytes and verdict.
    fn reference(bytes: &[u8]) -> Vec<(u64, Vec<u8>, Verdict)> {
        let mut out = Vec::new();
        let mut at = 0u64;
        for raw in bytes.split_inclusive(|&b| b == b'\n') {
            let verdict = match std::str::from_utf8(raw) {
                Err(_) => Err("line is not valid UTF-8".to_string()),
                Ok(line) => {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        Ok(None)
                    } else {
                        let mut it = line.split_whitespace();
                        let mut field = |name: &str| -> std::result::Result<u32, String> {
                            it.next()
                                .ok_or_else(|| "expected `src dst`".to_string())?
                                .parse()
                                .map_err(|_| format!("{name} is not a u32"))
                        };
                        field("src").and_then(|src| Ok(Some(Edge::new(src, field("dst")?))))
                    }
                }
            };
            out.push((at, raw.to_vec(), verdict));
            at += raw.len() as u64;
        }
        out
    }

    /// The error text each strict path gives for the first bad line.
    fn strict_errors(path: &Path, lines: &[(u64, Vec<u8>, Verdict)]) -> Option<(String, String)> {
        let (idx, (at, raw, verdict)) =
            lines.iter().enumerate().find(|(_, (_, _, v))| v.is_err())?;
        let reason = verdict.clone().unwrap_err();
        let serial_reason =
            if reason.ends_with("is not a u32") { "vertex id is not a u32" } else { &reason };
        let serial = format!("corrupt data: {}:{}: {serial_reason}", path.display(), idx + 1);
        let chunked = if reason == "line is not valid UTF-8" {
            let end = at + raw.len() as u64;
            format!("corrupt data: {}: bytes {at}..{end}: {reason}", path.display())
        } else {
            format!("corrupt data: {}: byte {at}: {reason}", path.display())
        };
        Some((serial, chunked))
    }

    /// Documents covering the grammar's corners; each is imported whole.
    fn corpus() -> Vec<Vec<u8>> {
        let mut docs: Vec<Vec<u8>> = vec![
            b"0 1\r\n1\t2\r\n  3 4  \n\t5\t6\t\n\n   \n  # 7 8\n#c\n".to_vec(),
            b"+5 6\n7 8 9\n9 10 extra field\n4294967295 0\n0 4294967295\n".to_vec(),
            "1\u{a0}2\n3 \u{a0}4\u{a0}\n\u{2003}5 6\n".as_bytes().to_vec(),
            b"1 2\n3 4".to_vec(),
            b"1 2\r".to_vec(),
            b"".to_vec(),
            b"4294967296 0\n1 2\n".to_vec(),
            b"1 2\n0 4294967296\n".to_vec(),
            b"1 2\n7\n".to_vec(),
            b"1 2\n-1 2\n".to_vec(),
            b"1 2\n1 \xff\n3 4\n".to_vec(),
            b"1 2\n\xc3\n".to_vec(),
            b"0 1\n1 x\n2 y\n\xfe 3\n4 5\n".to_vec(),
        ];
        // A line straddling the first 64 KiB block boundary, then a bad one.
        let mut big = Vec::new();
        let mut i = 0u32;
        while big.len() < 64 * 1024 - 5 {
            big.extend_from_slice(format!("{} {}\n", i % 1000, i % 777).as_bytes());
            i += 1;
        }
        big.extend_from_slice(b"123456 654321\n");
        big.extend_from_slice(b"8 9\n");
        docs.push(big.clone());
        big.extend_from_slice(b"8 nine\n");
        docs.push(big);
        docs
    }

    #[test]
    fn every_path_matches_the_reference_str_parse() {
        let dir = ScratchDir::new("chunked-diff").unwrap();
        for (d, doc) in corpus().into_iter().enumerate() {
            let txt = dir.file(&format!("doc-{d}.txt"));
            std::fs::write(&txt, &doc).unwrap();
            let lines = reference(&doc);
            let good: Vec<Edge> =
                lines.iter().filter_map(|(_, _, v)| v.clone().ok().flatten()).collect();
            let want_bin = dir.file(&format!("want-{d}.bin"));
            EdgeListFile::create(&want_bin, stats(), good.clone()).unwrap();
            let want_meta = std::fs::read(dir.file(&format!("want-{d}.bin.meta.txt"))).unwrap();
            let want = std::fs::read(&want_bin).unwrap();
            let chunk = if doc.len() > 4096 { 4096 } else { 5 };
            let matches_reference = |bin: &Path, what: &str| {
                assert_eq!(std::fs::read(bin).unwrap(), want, "doc {d} {what}: edges");
                let mut meta = bin.as_os_str().to_owned();
                meta.push(".meta.txt");
                assert_eq!(std::fs::read(meta).unwrap(), want_meta, "doc {d} {what}: meta.txt");
            };

            let serial = dir.file(&format!("serial-{d}.bin"));
            let chunked = dir.file(&format!("chunked-{d}.bin"));
            let serial_out = EdgeListFile::import_text(&txt, &serial, stats());
            let chunked_out = import_text_chunked(&txt, &chunked, stats(), 2, chunk);
            match strict_errors(&txt, &lines) {
                None => {
                    serial_out.unwrap();
                    chunked_out.unwrap();
                    matches_reference(&serial, "serial");
                    matches_reference(&chunked, "chunked");
                }
                Some((serial_err, chunked_err)) => {
                    let err = serial_out.unwrap_err();
                    assert!(matches!(err, GraphError::Corrupt(_)), "doc {d}: {err:?}");
                    assert_eq!(err.to_string(), serial_err, "doc {d} serial");
                    let err = chunked_out.unwrap_err();
                    assert!(matches!(err, GraphError::Corrupt(_)), "doc {d}: {err:?}");
                    assert_eq!(err.to_string(), chunked_err, "doc {d} chunked");
                }
            }

            let want_bad: Vec<BadRecord> = (1u64..)
                .zip(&lines)
                .filter_map(|(line, (at, raw, v))| {
                    let reason = v.clone().err()?;
                    let text = String::from_utf8_lossy(raw).trim_end().to_string();
                    Some(BadRecord { line, byte: *at, text, reason })
                })
                .collect();
            for threads in [1usize, 2] {
                let quar = dir.file(&format!("quar-{d}-{threads}.bin"));
                let (_, bad) =
                    import_text_quarantined(&txt, &quar, stats(), threads, chunk, 100).unwrap();
                assert_eq!(bad, want_bad, "doc {d} quarantine threads={threads}");
                matches_reference(&quar, "quarantine");
            }
        }
    }

    #[test]
    fn crlf_lines_parse_like_the_serial_path() {
        let dir = ScratchDir::new("chunked-crlf").unwrap();
        let txt = dir.file("g.txt");
        std::fs::write(&txt, "0 1\r\n1 2\r\n# c\r\n2 0\r\n").unwrap();
        let par = import_text_chunked(&txt, &dir.file("p.bin"), stats(), 3, 5).unwrap();
        let ser = EdgeListFile::import_text(&txt, &dir.file("s.bin"), stats()).unwrap();
        assert_eq!(par.meta(), ser.meta());
        assert_eq!(
            std::fs::read(dir.file("p.bin")).unwrap(),
            std::fs::read(dir.file("s.bin")).unwrap()
        );
    }
}
