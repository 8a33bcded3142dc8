//! Integrity checking for on-disk graph directories (`fsck` for DOS).
//!
//! The paper advocates DOS "becoming a standard for distributing graphs"
//! (§III-C); a distribution format needs a verifier. [`verify_dos`] checks
//! every invariant of a DOS directory and reports all violations rather
//! than stopping at the first.

use std::path::Path;
use std::sync::Arc;

use graphz_io::{IoStats, RecordReader};
use graphz_types::prelude::*;

use crate::dos::DosGraph;
use crate::meta::MetaFile;

/// One integrity violation found by [`verify_dos`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `meta.txt` missing or malformed.
    BadMeta(String),
    /// `index.tbl` inconsistent with itself or the metadata.
    BadIndex(String),
    /// `edges.bin` length disagrees with the index.
    BadEdges(String),
    /// The adjacency slab (`edges.bin`) is *shorter* than the index
    /// requires — the signature of a torn or interrupted write, reported
    /// distinctly from a generic length mismatch so operators know resume
    /// (not fsck) is the fix.
    TruncatedSlab { expected_bytes: u64, actual_bytes: u64 },
    /// An edge points outside the vertex space.
    DanglingEdge { vertex: VertexId, target: VertexId },
    /// The id maps are not mutually inverse bijections.
    BadIdMap(String),
    /// A data file's content does not match the `checksums.txt` sidecar —
    /// silent bitrot that passes every structural check.
    BadChecksum(String),
    /// A data file is present but `checksums.txt` has no entry for it, so
    /// its content could rot undetected.
    MissingChecksum { file: String },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BadMeta(m) => write!(f, "meta: {m}"),
            Violation::BadIndex(m) => write!(f, "index: {m}"),
            Violation::BadEdges(m) => write!(f, "edges: {m}"),
            Violation::TruncatedSlab { expected_bytes, actual_bytes } => write!(
                f,
                "edges: adjacency slab truncated to {actual_bytes} of {expected_bytes} bytes"
            ),
            Violation::DanglingEdge { vertex, target } => {
                write!(f, "edges: vertex {vertex} has out-neighbor {target} outside the graph")
            }
            Violation::BadIdMap(m) => write!(f, "id map: {m}"),
            Violation::BadChecksum(m) => write!(f, "checksum: {m}"),
            Violation::MissingChecksum { file } => {
                write!(f, "checksum: {file} has no checksums.txt entry")
            }
        }
    }
}

/// A full integrity report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    pub violations: Vec<Violation>,
    /// Data files checked against the `checksums.txt` sidecar (0 when the
    /// directory predates the sidecar and has none).
    pub files_checksummed: u32,
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check every invariant of a DOS directory:
///
/// 1. metadata parses and matches the index (vertex/edge/unique-degree
///    counts, max degree);
/// 2. index groups are strictly ordered, start at id 0 / offset 0, and their
///    cumulative degrees equal the edge count;
/// 3. `edges.bin` holds exactly `num_edges` records and every destination id
///    is in range;
/// 4. `old2new.bin` / `new2old.bin` are mutually inverse bijections over the
///    full id space.
pub fn verify_dos(dir: &Path, stats: Arc<IoStats>) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();

    // 1. Metadata + index open (DosGraph::open already validates ordering).
    let graph = match DosGraph::open(dir, Arc::clone(&stats)) {
        Ok(g) => g,
        Err(e) => {
            // Distinguish "meta broken" from "index broken" for the report.
            let detail = e.to_string();
            let kind = if MetaFile::load(&dir.join("meta.txt"), &stats)
                .and_then(|m| m.graph_meta())
                .is_err()
            {
                Violation::BadMeta(detail)
            } else {
                Violation::BadIndex(detail)
            };
            report.violations.push(kind);
            return Ok(report);
        }
    };
    let meta = graph.meta();
    let index = graph.index();

    // 2. Index internal consistency.
    if index.unique_degrees() != meta.unique_degrees {
        report.violations.push(Violation::BadIndex(format!(
            "index has {} groups, meta claims {}",
            index.unique_degrees(),
            meta.unique_degrees
        )));
    }
    if let Some(first) = index.groups().first() {
        if cast::widen_u32(first.degree) != meta.max_degree {
            report.violations.push(Violation::BadIndex(format!(
                "first group degree {} != meta max degree {}",
                first.degree, meta.max_degree
            )));
        }
    }
    let mut cumulative: u64 = 0;
    let groups = index.groups();
    for (i, g) in groups.iter().enumerate() {
        if g.offset != cumulative {
            report.violations.push(Violation::BadIndex(format!(
                "group {i} (degree {}) starts at offset {}, expected {cumulative}",
                g.degree, g.offset
            )));
        }
        let group_end = if i + 1 < groups.len() {
            cast::widen_u32(groups[i + 1].first_id)
        } else {
            meta.num_vertices
        };
        if group_end < cast::widen_u32(g.first_id) {
            report.violations.push(Violation::BadIndex(format!(
                "group {i} first id {} beyond the vertex space",
                g.first_id
            )));
            break;
        }
        // Checked Eq. 1-style accumulation: an index corrupt enough to
        // overflow `group_width * degree` is a violation, not a crash.
        let next = cast::sub_u64(group_end, cast::widen_u32(g.first_id), "verify group width")
            .and_then(|w| cast::mul_u64(w, cast::widen_u32(g.degree), "verify group edges"))
            .and_then(|n| cast::add_u64(cumulative, n, "verify cumulative degree"));
        match next {
            Ok(c) => cumulative = c,
            Err(e) => {
                report.violations.push(Violation::BadIndex(format!(
                    "group {i} (degree {}) overflows the cumulative edge count: {e}",
                    g.degree
                )));
                break;
            }
        }
    }
    if cumulative != meta.num_edges {
        report.violations.push(Violation::BadIndex(format!(
            "index degrees sum to {cumulative} edges, meta claims {}",
            meta.num_edges
        )));
    }

    // 3. Edge file: exact length, all targets in range.
    match std::fs::metadata(graph.edges_path()) {
        Ok(md) => {
            // Saturating: a meta file claiming ~u64::MAX edges should report
            // a length mismatch, not crash the verifier.
            let expected = meta.num_edges.saturating_mul(4);
            if md.len() < expected {
                report.violations.push(Violation::TruncatedSlab {
                    expected_bytes: expected,
                    actual_bytes: md.len(),
                });
            } else if md.len() > expected {
                report.violations.push(Violation::BadEdges(format!(
                    "edges.bin is {} bytes, expected {expected}",
                    md.len()
                )));
            }
        }
        Err(e) => report.violations.push(Violation::BadEdges(format!("cannot stat: {e}"))),
    }
    if report.is_clean() {
        // Ids are u32, so no vertex at or past u32::MAX can own an edge.
        let id_space = VertexId::try_from(meta.num_vertices).unwrap_or(VertexId::MAX);
        let mut reader = RecordReader::<u32>::open(&graph.edges_path(), Arc::clone(&stats))?;
        'walk: for (first, end, degree) in index.degree_runs(0, id_space)? {
            for v in first..end {
                for _ in 0..degree {
                    let Some(dst) = reader.next() else { break 'walk };
                    let dst = dst?;
                    if cast::widen_u32(dst) >= meta.num_vertices {
                        report.violations.push(Violation::DanglingEdge { vertex: v, target: dst });
                        if report.violations.len() > 16 {
                            break 'walk; // enough evidence
                        }
                    }
                }
            }
        }
    }

    // 4. Id maps: sizes and mutual inversion.
    let old2new = graph.load_old2new(Arc::clone(&stats))?;
    let new2old = graph.load_new2old(Arc::clone(&stats))?;
    if cast::len_u64(old2new.len()) != meta.num_vertices
        || cast::len_u64(new2old.len()) != meta.num_vertices
    {
        report.violations.push(Violation::BadIdMap(format!(
            "map sizes {} / {} != {} vertices",
            old2new.len(),
            new2old.len(),
            meta.num_vertices
        )));
    } else {
        for (old, &new) in old2new.iter().enumerate() {
            if cast::vertex_index(new) >= new2old.len()
                || cast::vertex_index(new2old[cast::vertex_index(new)]) != old
            {
                report.violations.push(Violation::BadIdMap(format!(
                    "old {old} -> new {new} does not invert"
                )));
                if report.violations.len() > 16 {
                    break;
                }
            }
        }
    }

    // 5. Optional `checksums.txt` sidecar (written by DosConverter).
    // Directories converted before the sidecar existed are still valid —
    // absence is tolerated; presence means every listed file must match.
    verify_checksums(dir, &mut report, &stats);

    Ok(report)
}

fn verify_checksums(dir: &Path, report: &mut VerifyReport, stats: &Arc<IoStats>) {
    let sums_path = dir.join("checksums.txt");
    if !sums_path.is_file() {
        return;
    }
    let sums = match MetaFile::load(&sums_path, stats) {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(Violation::BadChecksum(format!("checksums.txt: {e}")));
            return;
        }
    };
    for (name, _) in sums.files() {
        match sums.verify_file(name, &dir.join(name), stats) {
            Ok(()) => report.files_checksummed += 1,
            Err(GraphError::Corrupt(mismatch)) => {
                report.files_checksummed += 1;
                report.violations.push(Violation::BadChecksum(mismatch));
            }
            Err(e) => report.violations.push(Violation::BadChecksum(format!("{name}: {e}"))),
        }
    }

    // The sidecar, when present, must cover every data file that actually
    // exists — a file without an entry can rot undetected.
    for name in ["edges.bin", "index.tbl", "old2new.bin", "new2old.bin", "weights.bin"] {
        if dir.join(name).is_file() && sums.file(name).is_err() {
            report.violations.push(Violation::MissingChecksum { file: name.to_string() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::DosConverter;
    use crate::edgelist::EdgeListFile;
    use graphz_io::ScratchDir;
    use graphz_types::{Edge, FixedCodec, MemoryBudget};

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    fn build() -> (ScratchDir, std::path::PathBuf) {
        let dir = ScratchDir::new("verify").unwrap();
        let edges: Vec<Edge> =
            (0..40u32).flat_map(|i| (0..(i % 5)).map(move |j| Edge::new(i, j))).collect();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        let dos_dir = dir.path().join("dos");
        DosConverter::new(MemoryBudget::from_kib(64), stats()).convert(&el, &dos_dir).unwrap();
        (dir, dos_dir)
    }

    #[test]
    fn fresh_conversion_is_clean() {
        let (_dir, dos_dir) = build();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn truncated_edges_are_detected() {
        let (_dir, dos_dir) = build();
        let edges = dos_dir.join("edges.bin");
        let len = std::fs::metadata(&edges).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&edges).unwrap().set_len(len - 4).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        let slab = report
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::TruncatedSlab { expected_bytes, actual_bytes } => {
                    Some((*expected_bytes, *actual_bytes))
                }
                _ => None,
            })
            .expect("truncation must report a TruncatedSlab violation");
        assert_eq!(slab, (len, len - 4));
        assert!(report.violations[0].to_string().contains("truncated"));
    }

    #[test]
    fn oversized_edges_are_still_a_generic_mismatch() {
        let (_dir, dos_dir) = build();
        let edges = dos_dir.join("edges.bin");
        let len = std::fs::metadata(&edges).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&edges).unwrap().set_len(len + 4).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.violations.iter().any(|v| matches!(v, Violation::BadEdges(_))));
        assert!(
            !report.violations.iter().any(|v| matches!(v, Violation::TruncatedSlab { .. })),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn missing_checksum_entry_is_detected() {
        let (_dir, dos_dir) = build();
        // Drop the edges.bin entry from the sidecar; the file itself is fine.
        let sums_path = dos_dir.join("checksums.txt");
        let text = std::fs::read_to_string(&sums_path).unwrap();
        let filtered: String = text
            .lines()
            .filter(|l| !l.starts_with("file:edges.bin"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&sums_path, filtered).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert_eq!(
            report.violations,
            vec![Violation::MissingChecksum { file: "edges.bin".into() }]
        );
        assert!(report.violations[0].to_string().contains("edges.bin"));
    }

    #[test]
    fn out_of_range_destination_is_detected() {
        let (_dir, dos_dir) = build();
        // Overwrite the first destination with a bogus id.
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(dos_dir.join("edges.bin")).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DanglingEdge { .. })), "{:?}", report.violations);
    }

    #[test]
    fn corrupted_id_map_is_detected() {
        let (_dir, dos_dir) = build();
        // Swap two entries of new2old without touching old2new.
        let path = dos_dir.join("new2old.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.swap(0, 4);
        bytes.swap(1, 5);
        bytes.swap(2, 6);
        bytes.swap(3, 7);
        std::fs::write(&path, bytes).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.violations.iter().any(|v| matches!(v, Violation::BadIdMap(_))));
    }

    #[test]
    fn garbage_meta_is_reported_as_meta() {
        let (_dir, dos_dir) = build();
        std::fs::write(dos_dir.join("meta.txt"), "format=dos\nnum_vertices=zork\n").unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(report.violations[0], Violation::BadMeta(_)));
    }

    #[test]
    fn silent_bitrot_is_caught_by_checksums() {
        let (_dir, dos_dir) = build();
        // Rewrite the first destination to a *different valid* vertex id:
        // lengths, index sums, and range checks all still pass — only the
        // checksum sidecar notices.
        use std::io::{Read, Seek, SeekFrom, Write};
        let path = dos_dir.join("edges.bin");
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let mut first = [0u8; 4];
        f.read_exact(&mut first).unwrap();
        let dst = u32::from_le_bytes(first);
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&(dst ^ 1).to_le_bytes()).unwrap();
        drop(f);

        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(!report.is_clean(), "bitrot went unnoticed");
        assert!(
            report.violations.iter().all(|v| matches!(v, Violation::BadChecksum(_))),
            "only the checksum should fire: {:?}",
            report.violations
        );
        assert!(report.violations[0].to_string().contains("edges.bin"));
    }

    #[test]
    fn a_malformed_checksum_entry_is_bad_checksum() {
        let (_dir, dos_dir) = build();
        let sums_path = dos_dir.join("checksums.txt");
        let good = std::fs::read_to_string(&sums_path).unwrap();
        for bad in ["12", "12,zz", ",00000000"] {
            let text: String = good
                .lines()
                .map(|l| match l.strip_prefix("file:edges.bin=") {
                    Some(_) => format!("file:edges.bin={bad}\n"),
                    None => format!("{l}\n"),
                })
                .collect();
            assert_ne!(text, good);
            std::fs::write(&sums_path, text).unwrap();
            let report = verify_dos(&dos_dir, stats()).unwrap();
            assert!(!report.is_clean(), "{bad}");
            assert!(
                report.violations.iter().all(|v| matches!(v, Violation::BadChecksum(_))),
                "{bad}: {:?}",
                report.violations
            );
            assert!(report.violations[0].to_string().contains("edges.bin"), "{bad}");
        }
    }

    /// Every byte verify reads is counted, the sidecar's own included:
    /// meta.txt, the index, the edge walk, both maps, checksums.txt and
    /// the four files it lists.
    #[test]
    fn verify_counts_every_byte_it_reads() {
        let (_dir, dos_dir) = build();
        let len = |name: &str| std::fs::metadata(dos_dir.join(name)).unwrap().len();
        let data = len("index.tbl") + len("edges.bin") + len("old2new.bin") + len("new2old.bin");
        let stats = stats();
        assert!(verify_dos(&dos_dir, Arc::clone(&stats)).unwrap().is_clean());
        assert_eq!(
            stats.snapshot().bytes_read,
            len("meta.txt") + data + len("checksums.txt") + data
        );
    }

    #[test]
    fn missing_checksum_sidecar_is_tolerated() {
        let (_dir, dos_dir) = build();
        std::fs::remove_file(dos_dir.join("checksums.txt")).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    fn convert_edges(name: &str, edges: Vec<Edge>) -> (ScratchDir, std::path::PathBuf) {
        let dir = ScratchDir::new(name).unwrap();
        let el = EdgeListFile::create(&dir.file("g.bin"), stats(), edges).unwrap();
        let dos_dir = dir.path().join("dos");
        DosConverter::new(MemoryBudget::from_kib(64), stats()).convert(&el, &dos_dir).unwrap();
        (dir, dos_dir)
    }

    #[test]
    fn empty_graph_verifies_clean() {
        let (_dir, dos_dir) = convert_edges("verify-empty", vec![]);
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn single_vertex_graph_verifies_clean() {
        // One vertex, one self-loop: the smallest graph with an edge file.
        let (_dir, dos_dir) = convert_edges("verify-one", vec![Edge::new(0, 0)]);
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        let g = DosGraph::open(&dos_dir, stats()).unwrap();
        assert_eq!(g.meta().num_vertices, 1);
        assert_eq!(g.index().offset_of(0).unwrap(), 0);
    }

    #[test]
    fn all_degree_zero_tail_verifies_clean() {
        // One real edge, then a long run of isolated vertices: the final
        // degree-0 group must cover ids 1..100 with offset == num_edges.
        let (_dir, dos_dir) = convert_edges("verify-zero-tail", vec![Edge::new(0, 99)]);
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        let g = DosGraph::open(&dos_dir, stats()).unwrap();
        assert_eq!(g.meta().num_vertices, 100);
        let last = g.index().groups().last().copied().unwrap();
        assert_eq!(last.degree, 0);
        assert_eq!(last.offset, g.meta().num_edges);
        // Eq. 1 on the zero-degree tail: every offset pins to num_edges.
        assert_eq!(g.index().offset_of(1).unwrap(), 1);
        assert_eq!(g.index().offset_of(99).unwrap(), 1);
        assert_eq!(g.index().edges_in_range(1, 100).unwrap(), 0);
    }

    #[test]
    fn adjacency_block_ending_exactly_at_file_end() {
        // Every vertex has degree >= 1 (a 5-cycle), so the *last* vertex's
        // adjacency block ends exactly at the end of edges.bin — the
        // off-by-one boundary of the Eq. 1 bounds math.
        let edges: Vec<Edge> = (0..5u32).map(|i| Edge::new(i, (i + 1) % 5)).collect();
        let (_dir, dos_dir) = convert_edges("verify-exact-end", edges);
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        let g = DosGraph::open(&dos_dir, stats()).unwrap();
        let n = g.meta().num_vertices;
        let last = u32::try_from(n - 1).unwrap();
        let (deg, offset) = g.index().lookup(last).unwrap();
        // The block [offset, offset + deg) must end exactly at num_edges…
        assert_eq!(offset + u64::from(deg), g.meta().num_edges);
        // …and at the physical end of the file.
        let file_len = std::fs::metadata(g.edges_path()).unwrap().len();
        assert_eq!((offset + u64::from(deg)) * 4, file_len);
        // Reading that final block must succeed and yield `deg` neighbors.
        assert_eq!(g.adjacency(last, stats()).unwrap().len(), deg as usize);
        assert_eq!(g.index().edges_in_range(last, last + 1).unwrap(), u64::from(deg));
    }

    #[test]
    fn tampered_index_is_reported_as_index() {
        let (_dir, dos_dir) = build();
        // Rewrite the index with a wrong offset in the second group.
        let graph = DosGraph::open(&dos_dir, stats()).unwrap();
        let mut groups = graph.index().groups().to_vec();
        assert!(groups.len() >= 2);
        groups[1].offset += 1;
        let bytes: Vec<u8> = groups.iter().flat_map(|g| g.to_bytes()).collect();
        std::fs::write(dos_dir.join("index.tbl"), bytes).unwrap();
        let report = verify_dos(&dos_dir, stats()).unwrap();
        assert!(report.violations.iter().any(|v| matches!(v, Violation::BadIndex(_))));
        // Display formatting sanity.
        let text = report.violations[0].to_string();
        assert!(text.contains("index:") || text.contains("edges:"), "{text}");
    }
}
