//! Snapshot pinning: one checkpoint generation, verified and loaded into
//! memory, immutable for the snapshot's lifetime.
//!
//! The isolation argument (DESIGN.md §6l) is structural rather than
//! lock-based. A generation directory is only ever *created* — staged under
//! a temporary name, fsynced, then renamed into place by the engine's
//! checkpoint writer — and never modified afterwards, so the only unsafe
//! window is an in-progress generation, which either has no `gen-NNNNNNNN`
//! name yet (staged dirs are skipped by the lister) or fails manifest/CRC
//! verification and is skipped by [`Snapshot::pin_latest`] exactly like
//! `Engine::resume_latest` skips crash damage. The writer also retires
//! generations older than the newest two; one that vanishes under a pin is
//! skipped the same way. Once pinned, the vertex
//! values live in this struct's own buffer: a reader can never observe a
//! newer or partial generation because it never goes back to disk.

use std::path::Path;
use std::sync::Arc;

use graphz_core::generations::{self, GenerationManifest};
use graphz_io::IoStats;
use graphz_types::{cast, GraphError, Result, VertexId};

/// One pinned checkpoint generation: the vertex-value records of
/// `vertices.bin`, verified against the generation manifest and held in
/// memory in storage order.
///
/// Records are opaque fixed-width byte strings here — the engine's
/// `VertexData` layout is algorithm-specific ((dist, pending) `u32` pairs
/// for BFS, (value, votes) `f32` pairs for PageRank, …) — so the snapshot
/// exposes raw bytes per vertex and the protocol layer renders typed
/// interpretations alongside the hex.
pub struct Snapshot {
    generation: u32,
    next_iteration: u32,
    num_vertices: u64,
    record_size: usize,
    values: Vec<u8>,
}

impl Snapshot {
    /// Pin generation `number` under `root`, verifying the manifest and
    /// every recorded checksum while loading `vertices.bin`. A generation
    /// that is not there — never written, or already retired by the writer's
    /// retention — is the typed [`GraphError::NotFound`], naming `number`.
    pub fn pin(
        root: &Path,
        number: u32,
        num_vertices: u64,
        stats: &Arc<IoStats>,
    ) -> Result<Snapshot> {
        let dir = generations::generation_path(root, number);
        if !dir.is_dir() {
            return Err(GraphError::NotFound(format!(
                "checkpoint generation {number} not found under {} \
                 (never written, or retired: a run keeps only the newest {})",
                root.display(),
                generations::RETAINED_GENERATIONS
            )));
        }
        let manifest = GenerationManifest::load(&dir, stats)?;
        Self::from_manifest(&manifest, number, num_vertices, stats)
    }

    /// Pin the newest *usable* generation under `root`: generations are
    /// scanned newest-first and any that fail verification (torn rename,
    /// truncated file, checksum mismatch — i.e. a writer mid-flight or
    /// crash damage) are skipped, so a concurrent checkpoint writer can
    /// never be observed half-written. A generation the writer retires while
    /// it is being read vanishes and is skipped the same way; if the whole
    /// listing vanished, the root is listed again. [`GraphError::NotFound`]
    /// if no generation verifies.
    pub fn pin_latest(root: &Path, num_vertices: u64, stats: &Arc<IoStats>) -> Result<Snapshot> {
        // A writer that retires faster than a reader verifies would need
        // several commits per pin to exhaust this.
        const RESCANS: usize = 8;
        for _ in 0..RESCANS {
            let mut vanished = false;
            for generation in generations::list_generations(root)? {
                let pinned =
                    GenerationManifest::load(&generation.path, stats).and_then(|manifest| {
                        Self::from_manifest(&manifest, generation.number, num_vertices, stats)
                    });
                match pinned {
                    Ok(snap) => return Ok(snap),
                    Err(GraphError::Corrupt(_) | GraphError::NotFound(_) | GraphError::Io(_)) => {
                        vanished |= !generation.path.is_dir();
                    }
                    Err(other) => return Err(other),
                }
            }
            if !vanished {
                break;
            }
        }
        Err(GraphError::NotFound(format!(
            "no usable checkpoint generation under {}",
            root.display()
        )))
    }

    fn from_manifest(
        manifest: &GenerationManifest,
        number: u32,
        num_vertices: u64,
        stats: &Arc<IoStats>,
    ) -> Result<Snapshot> {
        // One read per file: vertices.bin is checked against its manifest
        // entry while it drains into memory, the others by stream.
        let values = manifest.load_verified("vertices.bin", stats)?;
        let bytes = cast::len_u64(values.len());
        // checked_div covers the empty graph; the multiply-back check
        // rejects a vertices.bin that is not a whole number of records
        // (including any bytes at all when there are zero vertices).
        let per = bytes.checked_div(num_vertices).unwrap_or(0);
        if cast::mul_u64(per, num_vertices, "snapshot record size")? != bytes {
            return Err(GraphError::Corrupt(format!(
                "checkpoint vertices.bin at {} is {} bytes — not a whole number of \
                 records for {num_vertices} vertices",
                manifest.dir().display(),
                values.len()
            )));
        }
        let record_size = cast::to_usize(per, "snapshot record size")?;
        Ok(Snapshot {
            generation: number,
            next_iteration: manifest.next_iteration()?,
            num_vertices,
            record_size,
            values,
        })
    }

    /// The pinned generation number.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The iteration a resumed run would continue from.
    pub fn next_iteration(&self) -> u32 {
        self.next_iteration
    }

    /// Bytes per vertex record in this generation.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// The raw vertex-value record of storage id `v` — a borrowed slice of
    /// the pinned in-memory buffer; no disk access and no allocation
    /// (`serve-read-alloc`). Out-of-range ids are the typed
    /// [`GraphError::UnknownVertex`].
    pub fn value_bytes(&self, v: VertexId) -> Result<&[u8]> {
        if cast::widen_u32(v) >= self.num_vertices || self.record_size == 0 {
            return Err(GraphError::UnknownVertex(v));
        }
        let start = cast::vertex_index(v) * self.record_size;
        self.values.get(start..start + self.record_size).ok_or(GraphError::UnknownVertex(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_algos::runner::{self, CheckpointSpec};
    use graphz_algos::{AlgoParams, Algorithm};
    use graphz_io::ScratchDir;
    use graphz_storage::EdgeListFile;
    use graphz_types::MemoryBudget;

    /// PageRank generations under a budget small enough that each one
    /// carries spill segments beside `vertices.bin`. Returns the root, the
    /// vertex count and the newest generation number.
    fn generations(dir: &ScratchDir) -> (std::path::PathBuf, u64, u32) {
        let stats = IoStats::new();
        let edges = graphz_gen::rmat_edges(9, 3000, Default::default(), 5);
        let el = EdgeListFile::create(&dir.file("g.bin"), Arc::clone(&stats), edges).unwrap();
        let prep = MemoryBudget::from_mib(4);
        let dos = runner::prepare_dos(&el, &dir.file("dos"), prep, Arc::clone(&stats)).unwrap();
        let root = dir.file("gens");
        let ckpt = CheckpointSpec { dir: Some(root.clone()), every: 1, resume: false };
        let params = AlgoParams::new(Algorithm::PageRank).with_max_iterations(4);
        let starved = MemoryBudget(512);
        let out = runner::run_graphz_checkpointed(&dos, &params, starved, &ckpt, stats).unwrap();
        (root, dos.index().num_vertices(), out.iterations)
    }

    /// Bytes of the files a generation's manifest lists (the frames a pin
    /// must read) and their count.
    fn listed_bytes(root: &Path, number: u32) -> (u64, usize) {
        let dir = generations::generation_path(root, number);
        let manifest = GenerationManifest::load(&dir, &IoStats::new()).unwrap();
        let sizes: Vec<u64> = manifest
            .meta()
            .files()
            .map(|(rel, _)| std::fs::metadata(manifest.dir().join(rel)).unwrap().len())
            .collect();
        (sizes.iter().sum(), sizes.len())
    }

    #[test]
    fn a_pin_reads_each_generation_file_once() {
        let dir = ScratchDir::new("snapshot-once").unwrap();
        let (root, n, newest) = generations(&dir);
        let (bytes, files) = listed_bytes(&root, newest);
        assert!(files > 1, "the fixture must carry spill segments: {files} file(s)");
        let manifest = generations::generation_path(&root, newest).join("manifest.txt");
        let manifest_len = std::fs::metadata(manifest).unwrap().len();
        let stats = IoStats::new();
        let snap = Snapshot::pin_latest(&root, n, &stats).unwrap();
        assert_eq!(snap.generation(), newest);
        assert_eq!(
            stats.snapshot().bytes_read,
            manifest_len + bytes,
            "the manifest and every listed file read exactly once"
        );
    }

    #[test]
    fn damage_is_corrupt_and_the_newest_good_generation_pins() {
        let dir = ScratchDir::new("snapshot-damage").unwrap();
        let (root, n, newest) = generations(&dir);
        let gen_dir = generations::generation_path(&root, newest);
        let stats = IoStats::new();
        let mut spills = std::fs::read_dir(gen_dir.join("msgs")).unwrap();
        let spill = spills.next().unwrap().unwrap().path();
        for victim in [gen_dir.join("vertices.bin"), spill] {
            let good = std::fs::read(&victim).unwrap();
            // A flipped payload byte, then a truncation.
            let mut flipped = good.clone();
            flipped[graphz_io::framed::HEADER_LEN] ^= 0x10;
            for bad in [flipped, good[..good.len() - 3].to_vec()] {
                std::fs::write(&victim, &bad).unwrap();
                let err = Snapshot::pin(&root, newest, n, &stats).err();
                assert!(matches!(err, Some(GraphError::Corrupt(_))), "{victim:?}: {err:?}");
                let fallback = Snapshot::pin_latest(&root, n, &stats).unwrap();
                assert_eq!(fallback.generation(), newest - 1, "{victim:?}");
            }
            std::fs::write(&victim, &good).unwrap();
        }
        assert_eq!(Snapshot::pin_latest(&root, n, &stats).unwrap().generation(), newest);
    }

    /// A `vertices.bin` that is a valid frame of other bytes (the older
    /// generation's) passes every frame check; only its manifest entry
    /// tells it apart.
    #[test]
    fn a_valid_frame_of_other_bytes_is_corrupt() {
        let dir = ScratchDir::new("snapshot-swapped").unwrap();
        let (root, n, newest) = generations(&dir);
        let file = |g: u32| generations::generation_path(&root, g).join("vertices.bin");
        let older = std::fs::read(file(newest - 1)).unwrap();
        assert_ne!(older, std::fs::read(file(newest)).unwrap(), "the fixture must move values");
        std::fs::write(file(newest), older).unwrap();
        let stats = IoStats::new();
        let err = Snapshot::pin(&root, newest, n, &stats).err();
        assert!(
            matches!(&err, Some(GraphError::Corrupt(m)) if m.contains("vertices.bin")),
            "{err:?}"
        );
        assert_eq!(Snapshot::pin_latest(&root, n, &stats).unwrap().generation(), newest - 1);
    }

    /// A manifest whose `vertices.bin` entry is no `<len>,<crc>` fails to
    /// load, and the pin falls back one generation.
    #[test]
    fn a_malformed_file_entry_is_corrupt_and_pin_latest_falls_back() {
        let dir = ScratchDir::new("snapshot-malformed").unwrap();
        let (root, n, newest) = generations(&dir);
        let manifest = generations::generation_path(&root, newest).join("manifest.txt");
        let good = std::fs::read_to_string(&manifest).unwrap();
        let stats = IoStats::new();
        for bad in ["12", "12,zz", ",00000000"] {
            let text: String = good
                .lines()
                .map(|l| match l.strip_prefix("file:vertices.bin=") {
                    Some(_) => format!("file:vertices.bin={bad}\n"),
                    None => format!("{l}\n"),
                })
                .collect();
            assert_ne!(text, good);
            std::fs::write(&manifest, text).unwrap();
            let err = Snapshot::pin(&root, newest, n, &stats).err();
            assert!(matches!(err, Some(GraphError::Corrupt(_))), "{bad}: {err:?}");
            let fallback = Snapshot::pin_latest(&root, n, &stats).unwrap();
            assert_eq!(fallback.generation(), newest - 1, "{bad}");
        }
        std::fs::write(&manifest, good).unwrap();
        assert_eq!(Snapshot::pin_latest(&root, n, &stats).unwrap().generation(), newest);
    }

    #[test]
    fn a_retired_generation_is_not_found_by_number() {
        let dir = ScratchDir::new("snapshot-retired").unwrap();
        let (root, n, newest) = generations(&dir);
        assert!(newest > 2, "the run must have retired generation 1");
        let err = Snapshot::pin(&root, 1, n, &IoStats::new()).err();
        match err {
            Some(GraphError::NotFound(msg)) => assert!(msg.contains("generation 1 "), "{msg}"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }
}
