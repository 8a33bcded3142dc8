//! Checkpoint generation discovery and verification, factored out of the
//! engine so it can be shared by every consumer of a checkpoint root:
//! [`crate::engine::Engine::resume_latest`] (restore-into-engine), the
//! serving layer's `Snapshot` (pin-and-read without an engine), and any
//! tooling that needs to enumerate what generations exist.
//!
//! A checkpoint root holds `gen-NNNNNNNN/` directories (one per completed
//! generation, named by the iteration the run would continue from), each
//! written atomically via a staged rename and described by a `manifest.txt`
//! (a [`MetaFile`]) recording the payload fingerprint of every framed file.
//! Listing is one `read_dir`, and verification replays each file's frame
//! against the manifest entry without touching the files' contents on disk —
//! which is what makes a pinned generation safe to serve from while a writer
//! lays down newer ones next to it (DESIGN.md §6l). The writers here are
//! `InFlightCommit`, the thread that makes a run's sealed generation
//! durable and visible behind the engine's next iteration, and
//! [`retire_older`], which removes whole generations the writer no longer
//! needs (DESIGN.md §6c); a reader that loses one mid-pin sees it vanish
//! and moves on, like any other crash damage.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphz_io::{FaultSurface, IoStats, StagedDir};
use graphz_storage::meta::MetaFile;
use graphz_types::{GraphError, IoCtx, Result};

/// On-disk checkpoint layout version (`manifest.txt` + framed files).
pub const CHECKPOINT_VERSION: u64 = 2;

/// Parse a `gen-NNNNNNNN` checkpoint directory name. Anything else — staging
/// leftovers (`.tmp`), displaced old generations (`.old`), stray files —
/// returns `None`.
pub fn parse_generation_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("gen-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Path of generation `n` under a checkpoint root.
pub fn generation_path(root: &Path, n: u32) -> PathBuf {
    root.join(format!("gen-{n:08}"))
}

/// One discovered generation directory (not yet verified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// The `next_iteration` the directory name encodes.
    pub number: u32,
    pub path: PathBuf,
}

/// Enumerate the generation directories under `root`, newest first. A
/// missing root is an empty listing (a run that never checkpointed), not an
/// error; names that are not `gen-NNNNNNNN` (staging leftovers, displaced
/// `.old` trees) are skipped. No manifest is opened — pair with
/// [`GenerationManifest::load`] / [`GenerationManifest::verify_files`] to
/// find the newest *usable* one.
pub fn list_generations(root: &Path) -> Result<Vec<Generation>> {
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(GraphError::Io(e)).ctx("read-dir", root),
    };
    let mut gens: Vec<Generation> = Vec::new();
    for entry in entries {
        let entry = entry.ctx("read-dir", root)?;
        let name = entry.file_name();
        let Some(number) = parse_generation_name(&name.to_string_lossy()) else { continue };
        gens.push(Generation { number, path: entry.path() });
    }
    gens.sort_by_key(|g| std::cmp::Reverse(g.number));
    Ok(gens)
}

/// A parsed (and structurally validated) checkpoint manifest: the layout
/// version and format markers checked, every `file:` entry parsed, and
/// `vertices.bin` confirmed listed. Contents are *not* yet checked against
/// the recorded fingerprints — that is [`verify_files`].
///
/// [`verify_files`]: GenerationManifest::verify_files
#[derive(Debug)]
pub struct GenerationManifest {
    dir: PathBuf,
    meta: MetaFile,
}

impl GenerationManifest {
    /// Load and structurally validate the manifest of one generation
    /// directory, reading it through `stats`. A missing manifest is
    /// [`GraphError::NotFound`] (torn rename / not a checkpoint); a wrong
    /// format marker, unsupported version, malformed entry or missing
    /// `vertices.bin` entry is [`GraphError::Corrupt`].
    pub fn load(dir: &Path, stats: &Arc<IoStats>) -> Result<Self> {
        let manifest_path = dir.join("manifest.txt");
        if !manifest_path.is_file() {
            return Err(GraphError::NotFound(format!(
                "no checkpoint manifest at {}",
                manifest_path.display()
            )));
        }
        let meta = MetaFile::load(&manifest_path, stats)?;
        if meta.get("format") != Some("graphz-checkpoint") {
            return Err(GraphError::Corrupt(format!(
                "{} is not a GraphZ checkpoint",
                dir.display()
            )));
        }
        let version = meta.get_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(GraphError::Corrupt(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        if meta.file("vertices.bin").is_err() {
            return Err(GraphError::Corrupt(format!(
                "checkpoint manifest at {} lists no vertices.bin",
                dir.display()
            )));
        }
        Ok(GenerationManifest { dir: dir.to_path_buf(), meta })
    }

    /// The generation directory this manifest describes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The iteration a resumed run continues from.
    pub fn next_iteration(&self) -> Result<u32> {
        Ok(self.meta.get_u64("next_iteration")? as u32)
    }

    /// The partition count the checkpoint was written under.
    pub fn partitions(&self) -> Result<u32> {
        Ok(self.meta.get_u64("partitions")? as u32)
    }

    /// The manifest itself: engine-specific fields such as message
    /// counters, and the listed files ([`MetaFile::files`]).
    pub fn meta(&self) -> &MetaFile {
        &self.meta
    }

    /// Verify every listed file against its recorded fingerprint by
    /// replaying the frames. Nothing is modified; damage surfaces as typed
    /// [`GraphError::Corrupt`] so a caller scanning newest-first can skip to
    /// the next older generation.
    pub fn verify_files(&self, stats: &Arc<IoStats>) -> Result<()> {
        self.meta.files().try_for_each(|(rel, _)| self.unframe(rel, &mut std::io::sink(), stats))
    }

    /// Unframe listed file `rel` into `dst` in one read, checking it
    /// against its entry as it streams. Damage is the same typed
    /// [`GraphError::Corrupt`] as [`verify_files`](Self::verify_files);
    /// `dst` then holds a partial payload the caller must discard.
    pub fn unframe_to(&self, rel: &str, dst: &Path, stats: &Arc<IoStats>) -> Result<()> {
        let mut out = graphz_io::TrackedFile::create(dst, Arc::clone(stats)).ctx("create", dst)?;
        self.unframe(rel, &mut out, stats)
    }

    /// Unframe listed file `rel` fully into memory while checking it
    /// against its entry, and verify every other listed file by stream —
    /// each file is read exactly once (the serving layer's way to pin
    /// `vertices.bin` without an engine scratch directory). Damage anywhere
    /// is the same typed [`GraphError::Corrupt`] as
    /// [`verify_files`](Self::verify_files); a `rel` the manifest does not
    /// list is [`GraphError::NotFound`].
    pub fn load_verified(&self, rel: &str, stats: &Arc<IoStats>) -> Result<Vec<u8>> {
        let Ok(want) = self.meta.file(rel) else {
            return Err(GraphError::NotFound(format!(
                "checkpoint manifest at {} lists no `{rel}`",
                self.dir.display()
            )));
        };
        for (other, _) in self.meta.files().filter(|(other, _)| *other != rel) {
            self.unframe(other, &mut std::io::sink(), stats)?;
        }
        let path = self.dir.join(rel);
        // Sized once from the manifest, but never past the file itself: a
        // damaged entry must not size an allocation.
        let on_disk = std::fs::metadata(&path).map_or(0, |m| m.len());
        let mut out = Vec::with_capacity(usize::try_from(want.len.min(on_disk)).unwrap_or(0));
        self.unframe(rel, &mut out, stats)?;
        Ok(out)
    }

    /// Stream the payload of listed file `rel` into `sink`, then check the
    /// frame's fingerprint against the entry.
    fn unframe(
        &self,
        rel: &str,
        sink: &mut impl std::io::Write,
        stats: &Arc<IoStats>,
    ) -> Result<()> {
        let path = self.dir.join(rel);
        let mut framed = graphz_io::FramedReader::new(open_listed(&path, stats)?)
            .map_err(GraphError::from)
            .ctx("read", &path)?;
        std::io::copy(&mut framed, sink).map_err(GraphError::from).ctx("read", &path)?;
        let found = framed.verified().ok_or_else(|| {
            GraphError::Corrupt(format!("checkpoint file {} ended unverified", path.display()))
        })?;
        self.meta.check(rel, found)
    }
}

/// Open a manifest-listed file; a missing one is crash damage (typed
/// [`GraphError::Corrupt`]), not a caller error.
fn open_listed(path: &Path, stats: &Arc<IoStats>) -> Result<graphz_io::TrackedReader> {
    graphz_io::tracked::reader(path, Arc::clone(stats)).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => GraphError::Corrupt(format!(
            "checkpoint file {} listed in manifest is missing",
            path.display()
        )),
        _ => GraphError::Io(e),
    })
}

/// Generations a checkpoint root keeps after each commit: the one just
/// committed and the one before it. Commits are atomic (staged, fsynced,
/// renamed), so a crash never leaves a committed generation half-written;
/// what can still go is the newest one — a rename the crash kept from
/// reaching the disk, a file damaged after the fact — and then
/// [`Engine::resume_latest`](crate::Engine::resume_latest) falls back one
/// generation, never two. The older one also keeps a reader that listed the
/// root just before a commit able to pin what it listed.
pub const RETAINED_GENERATIONS: usize = 2;

/// Retire the generations under `root` that the commit of generation
/// `committed` made redundant: every generation numbered below the newest
/// [`RETAINED_GENERATIONS`] at or below `committed`, plus `.old` debris of
/// an earlier crashed retirement. Each is renamed to `.old` and then
/// deleted, both gated ops. The decision comes from the directory listing
/// alone — nothing is read back — and generations numbered *above*
/// `committed` are left alone: a resumed run only continues below a
/// generation it could not use, so such a generation is damaged or from an
/// abandoned timeline, and it must never crowd out the one just committed.
/// Returns how many generations were retired.
pub fn retire_older(root: &Path, committed: u32, surface: &FaultSurface) -> Result<usize> {
    let mut leftovers: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(root).ctx("read-dir", root)? {
        let entry = entry.ctx("read-dir", root)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.strip_suffix(".old").and_then(parse_generation_name).is_some() {
            leftovers.push(entry.path());
        }
    }
    // Deterministic order so fault-sweep op counts are reproducible.
    leftovers.sort();
    for old in &leftovers {
        graphz_io::atomic::remove_leftover(old, surface).ctx("retire", old)?;
    }
    let older = list_generations(root)?
        .into_iter()
        .filter(|g| g.number <= committed)
        .skip(RETAINED_GENERATIONS);
    let mut retired = 0;
    for generation in older {
        graphz_io::atomic::retire_dir(&generation.path, surface).ctx("retire", &generation.path)?;
        retired += 1;
    }
    Ok(retired)
}

/// Where a run's checkpoint time went. The engine thread seals each
/// generation (the vertex frame's end, the spill frames, the manifest); a
/// commit thread then fsyncs, renames and retires while the next iteration
/// computes, and the engine waits only when it must join that commit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointTimes {
    /// Generations committed: fsynced, renamed into place, retention run.
    pub generations: u32,
    /// Engine-thread time sealing generations.
    pub seal: Duration,
    /// Engine-thread time spent blocked joining a commit still in flight.
    pub waited: Duration,
    /// Commit-thread time: the staged tree's fsyncs and rename, and
    /// retention.
    pub commit: Duration,
}

/// Retention to run once a commit lands: retire what generation `committed`
/// made redundant under `root` ([`retire_older`]).
pub(crate) struct Retention {
    pub root: PathBuf,
    pub committed: u32,
}

/// The one generation commit a run may have in flight: a thread that runs
/// [`StagedDir::commit`] (fsync the tree, rename, fsync the parent) and then
/// the [`Retention`] it was given. [`start`](Self::start) joins the commit
/// before it, so at most one is in flight; [`wait`](Self::wait) joins and
/// returns the commit's typed error; dropping the handle joins too, so no
/// commit outlives the run that started it, whether the run returns `Ok` or
/// `Err`. The thread's ops go through the same fault gate as the engine's,
/// and the engine performs no gated op while a commit is in flight, so the
/// gated ops keep one global order.
#[derive(Default)]
pub(crate) struct InFlightCommit {
    handle: Option<JoinHandle<Result<Duration>>>,
    times: CheckpointTimes,
}

impl InFlightCommit {
    /// Commit `staged` on a new thread, after joining the commit before it.
    pub fn start(
        &mut self,
        staged: StagedDir,
        retention: Option<Retention>,
        surface: &FaultSurface,
    ) -> Result<()> {
        self.wait()?;
        let dest = staged.dest().to_path_buf();
        let surface = surface.clone();
        let handle = std::thread::Builder::new()
            .name("graphz-commit".into())
            .spawn(move || {
                let t = Instant::now();
                let dest = staged.dest().to_path_buf();
                staged.commit().ctx("commit", &dest)?;
                if let Some(r) = retention {
                    retire_older(&r.root, r.committed, &surface)?;
                }
                Ok(t.elapsed())
            })
            .ctx("spawn-commit", &dest)?;
        self.handle = Some(handle);
        Ok(())
    }

    /// Join the commit in flight, if any, and return its error.
    pub fn wait(&mut self) -> Result<()> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        let t = Instant::now();
        let joined = handle.join();
        self.times.waited += t.elapsed();
        let took = joined.map_err(|_| {
            GraphError::Io(std::io::Error::other("checkpoint commit thread panicked"))
        })??;
        self.times.commit += took;
        self.times.generations += 1;
        Ok(())
    }

    /// The times so far (join first for a complete count).
    pub fn times(&self) -> CheckpointTimes {
        self.times
    }

    /// Charge `seal` engine-thread time to sealing.
    pub fn add_seal(&mut self, seal: Duration) {
        self.times.seal += seal;
    }
}

impl Drop for InFlightCommit {
    fn drop(&mut self) {
        // The run is already failing; its own error is the one it returns.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::{FaultState, RetryPolicy, ScratchDir};

    #[test]
    fn parses_generation_names_strictly() {
        assert_eq!(parse_generation_name("gen-00000012"), Some(12));
        assert_eq!(parse_generation_name("gen-0"), Some(0));
        assert_eq!(parse_generation_name("gen-"), None);
        assert_eq!(parse_generation_name("gen-12.tmp"), None);
        assert_eq!(parse_generation_name("gen-12.old"), None);
        assert_eq!(parse_generation_name("snapshot"), None);
    }

    #[test]
    fn generation_path_round_trips_through_the_parser() {
        let p = generation_path(Path::new("/ck"), 7);
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(parse_generation_name(&name), Some(7));
    }

    #[test]
    fn listing_is_newest_first_and_skips_leftovers() {
        let dir = ScratchDir::new("generations-list").unwrap();
        for name in ["gen-00000002", "gen-00000010", "gen-00000001", "gen-3.tmp", "junk"] {
            std::fs::create_dir(dir.path().join(name)).unwrap();
        }
        std::fs::write(dir.path().join("stray.txt"), b"x").unwrap();
        let gens = list_generations(dir.path()).unwrap();
        let numbers: Vec<u32> = gens.iter().map(|g| g.number).collect();
        assert_eq!(numbers, vec![10, 2, 1]);
    }

    #[test]
    fn missing_root_lists_empty() {
        let dir = ScratchDir::new("generations-missing").unwrap();
        let gens = list_generations(&dir.path().join("never-created")).unwrap();
        assert!(gens.is_empty());
    }

    #[test]
    fn in_flight_commit_lands_by_drop_and_wait_returns_its_error() {
        let dir = ScratchDir::new("generations-inflight").unwrap();
        let inert = FaultSurface::none();
        let staged_at = |n: u32, surface: &FaultSurface| {
            let dest = generation_path(dir.path(), n);
            let staged = StagedDir::stage(&dest, surface).unwrap();
            std::fs::write(staged.path().join("manifest.txt"), b"x").unwrap();
            staged
        };
        // Dropping the handle joins: the generation is in place after it.
        {
            let mut commits = InFlightCommit::default();
            commits.start(staged_at(1, &inert), None, &inert).unwrap();
        }
        assert!(generation_path(dir.path(), 1).join("manifest.txt").is_file());

        // A failed commit is the error `wait` returns, and its staging is gone.
        let faults = FaultState::fail_at_label("rename");
        let armed =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());
        let mut commits = InFlightCommit::default();
        let staged = staged_at(2, &armed);
        commits.start(staged, None, &inert).unwrap();
        let err = commits.wait().unwrap_err();
        assert!(err.to_string().contains("injected fault: rename"), "{err}");
        assert!(faults.fired());
        assert!(!dir.path().join("gen-00000002.tmp").exists());
        assert_eq!(commits.times().generations, 0);

        // The next start joins nothing left over; retention runs after it.
        let retention = Retention { root: dir.path().to_path_buf(), committed: 3 };
        commits.start(staged_at(3, &inert), Some(retention), &inert).unwrap();
        commits.wait().unwrap();
        assert_eq!(commits.times().generations, 1);
        let numbers: Vec<u32> =
            list_generations(dir.path()).unwrap().iter().map(|g| g.number).collect();
        assert_eq!(numbers, vec![3, 1]);
    }

    #[test]
    fn manifest_of_a_non_checkpoint_is_typed() {
        let dir = ScratchDir::new("generations-nonckpt").unwrap();
        // No manifest at all: NotFound (torn rename / empty dir).
        assert!(matches!(GenerationManifest::load(dir.path(), &IoStats::new()), Err(GraphError::NotFound(_))));
        // A manifest with the wrong format marker: Corrupt.
        let mut mf = MetaFile::new();
        mf.set("format", "something-else");
        mf.save(&dir.path().join("manifest.txt")).unwrap();
        assert!(matches!(GenerationManifest::load(dir.path(), &IoStats::new()), Err(GraphError::Corrupt(_))));
    }
}
