//! Checksummed stage manifests for resumable multi-stage pipelines.
//!
//! A long ingest (five external sorts plus the final DOS emit) records its
//! progress as one [`StageManifest`] per completed stage: a small key/value
//! file, committed atomically ([`AtomicFile`]), whose last line is a CRC32
//! of everything above it. On restart the pipeline loads manifests in stage
//! order; a missing, torn, or checksum-failing manifest simply reads as
//! "stage incomplete" ([`StageManifest::load`] returns `None`) and the
//! stage is redone. Manifests also record the length + CRC of the artifact
//! files a stage produced ([`record_file`](StageManifest::record_file)),
//! taken while the stage wrote them ([`CrcWriter`](crate::CrcWriter)), so
//! resume can prove the artifacts themselves survived before trusting them
//! ([`verify_files`](StageManifest::verify_files) re-reads every one). Both
//! the manifest load and that re-read go through [`TrackedFile`], so a
//! resumed pipeline's [`IoStats`] count the bytes it verified.
//!
//! The commit is gated through a [`FaultSurface`] under the label
//! `commit-manifest:<stage>`, which is what lets the chaos sweep kill a run
//! at exactly each stage boundary without counting ops.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::atomic::AtomicFile;
use crate::checksum::{crc32, crc32_stream, Fingerprint};
use crate::fault::FaultSurface;
use crate::stats::IoStats;
use crate::tracked::TrackedFile;

/// Open `path` for reading through `stats`; `Ok(None)` when it is missing.
fn open_tracked(path: &Path, stats: &Arc<IoStats>) -> io::Result<Option<TrackedFile>> {
    match TrackedFile::open(path, Arc::clone(stats)) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Key prefix for recorded artifact files.
const FILE_PREFIX: &str = "file:";

/// One stage's completion record: its name, arbitrary key/value facts, and
/// `{len},{crc}` fingerprints of the files it produced. Must be consumed by
/// [`commit`](Self::commit) — an unconsumed manifest is a stage that never
/// became durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageManifest {
    stage: String,
    entries: BTreeMap<String, String>,
}

impl StageManifest {
    #[must_use]
    pub fn new(stage: &str) -> Self {
        StageManifest { stage: stage.to_string(), entries: BTreeMap::new() }
    }

    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// Record an arbitrary fact about the completed stage.
    pub fn set(&mut self, key: &str, value: impl std::fmt::Display) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// Record the fingerprint of an artifact file the stage produced, as
    /// folded while the stage wrote it (`name` is the logical name resume
    /// will look it up under).
    pub fn record_file(&mut self, name: &str, fingerprint: Fingerprint) {
        self.entries.insert(format!("{FILE_PREFIX}{name}"), fingerprint.to_string());
    }

    /// The recorded fingerprint of artifact `name`, if any.
    pub fn file(&self, name: &str) -> Option<Fingerprint> {
        Fingerprint::parse(self.get(&format!("{FILE_PREFIX}{name}"))?)
    }

    /// Logical names of all recorded artifact files.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().filter_map(|k| k.strip_prefix(FILE_PREFIX))
    }

    /// Check every recorded artifact still exists with the recorded length
    /// and CRC, reading each through `stats`; `resolve` maps a logical name
    /// to its current path. Returns `false` (not an error) when anything is
    /// missing or mismatched — the caller treats that exactly like a
    /// missing manifest.
    pub fn verify_files(
        &self,
        stats: &Arc<IoStats>,
        resolve: impl Fn(&str) -> PathBuf,
    ) -> io::Result<bool> {
        for (key, want) in &self.entries {
            let Some(name) = key.strip_prefix(FILE_PREFIX) else {
                continue;
            };
            let Some(file) = open_tracked(&resolve(name), stats)? else {
                return Ok(false);
            };
            let (len, crc) = crc32_stream(file)?;
            let found = Fingerprint { len, crc };
            if found.to_string() != *want {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn render(&self) -> String {
        let mut body = format!("stage = {}\n", self.stage);
        for (k, v) in &self.entries {
            body.push_str(&format!("{k} = {v}\n"));
        }
        body
    }

    /// Atomically write the manifest to `path` with a trailing CRC line.
    /// The whole commit is gated through `surface` under the label
    /// `commit-manifest:<stage>`, so chaos tests can kill exactly this
    /// stage boundary.
    pub fn commit(self, path: &Path, surface: &FaultSurface) -> io::Result<()> {
        surface.op(&format!("commit-manifest:{}", self.stage))?;
        let body = self.render();
        let crc = crc32(body.as_bytes());
        let mut file = AtomicFile::create(path)?;
        {
            let mut w = surface.wrap(&mut file);
            w.write_all(body.as_bytes())?;
            w.write_all(format!("crc = {crc:08x}\n").as_bytes())?;
        }
        file.commit()
    }

    /// Load a committed manifest, reading it through `stats`. `Ok(None)`
    /// means "stage incomplete": the file is missing, torn, malformed, or
    /// fails its CRC — every damaged shape resume must shrug at rather than
    /// trust or die on.
    pub fn load(path: &Path, stats: &Arc<IoStats>) -> io::Result<Option<Self>> {
        let Some(mut file) = open_tracked(path, stats)? else {
            return Ok(None);
        };
        let mut text = String::new();
        match file.read_to_string(&mut text) {
            Ok(_) => {}
            // Not UTF-8: no manifest this code wrote.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(None),
            Err(e) => return Err(e),
        }
        // The CRC line covers every byte before it.
        let Some(crc_start) = text.rfind("crc = ") else {
            return Ok(None);
        };
        let (body, crc_line) = text.split_at(crc_start);
        let want = crc_line.trim_start_matches("crc = ").trim();
        if format!("{:08x}", crc32(body.as_bytes())) != want {
            return Ok(None);
        }
        let mut stage = None;
        let mut entries = BTreeMap::new();
        for line in body.lines() {
            let Some((k, v)) = line.split_once(" = ") else {
                return Ok(None);
            };
            if k == "stage" {
                stage = Some(v.to_string());
            } else {
                entries.insert(k.to_string(), v.to_string());
            }
        }
        match stage {
            Some(stage) => Ok(Some(StageManifest { stage, entries })),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultState, RetryPolicy};
    use crate::scratch::ScratchDir;

    #[test]
    fn commit_then_load_round_trips() {
        let dir = ScratchDir::new("manifest").unwrap();
        let path = dir.file("import.manifest");
        let stats = IoStats::new();
        let mut m = StageManifest::new("import");
        m.set("edges", 1234u64);
        m.set("source", "g.txt");
        m.commit(&path, &FaultSurface::none()).unwrap();

        let loaded = StageManifest::load(&path, &stats).unwrap().expect("manifest loads");
        assert_eq!(loaded.stage(), "import");
        assert_eq!(loaded.get_u64("edges"), Some(1234));
        assert_eq!(loaded.get("source"), Some("g.txt"));
    }

    #[test]
    fn missing_or_corrupt_manifest_reads_as_incomplete() {
        let dir = ScratchDir::new("manifest-bad").unwrap();
        let path = dir.file("stage.manifest");
        let stats = IoStats::new();
        assert!(StageManifest::load(&path, &stats).unwrap().is_none(), "missing = incomplete");

        let mut m = StageManifest::new("triads");
        m.set("assigned", 7u64);
        m.commit(&path, &FaultSurface::none()).unwrap();
        assert!(StageManifest::load(&path, &stats).unwrap().is_some());

        // Any byte flip fails the CRC and demotes the stage to incomplete.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(StageManifest::load(&path, &stats).unwrap().is_none(), "tampered = incomplete");

        // A truncated (torn) manifest likewise.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(StageManifest::load(&path, &stats).unwrap().is_none(), "torn = incomplete");
    }

    #[test]
    fn recorded_files_verify_and_detect_damage() {
        let dir = ScratchDir::new("manifest-files").unwrap();
        let artifact = dir.file("runs.bin");
        std::fs::write(&artifact, b"sorted run payload").unwrap();
        let mut m = StageManifest::new("by-src");
        m.record_file("runs.bin", Fingerprint::of(b"sorted run payload"));
        let path = dir.file("by-src.manifest");
        m.commit(&path, &FaultSurface::none()).unwrap();

        let stats = IoStats::new();
        let loaded = StageManifest::load(&path, &stats).unwrap().unwrap();
        let manifest_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(stats.snapshot().bytes_read, manifest_len, "the load is counted");
        assert_eq!(loaded.files().collect::<Vec<_>>(), vec!["runs.bin"]);
        assert_eq!(loaded.file("runs.bin"), Some(Fingerprint::of(b"sorted run payload")));
        assert_eq!(loaded.file("other.bin"), None);
        let resolve = |name: &str| dir.file(name);
        assert!(loaded.verify_files(&stats, resolve).unwrap());
        // The re-read of the artifact is counted too.
        assert_eq!(stats.snapshot().bytes_read, manifest_len + 18);

        // Damage the artifact: same length, different bytes.
        std::fs::write(&artifact, b"sorted run pAyload").unwrap();
        assert!(!loaded.verify_files(&stats, resolve).unwrap(), "bit rot undetected");
        std::fs::remove_file(&artifact).unwrap();
        assert!(!loaded.verify_files(&stats, resolve).unwrap(), "missing file undetected");
    }

    #[test]
    fn labeled_fault_kills_exactly_this_commit() {
        let dir = ScratchDir::new("manifest-fault").unwrap();
        let path = dir.file("emit.manifest");
        let stats = IoStats::new();
        let faults = FaultState::fail_at_label("commit-manifest:emit");
        let surface =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());

        // A different stage's commit passes through the same surface.
        let other = dir.file("import.manifest");
        StageManifest::new("import").commit(&other, &surface).unwrap();
        assert!(StageManifest::load(&other, &stats).unwrap().is_some());

        let err = StageManifest::new("emit").commit(&path, &surface).unwrap_err();
        assert!(err.to_string().contains("commit-manifest:emit"), "{err}");
        assert!(faults.fired());
        assert!(StageManifest::load(&path, &stats).unwrap().is_none(), "failed commit left debris");
    }
}
