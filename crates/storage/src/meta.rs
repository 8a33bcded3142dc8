//! The one key/value manifest type: a DOS image's `meta.txt` and
//! `checksums.txt`, a checkpoint's `manifest.txt` and a convert's stage
//! manifests. Plain `key=value` lines (`#` comments), so no serialization
//! crate is needed and files stay inspectable with `cat`. A `file:<name>`
//! entry records a file's [`Fingerprint`]; every load parses each one and
//! reads through [`TrackedFile`]. A stage manifest ([`MetaFile::stage`])
//! ends in `crc=<hex>` over every byte above it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use graphz_io::{crc32, FaultSurface, Fingerprint, IoStats, TrackedFile};
use graphz_types::prelude::*;

/// Key prefix of a recorded file's fingerprint.
const FILE_PREFIX: &str = "file:";
/// Key of a stage manifest's stage name.
const STAGE_KEY: &str = "stage";
/// Start of a stage manifest's last line.
const TRAILER: &str = "crc=";

/// Ordered key → value map persisted as `key=value` lines.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetaFile {
    entries: BTreeMap<String, String>,
    /// A convert stage manifest, sealed by its `crc=` trailer. Set by
    /// [`stage`](Self::stage) and [`load_stage`](Self::load_stage) only.
    sealed: bool,
}

impl MetaFile {
    pub fn new() -> Self {
        Self::default()
    }

    /// A convert stage's completion record. Must be consumed by
    /// [`commit`](Self::commit): an uncommitted manifest is a stage that
    /// never became durable.
    #[must_use]
    pub fn stage(name: &str) -> Self {
        let mut m = MetaFile { entries: BTreeMap::new(), sealed: true };
        m.set(STAGE_KEY, name);
        m
    }

    pub fn set(&mut self, key: &str, value: impl ToString) -> &mut Self {
        assert!(
            !key.contains('=') && !key.contains('\n'),
            "meta keys must not contain '=' or newlines"
        );
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    pub fn get_u64(&self, key: &str) -> Result<u64> {
        let raw = self
            .get(key)
            .ok_or_else(|| GraphError::Corrupt(format!("meta key `{key}` missing")))?;
        raw.parse()
            .map_err(|_| GraphError::Corrupt(format!("meta key `{key}` is not a u64: `{raw}`")))
    }

    /// Record the fingerprint of file `name`.
    pub fn record_file(&mut self, name: &str, fingerprint: Fingerprint) -> &mut Self {
        self.set(&format!("{FILE_PREFIX}{name}"), fingerprint)
    }

    /// The recorded fingerprint of file `name`; [`GraphError::Corrupt`]
    /// when there is none.
    pub fn file(&self, name: &str) -> Result<Fingerprint> {
        self.get(&format!("{FILE_PREFIX}{name}"))
            .and_then(Fingerprint::parse)
            .ok_or_else(|| GraphError::Corrupt(format!("no fingerprint recorded for `{name}`")))
    }

    /// Every recorded file, in name order.
    pub fn files(&self) -> impl Iterator<Item = (&str, Fingerprint)> {
        self.entries
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix(FILE_PREFIX)?, Fingerprint::parse(v)?)))
    }

    /// A reader found `found` in file `name`: typed [`GraphError::Corrupt`]
    /// naming both values unless it is the recorded one.
    pub fn check(&self, name: &str, found: Fingerprint) -> Result<()> {
        let want = self.file(name)?;
        if found != want {
            return Err(GraphError::Corrupt(format!(
                "{name}: length {} vs recorded {}, crc {:08x} vs recorded {:08x}",
                found.len, want.len, found.crc, want.crc
            )));
        }
        Ok(())
    }

    /// Read file `name` at `path` through `stats` and [`check`](Self::check)
    /// it. A missing file is the IO error, not a mismatch.
    pub fn verify_file(&self, name: &str, path: &Path, stats: &Arc<IoStats>) -> Result<()> {
        let found = graphz_io::tracked::reader(path, Arc::clone(stats))
            .and_then(graphz_io::crc32_stream)
            .ctx("verify", path)?;
        self.check(name, found)
    }

    /// The bytes [`save`](Self::save) writes, for a caller that writes them
    /// through a gate of its own (a checkpoint's staged manifest); a stage
    /// manifest's trailer follows them.
    pub fn render(&self) -> String {
        let mut out = String::from("# GraphZ metadata\n");
        out.extend(self.entries.iter().map(|(k, v)| format!("{k}={v}\n")));
        out
    }

    /// Write atomically (tmp + fsync + rename): a crash mid-save leaves the
    /// previous file, never a half-written one. For callers outside every
    /// fault boundary (baseline converters, CSR, edge-list sidecars).
    pub fn save(&self, path: &Path) -> Result<()> {
        self.save_with(path, &FaultSurface::none(), "save-meta").map(drop)
    }

    /// [`save`](Self::save) routed through a [`FaultSurface`]: the write is
    /// gated as `label` and its bytes streamed through the surface (a stage
    /// manifest's trailer as a second write), so a chaos sweep can kill
    /// exactly this write. Returns the fingerprint of the bytes written.
    pub fn save_with(
        &self,
        path: &Path,
        surface: &FaultSurface,
        label: &str,
    ) -> Result<Fingerprint> {
        surface.op(label).ctx("gate", path)?;
        let mut text = self.render();
        let body = text.len();
        if self.sealed {
            let crc = crc32(text.as_bytes());
            text.push_str(&format!("{TRAILER}{crc:08x}\n"));
        }
        let mut file = graphz_io::AtomicFile::create(path).ctx("stage", path)?;
        {
            let mut w = surface.wrap(&mut file);
            w.write_all(&text.as_bytes()[..body]).ctx("write", path)?;
            // Nothing for a file with no trailer: an empty write is no op.
            w.write_all(&text.as_bytes()[body..]).ctx("write", path)?;
        }
        file.commit().ctx("commit", path)?;
        Ok(Fingerprint::of(text.as_bytes()))
    }

    /// Commit a stage manifest: [`save_with`](Self::save_with) gated as
    /// `commit-manifest:<stage>`.
    pub fn commit(self, path: &Path, surface: &FaultSurface) -> Result<()> {
        let label = format!("commit-manifest:{}", self.get(STAGE_KEY).unwrap_or_default());
        self.save_with(path, surface, &label).map(drop)
    }

    /// Load a file, reading it through `stats`. A malformed line or
    /// `file:` value is [`GraphError::Corrupt`].
    pub fn load(path: &Path, stats: &Arc<IoStats>) -> Result<Self> {
        Self::read(path, stats, false)
    }

    /// Load the manifest of convert stage `stage`. `Ok(None)` means "stage
    /// incomplete": the file is missing, torn, malformed, fails its CRC or
    /// names another stage, every damaged shape a resume must shrug at
    /// rather than trust or die on.
    pub fn load_stage(path: &Path, stage: &str, stats: &Arc<IoStats>) -> Result<Option<Self>> {
        match Self::read(path, stats, true) {
            Ok(m) if m.get(STAGE_KEY) == Some(stage) => Ok(Some(m)),
            Ok(_) | Err(GraphError::Corrupt(_)) => Ok(None),
            Err(GraphError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The one load: read `path` through `stats`, check a sealed file's
    /// trailer, parse the lines and every `file:` value.
    fn read(path: &Path, stats: &Arc<IoStats>, sealed: bool) -> Result<Self> {
        let mut text = String::new();
        TrackedFile::open(path, Arc::clone(stats))
            .and_then(|mut f| f.read_to_string(&mut text))
            .ctx("read", path)?;
        let corrupt = |what: String| GraphError::Corrupt(format!("{}: {what}", path.display()));
        let mut body = text.as_str();
        if sealed {
            // The last line covers every byte before it.
            let start = text.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
            let (above, last) = text.split_at(start);
            if last.trim_end() != format!("{TRAILER}{:08x}", crc32(above.as_bytes())) {
                return Err(corrupt("no valid crc trailer".into()));
            }
            body = above;
        }
        let mut entries = BTreeMap::new();
        for (at, line) in (1..).zip(body.lines()) {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(corrupt(format!("line {at}: expected key=value, got `{line}`")));
            };
            if k.starts_with(FILE_PREFIX) && Fingerprint::parse(v).is_none() {
                return Err(corrupt(format!("line {at}: `{k}` is not `<len>,<crc>`: `{v}`")));
            }
            entries.insert(k.to_string(), v.to_string());
        }
        Ok(MetaFile { entries, sealed })
    }

    /// Store the standard [`GraphMeta`] block.
    pub fn set_graph_meta(&mut self, m: &GraphMeta) -> &mut Self {
        self.set("num_vertices", m.num_vertices)
            .set("num_edges", m.num_edges)
            .set("unique_degrees", m.unique_degrees)
            .set("max_degree", m.max_degree)
    }

    /// Read back the standard [`GraphMeta`] block.
    pub fn graph_meta(&self) -> Result<GraphMeta> {
        Ok(GraphMeta {
            num_vertices: self.get_u64("num_vertices")?,
            num_edges: self.get_u64("num_edges")?,
            unique_degrees: self.get_u64("unique_degrees")?,
            max_degree: self.get_u64("max_degree")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphz_io::{FaultState, RetryPolicy, ScratchDir};

    fn stats() -> Arc<IoStats> {
        IoStats::new()
    }

    #[test]
    fn roundtrip() {
        let dir = ScratchDir::new("meta").unwrap();
        let path = dir.file("meta.txt");
        let mut m = MetaFile::new();
        m.set("format", "dos").set("num_edges", 42u64);
        m.save(&path).unwrap();
        let back = MetaFile::load(&path, &stats()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.get("format"), Some("dos"));
        assert_eq!(back.get_u64("num_edges").unwrap(), 42);
    }

    #[test]
    fn graph_meta_roundtrip() {
        let dir = ScratchDir::new("meta-gm").unwrap();
        let path = dir.file("meta.txt");
        let gm = GraphMeta { num_vertices: 7, num_edges: 11, unique_degrees: 4, max_degree: 3 };
        let mut m = MetaFile::new();
        m.set_graph_meta(&gm);
        m.save(&path).unwrap();
        assert_eq!(MetaFile::load(&path, &stats()).unwrap().graph_meta().unwrap(), gm);
    }

    #[test]
    fn missing_key_is_corrupt() {
        let m = MetaFile::new();
        assert!(matches!(m.get_u64("nope"), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn malformed_line_is_corrupt() {
        let dir = ScratchDir::new("meta-bad").unwrap();
        let path = dir.file("meta.txt");
        std::fs::write(&path, "valid=1\nbogus line\n").unwrap();
        assert!(matches!(MetaFile::load(&path, &stats()), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let dir = ScratchDir::new("meta-com").unwrap();
        let path = dir.file("meta.txt");
        std::fs::write(&path, "# header\n\na=1\n  # indented comment\nb=two\n").unwrap();
        let m = MetaFile::load(&path, &stats()).unwrap();
        assert_eq!(m.get("a"), Some("1"));
        assert_eq!(m.get("b"), Some("two"));
    }

    #[test]
    #[should_panic(expected = "meta keys")]
    fn keys_with_equals_rejected() {
        MetaFile::new().set("a=b", 1);
    }

    /// A plain file holding `file:x.bin=<value>`, and the same line in a
    /// stage manifest whose trailer is valid: only the value is wrong.
    fn with_file_value(dir: &ScratchDir, value: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let plain = dir.file("plain.txt");
        let body = format!("# GraphZ metadata\nfile:x.bin={value}\nstage=s\n");
        std::fs::write(&plain, &body).unwrap();
        let sealed = dir.file("s.manifest");
        let trailer = format!("crc={:08x}\n", crc32(body.as_bytes()));
        std::fs::write(&sealed, format!("{body}{trailer}")).unwrap();
        (plain, sealed)
    }

    #[test]
    fn a_malformed_file_value_is_corrupt_and_an_incomplete_stage() {
        let dir = ScratchDir::new("meta-file-value").unwrap();
        for value in ["12", "12,zz", ",00000000"] {
            let (plain, sealed) = with_file_value(&dir, value);
            let err = MetaFile::load(&plain, &stats()).unwrap_err();
            assert!(matches!(&err, GraphError::Corrupt(m) if m.contains("file:x.bin")), "{err}");
            assert_eq!(MetaFile::load_stage(&sealed, "s", &stats()).unwrap(), None, "{value}");
        }
        // The well-formed value loads both ways.
        let (plain, sealed) = with_file_value(&dir, "12,0000abcd");
        let want = Fingerprint { len: 12, crc: 0xabcd };
        assert_eq!(MetaFile::load(&plain, &stats()).unwrap().file("x.bin").ok(), Some(want));
        let stage = MetaFile::load_stage(&sealed, "s", &stats()).unwrap().unwrap();
        assert_eq!(stage.files().collect::<Vec<_>>(), vec![("x.bin", want)]);
    }

    #[test]
    fn check_names_the_file_and_both_values() {
        let mut m = MetaFile::new();
        m.record_file("edges.bin", Fingerprint { len: 8, crc: 1 });
        assert!(m.check("edges.bin", Fingerprint { len: 8, crc: 1 }).is_ok());
        let err = m.check("edges.bin", Fingerprint { len: 9, crc: 2 }).unwrap_err();
        let GraphError::Corrupt(msg) = err else { panic!("{err:?}") };
        assert_eq!(msg, "edges.bin: length 9 vs recorded 8, crc 00000002 vs recorded 00000001");
        assert!(matches!(m.check("other.bin", Fingerprint::of(b"")), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn commit_then_load_round_trips() {
        let dir = ScratchDir::new("manifest").unwrap();
        let path = dir.file("import.manifest");
        let stats = stats();
        let mut m = MetaFile::stage("import");
        m.set("edges", 1234u64);
        m.set("source", "g.txt");
        m.commit(&path, &FaultSurface::none()).unwrap();

        let loaded =
            MetaFile::load_stage(&path, "import", &stats).unwrap().expect("manifest loads");
        assert_eq!(loaded.get("stage"), Some("import"));
        assert_eq!(loaded.get_u64("edges").ok(), Some(1234));
        assert_eq!(loaded.get("source"), Some("g.txt"));
        // It is some other stage's manifest only under its own name.
        assert_eq!(MetaFile::load_stage(&path, "runs", &stats).unwrap(), None);
    }

    #[test]
    fn missing_or_corrupt_manifest_reads_as_incomplete() {
        let dir = ScratchDir::new("manifest-bad").unwrap();
        let path = dir.file("stage.manifest");
        let stats = stats();
        let load = || MetaFile::load_stage(&path, "triads", &stats).unwrap();
        assert!(load().is_none(), "missing = incomplete");

        let mut m = MetaFile::stage("triads");
        m.set("assigned", 7u64);
        m.commit(&path, &FaultSurface::none()).unwrap();
        assert!(load().is_some());

        // Any byte flip fails the CRC and demotes the stage to incomplete,
        // also one that leaves every line parseable (here, the comment).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load().is_none(), "tampered = incomplete");

        // A truncated (torn) manifest likewise.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load().is_none(), "torn = incomplete");
    }

    #[test]
    fn recorded_files_verify_and_detect_damage() {
        let dir = ScratchDir::new("manifest-files").unwrap();
        let artifact = dir.file("runs.bin");
        std::fs::write(&artifact, b"sorted run payload").unwrap();
        let mut m = MetaFile::stage("by-src");
        m.record_file("runs.bin", Fingerprint::of(b"sorted run payload"));
        let path = dir.file("by-src.manifest");
        m.commit(&path, &FaultSurface::none()).unwrap();

        let stats = stats();
        let loaded = MetaFile::load_stage(&path, "by-src", &stats).unwrap().unwrap();
        let manifest_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(stats.snapshot().bytes_read, manifest_len, "the load is counted");
        let names: Vec<&str> = loaded.files().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["runs.bin"]);
        assert_eq!(loaded.file("runs.bin").ok(), Some(Fingerprint::of(b"sorted run payload")));
        assert!(matches!(loaded.file("other.bin"), Err(GraphError::Corrupt(_))));
        let verify = || loaded.verify_file("runs.bin", &artifact, &stats);
        assert!(verify().is_ok());
        // The re-read of the artifact is counted too.
        assert_eq!(stats.snapshot().bytes_read, manifest_len + 18);

        // Damage the artifact: same length, different bytes.
        std::fs::write(&artifact, b"sorted run pAyload").unwrap();
        assert!(matches!(verify(), Err(GraphError::Corrupt(_))), "bit rot undetected");
        std::fs::remove_file(&artifact).unwrap();
        assert!(verify().is_err(), "missing file undetected");
    }

    #[test]
    fn labeled_fault_kills_exactly_this_commit() {
        let dir = ScratchDir::new("manifest-fault").unwrap();
        let path = dir.file("emit.manifest");
        let stats = stats();
        let faults = FaultState::fail_at_label("commit-manifest:emit");
        let surface =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());

        // A different stage's commit passes through the same surface.
        let other = dir.file("import.manifest");
        MetaFile::stage("import").commit(&other, &surface).unwrap();
        assert!(MetaFile::load_stage(&other, "import", &stats).unwrap().is_some());

        let err = MetaFile::stage("emit").commit(&path, &surface).unwrap_err();
        assert!(err.to_string().contains("commit-manifest:emit"), "{err}");
        assert!(faults.fired());
        assert!(
            MetaFile::load_stage(&path, "emit", &stats).unwrap().is_none(),
            "failed commit left debris"
        );
    }
}
