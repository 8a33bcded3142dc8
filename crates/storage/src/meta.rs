//! Tiny `key=value` sidecar files.
//!
//! Every on-disk graph directory carries a `meta.txt` recording vertex/edge
//! counts and format parameters. The format is deliberately plain text (one
//! `key=value` per line, `#` comments) so no serialization crate is needed
//! and files stay inspectable with `cat`.

use std::collections::BTreeMap;
use std::path::Path;

use graphz_types::prelude::*;

/// Ordered key → value map persisted as `key=value` lines.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetaFile {
    entries: BTreeMap<String, String>,
}

impl MetaFile {
    pub fn new() -> Self {
        Self::default()
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

    /// All `(key, value)` pairs in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn get_u64(&self, key: &str) -> Result<u64> {
        let raw = self
            .get(key)
            .ok_or_else(|| GraphError::Corrupt(format!("meta key `{key}` missing")))?;
        raw.parse()
            .map_err(|_| GraphError::Corrupt(format!("meta key `{key}` is not a u64: `{raw}`")))
    }

    /// The exact bytes [`save`](Self::save) writes, for callers that write
    /// them through a gate of their own (a checkpoint's staged manifest).
    pub fn render(&self) -> String {
        let mut out = String::from("# GraphZ metadata\n");
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push('=');
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    /// Write atomically (tmp + fsync + rename): a crash mid-save leaves the
    /// previous metadata, never a half-written file.
    pub fn save(&self, path: &Path) -> Result<()> {
        // For callers with no surface in reach (baseline converters, CSR,
        // edge-list sidecars), all outside the ingest fault boundary; the
        // DOS pipeline saves its sidecars through `save_with` instead, and a
        // checkpoint writes its `render`ed manifest through its own gate.
        // flow:allow(fault-surface-bypass) ipa:allow(fault-surface-reach)
        graphz_io::atomic::write_atomic(path, self.render().as_bytes()).ctx("write", path)?;
        Ok(())
    }

    /// [`save`](Self::save) routed through a [`FaultSurface`]: the write is
    /// gated as `save-meta:<file>` and streamed through the surface, so the
    /// chaos sweeps can kill exactly this sidecar write (mirroring
    /// `StageManifest::commit`). An inert surface degrades to `save`.
    /// Returns the fingerprint of the bytes written.
    pub fn save_with(
        &self,
        path: &Path,
        surface: &graphz_io::FaultSurface,
    ) -> Result<graphz_io::Fingerprint> {
        use std::io::Write;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        surface.op(&format!("save-meta:{name}")).ctx("gate", path)?;
        let body = self.render();
        let mut file = graphz_io::atomic::AtomicFile::create(path).ctx("stage", path)?;
        {
            let mut w = surface.wrap(&mut file);
            w.write_all(body.as_bytes()).ctx("write", path)?;
        }
        file.commit().ctx("commit", path)?;
        Ok(graphz_io::Fingerprint::of(body.as_bytes()))
    }

    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).ctx("read", path)?;
        let mut entries = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line.split_once('=').ok_or_else(|| {
                GraphError::Corrupt(format!(
                    "{}:{}: expected key=value, got `{line}`",
                    path.display(),
                    lineno + 1
                ))
            })?;
            entries.insert(k.to_string(), v.to_string());
        }
        Ok(MetaFile { entries })
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
    use graphz_io::ScratchDir;

    #[test]
    fn roundtrip() {
        let dir = ScratchDir::new("meta").unwrap();
        let path = dir.file("meta.txt");
        let mut m = MetaFile::new();
        m.set("format", "dos").set("num_edges", 42u64);
        m.save(&path).unwrap();
        let back = MetaFile::load(&path).unwrap();
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
        assert_eq!(MetaFile::load(&path).unwrap().graph_meta().unwrap(), gm);
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
        assert!(matches!(MetaFile::load(&path), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let dir = ScratchDir::new("meta-com").unwrap();
        let path = dir.file("meta.txt");
        std::fs::write(&path, "# header\n\na=1\n  # indented comment\nb=two\n").unwrap();
        let m = MetaFile::load(&path).unwrap();
        assert_eq!(m.get("a"), Some("1"));
        assert_eq!(m.get("b"), Some("two"));
    }

    #[test]
    #[should_panic(expected = "meta keys")]
    fn keys_with_equals_rejected() {
        MetaFile::new().set("a=b", 1);
    }
}
