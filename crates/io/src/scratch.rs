//! Self-cleaning scratch directories for engine spill files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named temporary directory, removed on drop.
///
/// Engines allocate one per run for partition spill files, sort runs, and
/// message buffers. Uniqueness combines the process id with a process-wide
/// counter so concurrent tests never collide.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
    keep: bool,
}

impl ScratchDir {
    /// Create a scratch directory under the system temp dir.
    pub fn new(label: &str) -> std::io::Result<Self> {
        Self::new_in(&std::env::temp_dir(), label)
    }

    /// Create a scratch directory under `base`.
    pub fn new_in(base: &Path, label: &str) -> std::io::Result<Self> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("graphz-{label}-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path, keep: false })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Build a file path inside the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Disarm cleanup (useful when debugging a failing run).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_cleaned() {
        let p1;
        let p2;
        {
            let d1 = ScratchDir::new("t").unwrap();
            let d2 = ScratchDir::new("t").unwrap();
            p1 = d1.path().to_path_buf();
            p2 = d2.path().to_path_buf();
            assert_ne!(p1, p2);
            assert!(p1.is_dir());
            std::fs::write(d1.file("x.bin"), b"abc").unwrap();
        }
        assert!(!p1.exists(), "dropped scratch dir must be removed");
        assert!(!p2.exists());
    }

    #[test]
    fn keep_disarms_cleanup() {
        let p;
        {
            let mut d = ScratchDir::new("keep").unwrap();
            d.keep();
            p = d.path().to_path_buf();
        }
        assert!(p.exists());
        std::fs::remove_dir_all(&p).unwrap();
    }
}
