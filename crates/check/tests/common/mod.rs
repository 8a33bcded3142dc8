//! Helpers shared by the gate tests. Fixture trees are *scanned*, not
//! compiled, so they only need to be token-plausible Rust.

use std::fs;
use std::path::{Path, PathBuf};

/// A scratch directory under the target dir, wiped per test.
pub fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Write one fixture file at `rel` under `root`.
pub fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, contents).expect("write fixture file");
}

/// The workspace root (`crates/check/` → two levels up).
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}
