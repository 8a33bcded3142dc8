//! Crash-consistent file and directory replacement.
//!
//! The write-tmp/fsync/rename idiom: data is staged under a `.tmp` name,
//! synced to stable storage, and then atomically renamed over the final
//! name. A crash at any point leaves either the old artifact or the new one
//! — never a half-written hybrid — and stale `.tmp` debris is swept by the
//! next attempt.
//!
//! [`AtomicFile`] (single file) commits ungated: a caller that wants its
//! steps in a chaos sweep gates around it, as `MetaFile::save_with` does.
//! [`StagedDir`] (multi-file artifact, e.g. a checkpoint generation) and the
//! retirement helpers route every fsync/rename/remove through the
//! [`FaultSurface`] they are given, so chaos tests can kill a commit at
//! every step and assert the invariant above actually holds.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fault::FaultSurface;

/// Suffix for staging names; stale ones are removed before reuse.
const TMP_SUFFIX: &str = ".tmp";

fn tmp_name(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// fsync a directory so a rename performed inside it is durable. Best-effort
/// on filesystems that reject directory fsync.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => match d.sync_all() {
            Err(e)
                if e.kind() == io::ErrorKind::Unsupported
                    || e.kind() == io::ErrorKind::InvalidInput =>
            {
                Ok(())
            }
            other => other,
        },
        // Missing parent shows up on the rename itself with a better message.
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// A file written under `<name>.tmp` and renamed into place on
/// [`commit`](Self::commit); dropping without committing removes the
/// staging file.
pub struct AtomicFile {
    tmp: PathBuf,
    dest: PathBuf,
    file: Option<File>,
}

impl AtomicFile {
    pub fn create(dest: &Path) -> io::Result<Self> {
        let tmp = tmp_name(dest);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }
        let file = File::create(&tmp)?;
        Ok(AtomicFile { tmp, dest: dest.to_path_buf(), file: Some(file) })
    }

    /// fsync the staged bytes, rename over the destination, fsync the parent
    /// directory. After this returns the new content is durable.
    pub fn commit(mut self) -> io::Result<()> {
        // `commit` consumes self, so the handle is always present; the
        // fallback keeps this path panic-free regardless.
        let file = self
            .file
            .take()
            .ok_or_else(|| io::Error::other("atomic file already committed"))?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.tmp, &self.dest)?;
        match self.dest.parent() {
            Some(parent) => fsync_dir(parent),
            None => Ok(()),
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.file.as_mut() {
            Some(file) => file.write(buf),
            None => Err(io::Error::other("write after commit")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.file {
            Some(f) => f.flush(),
            None => Ok(()),
        }
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Convenience: atomically replace `dest` with `bytes`.
pub fn write_atomic(dest: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = AtomicFile::create(dest)?;
    f.write_all(bytes)?;
    f.commit()
}

/// A directory staged as `<final>.tmp` and atomically swapped into place on
/// [`commit`](Self::commit).
///
/// Multi-file artifacts (a checkpoint generation: vertex array, message
/// spills, manifest) cannot be replaced file-by-file without exposing mixed
/// states; staging the whole directory and renaming it makes the set appear
/// all at once. A pre-existing destination is moved aside to `<final>.old`
/// first (directory renames cannot clobber non-empty directories), swapped,
/// then removed — never a mix. A swap that fails puts `.old` back; a crash
/// before the swap leaves the previous tree as `.old`, which the next
/// [`stage`](Self::stage) of the destination puts back; a crash after it
/// leaves the new tree plus removable debris. The commit's fsyncs and
/// renames are gated ops of the surface the tree was staged with.
pub struct StagedDir {
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
    surface: FaultSurface,
}

impl StagedDir {
    pub fn stage(dest: &Path, surface: &FaultSurface) -> io::Result<Self> {
        let tmp = tmp_name(dest);
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        // An earlier commit that crashed before its swap left the only
        // committed copy as `.old`; after its swap, `.old` is debris.
        put_back_old(dest, surface)?;
        let old = old_name(dest);
        if old.exists() {
            fs::remove_dir_all(&old)?;
        }
        fs::create_dir_all(&tmp)?;
        Ok(StagedDir { tmp, dest: dest.to_path_buf(), committed: false, surface: surface.clone() })
    }

    /// The staging directory to write artifact files into.
    pub fn path(&self) -> &Path {
        &self.tmp
    }

    /// Destination the staged tree will be swapped to.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// fsync every file in the staged tree, fsync the tree's directories,
    /// then atomically swap the staged directory into the destination.
    pub fn commit(mut self) -> io::Result<()> {
        let surface = &self.surface;
        sync_tree(&self.tmp, surface)?;

        let old = old_name(&self.dest);
        if self.dest.exists() {
            surface.op("rename-old")?;
            fs::rename(&self.dest, &old)?;
        }
        if let Err(e) = surface.op("rename").and_then(|()| fs::rename(&self.tmp, &self.dest)) {
            // The failed swap keeps the old content, as a failed move aside does.
            let _ = put_back_old(&self.dest, surface);
            return Err(e);
        }
        self.committed = true;
        if old.exists() {
            // The new directory is already in place; failing to clear the
            // old copy must not fail the commit.
            let _ = fs::remove_dir_all(&old);
        }
        if let Some(parent) = self.dest.parent() {
            surface.op("fsync-dir")?;
            fsync_dir(parent)?;
        }
        Ok(())
    }
}

/// Retire a committed directory: rename it to `<dir>.old`, then delete it.
/// Both steps are gated ops (`retire-rename`, `retire-remove`), so a chaos
/// sweep can crash between them. A crash after the rename leaves only
/// `.old` debris, which no reader takes for the artifact and the next
/// retirement sweeps with [`remove_leftover`].
pub fn retire_dir(dir: &Path, surface: &FaultSurface) -> io::Result<()> {
    let old = old_name(dir);
    surface.op("retire-rename")?;
    fs::rename(dir, &old)?;
    remove_leftover(&old, surface)
}

/// Delete `.old` debris a crashed [`retire_dir`] left behind (gated as
/// `retire-remove`).
pub fn remove_leftover(old: &Path, surface: &FaultSurface) -> io::Result<()> {
    surface.op("retire-remove")?;
    match fs::remove_dir_all(old) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

/// Rename `<dest>.old` back to `dest` when `dest` is missing (gated as
/// `rename-back`): the previous tree a commit moved aside before its swap
/// failed or crashed.
fn put_back_old(dest: &Path, surface: &FaultSurface) -> io::Result<()> {
    let old = old_name(dest);
    if old.exists() && !dest.exists() {
        surface.op("rename-back")?;
        fs::rename(&old, dest)?;
    }
    Ok(())
}

fn old_name(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".old");
    path.with_file_name(name)
}

fn sync_tree(dir: &Path, surface: &FaultSurface) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            sync_tree(&path, surface)?;
        } else {
            surface.op("fsync")?;
            File::open(&path)?.sync_all()?;
        }
    }
    surface.op("fsync-dir")?;
    fsync_dir(dir)
}

impl Drop for StagedDir {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_dir_all(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::fault::{FaultState, RetryPolicy};
    use crate::scratch::ScratchDir;

    #[test]
    fn atomic_file_replaces_on_commit() {
        let dir = ScratchDir::new("atomic").unwrap();
        let dest = dir.file("data.bin");
        fs::write(&dest, b"old").unwrap();
        let mut f = AtomicFile::create(&dest).unwrap();
        f.write_all(b"new content").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"old", "dest untouched before commit");
        f.commit().unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"new content");
        assert!(!dir.path().join("data.bin.tmp").exists());
    }

    #[test]
    fn dropped_atomic_file_leaves_dest_alone() {
        let dir = ScratchDir::new("atomic-drop").unwrap();
        let dest = dir.file("data.bin");
        fs::write(&dest, b"old").unwrap();
        {
            let mut f = AtomicFile::create(&dest).unwrap();
            f.write_all(b"half-writ").unwrap();
        }
        assert_eq!(fs::read(&dest).unwrap(), b"old");
        assert!(!dir.path().join("data.bin.tmp").exists(), "tmp removed on drop");
    }

    #[test]
    fn failed_commit_keeps_old_content() {
        let dir = ScratchDir::new("atomic-fail").unwrap();
        let dest = dir.path().join("artifact");
        fs::create_dir(&dest).unwrap();
        fs::write(dest.join("a.bin"), b"old").unwrap();
        // The first rename moves the old tree aside; failing it leaves the
        // destination as it was and the staging removed on drop.
        let faults = FaultState::fail_at_label("rename-old");
        let surface =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());
        let staged = StagedDir::stage(&dest, &surface).unwrap();
        fs::write(staged.path().join("a.bin"), b"new").unwrap();
        assert!(staged.commit().is_err());
        assert!(faults.fired());
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"old", "old tree kept");
        assert!(!dir.path().join("artifact.tmp").exists());
    }

    /// The swap failing after the old tree was moved aside puts it back.
    #[test]
    fn failed_swap_puts_the_old_tree_back() {
        let dir = ScratchDir::new("atomic-fail-swap").unwrap();
        let dest = dir.path().join("artifact");
        fs::create_dir(&dest).unwrap();
        fs::write(dest.join("a.bin"), b"old").unwrap();
        let faults = FaultState::fail_at_label("rename");
        let surface =
            FaultSurface::none().with_faults(Arc::clone(&faults)).with_retry(RetryPolicy::none());
        let staged = StagedDir::stage(&dest, &surface).unwrap();
        fs::write(staged.path().join("a.bin"), b"new").unwrap();
        assert!(staged.commit().is_err());
        assert!(faults.fired());
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"old", "old tree put back");
        assert!(!dir.path().join("artifact.old").exists());
    }

    /// A crash between the two renames leaves the old tree only as `.old`:
    /// the next stage puts it back rather than sweeping it as debris, and
    /// `.old` beside a present destination is still swept.
    #[test]
    fn stage_puts_back_an_old_tree_a_crash_left() {
        let dir = ScratchDir::new("staged-put-back").unwrap();
        let (dest, old) = (dir.path().join("artifact"), dir.path().join("artifact.old"));
        fs::create_dir(&old).unwrap();
        fs::write(old.join("a.bin"), b"committed").unwrap();
        let staged = StagedDir::stage(&dest, &FaultSurface::none()).unwrap();
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"committed", "put back");
        assert!(!old.exists());
        drop(staged);
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"committed", "kept on drop");

        fs::create_dir(&old).unwrap();
        fs::write(old.join("a.bin"), b"debris").unwrap();
        let _staged = StagedDir::stage(&dest, &FaultSurface::none()).unwrap();
        assert!(!old.exists(), "debris beside a present destination is swept");
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"committed");
    }

    #[test]
    fn staged_dir_swaps_whole_tree() {
        let dir = ScratchDir::new("staged").unwrap();
        let dest = dir.path().join("artifact");
        fs::create_dir(&dest).unwrap();
        fs::write(dest.join("a.bin"), b"old-a").unwrap();
        fs::write(dest.join("stale.bin"), b"gone").unwrap();

        let staged = StagedDir::stage(&dest, &FaultSurface::none()).unwrap();
        fs::write(staged.path().join("a.bin"), b"new-a").unwrap();
        fs::create_dir(staged.path().join("sub")).unwrap();
        fs::write(staged.path().join("sub/b.bin"), b"new-b").unwrap();
        staged.commit().unwrap();

        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"new-a");
        assert_eq!(fs::read(dest.join("sub/b.bin")).unwrap(), b"new-b");
        assert!(!dest.join("stale.bin").exists(), "old files do not leak through");
        assert!(!dir.path().join("artifact.tmp").exists());
        assert!(!dir.path().join("artifact.old").exists());
    }

    #[test]
    fn dropped_stage_cleans_up() {
        let dir = ScratchDir::new("staged-drop").unwrap();
        let dest = dir.path().join("artifact");
        {
            let staged = StagedDir::stage(&dest, &FaultSurface::none()).unwrap();
            fs::write(staged.path().join("a.bin"), b"x").unwrap();
        }
        assert!(!dest.exists());
        assert!(!dir.path().join("artifact.tmp").exists());
    }

    #[test]
    fn stale_tmp_from_previous_crash_is_swept() {
        let dir = ScratchDir::new("staged-stale").unwrap();
        let dest = dir.path().join("artifact");
        fs::create_dir_all(dir.path().join("artifact.tmp")).unwrap();
        fs::write(dir.path().join("artifact.tmp/junk.bin"), b"junk").unwrap();

        let staged = StagedDir::stage(&dest, &FaultSurface::none()).unwrap();
        assert!(!staged.path().join("junk.bin").exists(), "stale staging content swept");
        fs::write(staged.path().join("a.bin"), b"fresh").unwrap();
        staged.commit().unwrap();
        assert_eq!(fs::read(dest.join("a.bin")).unwrap(), b"fresh");
    }

    #[test]
    fn write_atomic_shorthand() {
        let dir = ScratchDir::new("atomic-short").unwrap();
        let dest = dir.file("x.txt");
        write_atomic(&dest, b"payload").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"payload");
    }
}
