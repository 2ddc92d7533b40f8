//! Filesystem discipline: fsync helpers and crash-safe whole-file
//! writes.

use std::io::{self, Write};
use std::path::Path;

/// Fsync a directory so a rename or file creation inside it is durable.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Write `bytes` to `path` crash-safely: write a sibling temp file,
/// fsync it, rename it over `path`, fsync the parent directory. A crash
/// at any point leaves either the old file or the new one — never a
/// torn mixture.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{}: no parent dir", path.display()))
    })?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    fsync_dir(parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("durable-fsutil-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = temp_dir("aw");
        let path = dir.join("state.bin");
        atomic_write_file(&path, b"one").unwrap();
        atomic_write_file(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("state.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
