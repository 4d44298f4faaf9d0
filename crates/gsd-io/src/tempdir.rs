//! Minimal self-deleting temporary directory, used by tests, examples and
//! the benchmark harness (kept in-tree to avoid an extra dependency).
//!
//! The guard is constructed immediately after the directory exists and
//! deletes it in `Drop`, so the directory is removed even when the owning
//! test or thread panics (drops run during unwind). Prefixes must be a
//! single path component: a `/` in the prefix would nest the directory
//! under an intermediate parent the guard does not own and would leak on
//! drop, so it is rejected up front.

#![expect(
    clippy::disallowed_methods,
    reason = "a scratch directory is created and removed on the real file system, outside any Storage"
)]

use gsd_trace::Counter;
use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};

static COUNTER: Counter = Counter::new();

/// A directory under the system temp dir that is removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory whose name starts with `prefix`.
    pub fn new(prefix: &str) -> crate::Result<Self> {
        Self::new_in(std::env::temp_dir(), prefix)
    }

    /// Creates a fresh directory under an existing `parent` directory.
    /// Fails (creating nothing) when `parent` does not exist or is not a
    /// directory, so callers cannot accidentally scribble next to a file.
    pub fn new_in(parent: impl AsRef<Path>, prefix: &str) -> crate::Result<Self> {
        if prefix.is_empty() || prefix.contains(['/', '\\']) {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!("temp dir prefix must be one path component: {prefix:?}"),
            ));
        }
        let parent = parent.as_ref();
        if !parent.is_dir() {
            return Err(Error::new(
                ErrorKind::NotFound,
                format!("temp dir parent is not a directory: {}", parent.display()),
            ));
        }
        let id = COUNTER.add(1);
        let path = parent.join(format!("{prefix}-{}-{}", std::process::id(), id));
        std::fs::create_dir(&path)?;
        // From here the guard owns the directory: any later panic in the
        // caller unwinds through this value's Drop and removes it.
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consumes the guard without deleting the directory.
    pub fn into_path(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let dir = TempDir::new("gsd-tempdir-test").unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn two_tempdirs_do_not_collide() {
        let a = TempDir::new("gsd-collide").unwrap();
        let b = TempDir::new("gsd-collide").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn into_path_keeps_directory() {
        let dir = TempDir::new("gsd-keep").unwrap();
        let path = dir.into_path();
        assert!(path.is_dir());
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test: carries the temp path out of catch_unwind"
    )]
    fn cleans_up_when_the_owner_panics() {
        let observed = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let observed2 = observed.clone();
        let result = std::panic::catch_unwind(move || {
            let dir = TempDir::new("gsd-panic").unwrap();
            *observed2.lock().unwrap() = dir.path().to_path_buf();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            panic!("simulated test failure");
        });
        assert!(result.is_err());
        let path = observed.lock().unwrap().clone();
        assert!(!path.as_os_str().is_empty(), "panic happened after create");
        assert!(!path.exists(), "unwind must remove {}", path.display());
    }

    #[test]
    fn nested_prefix_is_rejected_and_leaks_nothing() {
        let err = TempDir::new("gsd-nested/leaf").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        // The would-be intermediate parent must not have been created.
        assert!(!std::env::temp_dir().join("gsd-nested").exists());
        assert!(TempDir::new("").is_err());
    }

    #[test]
    fn new_in_requires_an_existing_directory_parent() {
        let base = TempDir::new("gsd-new-in").unwrap();
        // Happy path: nested under a directory we own.
        let child = TempDir::new_in(base.path(), "child").unwrap();
        assert!(child.path().starts_with(base.path()));
        // Error path: parent is a file.
        let file = base.path().join("plain-file");
        std::fs::write(&file, b"x").unwrap();
        let err = TempDir::new_in(&file, "child").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        // Error path: parent missing entirely.
        assert!(TempDir::new_in(base.path().join("absent"), "child").is_err());
    }
}
