//! Scratch directories for tests. Each is named with the process id and a
//! counter, so two runs of one test binary at once never share one, and is
//! removed when its guard drops, so a failing test cleans up too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A directory under the temp dir, not yet created, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("bhut_{name}_{}_{n}", std::process::id()));
        // A directory a crashed run left under a reused process id.
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
