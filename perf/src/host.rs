//! What the runner reads about its own process and host.

use std::path::{Path, PathBuf};

/// Cores the pools size themselves to (`available_parallelism`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Reset the peak resident set size so the next [`peak_rss_mb`] covers
/// only what runs after this call (Linux: writing `5` to
/// `/proc/self/clear_refs`). Returns false where that is unsupported;
/// the peak then includes set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MB (`VmHWM`), if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A scratch directory inside the working directory, removed when
/// dropped (also on an early return or a panic that unwinds).
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<root>/scratch-<pid>`, replacing any leftover.
    pub fn create(root: &Path) -> std::io::Result<Scratch> {
        let dir = root.join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
