//! What the harness asks of the operating system: peak memory, and a
//! scratch directory inside the checkout for sockets and the trace file.

use std::path::{Path, PathBuf};

/// Peak resident set (MiB) of this process, from `VmHWM`; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set (MiB) among the children this process has
/// reaped, from `getrusage(RUSAGE_CHILDREN)`; 0 where that is not available.
///
/// `cargo run` replaces itself with the program it built, so the compiler
/// processes it reaped are on this process's books too: read a baseline
/// first, and trust a later reading only if it is larger.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
    // of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // kernel fills on this target, and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}

/// Scratch directory for this process, inside the build directory so that
/// nothing is written outside the checkout. Kept relative to the working
/// directory when it can be: Unix socket paths cap near 100 bytes.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("spine/target"), PathBuf::from);
        let dir = target.join("spine-run").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        if dir.as_os_str().len() > 70 {
            return Err(std::io::Error::other(format!(
                "run directory {} is too long for a Unix socket path; set CARGO_TARGET_DIR to a short relative path",
                dir.display()
            )));
        }
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Where trace files go: next to the per-process directories, so they
    /// outlive the run.
    pub fn trace_file(&self, workload: &str) -> PathBuf {
        self.0.parent().expect("run dir has a parent").join(format!("trace-{workload}.json"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
