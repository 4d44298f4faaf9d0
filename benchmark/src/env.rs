//! The process environment: hermetic configuration, the context every
//! result is stamped with, peak RSS and CPU time.

use std::path::Path;

/// Removes every `GSD_*` variable. The engines read `GSD_PREFETCH*`,
/// `GSD_CKPT_*`, `GSD_VERIFY`, `GSD_ON_CORRUPTION` and `GSD_FAULT_INJECT`
/// through their config defaults; the benchmark builds every config
/// explicitly and must not inherit a caller's switches. Returns the
/// names removed. Called before any thread is started.
pub fn scrub_gsd_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GSD_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Commit of the checkout at `root`, read from `.git` without running
/// git; `"unknown"` when the checkout is not a repository (the driver's
/// is not).
pub fn commit(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(root.join(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's RSS high-water mark of this process, so that
/// graph generation, preprocessing and earlier units do not count
/// against the unit about to run. Where the kernel refuses, the mark
/// keeps the process's maximum.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB: the most memory the process held since the last reset.
fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Runs one unit of work and returns its result with the most memory
/// the process held while it ran.
pub fn with_peak_rss<T>(unit: impl FnOnce() -> T) -> (T, f64) {
    reset_peak_rss();
    let out = unit();
    (out, peak_rss_mb())
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_and_cpu_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_s();
        let mut x = 0u64;
        while cpu_s() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_s() > before);
    }

    #[test]
    fn commit_of_a_plain_directory_is_unknown() {
        assert_eq!(commit(Path::new("/nonexistent")), "unknown");
    }
}
