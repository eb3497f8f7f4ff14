//! What the numbers were measured on, and the process's own peak memory.

use std::path::Path;

use crate::json::Json;
use crate::metrics::THREADS;

/// Logical CPUs this process may run on.
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The fused walk→train overlap and the two-connection client both assume
/// two cores; with fewer, a run is reported as degraded, not accepted in
/// silence.
pub fn degraded() -> bool {
    logical_cpus() < 2
}

/// The widest vector extension the CPU reports. Detected here, not asked
/// of the `simd` crate, so the fingerprint does not depend on its API.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return "avx2+fma";
        }
        "sse2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar"
    }
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The commit of the checkout the benchmark was built in, when it is a git
/// repository (the driver's checkout is not).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = read_trimmed(git.join("HEAD"));
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read_trimmed(git.join(reference)).or_else(|| {
            let packed = read_trimmed(git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split(' ').next().map(str::to_string)
        }),
        None => head,
    };
    commit.unwrap_or_else(|| "unknown".to_string())
}

/// Host and configuration, for the result file: numbers from different
/// fingerprints are not comparable.
pub fn fingerprint(seed: u64, seconds: f64) -> Json {
    Json::obj([
        ("logical_cpus", Json::from(logical_cpus() as u64)),
        ("simd", Json::from(simd_tier())),
        (
            "kernel",
            Json::Str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("threads", Json::from(THREADS as u64)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("git_commit", Json::Str(git_commit())),
        ("degraded", Json::Bool(degraded())),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_the_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn fingerprint_names_the_host_and_the_settings() {
        let f = fingerprint(7, 10.0);
        assert_eq!(f.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(f.get("threads").and_then(Json::as_u64), Some(THREADS as u64));
        assert!(f.get("logical_cpus").and_then(Json::as_u64).unwrap() >= 1);
        assert!(f.get("simd").and_then(Json::as_str).is_some());
        assert_eq!(f.get("degraded"), Some(&Json::Bool(logical_cpus() < 2)));
    }
}
