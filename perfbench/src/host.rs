//! The machine under the benchmark: a fixed CPU probe, a fingerprint
//! and peak-memory readings.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the probe loop (~20-40 ms on a current core).
const PROBE_ITERS: u64 = 12_000_000;

/// Times a fixed integer-mixing loop that touches no repository code,
/// in milliseconds. Run before and after each timed phase, it tells a
/// slow host phase from a regression; it never scales a metric.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..black_box(PROBE_ITERS) {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
        x ^= x >> 27;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `nproc`, CPU model and kernel release, for every result.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Logical CPUs available.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
}

impl Fingerprint {
    /// Reads the fingerprint; unknown fields read `unknown`.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Fingerprint {
            nproc: nproc(),
            cpu,
            kernel,
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}
