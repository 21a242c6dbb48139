//! The benchmark's one wall-clock seam: every host-time number in this
//! crate is a difference of two [`now_ns`] readings. Nothing read here ever
//! reaches simulation state (`RunResult` stays a pure function of the seed).

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    #[allow(clippy::disallowed_methods)]
    // fedlps-lint: allow(D2, measuring host wall-clock is the benchmark's job; readings are reported beside RunResult and never fed into it)
    let now = Instant::now();
    let nanos = now.duration_since(*ORIGIN.get_or_init(|| now)).as_nanos();
    u64::try_from(nanos).expect("process outlived 584 years")
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

/// User-mode CPU seconds this process (every thread, exited ones included)
/// has consumed, from `/proc/self/stat`. Resolution is the kernel's
/// `USER_HZ` tick, 10 ms on every Linux ABI.
///
/// CPU time rather than wall-clock is what the benchmark's end-to-end time
/// metrics are built on: see `README.md`, "Why CPU seconds".
pub fn user_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: state is field 3, utime field 14.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(11))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}
