//! Sample statistics and process accounting (CPU, page faults, peak RSS).

use std::time::Duration;

/// Nearest-rank quantile of an unsorted sample; `NaN` when empty.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Process-wide resource usage at one instant.
///
/// CPU is user plus system time. Linux derives the user/system split of a
/// process from tick samples and clamps each side to be monotone, so over
/// one phase of a long run either side can read 0; their sum is the exact
/// runtime, and only the sum is reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Microsecond-resolution CPU time and fault counts of the whole process
/// (every thread: the server, the load generator and the kernels).
pub fn usage() -> Usage {
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the C layout of `struct rusage` on 64-bit
    // Linux (two timevals followed by fourteen longs), the pointer is valid
    // for writes of that size, and a zeroed `Rusage` is a valid value, so it
    // may be read whether or not the call filled it in.
    let (rc, ru) = unsafe { (getrusage(RUSAGE_SELF, ru.as_mut_ptr()), ru.assume_init()) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        minor_faults: ru.minflt.max(0) as u64,
    }
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`. On a shared
/// virtual machine, steal is time other tenants took from these CPUs; a
/// record carries its share so noisy runs can be told apart.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn usage_is_monotone() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let d = usage().since(a);
        assert!(d.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
