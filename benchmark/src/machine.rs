//! What the machine was doing while the benchmark ran: two fixed
//! kernels timed before and after every run, the process's CPU clock,
//! and the core count. None of it touches the engine.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SPIN_ITERATIONS: u64 = 40_000_000;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU time of the whole process (every thread, ended
/// ones included) in milliseconds, at nanosecond resolution; `None`
/// where the clock is not available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ms() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which `std` already
    // links; `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux ABI gives it, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ms() -> Option<f64> {
    None
}

/// One calibration reading.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Milliseconds for the fixed integer spin kernel (best of three).
    pub calib_ms: f64,
    /// Bandwidth of summing an array far larger than the caches (best of
    /// three), GB/s.
    pub mem_bw_gb_s: f64,
}

/// Time the two fixed kernels, the second over `sum_bytes` of memory.
/// The best of three is the least disturbed reading; the comparison of
/// two readings is what flags disturbance.
pub fn calibrate(sum_bytes: usize) -> Calibration {
    let calib_ms = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(black_box(SPIN_ITERATIONS)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let data = vec![1u64; sum_bytes / 8];
    let sum_s = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(
                black_box(&data)
                    .iter()
                    .copied()
                    .fold(0u64, u64::wrapping_add),
            );
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    Calibration {
        calib_ms,
        mem_bw_gb_s: sum_bytes as f64 / 1e9 / sum_s,
    }
}

/// Iterations of one clock probe: ~40 µs, two per reading.
const PROBE_ITERATIONS: u64 = 20_000;

/// The pace of the spin kernel — nanoseconds per iteration — at the
/// clock this sandbox's cores usually run at. The cores switch between
/// that clock and one about a quarter faster for minutes at a time
/// (turbo, when the host's other tenants are idle), which moves every
/// CPU-bound time by as much. Times are therefore reported at this
/// reference pace: what was measured, times `REFERENCE_PACE_NS` ÷ the
/// pace probed beside it.
pub const REFERENCE_PACE_NS: f64 = 1.82;

/// The core's clock right now, as the spin kernel's nanoseconds per
/// iteration. A dependent chain of one-cycle operations takes a fixed
/// number of cycles whatever else the core is doing, so its pace is the
/// cycle time. The shorter of two readings: an interrupt can lengthen a
/// reading, nothing can shorten one.
pub fn clock_pace_ns() -> f64 {
    (0..2)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(black_box(PROBE_ITERATIONS)));
            t0.elapsed().as_nanos() as f64 / PROBE_ITERATIONS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// What a timed section took, at the reference pace.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall milliseconds at the reference pace. Time the process spent
    /// off the CPU (waiting for the disk) does not depend on the clock
    /// and is counted as measured.
    pub wall_ms: f64,
    /// CPU milliseconds of the whole process, worker threads included,
    /// at the reference pace; `wall_ms` where there is no CPU clock.
    pub cpu_ms: f64,
    /// Wall milliseconds as measured.
    pub raw_wall_ms: f64,
    /// Reference pace ÷ probed pace: above 1 on a faster clock.
    pub clock_scale: f64,
}

/// Time `f`, probing the clock before and after. The faster of the two
/// probes is taken: if the clock changed in between, the section is
/// charged too much rather than too little, which keeps such samples
/// out of the low percentiles the metrics are built from.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let pace_before = clock_pace_ns();
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    let out = f();
    let raw_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let raw_cpu_ms = match (cpu0, process_cpu_ms()) {
        (Some(c0), Some(c1)) => c1 - c0,
        _ => raw_wall_ms,
    };
    let clock_scale = REFERENCE_PACE_NS / pace_before.min(clock_pace_ns());
    let waited_ms = (raw_wall_ms - raw_cpu_ms).max(0.0);
    (
        out,
        Timing {
            wall_ms: (raw_wall_ms - waited_ms) * clock_scale + waited_ms,
            cpu_ms: raw_cpu_ms * clock_scale,
            raw_wall_ms,
            clock_scale,
        },
    )
}

/// A dependent xorshift chain: no memory traffic, nothing to vectorize.
fn spin(iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Largest relative change between two calibrations.
pub fn drift(before: &Calibration, after: &Calibration) -> f64 {
    let rel = |a: f64, b: f64| (b - a).abs() / a;
    rel(before.calib_ms, after.calib_ms).max(rel(before.mem_bw_gb_s, after.mem_bw_gb_s))
}

/// Filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mounts` (`"unknown"` when that cannot be read).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut f = line.split_ascii_whitespace();
        let (Some(_dev), Some(mount), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), ty));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, ty)| ty.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_monotonic() {
        let Some(a) = process_cpu_ms() else {
            return; // not Linux
        };
        black_box(spin(30_000_000));
        let b = process_cpu_ms().expect("second read");
        assert!(b >= a, "{a} then {b}");
    }

    #[test]
    fn drift_is_the_larger_relative_change() {
        let a = Calibration {
            calib_ms: 100.0,
            mem_bw_gb_s: 10.0,
        };
        let b = Calibration {
            calib_ms: 103.0,
            mem_bw_gb_s: 9.0,
        };
        assert!((drift(&a, &b) - 0.10).abs() < 1e-12);
    }
}
