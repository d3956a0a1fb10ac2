//! Host-speed adjustment. On a shared host, neighbours slow every core by
//! up to half for seconds at a time, which no amount of repetition inside
//! one run averages out. The benchmark therefore times a fixed kernel of
//! its own (a sort and hash of 20 000 integers, code no program change
//! touches) next to the work it measures, and rescales each measured
//! interval by `NOMINAL_KERNEL_S / kernel time`: the interval as it would
//! have taken on the host running at the speed the kernel is nominally
//! timed at. Raw wall times are printed beside the adjusted ones.

use crate::stats::median;
use std::time::Instant;

/// The kernel's time on an uncontended core of the reference host
/// (Intel Xeon, 2 vCPUs), the fastest of several thousand runs.
pub const NOMINAL_KERNEL_S: f64 = 0.000_36;

/// Kernel samples on either side of an interval that the adjustment's
/// rolling median looks at.
const HALF_WINDOW: usize = 8;

/// Runs the calibration kernel once and returns its duration in seconds:
/// thread CPU time where the platform reports it (so a thread waiting for
/// a core is not mistaken for a slow core), wall time otherwise.
pub fn kernel() -> f64 {
    cpu_time(|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut v: Vec<u32> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        v.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &v {
            h ^= u64::from(*e);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::hint::black_box(h);
    })
    .1
}

/// This thread's CPU time in nanoseconds (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Rescales `intervals[i]`, followed by kernel sample `kernels[i]`, to
/// nominal host speed, using the median kernel time of the samples
/// around it (single samples are bursty).
pub fn adjust(intervals: &[f64], kernels: &[f64]) -> Vec<f64> {
    intervals
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(kernels.len());
            let k = median(&kernels[lo.min(hi)..hi]);
            if k > 0.0 {
                t * NOMINAL_KERNEL_S / k
            } else {
                *t
            }
        })
        .collect()
}

/// Times `f` on this thread and returns its result with its duration
/// adjusted to nominal host speed, calibrating before and after. Like the
/// kernel, `f` is timed in thread CPU time where the platform reports it:
/// the set-ups timed here are short and syscall-heavy, and waiting for a
/// core would otherwise dominate them.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before: Vec<f64> = (0..3).map(|_| kernel()).collect();
    let (value, spent) = cpu_time(f);
    let after: Vec<f64> = (0..3).map(|_| kernel()).collect();
    let k = median(&[before, after].concat());
    (value, spent * NOMINAL_KERNEL_S / k)
}

/// Runs `f` and returns its result and this thread's CPU seconds spent
/// in it, or its wall seconds where CPU time is not reported.
fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    let spent = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
        _ => wall,
    };
    (value, spent)
}
