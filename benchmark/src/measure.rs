//! Host-side clocks and sample statistics. Linux only: `/proc` and
//! `clock_gettime`.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process, threads that have already
/// exited included. `/proc/self/stat` holds the same figure but in 10 ms ticks,
/// which is 1 % of a pass.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set, kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Wallclock and CPU seconds `f` took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let r = f();
    (r, t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
}

pub fn median(values: &[f64]) -> f64 {
    five_numbers(values)[2]
}

/// `min q1 median q3 max`, quartiles by linear interpolation.
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
    };
    [v[0], at(0.25), at(0.5), at(0.75), v[v.len() - 1]]
}
