//! Process and host readings from `/proc`: CPU time, peak resident set,
//! and host steal. All readings are diagnostics of the benchmark process
//! itself or of the host; none touch the library under test.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU seconds consumed by this process so far, all threads
/// included (also those already exited), at nanosecond resolution —
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for per-interval
/// ratios.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Returns the allocator's free heap pages to the kernel, then resets this
/// process's `VmHWM` to its current resident set (writes `5` to
/// `/proc/self/clear_refs`, Linux 4.0+), so the next [`peak_rss_mib`] is
/// the peak of memory in use since now. Without the trim, whether an
/// early burst left tens of MiB of freed result buffers resident decides
/// every later reading of the run. Returns whether the kernel accepted the
/// reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases memory the allocator holds free;
    // it is thread-safe and takes no pointers.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Reads the counters now; zeros when `/proc/stat` is unreadable.
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().next() else {
            return Self::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already included in user.
        Self {
            total: v.iter().take(8).sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor between `self` and
    /// `later`.
    pub fn steal_share_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Online CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= a);
        assert!(peak_rss_mib() > 0.0);
        if reset_peak_rss() {
            let before = peak_rss_mib();
            let big = vec![1u8; 64 << 20];
            std::hint::black_box(&big);
            assert!(peak_rss_mib() >= before + 32.0);
            drop(big);
            reset_peak_rss();
            assert!(peak_rss_mib() < before + 32.0);
        }
        let h = HostCpu::now();
        let share = h.steal_share_until(&HostCpu::now());
        assert!((0.0..=1.0).contains(&share));
        assert!(nproc() >= 1);
    }
}
