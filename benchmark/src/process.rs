//! CPU time and peak memory of another process, read by the benchmark
//! (the program under test is not asked).
//!
//! CPU time is the process's CPU-time clock (`clock_gettime(2)` on the
//! clock id `clock_getcpuclockid(3)` derives from a pid): the
//! scheduler's own nanosecond account of every thread of the process.
//! `utime + stime` in `/proc/<pid>/stat` counts the same thing in 10 ms
//! ticks — a quarter-second slice would be good to 4 % and a handful of
//! slices would read the same number run after run — and
//! `/proc/<pid>/schedstat` reads 0 on this kernel.

use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// The kernel's `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`.
fn cpu_clock_of(pid: u32) -> i32 {
    const CPUCLOCK_SCHED: i32 = 2;
    (!(pid as i32) << 3) | CPUCLOCK_SCHED
}

/// CPU seconds consumed so far by `pid`, all threads.
pub fn cpu_s(pid: u32) -> io::Result<f64> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, exclusively borrowed `timespec` of the
    // layout every 64-bit Linux ABI uses (two `long`s); the kernel
    // writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(cpu_clock_of(pid), &mut now) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(now.tv_sec as f64 + now.tv_nsec as f64 / 1e9)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Peak resident set (`VmHWM`) in MiB out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> io::Result<f64> {
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or_else(|| invalid("status has no VmHWM in kB"))?;
    Ok(kib as f64 / 1024.0)
}

/// Peak resident set of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    parse_status_hwm_mib(&std::fs::read_to_string(format!("/proc/{pid}/status"))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_hwm_is_read_in_mib() {
        let status = "Name:\tecobench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status).expect("parses"), 5.0);
        assert!(parse_status_hwm_mib("Name:\tx\n").is_err());
    }

    #[test]
    fn cpu_clock_counts_work_done_and_nothing_else() {
        let pid = std::process::id();
        let before = cpu_s(pid).expect("own CPU clock");
        let spun = std::time::Instant::now();
        while spun.elapsed().as_millis() < 30 {
            std::hint::black_box(spun);
        }
        let used = cpu_s(pid).expect("own CPU clock") - before;
        // This thread spun for 30 ms; other test threads may add to it.
        assert!(used >= 0.025, "{used}");
        assert!(cpu_s(4_000_000).is_err(), "no such process");
        assert!(peak_rss_mib(pid).expect("status") > 0.0);
    }
}
