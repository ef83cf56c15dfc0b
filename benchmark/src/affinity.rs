//! Which CPUs the generator and the process hosting the ecovisor run on.
//!
//! Left to the kernel's scheduler, a saturated server's threads and the
//! generator's threads chase each other across the same few CPUs, and
//! the placement a run happens to settle into moves its throughput by a
//! quarter (README, "Calibration"). So the CPUs are split: the child
//! that hosts the ecovisor gets the upper half, the generator the lower
//! half. The server's capacity is then a fixed set of CPUs of its own,
//! and the generator cannot take cycles from it.

use std::io;
use std::ops::Range;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread. Threads
    /// spawned afterwards inherit the mask.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The generator's and the server's CPUs on a host with `nproc` CPUs.
/// A single-CPU host cannot be split: both get CPU 0.
pub fn split(nproc: usize) -> (Range<usize>, Range<usize>) {
    if nproc < 2 {
        (0..1, 0..1)
    } else {
        (0..nproc / 2, nproc / 2..nproc)
    }
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to `cpus`.
pub fn pin(cpus: Range<usize>) -> io::Result<()> {
    let mut mask = [0u64; 16];
    for cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| io::Error::other(format!("CPU {cpu} is beyond the affinity mask")))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, aligned array of exactly the byte length
    // passed; the kernel only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_are_disjoint_and_cover_the_host() {
        assert_eq!(split(1), (0..1, 0..1));
        assert_eq!(split(2), (0..1, 1..2));
        assert_eq!(split(5), (0..2, 2..5));
        assert_eq!(split(8), (0..4, 4..8));
    }

    #[test]
    fn pinning_shows_in_available_parallelism() {
        // On its own thread: the mask is per thread and must not leak
        // into the other tests.
        std::thread::spawn(|| {
            pin(0..1).expect("CPU 0 exists");
            assert_eq!(
                std::thread::available_parallelism().expect("known").get(),
                1
            );
            assert!(pin(5000..5001).is_err());
        })
        .join()
        .expect("pinned thread");
    }
}
