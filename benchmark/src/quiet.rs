//! Measuring through a neighbour's noise.
//!
//! The benchmark runs on a small shared virtual machine. Other tenants
//! of the host slow it down in bursts of a few hundred milliseconds,
//! several times a minute, by up to 70 % — and never speed it up (the
//! README shows one replayed day measured 140 times in a row). A mean
//! or a median over the whole window therefore reports how busy the
//! neighbours were. So the window is cut into many short slices, the
//! slices are ranked by how much work they completed, and every number
//! is taken from the [`QUIET_SHARE`] of slices that completed the most:
//! the time the host left the program alone.
//!
//! The rule is the same on both sides of any comparison, and it cannot
//! flatter a change: interference only ever makes a slice slower.

use crate::stats;

/// Share of a window's slices — the fastest — that the end-to-end
/// numbers are taken from. The smaller the share, the steadier the
/// number from run to run (README, "Calibration"); a twentieth still
/// leaves four slices of an eighty-slice window.
pub const QUIET_SHARE: f64 = 0.05;

/// What one slice of a measured window saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Measured seconds in the slice.
    pub seconds: f64,
    /// Requests answered (or replayed) in it.
    pub requests: u64,
    /// Batches those requests travelled in.
    pub batches: u64,
    /// CPU seconds the process hosting the ecovisor used during it.
    pub cpu_s: f64,
    /// Duration in µs of every operation that completed in it.
    pub op_us: Vec<f64>,
}

impl Slice {
    pub fn rate(&self) -> f64 {
        self.requests as f64 / self.seconds
    }
}

/// The numbers of a window's quiet slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// Slices the numbers below come from.
    pub slices: usize,
    /// Median request rate of the quiet slices.
    pub req_per_s: f64,
    /// Median duration of the operations that completed in them.
    pub op_p50_us: f64,
    pub ops: usize,
    /// Their CPU divided by their batches.
    pub cpu_us_per_batch: f64,
    pub batches: u64,
}

/// How many of `n` slices or samples count as quiet: a twentieth, at
/// least one.
fn quiet_count(n: usize) -> usize {
    ((n as f64 * QUIET_SHARE).round() as usize).max(1)
}

/// Summarises the quiet slices of a window. Empty slices (nothing
/// completed) never qualify.
///
/// # Panics
///
/// When no slice completed any work.
pub fn summarise(slices: &[Slice]) -> Quiet {
    let mut ranked: Vec<&Slice> = slices.iter().filter(|s| s.requests > 0).collect();
    assert!(!ranked.is_empty(), "a measured window completed no work");
    ranked.sort_by(|a, b| b.rate().partial_cmp(&a.rate()).expect("rates are finite"));
    ranked.truncate(quiet_count(slices.len()));
    let rates: Vec<f64> = ranked.iter().map(|s| s.rate()).collect();
    let op_us: Vec<f64> = ranked
        .iter()
        .flat_map(|s| s.op_us.iter().copied())
        .collect();
    let batches: u64 = ranked.iter().map(|s| s.batches).sum();
    let cpu_s: f64 = ranked.iter().map(|s| s.cpu_s).sum();
    Quiet {
        slices: ranked.len(),
        req_per_s: stats::median(&rates),
        op_p50_us: stats::median(&op_us),
        ops: op_us.len(),
        cpu_us_per_batch: cpu_s * 1e6 / batches.max(1) as f64,
        batches,
    }
}

/// The same rule for a plain series of timings (idle settlements,
/// restores): the median of the fastest [`QUIET_SHARE`] of them. 0 on
/// no samples.
pub fn fastest(samples: &[f64]) -> f64 {
    let sorted = stats::sorted(samples);
    stats::median(&sorted[..quiet_count(sorted.len()).min(sorted.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(requests: u64, op_us: f64, cpu_s: f64) -> Slice {
        Slice {
            seconds: 0.5,
            requests,
            batches: requests / 8,
            cpu_s,
            op_us: vec![op_us; 3],
        }
    }

    #[test]
    fn numbers_come_from_the_slices_that_completed_the_most() {
        // Forty slices; a neighbour halves the rate of thirty of them.
        let mut slices: Vec<Slice> = (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    slice(8_000 + i, 100.0, 0.4)
                } else {
                    slice(4_000, 200.0, 0.6)
                }
            })
            .collect();
        slices.push(Slice::default()); // a stalled slice never qualifies
        let q = summarise(&slices);
        assert_eq!(q.slices, 2);
        // The two best: 8036 and 8032 requests in half a second.
        assert_eq!(q.req_per_s, 16_068.0);
        assert_eq!(q.op_p50_us, 100.0);
        assert_eq!(q.ops, 6);
        assert_eq!(q.batches, 1004 + 1004);
        assert!((q.cpu_us_per_batch - 0.8e6 / 2008.0).abs() < 1e-9);
    }

    #[test]
    fn a_short_window_still_has_one_quiet_slice() {
        let q = summarise(&[slice(80, 5.0, 0.01), slice(160, 4.0, 0.01)]);
        assert_eq!((q.slices, q.req_per_s), (1, 320.0));
    }

    #[test]
    fn fastest_is_the_median_of_the_quickest_twentieth() {
        // 100 samples: the five quickest are 1..=5.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fastest(&xs), 3.0);
        assert_eq!(fastest(&[7.0, 3.0]), 3.0);
        assert_eq!(fastest(&[]), 0.0);
    }
}
