//! Seeded, forkable random streams.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed.
//! Components obtain independent substreams by [`SimRng::fork`]ing with a
//! label, so adding randomness to one component never perturbs another —
//! a requirement for the paper's "ten runs with random job arrivals"
//! methodology (§5.1.1) to be replayable.

/// A deterministic random stream.
///
/// Backed by a self-contained xoshiro256++ generator seeded from a root
/// seed plus a label hash (no external RNG dependency — the build is
/// offline), giving stable, independent substreams per component.
///
/// # Example
///
/// ```
/// use simkit::rng::SimRng;
///
/// let mut a = SimRng::from_seed(42).fork("weather");
/// let mut b = SimRng::from_seed(42).fork("weather");
/// assert_eq!(a.unit(), b.unit()); // same seed + label => same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a root stream from a seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            state: expand_seed(seed),
        }
    }

    /// Derives an independent substream for `label`.
    ///
    /// Forking does not consume randomness from `self`, so fork order and
    /// interleaving with draws never changes a substream's contents.
    pub fn fork(&self, label: &str) -> SimRng {
        let mixed = splitmix64(self.seed ^ fnv1a(label));
        SimRng::from_seed(mixed)
    }

    /// Derives an independent substream for an indexed replica (e.g. run 3
    /// of 10).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let mixed = splitmix64(self.seed ^ fnv1a(label) ^ splitmix64(index.wrapping_add(1)));
        SimRng::from_seed(mixed)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard [0, 1) construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty");
        let draw = lo + self.unit() * (hi - lo);
        // Guard against floating-point rounding landing exactly on `hi`.
        if draw >= hi {
            lo
        } else {
            draw
        }
    }

    /// Uniform integer draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform range must be non-empty");
        let range = hi - lo;
        // Lemire's multiply-shift maps 64 random bits onto the range with
        // negligible bias for the range sizes simulations use.
        let wide = u128::from(self.next_u64()) * u128::from(range);
        lo + (wide >> 64) as u64
    }

    /// Standard-normal draw via Box–Muller (no extra dependency needed).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller transform; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Bernoulli draw with probability `p` (clamped into `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponential draw with the given mean (inter-arrival sampling).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.unit();
        -mean * u.ln()
    }
}

/// Expands a 64-bit seed into xoshiro256++ state via splitmix64 (the
/// initialization the xoshiro authors recommend).
fn expand_seed(seed: u64) -> [u64; 4] {
    let mut x = seed;
    let mut state = [0u64; 4];
    for slot in &mut state {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *slot = z ^ (z >> 31);
    }
    state
}

fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let root = SimRng::from_seed(7);
        let mut a = root.fork("solar");
        let mut b = root.fork("carbon");
        // Statistically certain to differ on the first draw.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_stateless() {
        let mut root = SimRng::from_seed(9);
        let before = root.fork("x").next_u64();
        let _ = root.next_u64(); // consume from the root
        let after = root.fork("x").next_u64();
        assert_eq!(before, after, "forking must not depend on root draw state");
    }

    #[test]
    fn indexed_forks_diverge() {
        let root = SimRng::from_seed(11);
        let mut runs: Vec<u64> = (0..5)
            .map(|i| root.fork_indexed("run", i).next_u64())
            .collect();
        runs.dedup();
        assert_eq!(runs.len(), 5);
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_has_right_moments() {
        let mut r = SimRng::from_seed(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn exponential_has_right_mean() {
        let mut r = SimRng::from_seed(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(5.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_rejects_empty_range() {
        SimRng::from_seed(0).uniform(1.0, 1.0);
    }
}
