//! Deterministic, seedable randomness for the simulator.
//!
//! All stochastic behaviour in the reproduction — failure inter-arrival times,
//! which machine a fault lands on, SDC reproduction flakiness, scheduling
//! jitter — is drawn from [`SimRng`]. Using a single ChaCha-based generator
//! per experiment keeps every run reproducible from its seed, which is how we
//! regenerate the paper's tables deterministically.
//!
//! The ChaCha12 block function is implemented inline (the workspace depends
//! on no registry crate, `rand_chacha` included); the stream is deterministic
//! per seed but makes no compatibility claim with any external crate's stream.

use crate::time::SimDuration;

/// The ChaCha constant words ("expand 32-byte k").
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// SplitMix64 step, used to expand a 64-bit seed into the 256-bit ChaCha key.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic random number generator used throughout the workspace.
#[derive(Debug, Clone)]
pub struct SimRng {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; 16],
    cursor: usize,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut expander = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let word = splitmix64(&mut expander);
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        SimRng {
            key,
            counter: 0,
            buffer: [0; 16],
            cursor: 16,
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the ChaCha12 block function for the current counter and refills
    /// the output buffer.
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let initial = state;
        for _ in 0..6 {
            // Double round: column round then diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial.iter()) {
            *word = word.wrapping_add(*init);
        }
        self.buffer = state;
        self.counter = self.counter.wrapping_add(1);
        self.cursor = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Unbiased uniform integer in `[0, span)` (Lemire's multiply-shift with
    /// rejection).
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = (self.next_u64() as u128) * (span as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem (fault injector, scheduler, workload) its own stream while
    /// staying reproducible.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let child_seed = self.next_u64() ^ label.rotate_left(17);
        SimRng::new(child_seed)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: lo must be < hi");
        lo + self.bounded_u64(hi - lo)
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index: len must be > 0");
        self.bounded_u64(len as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: lo must be < hi");
        lo + self.uniform() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed duration with the given mean. Used for
    /// failure inter-arrival times (failures in large fleets are well modelled
    /// as a Poisson process; see §6.2 of the paper).
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = loop {
            let v = self.uniform();
            if v > 0.0 {
                break v;
            }
        };
        let sample = -u.ln() * mean.as_millis() as f64;
        SimDuration::from_millis(sample.round() as u64)
    }

    /// Gaussian sample with the given mean and standard deviation
    /// (Box–Muller; no external distribution crates needed).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "gaussian: std_dev must be non-negative");
        if std_dev == 0.0 {
            return mean;
        }
        let u1: f64 = loop {
            let v = self.uniform();
            if v > 0.0 {
                break v;
            }
        };
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal-ish positive jitter multiplier centred at 1.0 with the
    /// given relative spread; used to perturb modelled durations.
    pub fn jitter(&mut self, relative_std: f64) -> f64 {
        let v = self.gaussian(1.0, relative_std);
        v.max(0.05)
    }

    /// Samples an index from a set of non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index: weights must be non-empty"
        );
        let total: f64 = weights
            .iter()
            .inspect(|w| {
                assert!(
                    **w >= 0.0 && w.is_finite(),
                    "weighted_index: invalid weight"
                )
            })
            .sum();
        assert!(total > 0.0, "weighted_index: weights must not all be zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        // Float round-off can exhaust the loop; return the last non-zero
        // weight's index.
        weights.iter().rposition(|&w| w > 0.0).unwrap()
    }

    /// Binomial sample: number of successes in `n` trials with probability `p`.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Direct simulation is fine at the n (<= a few thousand machines) we use.
        let mut successes = 0;
        for _ in 0..n {
            if self.chance(p) {
                successes += 1;
            }
        }
        successes
    }

    /// Poisson sample with the given mean (Knuth's algorithm; the means we use
    /// are small, e.g. expected failures per day).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson: mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            k += 1;
            p *= self.uniform();
            if p <= l {
                return k - 1;
            }
            if k > 10_000 {
                // Guard against pathological means; fall back to the mean.
                return mean.round() as u64;
            }
        }
    }

    /// Chooses one element of a slice uniformly at random.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Returns `k` distinct indices drawn uniformly from `[0, len)`
    /// (partial Fisher–Yates).
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        assert!(k <= len, "sample_indices: k must be <= len");
        let mut idx: Vec<usize> = (0..len).collect();
        for i in 0..k {
            let j = i + self.index(len - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..32).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        for _ in 0..20 {
            assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = SimRng::new(9);
        let mean = SimDuration::from_secs(100);
        let n = 4_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_millis()).sum();
        let avg = total as f64 / n as f64;
        // Mean of Exp(100s) should land near 100_000ms; allow 10% tolerance.
        assert!((avg - 100_000.0).abs() < 10_000.0, "avg = {avg}");
    }

    #[test]
    fn gaussian_mean_and_spread() {
        let mut rng = SimRng::new(11);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean = {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.2, "std = {}", var.sqrt());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(13);
        let weights = [0.0, 1.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..5_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 5, "counts = {counts:?}");
    }

    #[test]
    fn binomial_bounds() {
        let mut rng = SimRng::new(17);
        assert_eq!(rng.binomial(0, 0.5), 0);
        assert_eq!(rng.binomial(10, 0.0), 0);
        assert_eq!(rng.binomial(10, 1.0), 10);
        let s = rng.binomial(1000, 0.1);
        assert!(s > 50 && s < 170, "s = {s}");
    }

    #[test]
    fn poisson_mean() {
        let mut rng = SimRng::new(19);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| rng.poisson(3.0)).sum();
        let avg = total as f64 / n as f64;
        assert!((avg - 3.0).abs() < 0.15, "avg = {avg}");
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = SimRng::new(23);
        let sampled = rng.sample_indices(50, 10);
        assert_eq!(sampled.len(), 10);
        let mut unique = sampled.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 10);
        assert!(sampled.iter().all(|&i| i < 50));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn jitter_is_positive() {
        let mut rng = SimRng::new(31);
        for _ in 0..1_000 {
            assert!(rng.jitter(0.5) > 0.0);
        }
    }

    #[test]
    fn uniform_is_in_unit_interval_and_well_spread() {
        let mut rng = SimRng::new(37);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u), "u = {u}");
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn bounded_sampling_is_unbiased_at_small_spans() {
        let mut rng = SimRng::new(41);
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[rng.index(3)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 3_000.0).abs() < 300.0, "counts = {counts:?}");
        }
    }
}
