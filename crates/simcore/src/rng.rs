//! Deterministic random-number helpers.
//!
//! Every stochastic component of the reproduction (working-set sizes,
//! execution-time noise, interference jitter, trace synthesis) draws from a
//! [`SimRng`] seeded explicitly, so experiments are reproducible bit-for-bit.
//!
//! External RNG crates are not in the allowed dependency set, so the
//! generator itself — xoshiro256++ seeded through SplitMix64, the same
//! construction `rand`'s `SmallRng` family uses — and the handful of
//! distributions the paper's workloads need (log-normal, Zipf-like
//! popularity, bounded integers) are implemented here directly.

/// Deterministic RNG (xoshiro256++) with the distribution samplers used by
/// the workload and trace models.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Create an RNG from an explicit 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, as
        // recommended by the xoshiro authors; guarantees a non-zero state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// Derive an independent child RNG. Used to give each function / request
    /// its own stream so reordering one experiment does not perturb another.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        let seed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-rational mapping onto [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[low, high)`.
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        debug_assert!(high >= low);
        low + (high - low) * self.uniform()
    }

    /// Uniform integer in `[low, high]` (inclusive).
    pub fn int_range(&mut self, low: u64, high: u64) -> u64 {
        debug_assert!(high >= low);
        let span = high - low;
        if span == u64::MAX {
            return self.next_u64();
        }
        low + Self::map_to_range(self.next_u64(), span + 1)
    }

    /// Map one raw [`next_u64`](Self::next_u64) output into `0..range` —
    /// the mapping [`int_range`](Self::int_range) applies — so a caller can
    /// draw once and map the same raw values onto ranges of several sizes.
    pub fn map_to_range(raw: u64, range: u64) -> u64 {
        // Lemire's multiply-shift bounded sampling; the bias is < 2^-64 per
        // draw, far below anything the statistical tests can resolve.
        ((u128::from(raw) * u128::from(range)) >> 64) as u64
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid u1 == 0 which would yield ln(0).
        let u1: f64 = loop {
            let v = self.uniform();
            if v > f64::MIN_POSITIVE {
                break v;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal sample parameterised by the *underlying* normal's `mu` and
    /// `sigma` (i.e. `exp(N(mu, sigma))`). Heavy-tailed execution times in the
    /// Azure traces are well modelled by log-normals.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Log-normal multiplicative noise with median 1.0 and the given sigma.
    /// Multiplying a deterministic service demand by this factor produces the
    /// skewed execution-time distributions the paper observes.
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        self.lognormal(0.0, sigma)
    }

    /// Zipf-distributed rank in `[1, n]` with exponent `s`. Used to synthesise
    /// the heavy-tailed function-popularity distribution of the Azure trace
    /// (top-100 functions account for 81.6 % of invocations).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n >= 1);
        // Inverse-CDF sampling over the normalised harmonic weights. n is at
        // most a few thousand in the trace generator, so the linear scan is
        // cheap compared to the rest of the simulation.
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let target = self.uniform() * norm;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k;
            }
        }
        n
    }

    /// Exponentially distributed sample with the given mean (inter-arrival
    /// times of a Poisson arrival process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = loop {
            let v = self.uniform();
            if v > f64::MIN_POSITIVE {
                break v;
            }
        };
        -mean * u.ln()
    }

    /// Pick one element of a slice uniformly at random.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        let idx = self.int_range(0, items.len() as u64 - 1) as usize;
        &items[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut a = SimRng::seed_from_u64(42);
        let mut fork1 = a.fork(1);
        let mut fork2 = a.fork(2);
        let s1: Vec<f64> = (0..10).map(|_| fork1.uniform()).collect();
        let s2: Vec<f64> = (0..10).map(|_| fork2.uniform()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn uniform_stays_in_the_half_open_interval() {
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v = rng.uniform();
            assert!((0.0..1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_noise_has_median_about_one() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.lognormal_noise(0.5)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        // Heavy tail: P99 well above the median.
        let p99 = samples[(samples.len() as f64 * 0.99) as usize];
        assert!(p99 > 2.0, "p99 {p99}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 1000;
        let draws = 50_000;
        let mut head = 0usize;
        for _ in 0..draws {
            if rng.zipf(n, 1.1) <= 100 {
                head += 1;
            }
        }
        let frac = head as f64 / draws as f64;
        assert!(frac > 0.6, "top-100 fraction {frac} should dominate");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(40.0)).sum::<f64>() / n as f64;
        assert!((mean - 40.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn int_range_is_inclusive() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..2000 {
            let v = rng.int_range(1, 15);
            assert!((1..=15).contains(&v));
            saw_low |= v == 1;
            saw_high |= v == 15;
        }
        assert!(saw_low && saw_high);
    }
}
