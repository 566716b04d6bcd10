//! Synthetic Azure-Functions-like trace generation.

use janus_simcore::rng::SimRng;

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of distinct functions in the trace.
    pub functions: usize,
    /// Total number of invocations to generate.
    pub invocations: usize,
    /// Zipf exponent of the function-popularity distribution. The Azure
    /// trace is strongly head-heavy (top-100 functions ≈ 81.6 % of
    /// invocations); an exponent around 1.2 over ~2000 functions matches it.
    pub popularity_exponent: f64,
    /// Range of the per-function log-normal sigma. The paper reports P50→P99
    /// spreads of up to 100×, i.e. sigmas between roughly 0.6 and 1.6.
    pub sigma_range: (f64, f64),
    /// Range of per-function median execution times in milliseconds
    /// (production functions are mostly sub-second).
    pub median_ms_range: (f64, f64),
    /// Mean cluster-wide arrival rate (invocations per second). Arrivals are
    /// a diurnally modulated Poisson process: the instantaneous rate swings
    /// ±[`diurnal_amplitude`](Self::diurnal_amplitude) around this mean over
    /// two full "days" compressed into the trace span, reproducing the bursty
    /// day/night shape of the Azure production traces.
    pub mean_rps: f64,
    /// Relative amplitude of the diurnal rate modulation, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            functions: 2000,
            invocations: 50_000,
            popularity_exponent: 1.2,
            sigma_range: (0.6, 1.6),
            median_ms_range: (20.0, 900.0),
            mean_rps: 100.0,
            diurnal_amplitude: 0.6,
            seed: 0xA2C5E,
        }
    }
}

impl TraceConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.functions == 0 || self.invocations == 0 {
            return Err("trace needs at least one function and one invocation".into());
        }
        if self.sigma_range.0 < 0.0 || self.sigma_range.1 < self.sigma_range.0 {
            return Err("invalid sigma range".into());
        }
        if self.median_ms_range.0 <= 0.0 || self.median_ms_range.1 < self.median_ms_range.0 {
            return Err("invalid median range".into());
        }
        if !(self.mean_rps.is_finite() && self.mean_rps > 0.0) {
            return Err("mean arrival rate must be positive".into());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err("diurnal amplitude must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// One function invocation in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invocation {
    /// Function identifier (0 = most popular).
    pub function_id: usize,
    /// Observed execution time in milliseconds.
    pub duration_ms: f64,
    /// Arrival timestamp in milliseconds since trace start (nondecreasing in
    /// invocation order).
    pub arrival_ms: f64,
}

/// A synthetic invocation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// All invocations.
    pub invocations: Vec<Invocation>,
    /// Number of distinct functions.
    pub functions: usize,
}

impl Trace {
    /// Generate a trace from the configuration.
    pub fn generate(config: &TraceConfig) -> Result<Self, String> {
        config.validate()?;
        let mut rng = SimRng::seed_from_u64(config.seed);
        // Per-function execution-time parameters. Popular functions are not
        // systematically faster or slower; parameters are drawn independently.
        let medians: Vec<f64> = (0..config.functions)
            .map(|_| rng.uniform_range(config.median_ms_range.0, config.median_ms_range.1))
            .collect();
        let sigmas: Vec<f64> = (0..config.functions)
            .map(|_| rng.uniform_range(config.sigma_range.0, config.sigma_range.1))
            .collect();

        let mut invocations: Vec<Invocation> = (0..config.invocations)
            .map(|_| {
                // zipf returns rank 1..=functions; rank 1 = most popular = id 0.
                let function_id = rng.zipf(config.functions, config.popularity_exponent) - 1;
                let duration_ms = medians[function_id] * rng.lognormal_noise(sigmas[function_id]);
                Invocation {
                    function_id,
                    duration_ms,
                    arrival_ms: 0.0,
                }
            })
            .collect();

        // Arrival timestamps: a non-homogeneous Poisson process, sampled by
        // thinning against the peak rate. Drawn in a second pass so the
        // duration/popularity stream above is unchanged by the rate knobs.
        // The trace span compresses two diurnal cycles, so per-minute load
        // swings the way the Azure dataset's does.
        let expected_span_ms = config.invocations as f64 / config.mean_rps * 1000.0;
        let period_ms = (expected_span_ms / 2.0).max(1.0);
        let peak_rps = config.mean_rps * (1.0 + config.diurnal_amplitude);
        let mut clock_ms = 0.0;
        for inv in &mut invocations {
            loop {
                clock_ms += rng.exponential(1000.0 / peak_rps);
                let phase = std::f64::consts::TAU * clock_ms / period_ms;
                let rate = config.mean_rps * (1.0 + config.diurnal_amplitude * phase.sin());
                if rng.uniform() * peak_rps < rate {
                    break;
                }
            }
            inv.arrival_ms = clock_ms;
        }
        Ok(Trace {
            invocations,
            functions: config.functions,
        })
    }

    /// Inter-arrival gaps in milliseconds: the offset of the first invocation
    /// followed by the gap between each consecutive pair. Empty traces have
    /// no gaps.
    pub fn inter_arrival_gaps_ms(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.invocations
            .iter()
            .map(|inv| {
                let gap = (inv.arrival_ms - prev).max(0.0);
                prev = inv.arrival_ms;
                gap
            })
            .collect()
    }

    /// Realized mean arrival rate (invocations per second) over the trace
    /// span; `None` for traces shorter than two invocations.
    pub fn mean_rate_per_s(&self) -> Option<f64> {
        if self.invocations.len() < 2 {
            return None;
        }
        let span_ms = self.invocations.last()?.arrival_ms;
        (span_ms > 0.0).then(|| self.invocations.len() as f64 / span_ms * 1000.0)
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True when the trace holds no invocations.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Invocation counts per function id.
    pub fn invocation_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.functions];
        for inv in &self.invocations {
            counts[inv.function_id] += 1;
        }
        counts
    }

    /// The `n` most frequently invoked function ids, most popular first.
    pub fn top_functions(&self, n: usize) -> Vec<usize> {
        let counts = self.invocation_counts();
        let mut ids: Vec<usize> = (0..self.functions).collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(counts[id]));
        ids.truncate(n);
        ids
    }

    /// Fraction of all invocations that belong to the `n` most popular
    /// functions (the paper's 81.6 % for n = 100).
    pub fn popular_fraction(&self, n: usize) -> f64 {
        if self.invocations.is_empty() {
            return 0.0;
        }
        let counts = self.invocation_counts();
        let top = self.top_functions(n);
        let popular: usize = top.iter().map(|&id| counts[id]).sum();
        popular as f64 / self.invocations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized_correctly() {
        let cfg = TraceConfig {
            invocations: 5000,
            functions: 300,
            ..TraceConfig::default()
        };
        let a = Trace::generate(&cfg).unwrap();
        let b = Trace::generate(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5000);
        assert!(!a.is_empty());
        assert!(a.invocations.iter().all(|i| i.duration_ms > 0.0));
        assert!(a.invocations.iter().all(|i| i.function_id < 300));
    }

    #[test]
    fn popularity_is_head_heavy_like_azure() {
        let trace = Trace::generate(&TraceConfig {
            invocations: 30_000,
            ..TraceConfig::default()
        })
        .unwrap();
        let frac = trace.popular_fraction(100);
        assert!(frac > 0.6, "top-100 functions should dominate, got {frac}");
        assert!(frac < 0.98, "but not be the entire trace, got {frac}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Trace::generate(&TraceConfig {
            functions: 0,
            ..TraceConfig::default()
        })
        .is_err());
        assert!(Trace::generate(&TraceConfig {
            invocations: 0,
            ..TraceConfig::default()
        })
        .is_err());
        assert!(Trace::generate(&TraceConfig {
            sigma_range: (1.0, 0.5),
            ..TraceConfig::default()
        })
        .is_err());
        assert!(Trace::generate(&TraceConfig {
            median_ms_range: (0.0, 10.0),
            ..TraceConfig::default()
        })
        .is_err());
    }

    #[test]
    fn arrivals_are_monotone_and_match_the_configured_rate() {
        let cfg = TraceConfig {
            invocations: 20_000,
            functions: 200,
            mean_rps: 50.0,
            ..TraceConfig::default()
        };
        let trace = Trace::generate(&cfg).unwrap();
        let mut prev = 0.0;
        for inv in &trace.invocations {
            assert!(inv.arrival_ms >= prev, "arrivals must be nondecreasing");
            prev = inv.arrival_ms;
        }
        let rate = trace.mean_rate_per_s().unwrap();
        assert!(
            (rate - 50.0).abs() / 50.0 < 0.15,
            "realized rate {rate} vs configured 50"
        );
        let gaps = trace.inter_arrival_gaps_ms();
        assert_eq!(gaps.len(), trace.len());
        assert!(gaps.iter().all(|&g| g >= 0.0));
        let reconstructed: f64 = gaps.iter().sum();
        assert!((reconstructed - prev).abs() < 1e-6);
    }

    #[test]
    fn arrival_knobs_do_not_perturb_durations() {
        // The duration/popularity stream is drawn before the arrival pass,
        // so rate knobs only change timestamps — Figure 1a is unaffected.
        let slow = Trace::generate(&TraceConfig {
            invocations: 2000,
            mean_rps: 10.0,
            ..TraceConfig::default()
        })
        .unwrap();
        let fast = Trace::generate(&TraceConfig {
            invocations: 2000,
            mean_rps: 400.0,
            ..TraceConfig::default()
        })
        .unwrap();
        for (a, b) in slow.invocations.iter().zip(&fast.invocations) {
            assert_eq!(a.function_id, b.function_id);
            assert_eq!(a.duration_ms, b.duration_ms);
            assert!(a.arrival_ms >= b.arrival_ms);
        }
        assert!(Trace::generate(&TraceConfig {
            mean_rps: 0.0,
            ..TraceConfig::default()
        })
        .is_err());
        assert!(Trace::generate(&TraceConfig {
            diurnal_amplitude: 1.0,
            ..TraceConfig::default()
        })
        .is_err());
    }

    #[test]
    fn top_functions_are_ordered_by_count() {
        let trace = Trace::generate(&TraceConfig {
            invocations: 20_000,
            functions: 500,
            ..TraceConfig::default()
        })
        .unwrap();
        let counts = trace.invocation_counts();
        let top = trace.top_functions(10);
        for w in top.windows(2) {
            assert!(counts[w[0]] >= counts[w[1]]);
        }
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }
}
