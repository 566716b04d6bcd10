//! Hit/miss supervision.
//!
//! "The adapter plays the role as supervisor who carefully monitors the
//! number of table hit/miss rates. If the miss rate exceeds a predefined
//! threshold, the adapter sends feedback to the developer" (§III-A). The
//! default threshold is 1 % (§V-A).

/// Supervisor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Miss-rate threshold above which regeneration is recommended (0.01 in
    /// the paper).
    pub miss_rate_threshold: f64,
    /// Minimum number of observations before the miss rate is considered
    /// meaningful (avoids recommending regeneration after one unlucky
    /// request).
    pub min_observations: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            miss_rate_threshold: 0.01,
            min_observations: 100,
        }
    }
}

/// Counts hits and misses and decides when to recommend regenerating the
/// hints tables.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRateSupervisor {
    config: SupervisorConfig,
    hits: u64,
    misses: u64,
}

impl MissRateSupervisor {
    /// Create a supervisor.
    pub fn new(config: SupervisorConfig) -> Self {
        MissRateSupervisor {
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// Record one lookup outcome.
    pub fn observe(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total observations.
    pub fn observations(&self) -> u64 {
        self.hits + self.misses
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 before any observation).
    pub fn hit_rate(&self) -> f64 {
        let total = self.observations();
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }

    /// Miss rate in `[0, 1]` (0.0 before any observation).
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.hit_rate()
    }

    /// Whether regeneration of the hints tables is recommended.
    pub fn regeneration_recommended(&self) -> bool {
        self.observations() >= self.config.min_observations
            && self.miss_rate() > self.config.miss_rate_threshold
    }

    /// Reset the counters (after installing regenerated tables).
    pub fn reset(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// The configured threshold.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_start_optimistic() {
        let s = MissRateSupervisor::new(SupervisorConfig::default());
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert!(!s.regeneration_recommended());
        assert_eq!(s.observations(), 0);
    }

    #[test]
    fn miss_rate_tracks_observations() {
        let mut s = MissRateSupervisor::new(SupervisorConfig::default());
        for i in 0..200 {
            s.observe(i % 10 != 0); // 10% misses
        }
        assert_eq!(s.observations(), 200);
        assert_eq!(s.hits(), 180);
        assert_eq!(s.misses(), 20);
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
        assert!(s.regeneration_recommended(), "10% > 1% threshold");
    }

    #[test]
    fn regeneration_requires_enough_observations() {
        let mut s = MissRateSupervisor::new(SupervisorConfig {
            miss_rate_threshold: 0.01,
            min_observations: 50,
        });
        for _ in 0..10 {
            s.observe(false);
        }
        assert!(!s.regeneration_recommended(), "only 10 observations");
        for _ in 0..40 {
            s.observe(false);
        }
        assert!(s.regeneration_recommended());
        s.reset();
        assert!(!s.regeneration_recommended());
        assert_eq!(s.observations(), 0);
    }

    #[test]
    fn below_threshold_miss_rates_do_not_trigger() {
        let mut s = MissRateSupervisor::new(SupervisorConfig::default());
        for i in 0..1000 {
            s.observe(i % 200 != 0); // 0.5% misses
        }
        assert!(s.miss_rate() < 0.01);
        assert!(!s.regeneration_recommended());
    }
}
