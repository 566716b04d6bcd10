//! The online adaptation decision path.

use crate::supervisor::{MissRateSupervisor, SupervisorConfig};
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;
use janus_synthesizer::hints::{HintsBundle, LookupOutcome};
use std::time::Instant;

/// Where an adaptation decision came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// The budget matched a hints-table row.
    TableHit,
    /// The budget exceeded the table's largest range; the cheapest row is
    /// used (counted as a hit — any allocation satisfies such a budget).
    AboveRange,
    /// Table miss: the adapter scales to `Kmax` to protect the SLO (§III-D).
    MissScaleToMax,
}

/// The adapter's answer for one finished function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationDecision {
    /// New CPU allocation for the head function of the remaining
    /// sub-workflow.
    pub head_cores: Millicores,
    /// Provenance of the decision.
    pub source: DecisionSource,
}

/// The adapter times one decision in this many, starting with the first.
/// Two clock reads cost several times the table search they time, so timing
/// every decision would make the measurement most of the decision's cost.
/// The full §V-H census is `overhead_report`'s in janus-core, which times
/// each call itself.
const TIMING_STRIDE: u64 = 64;

/// Adapter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterConfig {
    /// Allocation used when the hints table misses (the paper scales to
    /// 3000 mc, i.e. `Kmax`).
    pub miss_fallback: Millicores,
    /// Miss-rate supervision parameters.
    pub supervisor: SupervisorConfig,
}

impl Default for AdapterConfig {
    fn default() -> Self {
        AdapterConfig {
            miss_fallback: Millicores::new(3000),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// The provider-side adapter for one workflow deployment.
///
/// One adapter instance serves every request of a (workflow, concurrency,
/// weight) deployment; per-request state lives in
/// [`crate::budget::BudgetTracker`]s owned by the platform.
///
/// Decision latency is sampled: the 1st, 65th, 129th, … decisions are timed
/// and the rest are not (see [`Adapter::timed_decisions`]).
#[derive(Debug)]
pub struct Adapter {
    bundle: HintsBundle,
    config: AdapterConfig,
    supervisor: MissRateSupervisor,
    decisions: u64,
    timed_decisions: u64,
    total_decision_time_us: f64,
    max_decision_time_us: f64,
}

impl Adapter {
    /// Create an adapter from the hints bundle submitted by the developer.
    pub fn new(bundle: HintsBundle, config: AdapterConfig) -> Self {
        let supervisor = MissRateSupervisor::new(config.supervisor.clone());
        Adapter {
            bundle,
            config,
            supervisor,
            decisions: 0,
            timed_decisions: 0,
            total_decision_time_us: 0.0,
            max_decision_time_us: 0.0,
        }
    }

    /// Adapter with default configuration.
    pub fn with_defaults(bundle: HintsBundle) -> Self {
        Self::new(bundle, AdapterConfig::default())
    }

    /// The hints bundle currently in use.
    pub fn bundle(&self) -> &HintsBundle {
        &self.bundle
    }

    /// The configuration the adapter was created with.
    pub fn config(&self) -> &AdapterConfig {
        &self.config
    }

    /// Replace the hints bundle (asynchronous regeneration completing,
    /// §III-D). Supervision counters are reset because the new tables
    /// reflect the new execution-time distribution.
    pub fn install_bundle(&mut self, bundle: HintsBundle) {
        self.bundle = bundle;
        self.supervisor.reset();
    }

    /// Make an adaptation decision once `finished` functions of the workflow
    /// have completed and `remaining_budget` is left before the SLO.
    ///
    /// `finished = 0` is the admission-time decision sizing the first
    /// function; `finished = N-1` sizes the last function. One decision in
    /// 64 is timed; the answer never depends on it.
    pub fn decide(&mut self, finished: usize, remaining_budget: SimDuration) -> AdaptationDecision {
        let timed = self.decisions.is_multiple_of(TIMING_STRIDE);
        self.decisions += 1;
        if !timed {
            return self.search(finished, remaining_budget);
        }
        // janus-lint: allow(nondeterminism) — measures the adapter's own decision latency (§V-H); never feeds simulated time
        let started = Instant::now();
        let decision = self.search(finished, remaining_budget);
        self.record_time(started.elapsed().as_secs_f64() * 1e6);
        decision
    }

    /// The table search and its hit/miss supervision: the decision itself.
    #[inline]
    fn search(&mut self, finished: usize, remaining_budget: SimDuration) -> AdaptationDecision {
        let outcome = self
            .bundle
            .table_after(finished)
            .map(|t| t.lookup(remaining_budget))
            .unwrap_or(LookupOutcome::Miss);
        let (head_cores, source) = match outcome {
            LookupOutcome::Hit { head_cores } => (head_cores, DecisionSource::TableHit),
            LookupOutcome::AboveRange { head_cores } => (head_cores, DecisionSource::AboveRange),
            LookupOutcome::Miss => (self.config.miss_fallback, DecisionSource::MissScaleToMax),
        };
        self.supervisor
            .observe(source != DecisionSource::MissScaleToMax);
        AdaptationDecision { head_cores, source }
    }

    /// Count one timed decision that took `us` microseconds.
    #[cold]
    fn record_time(&mut self, us: f64) {
        self.timed_decisions += 1;
        self.total_decision_time_us += us;
        if us > self.max_decision_time_us {
            self.max_decision_time_us = us;
        }
    }

    /// Number of decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of decisions whose latency was measured: one in 64, counting
    /// from the first.
    pub fn timed_decisions(&self) -> u64 {
        self.timed_decisions
    }

    /// Mean latency of the timed decisions, in microseconds (0 before the
    /// first decision).
    pub fn mean_decision_time_us(&self) -> f64 {
        if self.timed_decisions == 0 {
            0.0
        } else {
            self.total_decision_time_us / self.timed_decisions as f64
        }
    }

    /// Worst latency among the timed decisions, in microseconds (0 before
    /// the first decision).
    pub fn max_decision_time_us(&self) -> f64 {
        self.max_decision_time_us
    }

    /// Observed hit rate of the hints tables.
    pub fn hit_rate(&self) -> f64 {
        self.supervisor.hit_rate()
    }

    /// Observed miss rate of the hints tables.
    pub fn miss_rate(&self) -> f64 {
        self.supervisor.miss_rate()
    }

    /// Whether the supervisor currently recommends regenerating the hints
    /// (miss rate above threshold with enough observations, §III-D).
    pub fn regeneration_recommended(&self) -> bool {
        self.supervisor.regeneration_recommended()
    }

    /// Access the supervisor (for wiring a feedback channel).
    pub fn supervisor(&self) -> &MissRateSupervisor {
        &self.supervisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_profiler::percentiles::Percentile;
    use janus_synthesizer::hints::{CondensedHint, HintsTable};

    fn bundle() -> HintsBundle {
        let rows0 = vec![
            CondensedHint {
                start_ms: 2000.0,
                end_ms: 2999.0,
                head_cores: Millicores::new(3000),
                head_percentile: Percentile::P99,
            },
            CondensedHint {
                start_ms: 3000.0,
                end_ms: 7000.0,
                head_cores: Millicores::new(1200),
                head_percentile: Percentile::P50,
            },
        ];
        let rows1 = vec![CondensedHint {
            start_ms: 800.0,
            end_ms: 5000.0,
            head_cores: Millicores::new(1500),
            head_percentile: Percentile::P99,
        }];
        HintsBundle {
            workflow: "IA".to_string(),
            concurrency: 1,
            weight: 1.0,
            tables: vec![
                HintsTable::new(0, 5000, rows0).unwrap(),
                HintsTable::new(1, 4000, rows1).unwrap(),
            ],
        }
    }

    #[test]
    fn hits_return_the_table_allocation() {
        let mut adapter = Adapter::with_defaults(bundle());
        let d = adapter.decide(0, SimDuration::from_millis(3000.0));
        assert_eq!(d.head_cores, Millicores::new(1200));
        assert_eq!(d.source, DecisionSource::TableHit);
        let d = adapter.decide(1, SimDuration::from_millis(2000.0));
        assert_eq!(d.head_cores, Millicores::new(1500));
        assert_eq!(adapter.decisions(), 2);
        assert_eq!(adapter.miss_rate(), 0.0);
        assert_eq!(adapter.hit_rate(), 1.0);
    }

    #[test]
    fn misses_scale_to_kmax_and_are_counted() {
        let mut adapter = Adapter::with_defaults(bundle());
        // Budget below the smallest range: miss.
        let d = adapter.decide(0, SimDuration::from_millis(500.0));
        assert_eq!(d.source, DecisionSource::MissScaleToMax);
        assert_eq!(d.head_cores, Millicores::new(3000));
        // Unknown suffix: miss.
        let d = adapter.decide(7, SimDuration::from_millis(3000.0));
        assert_eq!(d.source, DecisionSource::MissScaleToMax);
        assert!((adapter.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budgets_above_the_table_use_the_cheapest_row() {
        let mut adapter = Adapter::with_defaults(bundle());
        let d = adapter.decide(0, SimDuration::from_millis(60_000.0));
        assert_eq!(d.source, DecisionSource::AboveRange);
        assert_eq!(d.head_cores, Millicores::new(1200));
        assert_eq!(adapter.miss_rate(), 0.0, "above-range is not a miss");
    }

    #[test]
    fn decision_latency_is_tracked_and_small() {
        let mut adapter = Adapter::with_defaults(bundle());
        assert_eq!(adapter.mean_decision_time_us(), 0.0);
        assert_eq!(adapter.max_decision_time_us(), 0.0);
        for i in 0..1000 {
            adapter.decide(0, SimDuration::from_millis(2000.0 + f64::from(i)));
        }
        assert_eq!(adapter.decisions(), 1000);
        assert_eq!(adapter.timed_decisions(), 16, "decisions 1, 65, …, 961");
        assert!(
            adapter.mean_decision_time_us() < 3000.0,
            "mean under 3 ms (§V-H)"
        );
        assert!(adapter.max_decision_time_us() >= adapter.mean_decision_time_us());
        assert!(adapter.mean_decision_time_us() >= 0.0);
    }

    #[test]
    fn sampled_timing_leaves_every_decision_as_the_table_gives_it() {
        let bundle = bundle();
        let mut adapter = Adapter::with_defaults(bundle.clone());
        let (mut hits, mut misses) = (0, 0);
        for i in 0..1000_u32 {
            // Suffixes 0, 1 and an unknown 2; budgets below, inside and
            // above both tables' ranges.
            let finished = (i % 3) as usize;
            let budget = SimDuration::from_millis(f64::from(i % 100) * 100.0);
            let expected = match bundle.table_after(finished).map(|t| t.lookup(budget)) {
                Some(LookupOutcome::Hit { head_cores }) => (head_cores, DecisionSource::TableHit),
                Some(LookupOutcome::AboveRange { head_cores }) => {
                    (head_cores, DecisionSource::AboveRange)
                }
                Some(LookupOutcome::Miss) | None => {
                    (Millicores::new(3000), DecisionSource::MissScaleToMax)
                }
            };
            if expected.1 == DecisionSource::MissScaleToMax {
                misses += 1;
            } else {
                hits += 1;
            }
            let d = adapter.decide(finished, budget);
            assert_eq!((d.head_cores, d.source), expected, "decision {i}");
        }
        assert!(hits > 0 && misses > 0);
        assert_eq!(adapter.supervisor().hits(), hits);
        assert_eq!(adapter.supervisor().misses(), misses);
        assert_eq!(adapter.decisions(), 1000);
        assert_eq!(adapter.timed_decisions(), 16);
    }

    #[test]
    fn regeneration_is_recommended_after_sustained_misses() {
        let mut adapter = Adapter::with_defaults(bundle());
        assert!(!adapter.regeneration_recommended());
        for _ in 0..200 {
            adapter.decide(0, SimDuration::from_millis(100.0)); // always a miss
        }
        assert!(adapter.regeneration_recommended());
        // Installing a regenerated bundle resets supervision.
        adapter.install_bundle(bundle());
        assert!(!adapter.regeneration_recommended());
        assert_eq!(adapter.miss_rate(), 0.0);
    }
}
