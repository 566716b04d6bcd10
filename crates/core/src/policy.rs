//! The Janus sizing policy: the provider-side adapter exposed through the
//! platform's [`SizingPolicy`] interface.

use janus_adapter::adapter::Adapter;
use janus_platform::policy::{RequestContext, SizingPolicy};
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;

/// Late-binding sizing policy backed by a hints-table [`Adapter`].
///
/// The platform derives the remaining time budget and calls
/// [`SizingPolicy::size_next`] right before each function starts; the policy
/// simply forwards the (finished-count, budget) pair to the adapter's table
/// search — the entire online decision path of §III-D.
#[derive(Debug)]
pub struct JanusPolicy {
    name: String,
    adapter: Adapter,
}

impl JanusPolicy {
    /// Wrap an adapter. `name` distinguishes the Janus variants
    /// ("Janus", "Janus-", "Janus+") in reports.
    pub fn new(name: impl Into<String>, adapter: Adapter) -> Self {
        JanusPolicy {
            name: name.into(),
            adapter,
        }
    }

    /// The underlying adapter (hit/miss statistics, decision latency).
    pub fn adapter(&self) -> &Adapter {
        &self.adapter
    }

    /// Number of hint-table misses observed so far (the adapter's
    /// supervisor counts them).
    pub fn misses(&self) -> u64 {
        self.adapter.supervisor().misses()
    }
}

impl SizingPolicy for JanusPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_late_binding(&self) -> bool {
        true
    }

    fn size_next(
        &mut self,
        _ctx: &RequestContext,
        index: usize,
        remaining_budget: SimDuration,
    ) -> Millicores {
        self.adapter.decide(index, remaining_budget).head_cores
    }

    fn mean_decision_time_us(&self) -> Option<f64> {
        Some(self.adapter.mean_decision_time_us())
    }

    /// A new adapter over the same bundle and configuration: the decision
    /// counters and the miss-rate supervisor start from zero, because they
    /// carry feedback across requests.
    fn fresh(&self) -> Option<Box<dyn SizingPolicy>> {
        Some(Box::new(JanusPolicy::new(
            self.name.clone(),
            Adapter::new(self.adapter.bundle().clone(), self.adapter.config().clone()),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_adapter::adapter::AdapterConfig;
    use janus_profiler::percentiles::Percentile;
    use janus_synthesizer::hints::{CondensedHint, HintsBundle, HintsTable};

    fn bundle() -> HintsBundle {
        HintsBundle {
            workflow: "IA".to_string(),
            concurrency: 1,
            weight: 1.0,
            tables: vec![
                HintsTable::new(
                    0,
                    100,
                    vec![CondensedHint {
                        start_ms: 2000.0,
                        end_ms: 7000.0,
                        head_cores: Millicores::new(1400),
                        head_percentile: Percentile::P50,
                    }],
                )
                .unwrap(),
                HintsTable::new(
                    1,
                    100,
                    vec![CondensedHint {
                        start_ms: 900.0,
                        end_ms: 6000.0,
                        head_cores: Millicores::new(1100),
                        head_percentile: Percentile::P99,
                    }],
                )
                .unwrap(),
            ],
        }
    }

    fn ctx() -> RequestContext {
        RequestContext {
            request_id: 1,
            slo: SimDuration::from_secs(3.0),
            concurrency: 1,
            workflow_len: 3,
        }
    }

    #[test]
    fn policy_forwards_table_decisions() {
        let mut policy =
            JanusPolicy::new("Janus", Adapter::new(bundle(), AdapterConfig::default()));
        assert!(policy.is_late_binding());
        assert_eq!(policy.name(), "Janus");
        let k0 = policy.size_next(&ctx(), 0, SimDuration::from_secs(3.0));
        assert_eq!(k0, Millicores::new(1400));
        let k1 = policy.size_next(&ctx(), 1, SimDuration::from_millis(2200.0));
        assert_eq!(k1, Millicores::new(1100));
        assert_eq!(policy.misses(), 0);
        assert!(policy.mean_decision_time_us().unwrap() >= 0.0);
    }

    #[test]
    fn misses_scale_to_kmax_and_are_counted() {
        let mut policy =
            JanusPolicy::new("Janus", Adapter::new(bundle(), AdapterConfig::default()));
        let k = policy.size_next(&ctx(), 0, SimDuration::from_millis(100.0));
        assert_eq!(k, Millicores::new(3000));
        // Unknown suffix index is also a miss.
        let k = policy.size_next(&ctx(), 5, SimDuration::from_secs(2.0));
        assert_eq!(k, Millicores::new(3000));
        assert_eq!(policy.misses(), 2);
        assert!(policy.adapter().miss_rate() > 0.0);
    }

    #[test]
    fn fresh_instances_start_with_zeroed_feedback() {
        let mut served =
            JanusPolicy::new("Janus", Adapter::new(bundle(), AdapterConfig::default()));
        served.size_next(&ctx(), 0, SimDuration::from_millis(100.0));
        assert_eq!(served.misses(), 1);
        let mut fresh = served.fresh().expect("Janus makes fresh instances");
        assert_eq!(fresh.name(), "Janus");
        assert_eq!(fresh.mean_decision_time_us(), Some(0.0));
        // Same bundle: the same table decision as the original served.
        let k0 = fresh.size_next(&ctx(), 0, SimDuration::from_secs(3.0));
        assert_eq!(k0, Millicores::new(1400));
    }
}
