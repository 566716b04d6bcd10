//! Closed-loop executor: the evaluation harness of §V.
//!
//! The paper evaluates every policy "over 1000 requests" in a closed loop on
//! a dedicated testbed. The executor replays a pre-generated, policy
//! independent set of [`RequestInput`]s through the workflow:
//!
//! 1. the policy sizes the next function right before it starts (for
//!    early-binding policies that size never depends on the budget),
//! 2. a pod is acquired from the warm-pool manager and placed on the cluster,
//! 3. the function's execution time is produced by the workload model from
//!    the request's pre-drawn random factor, the allocation, the batch size
//!    and the co-location degree on the pod's node,
//! 4. the observed time is fed back to the policy and the remaining budget is
//!    updated.
//!
//! Steps 1–3 and the feedback of step 4 are the per-function step the open
//! loop runs too, implemented once in the crate-private `fleet` module. The
//! executor keeps only what is its own: the clock, which advances by each
//! function's elapsed time, and the running budget, which shrinks by it.
//!
//! Because the random factors are part of the request, two policies replaying
//! the same request set face exactly the same inputs — the comparison is
//! paired, like the paper's.

use crate::fleet::{self, Fleet};
use crate::metrics::ServingMetrics;
use crate::outcome::ServingReport;
use crate::policy::SizingPolicy;
use janus_observe::{Observer, Record, RecordKind};
use janus_simcore::cluster::ClusterConfig;
use janus_simcore::interference::InterferenceModel;
use janus_simcore::pool::PoolConfig;
use janus_simcore::time::{SimDuration, SimTime};
use janus_workloads::request::RequestInput;
use janus_workloads::workflow::Workflow;

/// Configuration of a serving run, closed loop or open loop
/// ([`OpenLoopConfig`](crate::openloop::OpenLoopConfig) is this type).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// End-to-end latency SLO.
    pub slo: SimDuration,
    /// Batch size (concurrency) the requests are served at.
    pub concurrency: u32,
    /// Whether startup (specialisation / cold start) delays count against the
    /// request's budget and end-to-end latency.
    pub count_startup_delays: bool,
    /// Cluster layout.
    pub cluster: ClusterConfig,
    /// Warm-pool manager configuration.
    pub pool: PoolConfig,
    /// Interference model applied during execution.
    pub interference: InterferenceModel,
}

impl ExecutorConfig {
    /// The configuration used by the paper-style serving experiments: a
    /// single large node, warm pools sized for the workflow, startup delays
    /// counted against the SLO.
    pub fn paper_serving(slo: SimDuration, concurrency: u32) -> Self {
        ExecutorConfig {
            slo,
            concurrency,
            count_startup_delays: true,
            cluster: ClusterConfig::default(),
            pool: PoolConfig::default(),
            interference: InterferenceModel::paper_calibrated(),
        }
    }
}

/// Closed-loop workflow executor.
#[derive(Debug)]
pub struct ClosedLoopExecutor {
    workflow: Workflow,
    config: ExecutorConfig,
}

impl ClosedLoopExecutor {
    /// Create an executor for one workflow.
    pub fn new(workflow: Workflow, config: ExecutorConfig) -> Self {
        ClosedLoopExecutor { workflow, config }
    }

    /// The workflow being served.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Replay `requests` under `policy` and aggregate the outcomes.
    pub fn run(&self, policy: &mut dyn SizingPolicy, requests: &[RequestInput]) -> ServingReport {
        self.run_traced(policy, requests, None, None)
    }

    /// [`run`](Self::run), additionally folding every served event into
    /// pre-interned [`ServingMetrics`] handles (resolved once by the caller
    /// at session setup) and offering the per-request lifecycle records to
    /// an optional attached [`Observer`]. The run tallies into a loop-owned
    /// `ServingTally` and flushes it into the handles once, at its end. With
    /// `observer: None` this is exactly the uninstrumented hot path — the
    /// `emit!` sites never construct a record.
    pub fn run_traced(
        &self,
        policy: &mut dyn SizingPolicy,
        requests: &[RequestInput],
        metrics: Option<&ServingMetrics>,
        observer: Option<&mut dyn Observer>,
    ) -> ServingReport {
        let mut fleet = Fleet::new(&self.workflow, &self.config, metrics, observer);
        let mut now = SimTime::ZERO;
        let outcomes = requests
            .iter()
            .map(|request| {
                policy.on_admit(&fleet.context(request.id));
                fleet.tally.requests += 1;
                emit!(
                    fleet.observer,
                    now,
                    RecordKind::Arrival {
                        request: request.id,
                    }
                );
                // The budget left shrinks by each function's elapsed time
                // as the request runs its functions back to back.
                let mut remaining = self.config.slo;
                let mut e2e = SimDuration::ZERO;
                let mut allocations = Vec::with_capacity(self.workflow.len());
                let mut function_latencies = Vec::with_capacity(self.workflow.len());
                for index in 0..self.workflow.len() {
                    let started = fleet.start(policy, request, index, remaining, now);
                    let elapsed = started.exec + started.startup;
                    now += elapsed;
                    fleet.finish(policy, request.id, index, started.pod, started.exec, now);
                    e2e += elapsed;
                    remaining = (remaining - elapsed).saturate();
                    allocations.push(started.size);
                    function_latencies.push(started.exec);
                }
                fleet.served(request.id, e2e, allocations, function_latencies, now)
            })
            .collect();
        fleet::report(policy, &self.workflow, &self.config, outcomes, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedSizingPolicy;
    use janus_simcore::resources::Millicores;
    use janus_workloads::apps::intelligent_assistant;
    use janus_workloads::request::RequestInputGenerator;

    fn requests(n: usize, seed: u64) -> Vec<RequestInput> {
        RequestInputGenerator::new(seed, SimDuration::ZERO).generate(&intelligent_assistant(), n)
    }

    fn executor(slo_secs: f64) -> ClosedLoopExecutor {
        ClosedLoopExecutor::new(
            intelligent_assistant(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(slo_secs), 1),
        )
    }

    #[test]
    fn report_covers_every_request_with_full_allocations() {
        let exec = executor(3.0);
        let mut policy =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        let report = exec.run(&mut policy, &requests(50, 1));
        assert_eq!(report.len(), 50);
        for o in &report.outcomes {
            assert_eq!(o.allocations.len(), 3);
            assert_eq!(o.function_latencies.len(), 3);
            assert_eq!(o.total_cpu(), Millicores::new(9000));
            assert!(o.e2e.as_millis() > 0.0);
        }
        assert_eq!(report.policy, "max");
        assert_eq!(report.mean_cpu_millicores(), 9000.0);
    }

    #[test]
    fn bigger_allocations_yield_lower_latency_and_fewer_violations() {
        let exec = executor(3.0);
        let reqs = requests(300, 2);
        let mut small =
            FixedSizingPolicy::uniform("min", exec.workflow(), Millicores::new(1000)).unwrap();
        let mut large =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        let small_report = exec.run(&mut small, &reqs);
        let large_report = exec.run(&mut large, &reqs);
        assert!(
            large_report.e2e_summary().unwrap().mean < small_report.e2e_summary().unwrap().mean
        );
        assert!(large_report.slo_violation_rate() <= small_report.slo_violation_rate());
        // With everything at Kmin the 3s SLO must be at risk for tail requests.
        assert!(small_report.slo_violation_rate() > 0.0);
        // With everything at Kmax the SLO holds for essentially all requests.
        assert!(large_report.slo_violation_rate() < 0.02);
    }

    #[test]
    fn replaying_the_same_requests_is_deterministic() {
        let exec = executor(3.0);
        let reqs = requests(40, 3);
        let mut p1 =
            FixedSizingPolicy::uniform("a", exec.workflow(), Millicores::new(2000)).unwrap();
        let mut p2 =
            FixedSizingPolicy::uniform("a", exec.workflow(), Millicores::new(2000)).unwrap();
        let r1 = exec.run(&mut p1, &reqs);
        let r2 = exec.run(&mut p2, &reqs);
        assert_eq!(r1, r2);
    }

    #[test]
    fn instrumented_runs_record_through_preinterned_handles() {
        use crate::metrics::ServingMetrics;
        use janus_simcore::metrics::MetricsRegistry;
        let exec = executor(3.0);
        let registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let reqs = requests(50, 1);
        let mut policy =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        let report = exec.run_traced(&mut policy, &reqs, Some(&metrics), None);
        assert_eq!(registry.counter(ServingMetrics::REQUESTS), 50);
        assert_eq!(registry.counter(ServingMetrics::FUNCTIONS), 150);
        assert_eq!(metrics.e2e_ms.count(), 50);
        assert_eq!(metrics.function_ms.count(), 150);
        assert!(registry.counter(ServingMetrics::COLD_STARTS) > 0);
        assert_eq!(
            registry.counter(ServingMetrics::SLO_VIOLATIONS) as f64,
            report.slo_violation_rate() * 50.0
        );
        // The streaming stream agrees with the exact per-request data.
        let streaming = metrics.e2e_ms.snapshot();
        assert!((streaming.mean() - report.e2e_summary().unwrap().mean).abs() < 1e-9);
        // Instrumentation is observation only: the report is bit-identical
        // to an uninstrumented run.
        let mut p2 =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        assert_eq!(exec.run(&mut p2, &reqs), report);
    }

    #[test]
    fn traced_runs_emit_full_lifecycles_without_changing_the_report() {
        use janus_observe::SpanObserver;
        let exec = executor(3.0);
        let reqs = requests(30, 5);
        let mut policy =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        let mut spans = SpanObserver::default();
        let traced = exec.run_traced(&mut policy, &reqs, None, Some(&mut spans));
        let summary = spans.finish().spans.unwrap();
        assert_eq!(summary.arrivals, 30);
        assert_eq!(summary.served, 30);
        assert_eq!(summary.shed + summary.failed, 0);
        // Every request runs the whole 3-function workflow; the rebuilt span
        // phases must agree with the report's own E2E aggregation.
        let mean_e2e = traced.e2e_summary().unwrap().mean;
        assert!((summary.mean_e2e_ms - mean_e2e).abs() < 1e-9);
        assert!(summary.mean_exec_ms > 0.0);
        // Observation is side-effect free on the serving path.
        let mut p2 =
            FixedSizingPolicy::uniform("max", exec.workflow(), Millicores::new(3000)).unwrap();
        assert_eq!(exec.run(&mut p2, &reqs), traced);
    }

    #[test]
    fn startup_delays_can_be_excluded() {
        let reqs = requests(20, 4);
        let with = ClosedLoopExecutor::new(
            intelligent_assistant(),
            ExecutorConfig {
                count_startup_delays: true,
                ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
            },
        );
        let without = ClosedLoopExecutor::new(
            intelligent_assistant(),
            ExecutorConfig {
                count_startup_delays: false,
                ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
            },
        );
        let mut p =
            FixedSizingPolicy::uniform("x", with.workflow(), Millicores::new(2000)).unwrap();
        let r_with = with.run(&mut p, &reqs);
        let mut p =
            FixedSizingPolicy::uniform("x", without.workflow(), Millicores::new(2000)).unwrap();
        let r_without = without.run(&mut p, &reqs);
        assert!(
            r_with.e2e_summary().unwrap().mean >= r_without.e2e_summary().unwrap().mean,
            "counting startup delays can only increase E2E"
        );
    }
}
