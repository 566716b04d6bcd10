//! Per-request outcomes and aggregated serving reports.

use crate::metrics::ServingMetrics;
use janus_simcore::resources::Millicores;
use janus_simcore::stats::{Cdf, StreamingSummary, Summary};
use janus_simcore::time::{SimDuration, SimTime};

/// What happened to a request at the platform's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestDisposition {
    /// Admitted and served to completion.
    Served,
    /// Rejected by admission control at arrival; never executed.
    Shed,
    /// Admitted but lost to a fault (e.g. its node crashed) after the retry
    /// budget was exhausted; partially executed.
    Failed,
}

/// The result of serving one workflow request under one sizing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Request identifier (matches the replayed [`RequestInput`]).
    ///
    /// [`RequestInput`]: janus_workloads::request::RequestInput
    pub request_id: u64,
    /// Whether the request was served or shed at admission.
    pub disposition: RequestDisposition,
    /// End-to-end latency, including startup delays (zero for shed requests).
    pub e2e: SimDuration,
    /// CPU allocation each function actually executed with (head to tail;
    /// empty for shed requests).
    pub allocations: Vec<Millicores>,
    /// Observed execution time of each function (empty for shed requests).
    pub function_latencies: Vec<SimDuration>,
    /// Whether the end-to-end latency met the SLO (`false` for shed
    /// requests, which are accounted separately via
    /// [`ServingReport::shed_rate`], not as SLO violations).
    pub slo_met: bool,
    /// Reserved for this request's hint-table misses. Neither serving loop
    /// fills it yet, so it is always 0; a late-binding policy's misses are
    /// counted by its adapter (`JanusPolicy::misses`).
    pub adaptation_misses: u32,
}

impl RequestOutcome {
    /// The outcome of a request shed by admission control: no execution, no
    /// latency, not an SLO violation.
    pub fn shed(request_id: u64) -> Self {
        RequestOutcome {
            request_id,
            disposition: RequestDisposition::Shed,
            e2e: SimDuration::ZERO,
            allocations: Vec::new(),
            function_latencies: Vec::new(),
            slo_met: false,
            adaptation_misses: 0,
        }
    }

    /// The outcome of an admitted request killed by a fault after its retry
    /// budget ran out: whatever executed is accounted (time spent, CPU the
    /// finished functions ran with), but it is not an SLO violation — failed
    /// requests are reported via [`ServingReport::failed_len`], mirroring how
    /// shed requests are kept out of the served statistics.
    pub fn failed(
        request_id: u64,
        e2e: SimDuration,
        allocations: Vec<Millicores>,
        function_latencies: Vec<SimDuration>,
    ) -> Self {
        RequestOutcome {
            request_id,
            disposition: RequestDisposition::Failed,
            e2e,
            allocations,
            function_latencies,
            slo_met: false,
            adaptation_misses: 0,
        }
    }

    /// True when the request was served (not shed or failed).
    pub fn is_served(&self) -> bool {
        self.disposition == RequestDisposition::Served
    }

    /// Total CPU consumption of the request: the sum of the allocations its
    /// functions ran with — the "CPU (Millicore)" metric of Figure 5.
    pub fn total_cpu(&self) -> Millicores {
        self.allocations.iter().copied().sum()
    }

    /// Fold this finished request into pre-interned serving metrics: one
    /// end-to-end latency sample plus the SLO-violation count. Called by
    /// both serving loops at request completion — the per-event half of the
    /// hot-path contract (no name lookups; see
    /// [`ServingMetrics`]).
    pub fn record_into(&self, metrics: &ServingMetrics) {
        metrics.e2e_ms.record(self.e2e.as_millis());
        if !self.slo_met {
            metrics.slo_violations.incr(1);
        }
    }
}

/// One applied autoscaler action, for determinism checks and event logs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingEvent {
    /// Simulated time the action was applied.
    pub at: SimTime,
    /// Non-retired node count before the action.
    pub from_nodes: usize,
    /// Non-retired node count after the action.
    pub to_nodes: usize,
}

/// Capacity accounting of one open-loop run under elastic control: what the
/// autoscaler and the admission policy did, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityReport {
    /// Autoscaler name the run used.
    pub autoscaler: String,
    /// Admission policy name the run used.
    pub admission: String,
    /// Requests offered to the platform.
    pub generated: usize,
    /// Requests admitted (served to completion or lost to a fault).
    pub admitted: usize,
    /// Requests shed at arrival.
    pub shed: usize,
    /// Admitted requests lost to injected faults after exhausting their
    /// retry budget.
    pub failed: usize,
    /// Fault-interrupted requests that re-enqueued and started over.
    pub retried: usize,
    /// Applied scale-up actions.
    pub scale_ups: usize,
    /// Applied scale-down (drain) actions.
    pub scale_downs: usize,
    /// Every applied scaling action, in simulated-time order.
    pub events: Vec<ScalingEvent>,
    /// Integral of the non-retired node count over simulated time — the
    /// capacity bill of the run.
    pub node_seconds: f64,
    /// Peak non-retired node count.
    pub peak_nodes: usize,
    /// Non-retired node count when the run ended.
    pub final_nodes: usize,
    /// Peak admitted-and-unfinished request count.
    pub peak_inflight: usize,
    /// Idle specialised pods recycled back to the generic pool.
    pub pods_recycled: usize,
    /// Cluster CPU still allocated when the run ended, in millicores. Zero
    /// unless pods leak their cluster allocation (regression guard).
    pub final_allocated_mc: u64,
    /// Fault injector the run was subjected to (`None` for fault-free runs).
    pub injector: Option<String>,
    /// Fault events actually delivered to the fleet.
    pub faults_applied: usize,
    /// Nodes lost to crashes, preemption deadlines and zone outages.
    pub nodes_lost: usize,
}

impl CapacityReport {
    /// Shed fraction of the offered load, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        self.shed as f64 / self.generated as f64
    }
}

/// Aggregated results of serving a request set under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Policy name.
    pub policy: String,
    /// Workflow name.
    pub workflow: String,
    /// Concurrency (batch size).
    pub concurrency: u32,
    /// SLO the requests were served under.
    pub slo: SimDuration,
    /// Per-request outcomes (in request order), shed requests included.
    pub outcomes: Vec<RequestOutcome>,
    /// Capacity accounting, for open-loop runs under elastic control
    /// (`None` for closed loops and plain open loops).
    pub capacity: Option<CapacityReport>,
}

impl ServingReport {
    /// Number of requests accounted for (served **and** shed).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when no requests were accounted for.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Outcomes of requests that were actually served (shed ones excluded).
    pub fn served(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.outcomes.iter().filter(|o| o.is_served())
    }

    /// Number of served requests.
    pub fn served_len(&self) -> usize {
        self.served().count()
    }

    /// Number of requests shed at admission.
    pub fn shed_len(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == RequestDisposition::Shed)
            .count()
    }

    /// Number of admitted requests lost to faults.
    pub fn failed_len(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == RequestDisposition::Failed)
            .count()
    }

    /// Failed fraction of the offered load, in `[0, 1]`.
    pub fn failed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.failed_len() as f64 / self.outcomes.len() as f64
    }

    /// Shed fraction of the offered load, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.shed_len() as f64 / self.outcomes.len() as f64
    }

    fn served_e2e_ms(&self) -> Vec<f64> {
        self.served().map(|o| o.e2e.as_millis()).collect()
    }

    /// Mean per-request CPU consumption in millicores over served requests
    /// (Figure 5 / Table I).
    pub fn mean_cpu_millicores(&self) -> f64 {
        let served = self.served_len();
        if served == 0 {
            return 0.0;
        }
        self.served()
            .map(|o| f64::from(o.total_cpu().get()))
            .sum::<f64>()
            / served as f64
    }

    /// Fraction of **served** requests that violated the SLO (0.0 when
    /// nothing was served; shed requests are reported via
    /// [`shed_rate`](Self::shed_rate), not as violations).
    pub fn slo_violation_rate(&self) -> f64 {
        let served = self.served_len();
        if served == 0 {
            return 0.0;
        }
        self.served().filter(|o| !o.slo_met).count() as f64 / served as f64
    }

    /// End-to-end latency CDF over served requests (Figure 4). Empty when
    /// every request was shed.
    pub fn e2e_cdf(&self) -> Cdf {
        Cdf::from_samples(&self.served_e2e_ms())
    }

    /// End-to-end latency summary statistics over served requests. `None`
    /// when nothing was served.
    pub fn e2e_summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.served_e2e_ms())
    }

    /// Streaming (fixed-memory, approximate-percentile) view of the
    /// end-to-end latencies of served requests — the summary sweep-style
    /// consumers fold across many reports via [`StreamingSummary::merge`]
    /// without buffering every sample again. Empty (zero samples) when
    /// every request was shed.
    pub fn e2e_streaming(&self) -> StreamingSummary {
        let mut summary = StreamingSummary::new();
        for o in self.served() {
            summary.record(o.e2e.as_millis());
        }
        summary
    }

    /// The end-to-end latency of served requests at a given percentile
    /// (e.g. 99.0 for the P99 SLO check). `None` when nothing was served.
    pub fn e2e_percentile(&self, p: f64) -> Option<SimDuration> {
        janus_simcore::stats::percentile(&self.served_e2e_ms(), p).map(SimDuration::from_millis)
    }

    /// Sum of the outcomes' `adaptation_misses`. Neither serving loop fills
    /// that field yet, so this is 0 for every report, Janus's included.
    pub fn total_misses(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.adaptation_misses))
            .sum()
    }

    /// Mean per-request CPU of this report divided by that of `baseline` —
    /// the "normalized by Optimal" presentation used throughout §V.
    pub fn cpu_normalized_by(&self, baseline: &ServingReport) -> f64 {
        let base = baseline.mean_cpu_millicores();
        if base <= f64::EPSILON {
            return f64::INFINITY;
        }
        self.mean_cpu_millicores() / base
    }

    /// Relative resource reduction of this policy versus `other`, normalised
    /// by `optimal` — the quantity reported in Table I:
    /// `(other − self) / optimal`.
    pub fn reduction_vs(&self, other: &ServingReport, optimal: &ServingReport) -> f64 {
        let opt = optimal.mean_cpu_millicores();
        if opt <= f64::EPSILON {
            return 0.0;
        }
        (other.mean_cpu_millicores() - self.mean_cpu_millicores()) / opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, e2e_ms: f64, cpu: &[u32], slo_ms: f64) -> RequestOutcome {
        RequestOutcome {
            request_id: id,
            disposition: RequestDisposition::Served,
            e2e: SimDuration::from_millis(e2e_ms),
            allocations: cpu.iter().map(|&c| Millicores::new(c)).collect(),
            function_latencies: vec![
                SimDuration::from_millis(e2e_ms / cpu.len() as f64);
                cpu.len()
            ],
            slo_met: e2e_ms <= slo_ms,
            adaptation_misses: 0,
        }
    }

    fn report(policy: &str, cpus: &[u32], e2es: &[f64]) -> ServingReport {
        ServingReport {
            policy: policy.to_string(),
            workflow: "IA".to_string(),
            concurrency: 1,
            slo: SimDuration::from_secs(3.0),
            outcomes: e2es
                .iter()
                .enumerate()
                .map(|(i, &e)| outcome(i as u64, e, cpus, 3000.0))
                .collect(),
            capacity: None,
        }
    }

    #[test]
    fn total_cpu_is_the_sum_of_allocations() {
        let o = outcome(0, 2000.0, &[1500, 1200, 1000], 3000.0);
        assert_eq!(o.total_cpu(), Millicores::new(3700));
        assert!(o.slo_met);
    }

    #[test]
    fn report_aggregates_cpu_and_violations() {
        let r = report(
            "janus",
            &[1000, 1000, 1000],
            &[2000.0, 2500.0, 3500.0, 2800.0],
        );
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.mean_cpu_millicores(), 3000.0);
        assert!((r.slo_violation_rate() - 0.25).abs() < 1e-12);
        assert_eq!(r.total_misses(), 0);
        let cdf = r.e2e_cdf();
        assert_eq!(cdf.len(), 4);
        assert!(r.e2e_summary().unwrap().max >= 3500.0);
        assert!(r.e2e_percentile(99.0).unwrap().as_millis() > 3000.0);
    }

    #[test]
    fn normalisation_and_reduction_match_table_1_semantics() {
        let optimal = report("optimal", &[1000, 1000, 1000], &[2000.0]);
        let janus = report("janus", &[1100, 1100, 1100], &[2400.0]);
        let orion = report("orion", &[1400, 1400, 1400], &[2100.0]);
        assert!((janus.cpu_normalized_by(&optimal) - 1.1).abs() < 1e-12);
        // (4200 - 3300) / 3000 = 0.3
        assert!((janus.reduction_vs(&orion, &optimal) - 0.3).abs() < 1e-12);
        let empty = ServingReport {
            policy: "x".into(),
            workflow: "IA".into(),
            concurrency: 1,
            slo: SimDuration::from_secs(3.0),
            outcomes: vec![],
            capacity: None,
        };
        assert_eq!(empty.mean_cpu_millicores(), 0.0);
        assert_eq!(empty.slo_violation_rate(), 0.0);
        assert!(empty.e2e_summary().is_none());
    }

    #[test]
    fn shed_requests_are_excluded_from_latency_and_cpu_statistics() {
        let mut r = report("janus", &[1000, 1000, 1000], &[2000.0, 3500.0]);
        r.outcomes.push(RequestOutcome::shed(2));
        assert_eq!(r.len(), 3);
        assert_eq!(r.served_len(), 2);
        assert_eq!(r.shed_len(), 1);
        assert!((r.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Denominators are served-only: 1 violation of 2 served, not of 3.
        assert!((r.slo_violation_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.mean_cpu_millicores(), 3000.0);
        // The zero-latency shed outcome must not pollute the CDF/summary.
        assert_eq!(r.e2e_cdf().len(), 2);
        assert_eq!(r.e2e_summary().unwrap().count, 2);
        assert!(r.e2e_summary().unwrap().min >= 2000.0);
        assert_eq!(r.e2e_streaming().count(), 2);
    }

    #[test]
    fn all_shed_reports_degrade_to_empty_statistics_not_panics() {
        // Newly reachable via admission control: every request shed.
        let r = ServingReport {
            policy: "x".into(),
            workflow: "IA".into(),
            concurrency: 1,
            slo: SimDuration::from_secs(3.0),
            outcomes: (0..4).map(RequestOutcome::shed).collect(),
            capacity: None,
        };
        assert_eq!(r.len(), 4);
        assert_eq!(r.served_len(), 0);
        assert_eq!(r.shed_rate(), 1.0);
        assert!(r.e2e_cdf().is_empty());
        assert!(r.e2e_summary().is_none());
        assert!(r.e2e_percentile(99.0).is_none());
        assert_eq!(r.e2e_streaming().count(), 0);
        assert_eq!(r.mean_cpu_millicores(), 0.0);
        assert_eq!(r.slo_violation_rate(), 0.0);
        assert!(!r.slo_violation_rate().is_nan());
    }

    #[test]
    fn all_failed_reports_degrade_to_empty_statistics_not_panics() {
        // Newly reachable via fault injection: a total zone loss with no
        // recovery fails every admitted request mid-flight.
        let r = ServingReport {
            policy: "x".into(),
            workflow: "IA".into(),
            concurrency: 1,
            slo: SimDuration::from_secs(3.0),
            outcomes: (0..4)
                .map(|i| {
                    RequestOutcome::failed(
                        i,
                        SimDuration::from_millis(120.0),
                        vec![Millicores::new(1000)],
                        vec![SimDuration::from_millis(120.0)],
                    )
                })
                .collect(),
            capacity: None,
        };
        assert_eq!(r.len(), 4);
        assert_eq!(r.served_len(), 0);
        assert_eq!(r.failed_len(), 4);
        assert_eq!(r.shed_len(), 0);
        assert_eq!(r.failed_rate(), 1.0);
        assert_eq!(r.shed_rate(), 0.0);
        assert!(r.e2e_cdf().is_empty());
        assert!(r.e2e_summary().is_none());
        assert!(r.e2e_percentile(99.0).is_none());
        assert_eq!(r.e2e_streaming().count(), 0);
        assert_eq!(r.mean_cpu_millicores(), 0.0);
        assert_eq!(r.slo_violation_rate(), 0.0);
        assert!(!r.slo_violation_rate().is_nan());
    }

    #[test]
    fn capacity_report_shed_rate_guards_the_empty_run() {
        let mut cap = CapacityReport {
            autoscaler: "static".into(),
            admission: "queue-shed".into(),
            generated: 0,
            admitted: 0,
            shed: 0,
            failed: 0,
            retried: 0,
            scale_ups: 0,
            scale_downs: 0,
            events: vec![],
            node_seconds: 0.0,
            peak_nodes: 1,
            final_nodes: 1,
            peak_inflight: 0,
            pods_recycled: 0,
            final_allocated_mc: 0,
            injector: None,
            faults_applied: 0,
            nodes_lost: 0,
        };
        assert_eq!(cap.shed_rate(), 0.0);
        cap.generated = 10;
        cap.shed = 4;
        cap.admitted = 6;
        assert!((cap.shed_rate() - 0.4).abs() < 1e-12);
    }
}
