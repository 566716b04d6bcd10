//! The per-function serving step both loops share.
//!
//! Janus binds late: right before a function starts, the provider sizes it
//! from the policy's decision and the request's remaining budget. That step
//! — size, acquire a pod, place it, time the execution, and at the end
//! release, un-place and feed the observation back — is the same whether
//! requests are replayed back to back ([`crate::executor`]) or arrive on
//! their own schedule ([`crate::openloop`]). [`Fleet`] implements it once;
//! each driver keeps only its clock, its budget arithmetic and its own
//! bookkeeping.

use crate::executor::ExecutorConfig;
use crate::metrics::{ServingMetrics, ServingTally};
use crate::outcome::{CapacityReport, RequestDisposition, RequestOutcome, ServingReport};
use crate::policy::{RequestContext, SizingPolicy};
use janus_observe::{Observer, Record, RecordKind};
use janus_simcore::cluster::Cluster;
use janus_simcore::node::NodeId;
use janus_simcore::pod::PodId;
use janus_simcore::pool::PoolManager;
use janus_simcore::resources::Millicores;
use janus_simcore::time::{SimDuration, SimTime};
use janus_simcore::FunctionId;
use janus_workloads::request::RequestInput;
use janus_workloads::workflow::Workflow;

/// One run's serving state: the warm pool and cluster, the workflow's
/// functions resolved to their ids, the run's tally and the optional
/// observer.
pub(crate) struct Fleet<'a, 'o> {
    workflow: &'a Workflow,
    pub(crate) config: &'a ExecutorConfig,
    pub(crate) pool: PoolManager,
    pub(crate) cluster: Cluster,
    /// Entry `i` is the id of the workflow's function `i`, the same in the
    /// pool and the cluster.
    functions: Vec<FunctionId>,
    /// Flushed into the run's metrics when the fleet is dropped.
    pub(crate) tally: ServingTally<'a>,
    pub(crate) observer: Option<&'o mut dyn Observer>,
}

/// What [`Fleet::start`] decided and produced for one function.
pub(crate) struct Started {
    /// The allocation the function runs at.
    pub(crate) size: Millicores,
    /// The pod it runs on.
    pub(crate) pod: PodId,
    /// The node the pod was placed on (`None` only if no node could take
    /// it even overcommitted).
    pub(crate) node: Option<NodeId>,
    /// Execution time on that node.
    pub(crate) exec: SimDuration,
    /// Startup delay that counts against the request (zero when the config
    /// excludes startup delays).
    pub(crate) startup: SimDuration,
}

impl<'a, 'o> Fleet<'a, 'o> {
    /// A fresh pool and cluster from `config`, with `workflow`'s functions
    /// resolved in workflow order, so both tables issue the same ids.
    pub(crate) fn new(
        workflow: &'a Workflow,
        config: &'a ExecutorConfig,
        metrics: Option<&'a ServingMetrics>,
        observer: Option<&'o mut dyn Observer>,
    ) -> Self {
        let mut pool = PoolManager::new(config.pool.clone());
        // janus-lint: allow(unwrap-discipline) — the builder validated this exact config before the run started
        let mut cluster = Cluster::new(&config.cluster).expect("validated cluster config");
        let functions = workflow
            .functions()
            .iter()
            .map(|function| {
                let id = pool.function_id(function.name());
                assert_eq!(
                    cluster.function_id(function.name()),
                    id,
                    "a fresh pool and cluster resolve one workflow alike"
                );
                id
            })
            .collect();
        Fleet {
            workflow,
            config,
            pool,
            cluster,
            functions,
            tally: ServingTally::new(metrics),
            observer,
        }
    }

    /// The context the policy sees for request `request_id`.
    pub(crate) fn context(&self, request_id: u64) -> RequestContext {
        RequestContext {
            request_id,
            slo: self.config.slo,
            concurrency: self.config.concurrency,
            workflow_len: self.workflow.len(),
        }
    }

    // `start`, `finish` and `served` are inlined into each driver's loop,
    // where this code lived before it was shared: as calls, they read about
    // 3% lower `sim_req_per_ref` on perfbench's `paper_closed` (2-core host).

    /// Start function `index` of `request` at `now`, with `remaining` of the
    /// request's budget left: size it, acquire a pod and place it, and time
    /// its execution at the co-location degree of the node it lands on.
    #[inline(always)]
    pub(crate) fn start(
        &mut self,
        policy: &mut dyn SizingPolicy,
        request: &RequestInput,
        index: usize,
        remaining: SimDuration,
        now: SimTime,
    ) -> Started {
        let size = policy
            .size_next(&self.context(request.id), index, remaining)
            .clamp_to(Millicores::new(1), self.config.cluster.node_capacity);
        let id = self.functions[index];
        let acquisition = self.pool.acquire_id(id);
        // The acquired pod is never placed: `finish` always un-places it.
        let (node, overcommitted) = match self.cluster.place_id(acquisition.pod, id, size) {
            Ok(node) => (Some(node), false),
            // Saturated cluster: overcommit the least-loaded node rather
            // than dropping the request. The pod runs, but it contends —
            // overload shows up as interference, not as free capacity. A
            // closed loop never gets here: it places one pod at a time,
            // clamped to fit a node.
            Err(_) => (
                self.cluster
                    .place_overcommitted_id(acquisition.pod, id, size)
                    .ok(),
                true,
            ),
        };
        emit!(
            self.observer,
            now,
            RecordKind::Placement {
                request: request.id,
                function: index,
                overcommitted,
            }
        );
        // The pod's co-location degree, read off the node it just landed on
        // (the pod counts itself; an unplaced pod runs alone).
        let colocated = node.map_or(1, |node| self.cluster.function_count_id(node, id).max(1));
        let exec = self.workflow.functions()[index].execution_time(
            size,
            self.config.concurrency,
            request.factor(index),
            colocated,
            &self.config.interference,
        );
        let startup = if self.config.count_startup_delays {
            acquisition.startup_delay
        } else {
            SimDuration::ZERO
        };
        if acquisition.startup_delay > SimDuration::ZERO {
            self.tally.cold_starts += 1;
            // `delay` is the startup time that counts against latency
            // (zero when the config excludes startup delays), matching the
            // span builder's phase accounting.
            emit!(
                self.observer,
                now,
                RecordKind::ColdStart {
                    request: request.id,
                    function: index,
                    delay: startup,
                }
            );
        }
        emit!(
            self.observer,
            now,
            RecordKind::ExecStart {
                request: request.id,
                function: index,
            }
        );
        Started {
            size,
            pod: acquisition.pod,
            node,
            exec,
            startup,
        }
    }

    /// Finish function `index` of request `request_id` at `now`: the pod
    /// that ran it for `exec` goes back to the warm pool and leaves the
    /// cluster (idle warm pods must not count towards co-location, and the
    /// cluster allocation must not leak into a later recycle), and the
    /// policy observes the execution time.
    #[inline(always)]
    pub(crate) fn finish(
        &mut self,
        policy: &mut dyn SizingPolicy,
        request_id: u64,
        index: usize,
        pod: PodId,
        exec: SimDuration,
        now: SimTime,
    ) {
        self.pool.release(pod, now);
        let _ = self.cluster.remove(pod);
        policy.on_complete(&self.context(request_id), index, exec);
        self.tally.function(exec);
        emit!(
            self.observer,
            now,
            RecordKind::ExecEnd {
                request: request_id,
                function: index,
                exec,
            }
        );
    }

    /// The outcome of a request whose last function finished at `now`,
    /// tallied and offered to the observer.
    #[inline(always)]
    pub(crate) fn served(
        &mut self,
        request_id: u64,
        e2e: SimDuration,
        allocations: Vec<Millicores>,
        function_latencies: Vec<SimDuration>,
        now: SimTime,
    ) -> RequestOutcome {
        let outcome = RequestOutcome {
            request_id,
            disposition: RequestDisposition::Served,
            e2e,
            allocations,
            function_latencies,
            slo_met: e2e <= self.config.slo,
            adaptation_misses: 0,
        };
        self.tally.served(&outcome);
        emit!(
            self.observer,
            now,
            RecordKind::Completion {
                request: request_id,
                e2e,
                slo_met: outcome.slo_met,
            }
        );
        outcome
    }
}

/// The report of one run of `policy` over `workflow`.
pub(crate) fn report(
    policy: &dyn SizingPolicy,
    workflow: &Workflow,
    config: &ExecutorConfig,
    outcomes: Vec<RequestOutcome>,
    capacity: Option<CapacityReport>,
) -> ServingReport {
    ServingReport {
        policy: policy.name().to_string(),
        workflow: workflow.name().to_string(),
        concurrency: config.concurrency,
        slo: config.slo,
        outcomes,
        capacity,
    }
}
