//! One session spec served through the layers' public functions, with
//! set-up (profiling, request generation, policy build) timed apart from
//! serving.
//!
//! This follows `ServingSession::run_in` step for step, so its reports must
//! equal a `ServingSession` run of the same spec; [`check_matches_session`]
//! enforces that.

use crate::cpus::CpuRotation;
use crate::process_cpu_s;
use crate::reference::reference_s;
use crate::trace::Tracer;
use janus_chaos::{FaultContext, FaultRegistry};
use janus_core::experiments::spec::SessionSpec;
use janus_core::platform::capacity::{AdmissionRegistry, AutoscalerRegistry, CapacityContext};
use janus_core::platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_core::platform::metrics::ServingMetrics;
use janus_core::platform::openloop::{
    CapacityControls, OpenLoopArena, OpenLoopConfig, OpenLoopSimulation,
};
use janus_core::profiler::profile::WorkflowProfile;
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::registry::SynthesisSettings;
use janus_core::scenarios::{ScenarioContext, ScenarioRegistry};
use janus_core::simcore::resources::CoreGrid;
use janus_core::simcore::time::SimDuration;
use janus_core::workloads::request::{
    InterArrivalSampler, PoissonGaps, RequestInput, RequestInputGenerator,
};
use janus_core::workloads::workflow::Workflow;
use janus_core::{BuiltPolicy, PolicyContext, PolicyRegistry, PolicyReport};
use janus_observe::{Observer, ObserverContext, ObserverRegistry};

/// The layer a policy's build runs in, as a span name.
fn build_span(policy: &str) -> &'static str {
    match policy {
        "ORION" => "baselines.orion_build",
        "Optimal" => "baselines.optimal_build",
        "GrandSLAM" | "GrandSLAM+" => "baselines.grandslam_build",
        _ => "synthesizer.build",
    }
}

/// Everything a spec needs before its first request is served, except the
/// policies themselves (see [`Prepared::build_policies`]).
pub struct Prepared {
    pub spec: SessionSpec,
    pub id: String,
    pub workflow: Workflow,
    pub slo: SimDuration,
    pub profile: WorkflowProfile,
    pub requests: Vec<RequestInput>,
    exec_config: ExecutorConfig,
    registry: PolicyRegistry,
}

/// Profile the workflow and generate the request set of `spec`.
pub fn prepare(spec: &SessionSpec, id: &str, tracer: &mut Tracer) -> Result<Prepared, String> {
    if spec.tenants.is_some() {
        return Err(format!("{id}: tenant streams are not supported here"));
    }
    // The facade validates the spec and resolves its SLO and workflow.
    let session = spec.builder().build().map_err(|e| format!("{id}: {e}"))?;
    let workflow = session.workflow().clone();
    let slo = session.slo();
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: spec.samples_per_point,
        seed: spec.seed ^ 0x5EED,
        ..ProfilerConfig::default()
    })?;
    let profile = tracer.span("profiler.profile", id, |_| {
        profiler.profile_workflow(&workflow, spec.concurrency)
    });
    let sampler: Box<dyn InterArrivalSampler> = match (&spec.scenario, spec.rps) {
        (Some(name), Some(rps)) => {
            let ctx = ScenarioContext {
                base_rps: rps,
                requests: spec.requests,
                seed: spec.seed,
            };
            ScenarioRegistry::with_builtins()
                .build(name, &ctx)?
                .sampler()
        }
        (None, Some(rps)) => Box::new(PoissonGaps::new(SimDuration::from_millis(1000.0 / rps))),
        (None, None) => Box::new(PoissonGaps::new(SimDuration::ZERO)),
        (Some(_), None) => return Err(format!("{id}: a scenario needs an open loop")),
    };
    let requests = tracer.span("workloads.generate", id, |_| {
        RequestInputGenerator::with_sampler(spec.seed, sampler).generate(&workflow, spec.requests)
    });
    let mut exec_config = ExecutorConfig {
        count_startup_delays: true,
        ..ExecutorConfig::paper_serving(slo, spec.concurrency)
    };
    if let Some(cluster) = &spec.cluster {
        exec_config.cluster = cluster.clone();
    }
    Ok(Prepared {
        spec: spec.clone(),
        id: id.to_string(),
        workflow,
        slo,
        profile,
        requests,
        exec_config,
        registry: PolicyRegistry::with_builtins(),
    })
}

/// One built policy, ready to serve.
pub struct Ready {
    pub name: String,
    pub built: BuiltPolicy,
}

impl Prepared {
    fn context<'a>(&'a self, requests: &'a [RequestInput]) -> PolicyContext<'a> {
        PolicyContext {
            workflow: &self.workflow,
            profile: &self.profile,
            slo: self.slo,
            concurrency: self.spec.concurrency,
            requests,
            grid: CoreGrid::paper_default(),
            interference: &self.exec_config.interference,
            seed: self.spec.seed,
            synthesis: SynthesisSettings {
                weight: 1.0,
                budget_step_ms: self.spec.budget_step_ms,
            },
        }
    }

    /// Build every policy of the spec, each inside a span of its layer.
    pub fn build_policies(&self, tracer: &mut Tracer) -> Result<Vec<Ready>, String> {
        let ctx = self.context(&self.requests);
        let mut ready = Vec::with_capacity(self.spec.policies.len());
        for name in &self.spec.policies {
            let built = tracer.span(build_span(name), &format!("{}/{name}", self.id), |_| {
                self.registry.build(name, &ctx)
            })?;
            ready.push(Ready {
                name: name.clone(),
                built,
            });
        }
        Ok(ready)
    }

    /// Build `policy` against `requests` instead of the prepared set (the
    /// Optimal oracle's build grows with the request count).
    pub fn build_on(&self, policy: &str, requests: &[RequestInput]) -> Result<BuiltPolicy, String> {
        self.registry.build(policy, &self.context(requests))
    }
}

/// What serving one spec produced.
pub struct Served {
    pub reports: Vec<PolicyReport>,
    /// Engine events over all open-loop runs.
    pub events: u64,
    /// Highest engine queue depth over all open-loop runs.
    pub peak_queue_depth: usize,
    /// Host CPU seconds of each policy's serving run, in policy order.
    pub serve_s: Vec<f64>,
    /// Host CPU time of each policy's serving run over that of the
    /// reference kernel run just before it on the same CPU, in policy
    /// order; empty unless serving was pinned.
    pub serve_ref: Vec<f64>,
}

/// Reborrow an owned observer as the hook the serving loops take.
fn observer_hook<'a>(
    observer: &'a mut Option<Box<dyn Observer>>,
) -> Option<&'a mut (dyn Observer + 'a)> {
    match observer.as_deref_mut() {
        Some(o) => Some(o),
        None => None,
    }
}

/// Serve the prepared request set under each ready policy, in order.
/// `observe` attaches the spec's observer, if it names one. With `cpus`,
/// each policy is served pinned to the next CPU in turn and timed against
/// the reference kernel, and the thread is unpinned at the end.
pub fn serve(
    prep: &Prepared,
    ready: Vec<Ready>,
    arena: &mut OpenLoopArena,
    metrics: &ServingMetrics,
    observe: bool,
    mut cpus: Option<&mut CpuRotation>,
    tracer: &mut Tracer,
) -> Result<Served, String> {
    let spec = &prep.spec;
    let cluster = &prep.exec_config.cluster;
    let mut served = Served {
        reports: Vec::with_capacity(ready.len()),
        events: 0,
        peak_queue_depth: 0,
        serve_s: Vec::with_capacity(ready.len()),
        serve_ref: Vec::with_capacity(ready.len()),
    };
    for Ready { name, mut built } in ready {
        let span_id = format!("{}/{name}", prep.id);
        let mut observer = match (&spec.observer, observe) {
            (Some(observer), true) => {
                let ctx = ObserverContext {
                    seed: spec.seed,
                    policy: name.clone(),
                    requests: spec.requests,
                    zones: cluster.zones,
                    slo: prep.slo,
                };
                Some(ObserverRegistry::with_builtins().build(observer, &ctx)?)
            }
            _ => None,
        };
        let reference = match cpus.as_deref_mut() {
            Some(cpus) => {
                cpus.pin_next()?;
                Some(reference_s())
            }
            None => None,
        };
        let started = process_cpu_s();
        let serving = match spec.rps {
            None => tracer.span("executor.serve", &span_id, |_| {
                ClosedLoopExecutor::new(prep.workflow.clone(), prep.exec_config.clone()).run_traced(
                    built.policy.as_mut(),
                    &prep.requests,
                    Some(metrics),
                    observer_hook(&mut observer),
                )
            }),
            Some(rps) => {
                let sim = OpenLoopSimulation::new(
                    prep.workflow.clone(),
                    OpenLoopConfig {
                        slo: prep.slo,
                        concurrency: spec.concurrency,
                        cluster: cluster.clone(),
                        pool: prep.exec_config.pool.clone(),
                        interference: prep.exec_config.interference.clone(),
                        count_startup_delays: true,
                    },
                );
                let controlled =
                    spec.autoscaler.is_some() || spec.admission.is_some() || spec.fault.is_some();
                let serving = if controlled {
                    let capacity_ctx = CapacityContext {
                        base_rps: rps,
                        requests: spec.requests,
                        initial_nodes: cluster.nodes,
                        slo: prep.slo,
                    };
                    let autoscaler_name = spec.autoscaler.as_deref().unwrap_or("static");
                    let admission_name = spec.admission.as_deref().unwrap_or("admit-all");
                    let mut autoscaler = AutoscalerRegistry::with_builtins()
                        .build(autoscaler_name, &capacity_ctx)?;
                    let mut admission =
                        AdmissionRegistry::with_builtins().build(admission_name, &capacity_ctx)?;
                    let faults = match &spec.fault {
                        Some(fault) => {
                            let ctx = FaultContext {
                                seed: spec.seed,
                                initial_nodes: cluster.nodes,
                                zones: cluster.zones,
                                base_rps: rps,
                                requests: spec.requests,
                                slo: prep.slo,
                            };
                            Some(FaultRegistry::with_builtins().build(fault, &ctx)?)
                        }
                        None => None,
                    };
                    let mut serving = tracer.span("openloop.serve", &span_id, |_| {
                        sim.run_traced(
                            built.policy.as_mut(),
                            &prep.requests,
                            arena,
                            Some(metrics),
                            Some(CapacityControls {
                                autoscaler: autoscaler.as_mut(),
                                admission: admission.as_mut(),
                                faults,
                            }),
                            observer_hook(&mut observer),
                        )
                    })?;
                    if let Some(capacity) = serving.capacity.as_mut() {
                        capacity.autoscaler = autoscaler_name.to_string();
                        capacity.admission = admission_name.to_string();
                        capacity.injector = spec.fault.clone();
                    }
                    serving
                } else {
                    tracer.span("openloop.serve", &span_id, |_| {
                        sim.run_traced(
                            built.policy.as_mut(),
                            &prep.requests,
                            arena,
                            Some(metrics),
                            None,
                            observer_hook(&mut observer),
                        )
                    })?
                };
                served.events += arena.events_processed();
                served.peak_queue_depth = served.peak_queue_depth.max(arena.peak_queue_depth());
                serving
            }
        };
        let serve_s = process_cpu_s() - started;
        served.serve_s.push(serve_s);
        if let Some(reference) = reference {
            served.serve_ref.push(serve_s / reference);
        }
        served.reports.push(PolicyReport {
            name,
            mean_decision_time_us: None,
            serving,
            synthesis: built.synthesis,
            flight: observer.as_mut().map(|o| o.finish()),
        });
    }
    if let Some(cpus) = cpus {
        cpus.unpin()?;
    }
    Ok(served)
}

/// Fail unless `reports` equal what a `ServingSession` run of `spec`
/// serves: every outcome, capacity report and flight record.
pub fn check_matches_session(
    spec: &SessionSpec,
    id: &str,
    reports: &[PolicyReport],
) -> Result<(), String> {
    let session = spec
        .builder()
        .run()
        .map_err(|e| format!("{id}: session: {e}"))?;
    if session.policies.len() != reports.len() {
        return Err(format!("{id}: session served a different policy list"));
    }
    for (ours, theirs) in reports.iter().zip(&session.policies) {
        if ours.name != theirs.name
            || ours.serving != theirs.serving
            || ours.flight != theirs.flight
        {
            return Err(format!(
                "{id}: policy {}: set-up-then-serve path differs from ServingSession",
                ours.name
            ));
        }
    }
    Ok(())
}
