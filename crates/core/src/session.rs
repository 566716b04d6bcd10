//! One entry point for serving: the [`ServingSession`] builder.
//!
//! A session is the one way to serve policies against a workload, instead of
//! a hand-wired [`ClosedLoopExecutor`] or a hand-wired
//! [`OpenLoopSimulation`]; a paired comparison is a session with several
//! policies:
//!
//! ```
//! use janus_core::session::{Load, ServingSession};
//!
//! let report = ServingSession::builder()
//!     .app(janus_core::workloads::apps::PaperApp::IntelligentAssistant)
//!     .concurrency(1)
//!     .policy("Janus")
//!     .policy("GrandSLAM")
//!     .load(Load::Closed { requests: 50 })
//!     .quick() // test-scale profiling; drop for paper scale
//!     .run()
//!     .expect("session runs");
//! assert_eq!(report.names(), vec!["Janus", "GrandSLAM"]);
//! assert!(report.slo_attainment("Janus").unwrap() >= 0.9);
//! ```
//!
//! Policies are resolved by name through a [`PolicyRegistry`] — by default
//! the built-in seven of the paper; register your own factory on the builder
//! and serve it by name without touching any `janus-*` crate. Every policy in
//! the session replays the *same* request set (paired comparison, as in the
//! paper's evaluation), whether the load is closed- or open-loop.
//!
//! Open-loop sessions additionally choose *when* those requests arrive:
//! [`scenario`](ServingSessionBuilder::scenario) resolves an
//! [`ArrivalProcess`] by name from a [`ScenarioRegistry`] (`"poisson"`,
//! `"diurnal"`, `"bursty"`, `"flash-crowd"`, `"trace-replay"`, or any shape
//! registered with
//! [`register_scenario_fn`](ServingSessionBuilder::register_scenario_fn)).
//! `Load::Open { rps }` without a scenario stays the constant-rate Poisson
//! special case, reproducing the historical request stream bit for bit.

use crate::registry::{
    BuiltPolicy, PolicyContext, PolicyFactory, PolicyRegistry, SynthesisSettings,
};
use janus_chaos::{FaultContext, FaultRegistry};
use janus_observe::{Observer, ObserverContext, ObserverRegistry, ObserverReport};
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry, CapacityContext};
use janus_platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_platform::metrics::ServingMetrics;
use janus_platform::openloop::{CapacityControls, OpenLoopArena, OpenLoopSimulation};
use janus_platform::outcome::ServingReport;
use janus_profiler::profile::WorkflowProfile;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_scenarios::{
    tenant_stream_seed, ArrivalProcess, MergedRequestSource, ScenarioContext, ScenarioRegistry,
};
use janus_simcore::cluster::ClusterConfig;
use janus_simcore::metrics::{MetricsRegistry, MetricsSnapshot};
use janus_simcore::resources::CoreGrid;
use janus_simcore::time::SimDuration;
use janus_synthesizer::synthesizer::SynthesisReport;
use janus_synthesizer::MIN_BUDGET_STEP_MS;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{
    InterArrivalSampler, PoissonGaps, RequestInput, RequestInputGenerator, RequestSource as _,
};
use janus_workloads::workflow::Workflow;
use std::sync::Arc;

/// How requests are offered to the platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: `requests` replayed back-to-back, one in flight at a
    /// time — the paper's evaluation methodology (§V).
    Closed {
        /// Number of requests replayed per policy.
        requests: usize,
    },
    /// Open loop: `requests` arrive as a Poisson process at `rps` requests
    /// per second; several are in flight at once and co-located instances
    /// interfere — the production-shaped extension.
    Open {
        /// Number of requests generated per policy.
        requests: usize,
        /// Mean arrival rate (requests per second).
        rps: f64,
    },
}

impl Load {
    /// Number of requests this load generates.
    pub fn requests(&self) -> usize {
        match *self {
            Load::Closed { requests } | Load::Open { requests, .. } => requests,
        }
    }

    fn mean_inter_arrival(&self) -> Result<SimDuration, String> {
        match *self {
            Load::Closed { .. } => Ok(SimDuration::ZERO),
            Load::Open { rps, .. } => {
                if !(rps.is_finite() && rps > 0.0) {
                    return Err(format!("open-loop rps must be positive, got {rps}"));
                }
                Ok(SimDuration::from_millis(1000.0 / rps))
            }
        }
    }
}

/// One tenant class sharing an open-loop session: `count` independent
/// arrival streams, each drawing the named scenario at `rps` requests per
/// second. Tenant streams are merged with the session's primary stream by
/// next-arrival time (see [`MergedRequestSource`]); every stream derives its
/// own RNG stream from the session seed via [`tenant_stream_seed`], so
/// adding a tenant never perturbs another tenant's draws and the merged run
/// is reproducible bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Number of identical independent streams this tenant contributes.
    pub count: usize,
    /// Arrival-scenario name, resolved from the session's
    /// [`ScenarioRegistry`] (built-ins: `poisson`, `diurnal`, `bursty`,
    /// `flash-crowd`, `trace-replay`).
    pub scenario: String,
    /// Mean arrival rate per stream (requests per second).
    pub rps: f64,
    /// Optional per-tenant end-to-end SLO in milliseconds. The session
    /// serves every request under one SLO, so the *strictest* tenant wins:
    /// the run SLO becomes the minimum of the session SLO and every tenant
    /// SLO present.
    pub slo_ms: Option<f64>,
}

/// Builder for a [`ServingSession`]. Obtain with [`ServingSession::builder`].
#[derive(Debug, Clone)]
pub struct ServingSessionBuilder {
    app: Option<PaperApp>,
    slo: Option<SimDuration>,
    concurrency: u32,
    policies: Vec<String>,
    load: Load,
    /// How an open-loop session decides request arrival times: a scenario
    /// name, resolved from `scenarios` at run time (the registry needs the
    /// load's `rps` as base rate). `None` keeps the constant-rate Poisson
    /// process of `Load::Open { rps }`.
    scenario: Option<String>,
    tenants: Option<Vec<TenantLoad>>,
    cluster: Option<ClusterConfig>,
    autoscaler: Option<String>,
    admission: Option<String>,
    fault: Option<String>,
    observer: Option<String>,
    seed: u64,
    samples_per_point: usize,
    synthesis: SynthesisSettings,
    registry: PolicyRegistry,
    scenarios: ScenarioRegistry,
    autoscalers: AutoscalerRegistry,
    admissions: AdmissionRegistry,
    faults: FaultRegistry,
    observers: ObserverRegistry,
}

impl Default for ServingSessionBuilder {
    fn default() -> Self {
        ServingSessionBuilder {
            app: None,
            slo: None,
            concurrency: 1,
            policies: Vec::new(),
            load: Load::Closed { requests: 1000 },
            scenario: None,
            tenants: None,
            cluster: None,
            autoscaler: None,
            admission: None,
            fault: None,
            observer: None,
            seed: 7,
            samples_per_point: 1000,
            synthesis: SynthesisSettings::default(),
            registry: PolicyRegistry::with_builtins(),
            scenarios: ScenarioRegistry::with_builtins(),
            autoscalers: AutoscalerRegistry::with_builtins(),
            admissions: AdmissionRegistry::with_builtins(),
            faults: FaultRegistry::with_builtins(),
            observers: ObserverRegistry::with_builtins(),
        }
    }
}

impl ServingSessionBuilder {
    /// Serve one of the paper's applications (workflow + default SLO).
    pub fn app(mut self, app: PaperApp) -> Self {
        self.app = Some(app);
        self
    }

    /// End-to-end latency SLO. Defaults to the app's paper SLO.
    pub(crate) fn slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Batch size (concurrency) requests are served at. Default 1.
    pub fn concurrency(mut self, concurrency: u32) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// Add one policy by registered name ("Janus+", "ORION", …). Call
    /// repeatedly to build a paired comparison; order is preserved.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policies.push(name.into());
        self
    }

    /// Add several policies by name.
    pub fn policies<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.policies.extend(names.into_iter().map(Into::into));
        self
    }

    /// Request load. Default: `Load::Closed { requests: 1000 }`.
    pub fn load(mut self, load: Load) -> Self {
        self.load = load;
        self
    }

    /// Drive an open-loop session with a named scenario from the session's
    /// [`ScenarioRegistry`] (built-ins: `poisson`, `diurnal`, `bursty`,
    /// `flash-crowd`, `trace-replay`). The scenario is built with
    /// `Load::Open`'s `rps` as its base rate, so every scenario offers the
    /// same long-run load in a different shape.
    pub fn scenario(mut self, name: impl Into<String>) -> Self {
        self.scenario = Some(name.into());
        self
    }

    /// Share the open loop with additional tenant classes: each
    /// [`TenantLoad`] contributes `count` independent arrival streams of its
    /// own scenario at its own rate, merged with the session's primary
    /// stream by next-arrival time. The session's `Load::Open { requests }`
    /// is the *total* budget across all streams, so a faster tenant
    /// naturally contributes proportionally more of the run. Requires
    /// `Load::Open`; every policy still replays the identical merged
    /// request set (paired comparison).
    pub(crate) fn tenants<I>(mut self, tenants: I) -> Self
    where
        I: IntoIterator<Item = TenantLoad>,
    {
        self.tenants = Some(tenants.into_iter().collect());
        self
    }

    /// Serve on a custom cluster layout (node count, per-node capacity,
    /// placement policy) instead of the paper's single 52-core node —
    /// elasticity experiments start from a small multi-node fleet.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Drive an open-loop session under a named autoscaler from the
    /// session's [`AutoscalerRegistry`] (built-ins: `static`, `utilization`,
    /// `queue-depth`). Requires `Load::Open`; a fresh autoscaler is built
    /// for every policy run so paired comparisons stay paired.
    pub fn autoscaler(mut self, name: impl Into<String>) -> Self {
        self.autoscaler = Some(name.into());
        self
    }

    /// Gate open-loop arrivals with a named admission policy from the
    /// session's [`AdmissionRegistry`] (built-ins: `admit-all`,
    /// `token-bucket`, `queue-shed`). Requires `Load::Open`; shed requests
    /// are recorded as `Shed` outcomes in every [`ServingReport`].
    pub fn admission(mut self, name: impl Into<String>) -> Self {
        self.admission = Some(name.into());
        self
    }

    /// Inject a named fault schedule from the session's [`FaultRegistry`]
    /// (built-ins: `node-crash`, `spot-preempt`, `zone-outage`, `slow-node`).
    /// Requires `Load::Open`; the schedule is rebuilt from the session seed
    /// for every policy run, so paired comparisons face the identical,
    /// bit-reproducible fault sequence. Interrupted requests are retried or
    /// recorded as `Failed` outcomes in every [`ServingReport`].
    pub fn fault(mut self, name: impl Into<String>) -> Self {
        self.fault = Some(name.into());
        self
    }

    /// Attach a named observer from the session's [`ObserverRegistry`]
    /// (built-ins: `ring`, `trace`, `spans`, `time-series`,
    /// `flight-recorder`). A fresh observer is built per policy run and
    /// receives every lifecycle record (and, on capacity-controlled open
    /// loops, every capacity-tick telemetry sample); its
    /// [`ObserverReport`] lands in the policy's
    /// [`PolicyReport::flight`]. Sessions without an observer pay nothing:
    /// the serving loops never construct a record.
    pub fn observe(mut self, name: impl Into<String>) -> Self {
        self.observer = Some(name.into());
        self
    }

    /// Register an additional scenario factory on this session's registry.
    pub fn register_scenario_fn<F>(mut self, name: impl Into<String>, build: F) -> Self
    where
        F: Fn(&ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String> + Send + Sync + 'static,
    {
        self.scenarios.register_fn(name, build);
        self
    }

    /// Master seed for request generation and profiling. Default 7.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Profiler samples per (allocation, concurrency) grid point.
    /// Default 1000 (the paper's scale).
    pub fn samples_per_point(mut self, samples: usize) -> Self {
        self.samples_per_point = samples;
        self
    }

    /// Budget sweep granularity for hint synthesis, in ms. Default 1.0.
    pub fn budget_step_ms(mut self, step: f64) -> Self {
        self.synthesis.budget_step_ms = step;
        self
    }

    /// Replace the policy registry (default: the built-in seven).
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Register an additional policy factory on this session's registry.
    pub fn register(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        self.registry.register(factory);
        self
    }

    /// Reduced scale for tests and smoke runs: fewer profiler samples and a
    /// coarser synthesis sweep, preserving every code path.
    pub fn quick(mut self) -> Self {
        self.samples_per_point = 300;
        self.synthesis.budget_step_ms = 5.0;
        self
    }

    /// Validate and finalise the session: the one place a serving
    /// configuration is accepted or rejected. `SweepSpec::validate` checks
    /// every grid point through it, so errors that a spec key can cause
    /// name that key (`` `concurrency`: … ``).
    pub fn build(self) -> Result<ServingSession, String> {
        let Some(app) = self.app else {
            return Err("session needs .app(..)".into());
        };
        if self.concurrency == 0 {
            return Err("`concurrency`: must be at least 1".into());
        }
        if app == PaperApp::VideoAnalyze && self.concurrency > 1 {
            return Err(
                "`concurrency`: VA cannot batch (FE and ICO are non-batchable); use concurrency 1"
                    .into(),
            );
        }
        let slo = self
            .slo
            .unwrap_or_else(|| app.default_slo(self.concurrency));
        if slo <= SimDuration::ZERO {
            return Err("SLO must be positive".into());
        }
        if self.policies.is_empty() {
            return Err(format!(
                "session needs at least one .policy(..); registered: {}",
                self.registry.names().join(", ")
            ));
        }
        // Reports are addressed by name, so a duplicate would run but be
        // unreachable through every SessionReport accessor.
        for (i, name) in self.policies.iter().enumerate() {
            self.registry.ensure_known(name)?;
            if self.policies[..i].contains(name) {
                return Err(format!("policy `{name}` was added twice"));
            }
        }
        if self.load.requests() == 0 {
            return Err("`requests`: load must offer at least one request".into());
        }
        self.load.mean_inter_arrival()?;
        if let Some(name) = &self.scenario {
            if matches!(self.load, Load::Closed { .. }) {
                return Err(
                    "arrival scenarios need .load(Load::Open { .. }) — a closed loop has no \
                     arrival process"
                        .into(),
                );
            }
            self.scenarios.ensure_known(name)?;
        }
        let mut slo = slo;
        if let Some(tenants) = &self.tenants {
            if matches!(self.load, Load::Closed { .. }) {
                return Err(
                    "tenant streams (.tenants(..)) need .load(Load::Open { .. }) — a closed \
                     loop has no arrival timeline to merge streams on"
                        .into(),
                );
            }
            if tenants.is_empty() {
                return Err("`tenants`: must list at least one tenant".into());
            }
            for (i, tenant) in tenants.iter().enumerate() {
                if tenant.count == 0 {
                    return Err(format!("`tenants[{i}].count`: must be at least 1"));
                }
                if !(tenant.rps.is_finite() && tenant.rps > 0.0) {
                    return Err(format!(
                        "`tenants[{i}].rps`: rate {} must be positive",
                        tenant.rps
                    ));
                }
                self.scenarios
                    .ensure_known(&tenant.scenario)
                    .map_err(|e| format!("`tenants[{i}].scenario`: {e}"))?;
                if let Some(ms) = tenant.slo_ms {
                    if !(ms.is_finite() && ms > 0.0) {
                        return Err(format!("`tenants[{i}].slo_ms`: {ms} must be positive"));
                    }
                }
            }
            slo = strictest_slo(slo, tenants);
        }
        if let Some(cluster) = &self.cluster {
            cluster.validate().map_err(|e| format!("`cluster`: {e}"))?;
        }
        if self.autoscaler.is_some() || self.admission.is_some() {
            if matches!(self.load, Load::Closed { .. }) {
                return Err("capacity control (.autoscaler(..) / .admission(..)) needs \
                     .load(Load::Open { .. }) — a closed loop has no arrivals to gate or \
                     fleet pressure to scale"
                    .into());
            }
            if let Some(name) = &self.autoscaler {
                self.autoscalers.ensure_known(name)?;
            }
            if let Some(name) = &self.admission {
                self.admissions.ensure_known(name)?;
            }
        }
        if let Some(name) = &self.fault {
            if matches!(self.load, Load::Closed { .. }) {
                return Err(
                    "fault injection (.fault(..)) needs .load(Load::Open { .. }) — a \
                     closed loop has no arrival timeline to schedule faults on"
                        .into(),
                );
            }
            self.faults.ensure_known(name)?;
        }
        if let Some(name) = &self.observer {
            // Observers attach to closed loops too (record streams without
            // tick telemetry), so no Load::Open requirement here.
            self.observers.ensure_known(name)?;
        }
        if self.samples_per_point == 0 {
            return Err("`samples_per_point`: must be at least 1".into());
        }
        let step = self.synthesis.budget_step_ms;
        if !(step.is_finite() && step >= MIN_BUDGET_STEP_MS) {
            return Err(format!(
                "`budget_step_ms`: {step} must be at least {MIN_BUDGET_STEP_MS}"
            ));
        }
        Ok(ServingSession {
            inputs: self,
            workflow: app.workflow(),
            slo,
        })
    }

    /// Build and immediately run the session.
    pub fn run(self) -> Result<SessionReport, String> {
        self.build()?.run()
    }
}

/// The SLO a session with `tenants` serves under: the strictest tenant SLO
/// governs the whole run, if it is tighter than `slo`.
pub(crate) fn strictest_slo(slo: SimDuration, tenants: &[TenantLoad]) -> SimDuration {
    tenants
        .iter()
        .filter_map(|tenant| tenant.slo_ms)
        .map(SimDuration::from_millis)
        .fold(slo, SimDuration::min)
}

/// The set-up artefacts of one session, kept so the next session with the
/// same set-up inputs skips building them: the workflow profile, and one
/// never-served prototype per policy whose factory does not read the
/// request set. Later sessions serve fresh instances of the prototypes
/// (`BuiltPolicy::fresh`), so no feedback state leaks between runs.
///
/// A memo is valid only for sessions whose set-up inputs are equal — in a
/// sweep, points with equal `SessionSpec::setup_key`. Start a new memo
/// whenever they change.
#[derive(Debug, Default)]
pub struct SetupMemo {
    profile: Option<WorkflowProfile>,
    prototypes: Vec<(String, BuiltPolicy)>,
}

/// Policy `name` for one run: a fresh instance of its prototype in
/// `prototypes`, or else a new build. A new build whose factory does not
/// read the request set, and which can make fresh instances, becomes the
/// prototype and is never served itself.
fn memoized_build(
    registry: &PolicyRegistry,
    name: &str,
    ctx: &PolicyContext<'_>,
    prototypes: &mut Vec<(String, BuiltPolicy)>,
) -> Result<BuiltPolicy, String> {
    if registry.lookup(name)?.reads_requests() {
        return registry.build(name, ctx);
    }
    if let Some(built) = prototypes
        .iter()
        .find(|(prototype, _)| prototype == name)
        .and_then(|(_, prototype)| prototype.fresh())
    {
        return Ok(built);
    }
    let prototype = registry.build(name, ctx)?;
    Ok(match prototype.fresh() {
        Some(built) => {
            prototypes.push((name.to_string(), prototype));
            built
        }
        None => prototype,
    })
}

/// Reborrow an owned per-policy observer as the `Option<&mut dyn Observer>`
/// hook the serving loops take. A named function (rather than
/// `as_deref_mut()` inline) so the trait-object lifetime coercion from
/// `dyn Observer + 'static` to the loop-local lifetime has an explicit
/// coercion site — and so the borrow ends with the call, letting the
/// session `finish()` the observer afterwards.
fn observer_hook<'a>(
    observer: &'a mut Option<Box<dyn Observer>>,
) -> Option<&'a mut (dyn Observer + 'a)> {
    match observer.as_deref_mut() {
        Some(o) => Some(o),
        None => None,
    }
}

/// A validated serving session: one workflow, one SLO, one load shape, any
/// number of registered policies replaying the same requests.
#[derive(Debug)]
pub struct ServingSession {
    /// The builder that [`build`](ServingSessionBuilder::build) accepted.
    inputs: ServingSessionBuilder,
    /// The served workflow: the app's.
    workflow: Workflow,
    /// The run SLO: explicit or the app's default, tightened by the
    /// strictest tenant SLO.
    slo: SimDuration,
}

impl ServingSession {
    /// Start building a session.
    pub fn builder() -> ServingSessionBuilder {
        ServingSessionBuilder::default()
    }

    /// The workflow this session serves.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The SLO requests are served under.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// The policy names that will run, in order.
    pub fn policies(&self) -> &[String] {
        &self.inputs.policies
    }

    /// The arrival process of this session's scenario, if one was named.
    fn arrival_process(&self) -> Result<Option<Arc<dyn ArrivalProcess>>, String> {
        let inputs = &self.inputs;
        let Some(name) = &inputs.scenario else {
            return Ok(None);
        };
        let base_rps = match inputs.load {
            Load::Open { rps, .. } => rps,
            // build() rejects scenarios on closed loads.
            Load::Closed { .. } => unreachable!("validated in build()"),
        };
        let ctx = ScenarioContext {
            base_rps,
            requests: inputs.load.requests(),
            seed: inputs.seed,
        };
        Ok(Some(Arc::from(inputs.scenarios.build(name, &ctx)?)))
    }

    /// Profile the workflow, generate one request set, and replay it under
    /// every configured policy. Deterministic in the session seed: running
    /// twice yields identical reports.
    pub fn run(&self) -> Result<SessionReport, String> {
        // Metric names resolve exactly once per session; every policy run
        // records through the same pre-interned handles.
        let metrics_registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&metrics_registry);
        let mut arena = OpenLoopArena::new();
        self.run_in(
            &mut arena,
            &metrics_registry,
            &metrics,
            &mut SetupMemo::default(),
        )
    }

    /// [`run`](Self::run) with caller-provided scratch state: the open-loop
    /// arena, the interned metric handles and a set-up memo. Sweep drivers
    /// running many sessions back-to-back pass the same arena/handles for
    /// every grid point, so the engine heap, in-flight table and metric
    /// interning are paid once per worker thread instead of once per point.
    /// The registry is reset on entry (handles stay attached), so the
    /// embedded snapshot is identical to a fresh run's.
    ///
    /// The profile and the policies come from `memo` when it holds them and
    /// are stored into it when it does not; the caller must pass a memo only
    /// to sessions that share its set-up inputs (see [`SetupMemo`]).
    /// Factories that read the request set are rebuilt on every run.
    pub fn run_in(
        &self,
        arena: &mut OpenLoopArena,
        metrics_registry: &MetricsRegistry,
        metrics: &ServingMetrics,
        memo: &mut SetupMemo,
    ) -> Result<SessionReport, String> {
        let inputs = &self.inputs;
        metrics_registry.reset();
        let SetupMemo {
            profile,
            prototypes,
        } = memo;
        let profile = match profile {
            Some(profile) => profile,
            None => {
                let profiler = Profiler::new(ProfilerConfig {
                    samples_per_point: inputs.samples_per_point,
                    seed: inputs.seed ^ 0x5EED,
                    ..ProfilerConfig::default()
                })?;
                profile.insert(profiler.profile_workflow(&self.workflow, inputs.concurrency))
            }
        };

        // The arrival gaps share the generator's RNG stream, so the
        // scenario-less cases reproduce the historical streams draw for
        // draw (the Poisson sampler is the `Load::Open { rps }` shim) and a
        // "poisson" scenario is bit-identical to plain `Load::Open`.
        let process = self.arrival_process()?;
        let primary_sampler = |load: &Load| -> Result<Box<dyn InterArrivalSampler>, String> {
            Ok(match &process {
                Some(process) => process.sampler(),
                None => Box::new(PoissonGaps::new(load.mean_inter_arrival()?)),
            })
        };
        let requests: Vec<RequestInput> = match &inputs.tenants {
            None => {
                RequestInputGenerator::with_sampler(inputs.seed, primary_sampler(&inputs.load)?)
                    .generate(&self.workflow, inputs.load.requests())
            }
            Some(tenants) => {
                // Stream 0 is the session's own arrival process; each tenant
                // replica is an independent stream with a well-separated RNG
                // stream. The merge yields the total request budget in
                // global arrival order with globally re-sequenced ids, so
                // the session stays a drop-in replacement for a
                // single-stream run downstream — the policy context, the
                // paired comparison and the profiling path all see one
                // contiguous request set. (The bounded-memory streaming
                // path skips this materialization; see the `flash_scale`
                // experiment.)
                let mut generators = vec![RequestInputGenerator::with_sampler(
                    tenant_stream_seed(inputs.seed, 0),
                    primary_sampler(&inputs.load)?,
                )];
                let mut stream: u64 = 1;
                for tenant in tenants {
                    for _ in 0..tenant.count {
                        let seed = tenant_stream_seed(inputs.seed, stream);
                        let ctx = ScenarioContext {
                            base_rps: tenant.rps,
                            requests: inputs.load.requests(),
                            seed,
                        };
                        let sampler = inputs.scenarios.build(&tenant.scenario, &ctx)?.sampler();
                        generators.push(RequestInputGenerator::with_sampler(seed, sampler));
                        stream += 1;
                    }
                }
                let mut merged = MergedRequestSource::new(generators, inputs.load.requests())?;
                let mut requests = Vec::with_capacity(inputs.load.requests());
                while let Some(req) = merged.next_request(&self.workflow) {
                    requests.push(req);
                }
                requests
            }
        };

        let mut exec_config = ExecutorConfig::paper_serving(self.slo, inputs.concurrency);
        if let Some(cluster) = &inputs.cluster {
            exec_config.cluster = cluster.clone();
        }
        let ctx = PolicyContext {
            workflow: &self.workflow,
            profile,
            slo: self.slo,
            concurrency: inputs.concurrency,
            requests: &requests,
            grid: CoreGrid::paper_default(),
            interference: &exec_config.interference,
            seed: inputs.seed,
            synthesis: inputs.synthesis,
        };

        let mut policies = Vec::with_capacity(inputs.policies.len());
        for name in &inputs.policies {
            let mut built = memoized_build(&inputs.registry, name, &ctx, prototypes)?;
            // A fresh observer per policy run, seeded from the session: the
            // trace of every column of a paired comparison samples the same
            // request ids, and reruns are byte-identical. Sessions without
            // an observer skip the build entirely — the serving loops see
            // `None` and never construct a record.
            let mut observer: Option<Box<dyn Observer>> = match &inputs.observer {
                Some(observer_name) => {
                    let observer_ctx = ObserverContext {
                        seed: inputs.seed,
                        policy: name.clone(),
                        requests: inputs.load.requests(),
                        zones: exec_config.cluster.zones,
                        slo: self.slo,
                    };
                    Some(inputs.observers.build(observer_name, &observer_ctx)?)
                }
                None => None,
            };
            let serving = match inputs.load {
                Load::Closed { .. } => {
                    ClosedLoopExecutor::new(self.workflow.clone(), exec_config.clone()).run_traced(
                        built.policy.as_mut(),
                        &requests,
                        Some(metrics),
                        observer_hook(&mut observer),
                    )
                }
                Load::Open { rps, .. } => {
                    let sim = OpenLoopSimulation::new(self.workflow.clone(), exec_config.clone());
                    // Fresh capacity policies per policy run: every column
                    // of the paired comparison faces identical control
                    // loops with identical initial state. Uncontrolled runs
                    // build none and serve without controls, so their
                    // reports carry no capacity section.
                    let autoscaler_name = inputs.autoscaler.as_deref().unwrap_or("static");
                    let admission_name = inputs.admission.as_deref().unwrap_or("admit-all");
                    let mut capacity_policies = None;
                    if inputs.autoscaler.is_some()
                        || inputs.admission.is_some()
                        || inputs.fault.is_some()
                    {
                        let capacity_ctx = CapacityContext {
                            base_rps: rps,
                            requests: inputs.load.requests(),
                            initial_nodes: exec_config.cluster.nodes,
                            slo: self.slo,
                        };
                        capacity_policies = Some((
                            inputs.autoscalers.build(autoscaler_name, &capacity_ctx)?,
                            inputs.admissions.build(admission_name, &capacity_ctx)?,
                        ));
                    }
                    // The fault schedule is rebuilt from the session seed for
                    // each policy run, so every column of the paired
                    // comparison replays the identical fault sequence.
                    let faults = match &inputs.fault {
                        Some(name) => {
                            let fault_ctx = FaultContext {
                                seed: inputs.seed,
                                initial_nodes: exec_config.cluster.nodes,
                                zones: exec_config.cluster.zones,
                                base_rps: rps,
                                requests: inputs.load.requests(),
                                slo: self.slo,
                            };
                            Some(inputs.faults.build(name, &fault_ctx)?)
                        }
                        None => None,
                    };
                    let controls = capacity_policies.as_mut().map(|(autoscaler, admission)| {
                        CapacityControls {
                            autoscaler: autoscaler.as_mut(),
                            admission: admission.as_mut(),
                            faults,
                        }
                    });
                    let mut serving = sim.run_traced(
                        built.policy.as_mut(),
                        &requests,
                        &mut *arena,
                        Some(metrics),
                        controls,
                        observer_hook(&mut observer),
                    )?;
                    if let Some(capacity) = serving.capacity.as_mut() {
                        // Report the *registered* names: a custom factory may
                        // wrap a built-in whose self-reported name differs
                        // from the name it was registered under.
                        capacity.autoscaler = autoscaler_name.to_string();
                        capacity.admission = admission_name.to_string();
                        if let Some(name) = &inputs.fault {
                            capacity.injector = Some(name.clone());
                        }
                    }
                    serving
                }
            };
            policies.push(PolicyReport {
                name: name.clone(),
                mean_decision_time_us: built.policy.mean_decision_time_us(),
                serving,
                synthesis: built.synthesis,
                flight: observer.as_mut().map(|o| o.finish()),
            });
        }

        let report = SessionReport {
            workflow: self.workflow.name().to_string(),
            slo: self.slo,
            concurrency: inputs.concurrency,
            load: inputs.load,
            scenario: process.map(|p| p.name().to_string()),
            tenants: inputs.tenants.clone(),
            autoscaler: inputs.autoscaler.clone(),
            admission: inputs.admission.clone(),
            fault: inputs.fault.clone(),
            observer: inputs.observer.clone(),
            seed: inputs.seed,
            policies,
            metrics: metrics_registry.snapshot(),
        };
        report.validate()?;
        Ok(report)
    }
}

/// Everything one policy produced in a session.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Registered policy name.
    pub name: String,
    /// Mean `size_next` decision latency in µs, if the policy tracks it
    /// (Janus's adapter times one decision in 64).
    pub mean_decision_time_us: Option<f64>,
    /// Per-request serving outcomes.
    pub serving: ServingReport,
    /// Offline synthesis statistics (hint-based policies only).
    pub synthesis: Option<SynthesisReport>,
    /// Flight-recorder output (observer-attached sessions only): the
    /// observer's trace, span breakdown and/or telemetry time series.
    pub flight: Option<ObserverReport>,
}

impl PolicyReport {
    /// Fraction of requests that met the SLO, in `[0, 1]`.
    pub fn slo_attainment(&self) -> f64 {
        1.0 - self.serving.slo_violation_rate()
    }
}

/// The normalized outcome of a [`ServingSession`] run: one
/// [`PolicyReport`] per configured policy, in configuration order.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Workflow name.
    pub workflow: String,
    /// SLO the session served under.
    pub slo: SimDuration,
    /// Batch size (concurrency).
    pub concurrency: u32,
    /// Load shape offered.
    pub load: Load,
    /// Arrival-process name for scenario-driven open loops (`None` for
    /// closed loops and the plain Poisson open loop).
    pub scenario: Option<String>,
    /// Tenant classes merged into the arrival stream, for multi-tenant
    /// sessions (`None` for single-stream runs).
    pub tenants: Option<Vec<TenantLoad>>,
    /// Autoscaler name for capacity-controlled open loops.
    pub autoscaler: Option<String>,
    /// Admission-policy name for capacity-controlled open loops.
    pub admission: Option<String>,
    /// Fault-injector name for chaos-enabled open loops.
    pub fault: Option<String>,
    /// Observer name for flight-recorded sessions.
    pub observer: Option<String>,
    /// Session seed.
    pub seed: u64,
    /// Per-policy results, in configuration order.
    pub policies: Vec<PolicyReport>,
    /// Session-wide serving metrics (counters and sample counts recorded
    /// through the hot-path handles), pooled across every policy run.
    pub metrics: MetricsSnapshot,
}

impl SessionReport {
    /// Policy names in report order.
    pub fn names(&self) -> Vec<&str> {
        self.policies.iter().map(|p| p.name.as_str()).collect()
    }

    /// The full report of one policy.
    pub fn report(&self, name: &str) -> Option<&PolicyReport> {
        self.policies.iter().find(|p| p.name == name)
    }

    /// One policy's serving report.
    pub fn serving(&self, name: &str) -> Option<&ServingReport> {
        self.report(name).map(|p| &p.serving)
    }

    /// One policy's flight-recorder report (observer-attached sessions only).
    pub fn flight(&self, name: &str) -> Option<&ObserverReport> {
        self.report(name)?.flight.as_ref()
    }

    /// The session's full JSONL trace artefact: every policy's trace
    /// encoded in configuration order (each line carries its policy
    /// label). `None` unless an observer with a trace sink was attached.
    pub fn trace(&self) -> Option<String> {
        let mut out = String::new();
        for p in &self.policies {
            if let Some(trace) = p.flight.as_ref().and_then(|f| f.trace.as_ref()) {
                trace.write_to(&mut out);
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// One policy's SLO attainment in `[0, 1]`.
    pub fn slo_attainment(&self, name: &str) -> Option<f64> {
        self.report(name).map(PolicyReport::slo_attainment)
    }

    /// One policy's mean per-request CPU in millicores.
    pub fn mean_cpu_millicores(&self, name: &str) -> Option<f64> {
        self.report(name).map(|p| p.serving.mean_cpu_millicores())
    }

    /// Mean CPU of `name` normalised by `baseline` (the "normalized by
    /// Optimal" presentation of §V).
    pub fn normalized_cpu(&self, name: &str, baseline: &str) -> Option<f64> {
        let base = self.serving(baseline)?;
        Some(self.serving(name)?.cpu_normalized_by(base))
    }

    /// Table I entry: resource reduction of `ours` versus `other`,
    /// normalised by Optimal, as a percentage.
    pub fn reduction_percent(&self, ours: &str, other: &str) -> Option<f64> {
        let optimal = self.serving("Optimal")?;
        Some(
            self.serving(ours)?
                .reduction_vs(self.serving(other)?, optimal)
                * 100.0,
        )
    }

    /// Structural invariants every well-formed report satisfies; `run`
    /// checks this before returning.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("session report has no policies".into());
        }
        for p in &self.policies {
            let attainment = p.slo_attainment();
            if !(0.0..=1.0).contains(&attainment) {
                return Err(format!(
                    "policy {}: SLO attainment {attainment} outside [0, 1]",
                    p.name
                ));
            }
            if p.serving.is_empty() {
                return Err(format!("policy {}: accounted for no requests", p.name));
            }
            // A run under aggressive admission control can legitimately shed
            // everything; resource usage is only required once something ran.
            if p.serving.served_len() > 0 && p.serving.mean_cpu_millicores() <= 0.0 {
                return Err(format!("policy {}: non-positive resource usage", p.name));
            }
            for outcome in &p.serving.outcomes {
                use janus_platform::outcome::RequestDisposition;
                match outcome.disposition {
                    RequestDisposition::Served if outcome.allocations.is_empty() => {
                        return Err(format!(
                            "policy {}: request {} ran no functions",
                            p.name, outcome.request_id
                        ));
                    }
                    RequestDisposition::Shed if !outcome.allocations.is_empty() => {
                        return Err(format!(
                            "policy {}: shed request {} ran functions",
                            p.name, outcome.request_id
                        ));
                    }
                    // Failed requests were admitted and may have partially
                    // executed before the fault, so either shape is legal.
                    _ => {}
                }
            }
            if let Some(capacity) = &p.serving.capacity {
                // Conservation: every generated request is exactly one of
                // admitted or shed, every admitted request is exactly one of
                // served or failed, and the report agrees with itself.
                if capacity.admitted + capacity.shed != capacity.generated {
                    return Err(format!(
                        "policy {}: admitted {} + shed {} != generated {}",
                        p.name, capacity.admitted, capacity.shed, capacity.generated
                    ));
                }
                if capacity.admitted != p.serving.served_len() + p.serving.failed_len()
                    || capacity.shed != p.serving.shed_len()
                    || capacity.failed != p.serving.failed_len()
                {
                    return Err(format!(
                        "policy {}: capacity report ({} admitted, {} shed, {} failed) disagrees \
                         with outcomes ({} served, {} shed, {} failed)",
                        p.name,
                        capacity.admitted,
                        capacity.shed,
                        capacity.failed,
                        p.serving.served_len(),
                        p.serving.shed_len(),
                        p.serving.failed_len()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_builder() -> ServingSessionBuilder {
        ServingSession::builder()
            .app(PaperApp::IntelligentAssistant)
            .quick()
            .load(Load::Closed { requests: 40 })
    }

    #[test]
    fn builder_rejects_incomplete_or_invalid_sessions() {
        let err = ServingSession::builder()
            .policy("Janus")
            .build()
            .unwrap_err();
        assert!(err.contains(".app("), "{err}");
        let err = quick_builder().build().unwrap_err();
        assert!(err.contains("at least one .policy"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .concurrency(0)
            .build()
            .unwrap_err();
        assert!(err.contains("concurrency"), "{err}");
        let err = ServingSession::builder()
            .app(PaperApp::VideoAnalyze)
            .concurrency(2)
            .policy("Janus")
            .build()
            .unwrap_err();
        assert!(err.contains("VA cannot batch"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Open {
                requests: 10,
                rps: 0.0,
            })
            .build()
            .unwrap_err();
        assert!(err.contains("rps"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Closed { requests: 0 })
            .build()
            .unwrap_err();
        assert!(err.contains("at least one request"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .policy("Janus")
            .build()
            .unwrap_err();
        assert!(err.contains("added twice"), "{err}");
        // Policy names are checked by `build()` itself, before any
        // profiling or policy construction.
        let err = quick_builder()
            .policies(["GrandSLAM", "Janux"])
            .build()
            .unwrap_err();
        assert!(err.starts_with("unknown policy `Janux`"), "{err}");
        assert!(err.contains("GrandSLAM, Janus-, Janus, Janus+"), "{err}");
    }

    #[test]
    fn closed_loop_session_reports_every_policy_in_order() {
        let report = quick_builder()
            .policies(["GrandSLAM", "Janus"])
            .run()
            .unwrap();
        assert_eq!(report.names(), vec!["GrandSLAM", "Janus"]);
        for name in ["GrandSLAM", "Janus"] {
            let p = report.report(name).unwrap();
            assert_eq!(p.serving.len(), 40);
            assert!((0.0..=1.0).contains(&p.slo_attainment()));
            assert!(p.serving.mean_cpu_millicores() > 0.0);
        }
        // The hint pipeline ran for Janus only.
        assert!(report.report("Janus").unwrap().synthesis.is_some());
        assert!(report.report("GrandSLAM").unwrap().synthesis.is_none());
        assert!(report.normalized_cpu("GrandSLAM", "Janus").unwrap() > 1.0);
        assert!(report.report("ORION").is_none());
    }

    #[test]
    fn open_loop_sessions_share_the_request_set_across_policies() {
        let report = quick_builder()
            .policies(["GrandSLAM", "Janus"])
            .load(Load::Open {
                requests: 50,
                rps: 2.0,
            })
            .run()
            .unwrap();
        let a = report.serving("GrandSLAM").unwrap();
        let b = report.serving("Janus").unwrap();
        assert_eq!(a.len(), 50);
        assert_eq!(b.len(), 50);
        let ids_a: Vec<u64> = a.outcomes.iter().map(|o| o.request_id).collect();
        let ids_b: Vec<u64> = b.outcomes.iter().map(|o| o.request_id).collect();
        assert_eq!(ids_a, ids_b, "paired comparison replays identical requests");
    }

    #[test]
    fn sessions_pool_hot_path_metrics_across_policies() {
        use janus_platform::metrics::ServingMetrics;
        let report = quick_builder()
            .policies(["GrandSLAM", "Janus"])
            .run()
            .unwrap();
        // 40 requests × 2 policies, 3 functions per IA request.
        assert_eq!(report.metrics.counter(ServingMetrics::REQUESTS), 80);
        assert_eq!(report.metrics.counter(ServingMetrics::FUNCTIONS), 240);
        assert_eq!(report.metrics.series_count(ServingMetrics::E2E_MS), 80);
        assert_eq!(
            report.metrics.series_count(ServingMetrics::FUNCTION_MS),
            240
        );
        assert_eq!(report.metrics.total_samples(), 320);
        let violations: f64 = report
            .policies
            .iter()
            .map(|p| p.serving.slo_violation_rate() * p.serving.len() as f64)
            .sum();
        assert_eq!(
            report.metrics.counter(ServingMetrics::SLO_VIOLATIONS),
            violations.round() as u64
        );
        // Open-loop sessions flow through the same handles (and the shared
        // arena).
        let open = quick_builder()
            .policy("GrandSLAM")
            .load(Load::Open {
                requests: 30,
                rps: 2.0,
            })
            .run()
            .unwrap();
        assert_eq!(open.metrics.counter(ServingMetrics::REQUESTS), 30);
        assert_eq!(open.metrics.series_count(ServingMetrics::E2E_MS), 30);
    }

    /// Records every serving metric per event, through the handles, from
    /// the lifecycle records: the reference the loops' per-run tallies must
    /// reproduce.
    struct PerEventMetrics {
        metrics: ServingMetrics,
        /// Scaling records count as autoscaler actions (only sound when no
        /// fault resizes the fleet).
        count_scaling: bool,
        admitted: std::collections::BTreeSet<u64>,
    }

    impl Observer for PerEventMetrics {
        fn name(&self) -> &str {
            "per-event-metrics"
        }

        fn record(&mut self, record: &janus_observe::Record) {
            use janus_observe::RecordKind;
            let m = &self.metrics;
            match record.kind {
                // Every admitted request places its first function at once.
                RecordKind::Placement { request, .. } if self.admitted.insert(request) => {
                    m.requests.incr(1);
                }
                RecordKind::ColdStart { .. } => m.cold_starts.incr(1),
                RecordKind::ExecEnd { exec, .. } => {
                    m.functions.incr(1);
                    m.function_ms.record(exec.as_millis());
                }
                RecordKind::Completion { e2e, slo_met, .. } => {
                    m.e2e_ms.record(e2e.as_millis());
                    if !slo_met {
                        m.slo_violations.incr(1);
                    }
                }
                RecordKind::Shed { .. } => m.shed.incr(1),
                RecordKind::Failed { .. } => m.failed.incr(1),
                RecordKind::Retry { .. } => m.retried.incr(1),
                RecordKind::Scaling {
                    from_nodes,
                    to_nodes,
                } if self.count_scaling => {
                    if to_nodes > from_nodes {
                        m.scale_ups.incr(1);
                    } else {
                        m.scale_downs.incr(1);
                    }
                }
                _ => {}
            }
        }

        fn finish(&mut self) -> ObserverReport {
            ObserverReport {
                observer: self.name().to_string(),
                records_seen: 0,
                records_kept: 0,
                trace: None,
                spans: None,
                time_series: None,
            }
        }
    }

    #[test]
    fn loop_tallies_leave_the_registry_per_event_recording_leaves() {
        use janus_simcore::cluster::PlacementPolicy;
        let open = |requests| Load::Open { requests, rps: 6.0 };
        let cluster = |nodes, zones| ClusterConfig {
            nodes,
            node_capacity: janus_simcore::resources::Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones,
        };
        let sessions = [
            // The paper's closed loop.
            (quick_builder(), true),
            // Open loop under elastic capacity: sheds and scaling actions.
            (
                quick_builder()
                    .load(open(80))
                    .cluster(cluster(2, 1))
                    .scenario("flash-crowd")
                    .autoscaler("utilization")
                    .admission("queue-shed"),
                true,
            ),
            // Open loop under a zone outage: retries and fault resizes.
            (
                quick_builder()
                    .load(open(60))
                    .cluster(cluster(4, 2))
                    .scenario("flash-crowd")
                    .fault("zone-outage"),
                false,
            ),
        ];
        let mut seen = MetricsSnapshot::default();
        for (builder, count_scaling) in sessions {
            let reference = MetricsRegistry::new();
            let per_event = ServingMetrics::intern(&reference);
            let mut builder = builder.policies(["ORION", "GrandSLAM", "Janus"]);
            builder
                .observers
                .register_fn("per-event-metrics", move |_| {
                    Ok(Box::new(PerEventMetrics {
                        metrics: per_event.clone(),
                        count_scaling,
                        admitted: Default::default(),
                    }) as Box<dyn Observer>)
                });
            let session = builder.observe("per-event-metrics").build().unwrap();
            let registry = MetricsRegistry::new();
            let metrics = ServingMetrics::intern(&registry);
            let report = session
                .run_in(
                    &mut OpenLoopArena::new(),
                    &registry,
                    &metrics,
                    &mut SetupMemo::default(),
                )
                .unwrap();
            assert_eq!(registry.snapshot(), reference.snapshot());
            assert_eq!(report.metrics, reference.snapshot());
            for stream in [ServingMetrics::FUNCTION_MS, ServingMetrics::E2E_MS] {
                let tallied = registry.streaming(stream).unwrap();
                assert!(!tallied.is_empty());
                assert_eq!(Some(tallied), reference.streaming(stream), "{stream}");
            }
            for (name, value) in reference.snapshot().counters {
                seen.counters.push((name, value));
            }
        }
        // Every counter was exercised by some session.
        for name in [
            ServingMetrics::COLD_STARTS,
            ServingMetrics::SLO_VIOLATIONS,
            ServingMetrics::SHED,
            ServingMetrics::RETRIED,
            ServingMetrics::SCALE_UPS,
        ] {
            let total: u64 = seen
                .counters
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v)
                .sum();
            assert!(total > 0, "no session exercised {name}");
        }
    }

    #[test]
    fn sessions_are_deterministic_in_the_seed() {
        let run = |seed: u64| quick_builder().policy("Janus").seed(seed).run().unwrap();
        let r1 = run(11);
        let r2 = run(11);
        let r3 = run(12);
        assert_eq!(r1.serving("Janus").unwrap(), r2.serving("Janus").unwrap());
        assert_ne!(r1.serving("Janus").unwrap(), r3.serving("Janus").unwrap());
    }

    #[test]
    fn poisson_scenario_is_bit_identical_to_plain_open_load() {
        // The proof that the arrival-process generalization preserved the
        // historical behaviour: the "poisson" scenario and the scenario-less
        // `Load::Open` draw the same RNG stream in the same order.
        let open = quick_builder()
            .policy("GrandSLAM")
            .load(Load::Open {
                requests: 40,
                rps: 2.0,
            })
            .run()
            .unwrap();
        let scenario = quick_builder()
            .policy("GrandSLAM")
            .load(Load::Open {
                requests: 40,
                rps: 2.0,
            })
            .scenario("poisson")
            .run()
            .unwrap();
        assert_eq!(
            open.serving("GrandSLAM").unwrap(),
            scenario.serving("GrandSLAM").unwrap()
        );
        assert_eq!(open.scenario, None);
        assert_eq!(scenario.scenario.as_deref(), Some("poisson"));
    }

    #[test]
    fn scenarios_change_the_load_shape_but_stay_paired() {
        let run = |name: &str| {
            quick_builder()
                .policies(["GrandSLAM", "Janus"])
                .load(Load::Open {
                    requests: 50,
                    rps: 2.0,
                })
                .scenario(name)
                .run()
                .unwrap()
        };
        let poisson = run("poisson");
        let flash = run("flash-crowd");
        assert_ne!(
            poisson.serving("Janus").unwrap(),
            flash.serving("Janus").unwrap(),
            "a flash crowd must not serve like a constant-rate loop"
        );
        let ids: Vec<u64> = flash
            .serving("GrandSLAM")
            .unwrap()
            .outcomes
            .iter()
            .map(|o| o.request_id)
            .collect();
        let ids_janus: Vec<u64> = flash
            .serving("Janus")
            .unwrap()
            .outcomes
            .iter()
            .map(|o| o.request_id)
            .collect();
        assert_eq!(ids, ids_janus, "scenario runs stay paired across policies");
    }

    #[test]
    fn scenario_validation_catches_misuse() {
        let err = quick_builder()
            .policy("Janus")
            .scenario("bursty")
            .build()
            .unwrap_err();
        assert!(err.contains("Load::Open"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Open {
                requests: 10,
                rps: 1.0,
            })
            .scenario("tsunami")
            .build()
            .unwrap_err();
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
        assert!(err.contains("flash-crowd"), "{err}");
    }

    #[test]
    fn custom_arrival_processes_and_scenarios_plug_in() {
        use janus_scenarios::TraceReplay;
        // A registered custom factory, addressed by name.
        let report = quick_builder()
            .policy("GrandSLAM")
            .load(Load::Open {
                requests: 20,
                rps: 2.5,
            })
            .register_scenario_fn("lockstep", |ctx| {
                Ok(Box::new(TraceReplay::from_gaps(vec![
                    1000.0 / ctx.base_rps,
                ])?))
            })
            .scenario("lockstep")
            .run()
            .unwrap();
        assert_eq!(report.scenario.as_deref(), Some("trace-replay"));
        assert_eq!(report.serving("GrandSLAM").unwrap().len(), 20);
    }

    #[test]
    fn capacity_controls_resolve_by_name_and_conserve_requests() {
        use janus_simcore::cluster::PlacementPolicy;
        let report = quick_builder()
            .policies(["GrandSLAM", "Janus"])
            .load(Load::Open {
                requests: 60,
                rps: 6.0,
            })
            .cluster(ClusterConfig {
                nodes: 2,
                node_capacity: janus_simcore::resources::Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 1,
            })
            .scenario("flash-crowd")
            .autoscaler("utilization")
            .admission("queue-shed")
            .run()
            .unwrap();
        assert_eq!(report.autoscaler.as_deref(), Some("utilization"));
        assert_eq!(report.admission.as_deref(), Some("queue-shed"));
        for name in ["GrandSLAM", "Janus"] {
            let serving = report.serving(name).unwrap();
            let cap = serving.capacity.as_ref().expect("capacity report present");
            assert_eq!(cap.autoscaler, "utilization");
            assert_eq!(cap.admission, "queue-shed");
            assert_eq!(cap.admitted + cap.shed, 60, "conservation");
            assert_eq!(serving.len(), 60);
            assert_eq!(serving.served_len(), cap.admitted);
            assert!(cap.node_seconds > 0.0);
        }
        // Paired: both policies saw the same arrivals (same request ids).
        let ids = |n: &str| {
            report
                .serving(n)
                .unwrap()
                .outcomes
                .iter()
                .map(|o| o.request_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids("GrandSLAM"), ids("Janus"));
    }

    #[test]
    fn capacity_validation_catches_misuse() {
        let err = quick_builder()
            .policy("Janus")
            .autoscaler("utilization")
            .build()
            .unwrap_err();
        assert!(err.contains("Load::Open"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Open {
                requests: 10,
                rps: 1.0,
            })
            .autoscaler("hypergrowth")
            .build()
            .unwrap_err();
        assert!(err.contains("unknown autoscaler"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Open {
                requests: 10,
                rps: 1.0,
            })
            .admission("bouncer")
            .build()
            .unwrap_err();
        assert!(err.contains("unknown admission policy"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .cluster(ClusterConfig {
                nodes: 0,
                ..ClusterConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(err.contains("at least one node"), "{err}");
    }

    #[test]
    fn custom_capacity_policies_register_by_name() {
        use janus_platform::capacity::QueueLengthAdmission;
        let mut builder = quick_builder().policy("GrandSLAM").load(Load::Open {
            requests: 30,
            rps: 10.0,
        });
        builder
            .admissions
            .register_fn("strict", |_ctx| Ok(Box::new(QueueLengthAdmission::new(1)?)));
        let report = builder.admission("strict").run().unwrap();
        let cap = report
            .serving("GrandSLAM")
            .unwrap()
            .capacity
            .as_ref()
            .unwrap()
            .clone();
        assert_eq!(
            cap.admission, "strict",
            "capacity reports carry the registered name, not the policy's \
             self-reported one"
        );
        assert!(cap.shed > 0, "a depth-1 bound at 10 rps must shed");
        assert_eq!(report.admission.as_deref(), Some("strict"));
    }

    #[test]
    fn fault_injection_resolves_by_name_and_conserves_requests() {
        use janus_simcore::cluster::PlacementPolicy;
        let run = |seed: u64| {
            quick_builder()
                .policies(["GrandSLAM", "Janus"])
                .load(Load::Open {
                    requests: 60,
                    rps: 6.0,
                })
                .cluster(ClusterConfig {
                    nodes: 4,
                    node_capacity: janus_simcore::resources::Millicores::from_cores(8),
                    placement: PlacementPolicy::Spread,
                    zones: 2,
                })
                .scenario("flash-crowd")
                .autoscaler("utilization")
                .fault("zone-outage")
                .seed(seed)
                .run()
                .unwrap()
        };
        let report = run(7);
        assert_eq!(report.fault.as_deref(), Some("zone-outage"));
        for name in ["GrandSLAM", "Janus"] {
            let serving = report.serving(name).unwrap();
            let cap = serving.capacity.as_ref().expect("capacity report present");
            assert_eq!(cap.injector.as_deref(), Some("zone-outage"));
            assert_eq!(cap.faults_applied, 1);
            // The autoscaler may have grown (or shrunk) the dying zone by
            // outage time, so the exact count varies; something must die.
            assert!(cap.nodes_lost >= 1, "the outage killed no nodes");
            assert_eq!(cap.admitted + cap.shed, 60, "conservation");
            assert_eq!(cap.admitted, serving.served_len() + serving.failed_len());
            assert_eq!(cap.failed, serving.failed_len());
            assert_eq!(cap.final_allocated_mc, 0, "crashed pods release capacity");
        }
        // Paired: both policies replay the identical fault sequence.
        let ids = |r: &SessionReport, n: &str| {
            r.serving(n)
                .unwrap()
                .outcomes
                .iter()
                .map(|o| o.request_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&report, "GrandSLAM"), ids(&report, "Janus"));
        // Deterministic in the seed, bit for bit.
        let again = run(7);
        assert_eq!(
            report.serving("Janus").unwrap(),
            again.serving("Janus").unwrap()
        );
        assert_ne!(
            report.serving("Janus").unwrap(),
            run(8).serving("Janus").unwrap()
        );
    }

    #[test]
    fn fault_validation_catches_misuse_and_custom_injectors_plug_in() {
        let err = quick_builder()
            .policy("Janus")
            .fault("zone-outage")
            .build()
            .unwrap_err();
        assert!(err.contains("Load::Open"), "{err}");
        let err = quick_builder()
            .policy("Janus")
            .load(Load::Open {
                requests: 10,
                rps: 1.0,
            })
            .fault("meteor-strike")
            .build()
            .unwrap_err();
        assert!(err.contains("unknown fault injector"), "{err}");
        assert!(err.contains("zone-outage"), "{err}");
        // A custom injector registers by name and reports under it.
        use janus_chaos::{FaultAction, FaultEvent, FaultSchedule};
        use janus_simcore::time::SimTime;
        let mut builder = quick_builder().policy("GrandSLAM").load(Load::Open {
            requests: 30,
            rps: 4.0,
        });
        builder.faults.register_fn("calm", |_ctx| {
            Ok(FaultSchedule {
                injector: "calm".into(),
                victim_seed: 1,
                events: vec![FaultEvent {
                    at: SimTime::ZERO + SimDuration::from_secs(1.0),
                    action: FaultAction::SlowNodes {
                        count: 1,
                        factor: 1.0,
                        duration: SimDuration::from_secs(1.0),
                    },
                }],
            })
        });
        let report = builder.fault("calm").run().unwrap();
        let cap = report
            .serving("GrandSLAM")
            .unwrap()
            .capacity
            .as_ref()
            .unwrap()
            .clone();
        assert_eq!(cap.injector.as_deref(), Some("calm"));
        assert_eq!(cap.faults_applied, 1);
        assert_eq!(report.fault.as_deref(), Some("calm"));
    }

    #[test]
    fn observers_resolve_by_name_and_record_full_flights() {
        use janus_simcore::cluster::PlacementPolicy;
        let run = || {
            quick_builder()
                .policies(["GrandSLAM", "Janus"])
                .load(Load::Open {
                    requests: 60,
                    rps: 6.0,
                })
                .cluster(ClusterConfig {
                    nodes: 4,
                    node_capacity: janus_simcore::resources::Millicores::from_cores(8),
                    placement: PlacementPolicy::Spread,
                    zones: 2,
                })
                .scenario("flash-crowd")
                // Static fleet: nodes killed by the outage stay dead, so the
                // telemetry must show the zone emptying (an autoscaler could
                // refill it within one tick).
                .fault("zone-outage")
                .observe("flight-recorder")
                .run()
                .unwrap()
        };
        let report = run();
        assert_eq!(report.observer.as_deref(), Some("flight-recorder"));
        let trace = report.trace().expect("flight recorder writes a trace");
        for name in ["GrandSLAM", "Janus"] {
            let flight = report.flight(name).expect("flight report present");
            assert_eq!(flight.observer, "flight-recorder");
            let spans = flight.spans.as_ref().expect("span summary present");
            // Every generated request arrived, and the span ledger agrees
            // with the serving report's dispositions.
            let serving = report.serving(name).unwrap();
            assert_eq!(spans.arrivals, 60);
            assert_eq!(spans.served, serving.served_len() as u64);
            assert_eq!(spans.shed, serving.shed_len() as u64);
            assert_eq!(spans.failed, serving.failed_len() as u64);
            let series = flight.time_series.as_ref().expect("telemetry present");
            assert!(!series.is_empty(), "capacity ticks sampled");
            // Two-zone cluster: every sample carries per-zone node counts,
            // and the zone outage must show up as a zone dropping nodes.
            assert!(series.points.iter().all(|p| p.nodes_per_zone.len() == 2));
            assert!(
                series.points.iter().any(|p| p.nodes_per_zone.contains(&0)),
                "the zone outage never emptied a zone in the telemetry"
            );
        }
        // The trace artefact carries both policies and replays cleanly.
        let decoded = janus_observe::report::TraceReport::from_jsonl(&trace).unwrap();
        assert_eq!(
            decoded
                .policies
                .iter()
                .map(|p| p.policy.as_str())
                .collect::<Vec<_>>(),
            vec!["GrandSLAM", "Janus"]
        );
        // Determinism: the same seed reproduces the trace byte for byte.
        let again = run();
        assert_eq!(trace, again.trace().unwrap());
        assert_eq!(
            report.flight("Janus").unwrap(),
            again.flight("Janus").unwrap()
        );
    }

    #[test]
    fn closed_loop_observers_record_spans_without_telemetry() {
        let report = quick_builder()
            .policy("GrandSLAM")
            .observe("spans")
            .run()
            .unwrap();
        let flight = report.flight("GrandSLAM").unwrap();
        let spans = flight.spans.as_ref().unwrap();
        assert_eq!(spans.arrivals, 40);
        assert_eq!(spans.served, 40);
        assert!(spans.mean_exec_ms > 0.0);
        // A closed loop has no capacity tick, so no time series (and no
        // trace: the spans observer keeps no lines).
        assert!(flight.time_series.is_none());
        assert!(report.trace().is_none());
    }

    #[test]
    fn sessions_without_an_observer_never_build_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        let mut builder = quick_builder().policy("GrandSLAM");
        builder.observers.register_fn("counting", move |_ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(janus_observe::RingObserver::with_capacity(8)))
        });
        let report = builder.run().unwrap();
        assert_eq!(
            builds.load(Ordering::SeqCst),
            0,
            "no .observe(..) => the factory must never run"
        );
        assert!(report.observer.is_none());
        assert!(report.flight("GrandSLAM").is_none());
        assert!(report.trace().is_none());
    }

    #[test]
    fn observer_validation_catches_unknown_names() {
        let err = quick_builder()
            .policy("Janus")
            .observe("black-box")
            .build()
            .unwrap_err();
        assert!(err.contains("unknown observer `black-box`"), "{err}");
        assert!(err.contains("flight-recorder"), "{err}");
    }

    #[test]
    fn multi_tenant_sessions_merge_streams_and_stay_paired() {
        let tenants = vec![
            TenantLoad {
                count: 2,
                scenario: "bursty".into(),
                rps: 1.5,
                slo_ms: None,
            },
            TenantLoad {
                count: 1,
                scenario: "flash-crowd".into(),
                rps: 2.0,
                slo_ms: None,
            },
        ];
        let run = |seed: u64| {
            quick_builder()
                .policies(["GrandSLAM", "Janus"])
                .load(Load::Open {
                    requests: 60,
                    rps: 2.0,
                })
                .tenants(tenants.clone())
                .seed(seed)
                .run()
                .unwrap()
        };
        let report = run(7);
        assert_eq!(report.tenants.as_deref(), Some(tenants.as_slice()));
        // The budget is the *total* across all four streams, and every
        // policy replays the identical merged set.
        let ids = |r: &SessionReport, n: &str| {
            r.serving(n)
                .unwrap()
                .outcomes
                .iter()
                .map(|o| o.request_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(report.serving("Janus").unwrap().len(), 60);
        assert_eq!(ids(&report, "GrandSLAM"), ids(&report, "Janus"));
        // Deterministic in the seed, and genuinely different from the
        // single-stream run (stream 0 re-derives its RNG stream).
        let again = run(7);
        assert_eq!(
            report.serving("Janus").unwrap(),
            again.serving("Janus").unwrap()
        );
        assert_ne!(
            report.serving("Janus").unwrap(),
            run(8).serving("Janus").unwrap()
        );
        let single = quick_builder()
            .policies(["GrandSLAM", "Janus"])
            .load(Load::Open {
                requests: 60,
                rps: 2.0,
            })
            .seed(7)
            .run()
            .unwrap();
        assert_ne!(
            single.serving("Janus").unwrap(),
            report.serving("Janus").unwrap(),
            "a multi-tenant run must not replay the single-stream request set"
        );
        assert_eq!(single.tenants, None);
    }

    #[test]
    fn tenant_validation_catches_misuse_and_the_strictest_slo_wins() {
        let tenant = |scenario: &str| TenantLoad {
            count: 1,
            scenario: scenario.into(),
            rps: 1.0,
            slo_ms: None,
        };
        let open = || {
            quick_builder().policy("Janus").load(Load::Open {
                requests: 10,
                rps: 1.0,
            })
        };
        let err = quick_builder()
            .policy("Janus")
            .tenants(vec![tenant("poisson")])
            .build()
            .unwrap_err();
        assert!(err.contains("Load::Open"), "{err}");
        let err = open().tenants(vec![]).build().unwrap_err();
        assert!(err.contains("at least one tenant"), "{err}");
        let err = open()
            .tenants(vec![TenantLoad {
                count: 0,
                ..tenant("poisson")
            }])
            .build()
            .unwrap_err();
        assert!(err.contains("`tenants[0].count`"), "{err}");
        let err = open()
            .tenants(vec![
                tenant("poisson"),
                TenantLoad {
                    rps: -2.0,
                    ..tenant("poisson")
                },
            ])
            .build()
            .unwrap_err();
        assert!(err.contains("`tenants[1].rps`"), "{err}");
        let err = open().tenants(vec![tenant("tsunami")]).build().unwrap_err();
        assert!(err.contains("`tenants[0].scenario`"), "{err}");
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
        let err = open()
            .tenants(vec![TenantLoad {
                slo_ms: Some(0.0),
                ..tenant("poisson")
            }])
            .build()
            .unwrap_err();
        assert!(err.contains("`tenants[0].slo_ms`"), "{err}");
        // A tenant SLO tighter than the session's governs the whole run; a
        // looser one changes nothing.
        let session = open()
            .tenants(vec![TenantLoad {
                slo_ms: Some(100.0),
                ..tenant("poisson")
            }])
            .build()
            .unwrap();
        assert_eq!(session.slo(), SimDuration::from_millis(100.0));
        let default_slo = open().build().unwrap().slo();
        let session = open()
            .tenants(vec![TenantLoad {
                slo_ms: Some(default_slo.as_millis() * 10.0),
                ..tenant("poisson")
            }])
            .build()
            .unwrap();
        assert_eq!(session.slo(), default_slo);
    }
}
