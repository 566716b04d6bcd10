//! Elastic capacity: autoscaling and admission control.
//!
//! The paper's evaluation (and the seed's serving loops) runs on a *static*
//! cluster, so overload scenarios — the flash crowd, the bursty MMPP — can
//! only ever saturate a fixed fleet. This module adds the two control loops a
//! production deployment layers on top of request sizing:
//!
//! * an [`AutoscalerPolicy`] observes the cluster at a fixed cadence (the
//!   *capacity tick*) and decides whether to add nodes or drain them
//!   (allocation-aware, via [`Cluster::drain_node`] semantics — see
//!   [`janus_simcore::cluster`]), and
//! * an [`AdmissionPolicy`] decides **at request arrival** whether a request
//!   is served or shed; shed requests are recorded as a
//!   [`Shed`](crate::outcome::RequestDisposition::Shed) outcome and counted
//!   through the [`ServingMetrics`](crate::metrics::ServingMetrics) `shed`
//!   counter, so `admitted + shed == generated` always holds.
//!
//! Both traits are object-safe, and both come with name-addressable
//! registries ([`AutoscalerRegistry`], [`AdmissionRegistry`]), instances of
//! the generic [`janus_simcore::registry::Registry`], so sessions and
//! sweeps resolve capacity behaviour by
//! name (`"static"`, `"utilization"`, `"queue-depth"`; `"admit-all"`,
//! `"token-bucket"`, `"queue-shed"`) and downstream code can register its
//! own.
//!
//! [`Cluster::drain_node`]: janus_simcore::cluster::Cluster::drain_node

use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
use janus_simcore::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Autoscaling
// ---------------------------------------------------------------------------

/// What the autoscaler sees at each capacity tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingObservation {
    /// Simulated time of the tick.
    pub now: SimTime,
    /// Active (placement-eligible) nodes.
    pub active_nodes: usize,
    /// Cluster-wide CPU utilisation in `[0, 1]` over non-retired nodes.
    pub utilization: f64,
    /// Requests admitted and not yet finished.
    pub inflight: usize,
}

/// The autoscaler's decision for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingAction {
    /// Keep the fleet as it is.
    Hold,
    /// Add this many nodes.
    ScaleUp(usize),
    /// Drain this many nodes (least-allocated first; allocation-aware).
    ScaleDown(usize),
}

/// An object-safe cluster autoscaling policy, evaluated at a fixed cadence
/// by the open-loop capacity tick.
pub trait AutoscalerPolicy: Send + fmt::Debug {
    /// Display name the policy is registered (and reported) under.
    fn name(&self) -> &str;

    /// Evaluation cadence of the capacity tick.
    fn tick(&self) -> SimDuration {
        SimDuration::from_secs(1.0)
    }

    /// Observe the cluster and decide. Policies own their bounds (min/max
    /// nodes, cool-down); the serving loop applies the action verbatim,
    /// except that it never drains the last active node.
    fn observe(&mut self, obs: &ScalingObservation) -> ScalingAction;
}

/// The static (no-op) autoscaler: the paper's fixed fleet.
#[derive(Debug, Clone, Default)]
pub struct StaticAutoscaler;

impl AutoscalerPolicy for StaticAutoscaler {
    fn name(&self) -> &str {
        "static"
    }

    fn observe(&mut self, _obs: &ScalingObservation) -> ScalingAction {
        ScalingAction::Hold
    }
}

/// Utilization-threshold step scaling with a cool-down window: scale up by
/// `step` when utilisation exceeds `high`, drain `step` when it falls below
/// `low`, and hold for at least `cooldown` between consecutive actions so
/// one burst cannot thrash the fleet.
#[derive(Debug, Clone)]
pub struct UtilizationThresholdAutoscaler {
    /// Scale up above this utilisation.
    pub high: f64,
    /// Scale down below this utilisation.
    pub low: f64,
    /// Nodes added / drained per action.
    pub step: usize,
    /// Minimum simulated time between actions.
    pub cooldown: SimDuration,
    /// Never drain below this many active nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many active nodes.
    pub max_nodes: usize,
    /// Evaluation cadence.
    pub tick: SimDuration,
    last_action_at: Option<SimTime>,
}

impl UtilizationThresholdAutoscaler {
    /// Build with validated thresholds (`0 <= low < high <= 1`) and bounds.
    pub fn new(
        high: f64,
        low: f64,
        step: usize,
        cooldown: SimDuration,
        min_nodes: usize,
        max_nodes: usize,
    ) -> Result<Self, String> {
        if !(high.is_finite() && low.is_finite() && (0.0..=1.0).contains(&high) && low >= 0.0)
            || low >= high
        {
            return Err(format!(
                "utilization thresholds need 0 <= low < high <= 1, got low {low} high {high}"
            ));
        }
        if step == 0 {
            return Err("utilization autoscaler needs a positive step".into());
        }
        if min_nodes == 0 || max_nodes < min_nodes {
            return Err(format!(
                "utilization autoscaler needs 1 <= min_nodes <= max_nodes, got {min_nodes}..{max_nodes}"
            ));
        }
        Ok(UtilizationThresholdAutoscaler {
            high,
            low,
            step,
            cooldown,
            min_nodes,
            max_nodes,
            tick: SimDuration::from_secs(1.0),
            last_action_at: None,
        })
    }
}

impl AutoscalerPolicy for UtilizationThresholdAutoscaler {
    fn name(&self) -> &str {
        "utilization"
    }

    fn tick(&self) -> SimDuration {
        self.tick
    }

    fn observe(&mut self, obs: &ScalingObservation) -> ScalingAction {
        if let Some(last) = self.last_action_at {
            if obs.now.saturating_since(last) < self.cooldown {
                return ScalingAction::Hold;
            }
        }
        if obs.utilization > self.high && obs.active_nodes < self.max_nodes {
            self.last_action_at = Some(obs.now);
            return ScalingAction::ScaleUp(self.step.min(self.max_nodes - obs.active_nodes));
        }
        if obs.utilization < self.low && obs.active_nodes > self.min_nodes {
            self.last_action_at = Some(obs.now);
            return ScalingAction::ScaleDown(self.step.min(obs.active_nodes - self.min_nodes));
        }
        ScalingAction::Hold
    }
}

/// Queue-depth-proportional scaling: size the fleet so each active node
/// carries at most `target_inflight_per_node` admitted-and-unfinished
/// requests, within `[min_nodes, max_nodes]`.
#[derive(Debug, Clone)]
pub struct QueueDepthAutoscaler {
    /// Desired in-flight requests per active node.
    pub target_inflight_per_node: f64,
    /// Never drain below this many active nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many active nodes.
    pub max_nodes: usize,
    /// Evaluation cadence.
    pub tick: SimDuration,
}

impl QueueDepthAutoscaler {
    /// Build with a validated positive target and bounds.
    pub fn new(
        target_inflight_per_node: f64,
        min_nodes: usize,
        max_nodes: usize,
    ) -> Result<Self, String> {
        if !(target_inflight_per_node.is_finite() && target_inflight_per_node > 0.0) {
            return Err(format!(
                "queue-depth autoscaler needs a positive per-node target, got {target_inflight_per_node}"
            ));
        }
        if min_nodes == 0 || max_nodes < min_nodes {
            return Err(format!(
                "queue-depth autoscaler needs 1 <= min_nodes <= max_nodes, got {min_nodes}..{max_nodes}"
            ));
        }
        Ok(QueueDepthAutoscaler {
            target_inflight_per_node,
            min_nodes,
            max_nodes,
            tick: SimDuration::from_secs(1.0),
        })
    }
}

impl AutoscalerPolicy for QueueDepthAutoscaler {
    fn name(&self) -> &str {
        "queue-depth"
    }

    fn tick(&self) -> SimDuration {
        self.tick
    }

    fn observe(&mut self, obs: &ScalingObservation) -> ScalingAction {
        let desired = (obs.inflight as f64 / self.target_inflight_per_node).ceil() as usize;
        let desired = desired.clamp(self.min_nodes, self.max_nodes);
        match desired.cmp(&obs.active_nodes) {
            std::cmp::Ordering::Greater => ScalingAction::ScaleUp(desired - obs.active_nodes),
            std::cmp::Ordering::Less => ScalingAction::ScaleDown(obs.active_nodes - desired),
            std::cmp::Ordering::Equal => ScalingAction::Hold,
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// An object-safe admission-control policy, consulted once per arrival.
pub trait AdmissionPolicy: Send + fmt::Debug {
    /// Display name the policy is registered (and reported) under.
    fn name(&self) -> &str;

    /// Decide the arrival at `now`, with `inflight` requests admitted and
    /// not yet finished. `false` sheds the request.
    fn admit(&mut self, now: SimTime, inflight: usize) -> bool;
}

/// Admit every request (the seed's behaviour).
#[derive(Debug, Clone, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &str {
        "admit-all"
    }

    fn admit(&mut self, _now: SimTime, _inflight: usize) -> bool {
        true
    }
}

/// Token-bucket rate limiting: requests spend one token; tokens refill at
/// `rate_per_sec` up to `burst`. Arrivals beyond the sustained rate plus the
/// burst allowance are shed.
#[derive(Debug, Clone)]
pub struct TokenBucketAdmission {
    /// Sustained admission rate (tokens per second).
    pub rate_per_sec: f64,
    /// Bucket capacity (burst allowance).
    pub burst: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucketAdmission {
    /// Build a full bucket with validated positive rate and burst.
    pub fn new(rate_per_sec: f64, burst: f64) -> Result<Self, String> {
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(format!(
                "token bucket needs a positive rate, got {rate_per_sec}"
            ));
        }
        if !(burst.is_finite() && burst >= 1.0) {
            return Err(format!("token bucket needs burst >= 1, got {burst}"));
        }
        Ok(TokenBucketAdmission {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
        })
    }
}

impl AdmissionPolicy for TokenBucketAdmission {
    fn name(&self) -> &str {
        "token-bucket"
    }

    fn admit(&mut self, now: SimTime, _inflight: usize) -> bool {
        let elapsed = now.saturating_since(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed.as_secs() * self.rate_per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Queue-length shedding: admit while fewer than `max_inflight` requests are
/// in flight, shed otherwise — the classic load-shedding front door.
#[derive(Debug, Clone)]
pub struct QueueLengthAdmission {
    /// Admit while `inflight < max_inflight`.
    pub max_inflight: usize,
}

impl QueueLengthAdmission {
    /// Build with a validated positive bound.
    pub fn new(max_inflight: usize) -> Result<Self, String> {
        if max_inflight == 0 {
            return Err("queue-length admission needs max_inflight >= 1".into());
        }
        Ok(QueueLengthAdmission { max_inflight })
    }
}

impl AdmissionPolicy for QueueLengthAdmission {
    fn name(&self) -> &str {
        "queue-shed"
    }

    fn admit(&mut self, _now: SimTime, inflight: usize) -> bool {
        inflight < self.max_inflight
    }
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

/// Everything a capacity factory may consult when instantiating a policy for
/// one serving run — mirrors `janus-scenarios`' `ScenarioContext`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityContext {
    /// Long-run mean arrival rate of the run (requests per second).
    pub base_rps: f64,
    /// Number of requests the run will generate.
    pub requests: usize,
    /// Nodes the cluster starts with.
    pub initial_nodes: usize,
    /// The end-to-end latency SLO requests are served under.
    pub slo: SimDuration,
}

impl CapacityContext {
    fn validate(&self) -> Result<(), String> {
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err(format!(
                "capacity context needs a positive base rate, got {}",
                self.base_rps
            ));
        }
        if self.initial_nodes == 0 {
            return Err("capacity context needs at least one initial node".into());
        }
        Ok(())
    }
}

/// An object-safe factory that instantiates one named autoscaler.
pub trait AutoscalerFactory: Send + Sync {
    /// Registered (and reported) name.
    fn name(&self) -> &str;

    /// Instantiate the autoscaler for one serving run.
    fn build(&self, ctx: &CapacityContext) -> Result<Box<dyn AutoscalerPolicy>, String>;
}

/// An object-safe factory that instantiates one named admission policy.
pub trait AdmissionFactory: Send + Sync {
    /// Registered (and reported) name.
    fn name(&self) -> &str;

    /// Instantiate the admission policy for one serving run.
    fn build(&self, ctx: &CapacityContext) -> Result<Box<dyn AdmissionPolicy>, String>;
}

/// The ordered, open registry of [`AutoscalerFactory`]s (see
/// [`janus_simcore::registry`]); registration order drives sweep ordering.
pub type AutoscalerRegistry = Registry<dyn AutoscalerFactory>;

/// The ordered, open registry of [`AdmissionFactory`]s (see
/// [`janus_simcore::registry`]); registration order drives sweep ordering.
pub type AdmissionRegistry = Registry<dyn AdmissionFactory>;

impl Entry for dyn AutoscalerFactory {
    const NOUN: &'static str = "autoscaler";

    fn key(&self) -> &str {
        self.name()
    }

    /// `static` (the paper's fixed fleet), `utilization` (threshold step
    /// scaling with a 5 s cool-down, up to 8× the initial fleet), and
    /// `queue-depth` (proportional to in-flight requests).
    fn builtins(registry: &mut AutoscalerRegistry) {
        registry.register_fn("static", |_ctx| {
            Ok(Box::new(StaticAutoscaler) as Box<dyn AutoscalerPolicy>)
        });
        registry.register_fn("utilization", |ctx| {
            Ok(Box::new(UtilizationThresholdAutoscaler::new(
                0.75,
                0.25,
                1,
                SimDuration::from_secs(5.0),
                ctx.initial_nodes,
                ctx.initial_nodes.saturating_mul(8),
            )?) as Box<dyn AutoscalerPolicy>)
        });
        registry.register_fn("queue-depth", |ctx| {
            // Steady state carries ~rps × SLO in-flight requests; target a
            // proportional share per node of the initial fleet.
            let target = (ctx.base_rps * ctx.slo.as_secs() / ctx.initial_nodes as f64).max(1.0);
            Ok(Box::new(QueueDepthAutoscaler::new(
                target,
                ctx.initial_nodes,
                ctx.initial_nodes.saturating_mul(8),
            )?) as Box<dyn AutoscalerPolicy>)
        });
    }
}

impl Factory for dyn AutoscalerFactory {
    type Ctx<'a> = CapacityContext;
    type Output = Box<dyn AutoscalerPolicy>;

    fn validate(ctx: &CapacityContext) -> Result<(), String> {
        ctx.validate()
    }

    fn make(&self, ctx: &CapacityContext) -> Result<Box<dyn AutoscalerPolicy>, String> {
        self.build(ctx)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&CapacityContext) -> Result<Box<dyn AutoscalerPolicy>, String>
            + Send
            + Sync
            + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> AutoscalerFactory for NamedFn<F>
where
    F: Fn(&CapacityContext) -> Result<Box<dyn AutoscalerPolicy>, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &CapacityContext) -> Result<Box<dyn AutoscalerPolicy>, String> {
        (self.f)(ctx)
    }
}

impl Entry for dyn AdmissionFactory {
    const NOUN: &'static str = "admission policy";

    fn key(&self) -> &str {
        self.name()
    }

    /// `admit-all`, `token-bucket` (1.5× the base rate sustained, one
    /// second of burst) and `queue-shed` (shed beyond ~2× the SLO-implied
    /// in-flight depth).
    fn builtins(registry: &mut AdmissionRegistry) {
        registry.register_fn("admit-all", |_ctx| {
            Ok(Box::new(AdmitAll) as Box<dyn AdmissionPolicy>)
        });
        registry.register_fn("token-bucket", |ctx| {
            let rate = 1.5 * ctx.base_rps;
            Ok(Box::new(TokenBucketAdmission::new(rate, rate.max(10.0))?)
                as Box<dyn AdmissionPolicy>)
        });
        registry.register_fn("queue-shed", |ctx| {
            // Stable operation keeps ~rps × SLO requests in flight; twice
            // that depth means the system is far behind — shed.
            let depth = (2.0 * ctx.base_rps * ctx.slo.as_secs()).ceil() as usize;
            Ok(Box::new(QueueLengthAdmission::new(depth.max(1))?) as Box<dyn AdmissionPolicy>)
        });
    }
}

impl Factory for dyn AdmissionFactory {
    type Ctx<'a> = CapacityContext;
    type Output = Box<dyn AdmissionPolicy>;

    fn validate(ctx: &CapacityContext) -> Result<(), String> {
        ctx.validate()
    }

    fn make(&self, ctx: &CapacityContext) -> Result<Box<dyn AdmissionPolicy>, String> {
        self.build(ctx)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&CapacityContext) -> Result<Box<dyn AdmissionPolicy>, String> + Send + Sync + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> AdmissionFactory for NamedFn<F>
where
    F: Fn(&CapacityContext) -> Result<Box<dyn AdmissionPolicy>, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &CapacityContext) -> Result<Box<dyn AdmissionPolicy>, String> {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_s: f64, nodes: usize, util: f64, inflight: usize) -> ScalingObservation {
        ScalingObservation {
            now: SimTime::from_secs(now_s),
            active_nodes: nodes,
            utilization: util,
            inflight,
        }
    }

    fn ctx() -> CapacityContext {
        CapacityContext {
            base_rps: 10.0,
            requests: 1000,
            initial_nodes: 2,
            slo: SimDuration::from_secs(3.0),
        }
    }

    #[test]
    fn static_autoscaler_always_holds() {
        let mut scaler = StaticAutoscaler;
        assert_eq!(scaler.observe(&obs(0.0, 1, 0.99, 500)), ScalingAction::Hold);
        assert_eq!(scaler.tick(), SimDuration::from_secs(1.0));
    }

    #[test]
    fn utilization_autoscaler_steps_with_cooldown() {
        let mut scaler =
            UtilizationThresholdAutoscaler::new(0.75, 0.25, 2, SimDuration::from_secs(5.0), 1, 4)
                .unwrap();
        // Over the high threshold: scale up by the step.
        assert_eq!(
            scaler.observe(&obs(0.0, 1, 0.9, 0)),
            ScalingAction::ScaleUp(2)
        );
        // Cool-down holds even under pressure.
        assert_eq!(scaler.observe(&obs(2.0, 3, 0.95, 0)), ScalingAction::Hold);
        // After the cool-down, the step is clamped to max_nodes.
        assert_eq!(
            scaler.observe(&obs(6.0, 3, 0.95, 0)),
            ScalingAction::ScaleUp(1)
        );
        // Low utilisation drains, clamped to min_nodes.
        assert_eq!(
            scaler.observe(&obs(20.0, 2, 0.1, 0)),
            ScalingAction::ScaleDown(1)
        );
        // In the comfort band: hold.
        assert_eq!(scaler.observe(&obs(40.0, 2, 0.5, 0)), ScalingAction::Hold);
    }

    #[test]
    fn utilization_autoscaler_rejects_bad_parameters() {
        let cd = SimDuration::ZERO;
        assert!(UtilizationThresholdAutoscaler::new(0.5, 0.75, 1, cd, 1, 4).is_err());
        assert!(UtilizationThresholdAutoscaler::new(1.5, 0.2, 1, cd, 1, 4).is_err());
        // A negative low bound would make scale-down silently unreachable.
        assert!(UtilizationThresholdAutoscaler::new(0.75, -0.1, 1, cd, 1, 4).is_err());
        assert!(UtilizationThresholdAutoscaler::new(0.75, 0.25, 0, cd, 1, 4).is_err());
        assert!(UtilizationThresholdAutoscaler::new(0.75, 0.25, 1, cd, 0, 4).is_err());
        assert!(UtilizationThresholdAutoscaler::new(0.75, 0.25, 1, cd, 4, 2).is_err());
    }

    #[test]
    fn queue_depth_autoscaler_tracks_inflight_proportionally() {
        let mut scaler = QueueDepthAutoscaler::new(4.0, 1, 6).unwrap();
        // 10 in flight at 4/node wants 3 nodes.
        assert_eq!(
            scaler.observe(&obs(0.0, 1, 0.0, 10)),
            ScalingAction::ScaleUp(2)
        );
        assert_eq!(scaler.observe(&obs(1.0, 3, 0.0, 10)), ScalingAction::Hold);
        // Empty queue drains back to the minimum.
        assert_eq!(
            scaler.observe(&obs(2.0, 3, 0.0, 0)),
            ScalingAction::ScaleDown(2)
        );
        // Desired is clamped to max_nodes.
        assert_eq!(scaler.observe(&obs(3.0, 6, 0.0, 1000)), ScalingAction::Hold);
        assert!(QueueDepthAutoscaler::new(0.0, 1, 4).is_err());
        assert!(QueueDepthAutoscaler::new(4.0, 3, 2).is_err());
    }

    #[test]
    fn token_bucket_refills_at_the_sustained_rate() {
        let mut bucket = TokenBucketAdmission::new(1.0, 2.0).unwrap();
        // Burst of two admitted immediately, third shed.
        assert!(bucket.admit(SimTime::ZERO, 0));
        assert!(bucket.admit(SimTime::ZERO, 0));
        assert!(!bucket.admit(SimTime::ZERO, 0));
        // One second refills one token.
        assert!(bucket.admit(SimTime::from_secs(1.0), 0));
        assert!(!bucket.admit(SimTime::from_secs(1.0), 0));
        // Refill is capped at the burst size.
        assert!(bucket.admit(SimTime::from_secs(100.0), 0));
        assert!(bucket.admit(SimTime::from_secs(100.0), 0));
        assert!(!bucket.admit(SimTime::from_secs(100.0), 0));
        assert!(TokenBucketAdmission::new(0.0, 2.0).is_err());
        assert!(TokenBucketAdmission::new(1.0, 0.5).is_err());
    }

    #[test]
    fn queue_length_admission_sheds_above_the_bound() {
        let mut policy = QueueLengthAdmission::new(3).unwrap();
        assert!(policy.admit(SimTime::ZERO, 0));
        assert!(policy.admit(SimTime::ZERO, 2));
        assert!(!policy.admit(SimTime::ZERO, 3));
        assert!(!policy.admit(SimTime::ZERO, 10));
        assert!(QueueLengthAdmission::new(0).is_err());
    }

    #[test]
    fn registries_resolve_builtins_by_name() {
        let autoscalers = AutoscalerRegistry::with_builtins();
        assert_eq!(
            autoscalers.names(),
            vec!["static", "utilization", "queue-depth"]
        );
        assert_eq!(autoscalers.len(), 3);
        assert!(!autoscalers.is_empty());
        for name in autoscalers.names() {
            let policy = autoscalers.build(name, &ctx()).unwrap();
            assert_eq!(policy.name(), name);
        }
        let admissions = AdmissionRegistry::with_builtins();
        assert_eq!(
            admissions.names(),
            vec!["admit-all", "token-bucket", "queue-shed"]
        );
        for name in admissions.names() {
            let policy = admissions.build(name, &ctx()).unwrap();
            assert_eq!(policy.name(), name);
        }
    }

    #[test]
    fn registries_reject_unknown_names_and_bad_contexts() {
        let autoscalers = AutoscalerRegistry::with_builtins();
        let err = autoscalers.build("hypergrowth", &ctx()).unwrap_err();
        assert!(err.contains("unknown autoscaler `hypergrowth`"), "{err}");
        assert!(err.contains("utilization"), "{err}");
        let err = autoscalers
            .build(
                "static",
                &CapacityContext {
                    base_rps: 0.0,
                    ..ctx()
                },
            )
            .unwrap_err();
        assert!(err.contains("positive base rate"), "{err}");
        let err = AdmissionRegistry::with_builtins()
            .build("bouncer", &ctx())
            .unwrap_err();
        assert!(err.contains("unknown admission policy `bouncer`"), "{err}");
    }

    #[test]
    fn custom_factories_register_and_replace() {
        let mut registry = AdmissionRegistry::with_builtins();
        registry.register_fn("strict", |_ctx| {
            Ok(Box::new(QueueLengthAdmission::new(1)?) as Box<dyn AdmissionPolicy>)
        });
        assert_eq!(registry.len(), 4);
        let mut built = registry.build("strict", &ctx()).unwrap();
        assert!(built.admit(SimTime::ZERO, 0));
        assert!(!built.admit(SimTime::ZERO, 1));
        // Replacing keeps the original position.
        registry.register_fn("admit-all", |_ctx| {
            Ok(Box::new(QueueLengthAdmission::new(1)?) as Box<dyn AdmissionPolicy>)
        });
        assert_eq!(registry.len(), 4);
        assert_eq!(registry.names()[0], "admit-all");
    }
}
