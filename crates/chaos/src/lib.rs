//! # janus-chaos
//!
//! Seed-deterministic fault injection for the serving simulation.
//!
//! Every run so far assumed perfectly reliable hardware; production serving
//! is defined by how it degrades when it isn't. This crate adds failure
//! modes as a first-class, registry-driven axis — the generic
//! [`Registry`] every other axis uses — so sweeps and sessions resolve
//! faults by name and downstream code can register its own.
//!
//! A [`FaultInjector`] does **not** mutate the cluster itself. It compiles a
//! [`FaultContext`] (seed, fleet size, zones, load shape) into a
//! [`FaultSchedule`]: a time-sorted list of [`FaultEvent`]s plus a derived
//! victim-selection seed. The open loop in `janus-platform` delivers those
//! events through its existing capacity-tick machinery, so crashes interact
//! with autoscaling, admission control and drain/retire exactly like any
//! other fleet change — and, because both the schedule and the victim
//! choices derive from the run seed, every fault sequence is bit-reproducible.
//!
//! Built-ins (see [`FaultRegistry::with_builtins`]):
//!
//! * `node-crash` — abrupt loss of individual nodes; in-flight requests on
//!   a crashed node are retried once, then fail.
//! * `spot-preempt` — termination *with notice*: victims start draining and
//!   are force-killed only if still alive at the deadline, so draining can
//!   beat the preemption.
//! * `zone-outage` — correlated loss of every node in one availability zone
//!   (see `ClusterConfig::zones`).
//! * `slow-node` — degraded mode: victims stay up but multiply the service
//!   time of everything placed on them for a while.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
use janus_simcore::rng::SimRng;
use janus_simcore::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// Everything an injector may consult when compiling its schedule — the
/// fault-side mirror of `janus-platform`'s `CapacityContext`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultContext {
    /// The run seed; both event times and victim selection derive from it.
    pub seed: u64,
    /// Nodes the cluster starts with.
    pub initial_nodes: usize,
    /// Availability zones the cluster is spread over.
    pub zones: usize,
    /// Long-run mean arrival rate of the run (requests per second).
    pub base_rps: f64,
    /// Number of requests the run will generate.
    pub requests: usize,
    /// End-to-end latency SLO requests are served under.
    pub slo: SimDuration,
}

impl FaultContext {
    /// Validate the context before any injector consumes it.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err(format!(
                "fault context needs a positive base rate, got {}",
                self.base_rps
            ));
        }
        if self.initial_nodes == 0 {
            return Err("fault context needs at least one initial node".into());
        }
        if self.zones == 0 {
            return Err("fault context needs at least one zone".into());
        }
        if self.requests == 0 {
            return Err("fault context needs at least one request".into());
        }
        Ok(())
    }

    /// Expected span of the arrival process in seconds — the window faults
    /// are scheduled inside so they actually land mid-run.
    pub fn expected_span_secs(&self) -> f64 {
        self.requests as f64 / self.base_rps
    }
}

/// One fault to apply to the fleet. Victim *counts* are fixed by the
/// schedule; the concrete victim nodes are chosen at delivery time against
/// the live fleet using the schedule's [`victim_seed`](FaultSchedule) so the
/// choice stays valid under autoscaling and remains seed-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Abruptly kill `count` nodes. Pods on them are lost; their in-flight
    /// requests are retried once, then fail.
    Crash {
        /// Nodes to kill.
        count: usize,
    },
    /// Preempt `count` nodes with notice: they start draining immediately
    /// and are force-crashed only if still alive `notice` later.
    Preempt {
        /// Nodes to preempt.
        count: usize,
        /// Grace period between the drain and the forced kill.
        notice: SimDuration,
    },
    /// Kill every non-retired node in one availability zone.
    ZoneOutage {
        /// The zone that dies.
        zone: usize,
    },
    /// Degrade `count` nodes: service times of work placed on them are
    /// multiplied by `factor` until `duration` has elapsed.
    SlowNodes {
        /// Nodes to degrade.
        count: usize,
        /// Service-time multiplier (> 1 slows the node down).
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
}

impl FaultAction {
    /// Stable short name of the action variant, used by trace records (the
    /// `fault` field of a flight-recorder line) and human-readable output.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultAction::Crash { .. } => "crash",
            FaultAction::Preempt { .. } => "preempt",
            FaultAction::ZoneOutage { .. } => "zone-outage",
            FaultAction::SlowNodes { .. } => "slow-nodes",
        }
    }
}

/// One scheduled fault: an action and the simulated instant it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires (delivered at the first capacity tick at or
    /// after this instant).
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// The compiled output of one injector for one run: a time-sorted event
/// list plus the seed victim selection draws from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Name of the injector that produced the schedule.
    pub injector: String,
    /// Seed for delivery-time victim selection, derived from the run seed.
    pub victim_seed: u64,
    /// Scheduled faults, sorted by firing time.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule under `injector`'s name (nothing ever fails).
    pub fn empty(injector: impl Into<String>, victim_seed: u64) -> Self {
        FaultSchedule {
            injector: injector.into(),
            victim_seed,
            events: Vec::new(),
        }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// An object-safe fault injector: a name to register it under and a pure
/// compilation step from context to schedule. Injectors hold no run state —
/// all randomness flows from the context's seed, so the same context always
/// compiles to the identical schedule.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    /// The name the injector is registered (and reported) under.
    fn name(&self) -> &str;

    /// Compile the fault schedule for one run.
    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String>;
}

/// The ordered, open registry of named [`FaultInjector`]s (see
/// [`janus_simcore::registry`]); registration order drives sweep ordering.
pub type FaultRegistry = Registry<dyn FaultInjector>;

impl Entry for dyn FaultInjector {
    const NOUN: &'static str = "fault injector";

    fn key(&self) -> &str {
        self.name()
    }

    /// The built-in injectors, in severity order: `node-crash`,
    /// `spot-preempt`, `zone-outage`, `slow-node`.
    fn builtins(registry: &mut FaultRegistry) {
        registry.register(Arc::new(NodeCrashInjector));
        registry.register(Arc::new(SpotPreemptInjector));
        registry.register(Arc::new(ZoneOutageInjector));
        registry.register(Arc::new(SlowNodeInjector));
    }
}

impl Factory for dyn FaultInjector {
    type Ctx<'a> = FaultContext;
    type Output = FaultSchedule;

    fn validate(ctx: &FaultContext) -> Result<(), String> {
        ctx.validate()
    }

    /// Compile the schedule and sort it by firing time, whatever order the
    /// injector produced it in.
    fn make(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        let mut schedule = self.schedule(ctx)?;
        schedule
            .events
            .sort_by(|a, b| a.at.as_millis().total_cmp(&b.at.as_millis()));
        Ok(schedule)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&FaultContext) -> Result<FaultSchedule, String> + Send + Sync + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> FaultInjector for NamedFn<F>
where
    F: Fn(&FaultContext) -> Result<FaultSchedule, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        (self.f)(ctx)
    }
}

/// Per-injector RNG: forked from the run seed and a per-injector tag so two
/// injectors under the same seed draw independent streams.
fn injector_rng(ctx: &FaultContext, tag: u64) -> SimRng {
    SimRng::seed_from_u64(ctx.seed).fork(tag)
}

/// Draw a firing time uniformly inside `[lo, hi]` fractions of the run span.
fn time_in_span(rng: &mut SimRng, ctx: &FaultContext, lo: f64, hi: f64) -> SimTime {
    let span = ctx.expected_span_secs();
    SimTime::from_secs(rng.uniform_range(lo * span, hi * span))
}

/// Abrupt loss of individual nodes: roughly a third of the initial fleet
/// crashes, one node at a time, at seed-drawn instants inside the middle of
/// the run.
#[derive(Debug, Clone, Default)]
pub struct NodeCrashInjector;

impl FaultInjector for NodeCrashInjector {
    fn name(&self) -> &str {
        "node-crash"
    }

    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        let mut rng = injector_rng(ctx, 0xC4A5);
        let crashes = ctx.initial_nodes.div_ceil(3);
        let events = (0..crashes)
            .map(|_| FaultEvent {
                at: time_in_span(&mut rng, ctx, 0.15, 0.75),
                action: FaultAction::Crash { count: 1 },
            })
            .collect();
        Ok(FaultSchedule {
            injector: self.name().to_string(),
            victim_seed: rng.next_u64(),
            events,
        })
    }
}

/// Spot-instance preemption: about a quarter of the initial fleet receives a
/// termination notice mid-run and is force-killed only if still alive when
/// the notice expires.
#[derive(Debug, Clone, Default)]
pub struct SpotPreemptInjector;

impl SpotPreemptInjector {
    /// The termination notice spot victims receive before the forced kill.
    pub fn notice() -> SimDuration {
        SimDuration::from_secs(10.0)
    }
}

impl FaultInjector for SpotPreemptInjector {
    fn name(&self) -> &str {
        "spot-preempt"
    }

    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        let mut rng = injector_rng(ctx, 0x59D7);
        let count = ctx.initial_nodes.div_ceil(4);
        let events = vec![FaultEvent {
            at: time_in_span(&mut rng, ctx, 0.2, 0.6),
            action: FaultAction::Preempt {
                count,
                notice: Self::notice(),
            },
        }];
        Ok(FaultSchedule {
            injector: self.name().to_string(),
            victim_seed: rng.next_u64(),
            events,
        })
    }
}

/// Correlated loss of one whole availability zone near the middle of the
/// run — the headline "zone dies mid flash-crowd" scenario. With a
/// single-zone cluster this is total loss (the all-failed degenerate case).
#[derive(Debug, Clone, Default)]
pub struct ZoneOutageInjector;

impl FaultInjector for ZoneOutageInjector {
    fn name(&self) -> &str {
        "zone-outage"
    }

    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        let mut rng = injector_rng(ctx, 0x20E0);
        let zone = rng.int_range(0, ctx.zones as u64 - 1) as usize;
        let events = vec![FaultEvent {
            at: time_in_span(&mut rng, ctx, 0.4, 0.6),
            action: FaultAction::ZoneOutage { zone },
        }];
        Ok(FaultSchedule {
            injector: self.name().to_string(),
            victim_seed: rng.next_u64(),
            events,
        })
    }
}

/// Degraded mode: about a quarter of the initial fleet triples its service
/// times for a quarter of the run — the node is up, placements still land
/// on it, everything on it just runs slow.
#[derive(Debug, Clone, Default)]
pub struct SlowNodeInjector;

impl SlowNodeInjector {
    /// Service-time multiplier applied to degraded nodes.
    pub const FACTOR: f64 = 3.0;
}

impl FaultInjector for SlowNodeInjector {
    fn name(&self) -> &str {
        "slow-node"
    }

    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, String> {
        let mut rng = injector_rng(ctx, 0x510E);
        let count = ctx.initial_nodes.div_ceil(4);
        let duration = SimDuration::from_secs(0.25 * ctx.expected_span_secs());
        let events = vec![FaultEvent {
            at: time_in_span(&mut rng, ctx, 0.2, 0.5),
            action: FaultAction::SlowNodes {
                count,
                factor: Self::FACTOR,
                duration,
            },
        }];
        Ok(FaultSchedule {
            injector: self.name().to_string(),
            victim_seed: rng.next_u64(),
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FaultContext {
        FaultContext {
            seed: 42,
            initial_nodes: 4,
            zones: 2,
            base_rps: 6.0,
            requests: 120,
            slo: SimDuration::from_secs(3.0),
        }
    }

    #[test]
    fn builtins_register_in_severity_order() {
        let registry = FaultRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec!["node-crash", "spot-preempt", "zone-outage", "slow-node"]
        );
        assert_eq!(registry.len(), 4);
        assert!(!registry.is_empty());
        for name in registry.names() {
            let schedule = registry.build(name, &ctx()).unwrap();
            assert_eq!(schedule.injector, name);
            assert!(!schedule.is_empty(), "{name} schedules at least one fault");
        }
    }

    #[test]
    fn schedules_are_seed_deterministic_and_seed_sensitive() {
        let registry = FaultRegistry::with_builtins();
        for name in registry.names() {
            let a = registry.build(name, &ctx()).unwrap();
            let b = registry.build(name, &ctx()).unwrap();
            assert_eq!(a, b, "{name}: same seed must compile identically");
            let other = registry
                .build(name, &FaultContext { seed: 43, ..ctx() })
                .unwrap();
            assert_ne!(
                (a.victim_seed, a.events.clone()),
                (other.victim_seed, other.events.clone()),
                "{name}: a different seed must change the schedule"
            );
        }
    }

    #[test]
    fn events_land_inside_the_run_span_in_time_order() {
        let registry = FaultRegistry::with_builtins();
        let span = ctx().expected_span_secs();
        for name in registry.names() {
            let schedule = registry.build(name, &ctx()).unwrap();
            for w in schedule.events.windows(2) {
                assert!(w[0].at <= w[1].at, "{name}: events must be sorted");
            }
            for ev in &schedule.events {
                let at = ev.at.as_millis() / 1000.0;
                assert!(
                    at > 0.0 && at < span,
                    "{name}: fault at {at}s outside the {span}s span"
                );
            }
        }
    }

    #[test]
    fn zone_outage_targets_a_configured_zone() {
        let registry = FaultRegistry::with_builtins();
        for seed in 0..20 {
            let schedule = registry
                .build("zone-outage", &FaultContext { seed, ..ctx() })
                .unwrap();
            assert_eq!(schedule.len(), 1);
            match schedule.events[0].action {
                FaultAction::ZoneOutage { zone } => assert!(zone < 2),
                ref other => panic!("unexpected action {other:?}"),
            }
        }
        // A single-zone cluster can only lose zone 0 (total loss).
        let schedule = registry
            .build("zone-outage", &FaultContext { zones: 1, ..ctx() })
            .unwrap();
        assert_eq!(
            schedule.events[0].action,
            FaultAction::ZoneOutage { zone: 0 }
        );
    }

    #[test]
    fn registry_rejects_unknown_names_and_bad_contexts() {
        let registry = FaultRegistry::with_builtins();
        let err = registry.build("meteor-strike", &ctx()).unwrap_err();
        assert!(
            err.contains("unknown fault injector `meteor-strike`"),
            "{err}"
        );
        assert!(
            err.contains("zone-outage"),
            "error lists the registry: {err}"
        );
        let err = registry
            .build(
                "node-crash",
                &FaultContext {
                    base_rps: 0.0,
                    ..ctx()
                },
            )
            .unwrap_err();
        assert!(err.contains("positive base rate"), "{err}");
        assert!(registry
            .build("node-crash", &FaultContext { zones: 0, ..ctx() })
            .is_err());
        assert!(registry
            .build(
                "node-crash",
                &FaultContext {
                    requests: 0,
                    ..ctx()
                }
            )
            .is_err());
        assert!(registry
            .build(
                "node-crash",
                &FaultContext {
                    initial_nodes: 0,
                    ..ctx()
                }
            )
            .is_err());
    }

    #[test]
    fn custom_injectors_register_and_replace_by_name() {
        let mut registry = FaultRegistry::with_builtins();
        registry.register_fn("double-outage", |ctx| {
            let mut schedule = FaultSchedule::empty("double-outage", ctx.seed);
            for frac in [0.3, 0.6] {
                schedule.events.push(FaultEvent {
                    at: SimTime::from_secs(frac * ctx.expected_span_secs()),
                    action: FaultAction::ZoneOutage { zone: 0 },
                });
            }
            Ok(schedule)
        });
        assert_eq!(registry.len(), 5);
        let schedule = registry.build("double-outage", &ctx()).unwrap();
        assert_eq!(schedule.len(), 2);
        assert!(!schedule.is_empty());
        // Replacing keeps the original position.
        registry.register_fn("node-crash", |ctx| {
            Ok(FaultSchedule::empty("node-crash", ctx.seed))
        });
        assert_eq!(registry.len(), 5);
        assert_eq!(registry.names()[0], "node-crash");
        assert!(registry.build("node-crash", &ctx()).unwrap().is_empty());
    }
}
