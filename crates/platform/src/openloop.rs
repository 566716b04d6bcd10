//! Open-loop, event-driven serving simulation.
//!
//! The closed-loop executor in [`crate::executor`] reproduces the paper's
//! evaluation methodology (replay 1000 requests back-to-back). This module
//! exercises the platform the way a production deployment would see it:
//! requests arrive at their `arrival_offset`s, several workflows are in
//! flight at once, pods are shared through the warm pool, and co-location of
//! concurrently running instances creates real interference.
//!
//! The simulation is agnostic to *how* the offsets were produced: it serves
//! any arrival process — constant-rate Poisson (the historical default),
//! diurnal, bursty MMPP, flash crowds, replayed traces — as long as each
//! request carries its timestamp. `janus-scenarios` defines the processes
//! and `janus-core`'s session builder (`.arrivals(..)` / `.scenario(..)`)
//! threads them into the request generator; this module is used by the
//! queueing / load / scenario-sweep experiments and by integration tests of
//! the discrete-event substrate.
//!
//! ## Streaming arrivals
//!
//! Arrivals are pulled lazily from a [`RequestSource`], one at a time: the
//! source's next arrival is held **beside** the event queue, which holds
//! only in-flight completions and the capacity tick. Serving an arrival
//! first draws the source's next one, so a run over a lazy generator
//! completes in memory bounded by in-flight work regardless of the request
//! count — the regime the `flash_scale` experiment proves at 10⁸ requests.
//! The engine delivers the held arrival ahead of every queued event at or
//! after its instant ([`Engine::hold`]), which provably reproduces the pop
//! order of the historical pre-seeded queue (where arrivals always carried
//! the globally smallest sequence numbers), so streaming and materialized
//! runs are bit-identical. The held arrival still counts as one processed
//! event and as one pending event in the queue-depth statistics.
//!
//! Each draw refills a recycled [`RequestInput`]: served, shed and failed
//! requests return theirs to the arena's spare list, so a steady-state
//! arrival neither cycles through the heap nor allocates. The slice-backed
//! entry points ([`run`] and friends) wrap their requests in a
//! [`SliceSource`] and serve them through the same lazy core.
//!
//! ## Capacity control
//!
//! With [`CapacityControls`], one crate-private control loop owns the
//! autoscaler, the admission policy, the fault runtime, the book-keeping
//! behind the [`CapacityReport`] and the tick cadence, so the event loop
//! checks one `Option` for all of them. The shed, failed, retried and
//! scaling counts live only in the run's serving tally.
//!
//! [`run`]: OpenLoopSimulation::run

use crate::capacity::{AdmissionPolicy, AutoscalerPolicy, ScalingAction, ScalingObservation};
use crate::executor::ExecutorConfig;
use crate::fleet::{self, Fleet};
use crate::metrics::ServingMetrics;
use crate::outcome::{CapacityReport, RequestOutcome, ScalingEvent, ServingReport};
use crate::policy::SizingPolicy;
use janus_chaos::{FaultAction, FaultEvent, FaultSchedule};
use janus_observe::{Observer, Record, RecordKind, TickSample};
use janus_simcore::cluster::{Cluster, NodeState};
use janus_simcore::engine::{Engine, EngineConfig, Step};
use janus_simcore::idmap::{IdMap, IdSet};
use janus_simcore::node::NodeId;
use janus_simcore::pod::PodId;
use janus_simcore::resources::Millicores;
use janus_simcore::rng::SimRng;
use janus_simcore::time::{SimDuration, SimTime};
use janus_workloads::request::{RequestInput, RequestSource, SliceSource};
use janus_workloads::workflow::Workflow;

/// Open-loop simulation configuration: the closed loop's, since both loops
/// size, place and run a function through the same step.
pub type OpenLoopConfig = ExecutorConfig;

/// A queued event. Arrivals are held beside the queue, not in it, so every
/// queued event is follow-up work scheduled from inside the run.
#[derive(Debug, Clone)]
enum Event {
    /// The in-progress function of `request_id` finished on `pod`; the rest
    /// of the attempt's state lives in the request's [`InFlight`] entry. The
    /// pod filters out completions from pods lost to a fault.
    FunctionComplete { request_id: u64, pod: PodId },
    /// Periodic capacity evaluation: recycle idle pods, retarget the warm
    /// pool, and let the autoscaler act. Only scheduled when the run has
    /// [`CapacityControls`].
    CapacityTick,
}

/// The elastic-capacity control loops of one open-loop run: the autoscaler
/// evaluated at its tick cadence and the admission policy consulted at every
/// arrival. Both are exclusive borrows — each run re-uses or re-builds its
/// policies explicitly, keeping determinism in the caller's hands.
#[derive(Debug)]
pub struct CapacityControls<'a> {
    /// Cluster autoscaling policy.
    pub autoscaler: &'a mut dyn AutoscalerPolicy,
    /// Request admission policy.
    pub admission: &'a mut dyn AdmissionPolicy,
    /// Compiled fault schedule to deliver through the capacity tick
    /// (`None` for fault-free runs). Faults fire at the first tick at or
    /// after their scheduled instant, so they interleave deterministically
    /// with autoscaling and admission decisions.
    pub faults: Option<FaultSchedule>,
}

/// A fault-interrupted request is restarted at most this many times before
/// it is failed for good.
const FAULT_RETRY_BUDGET: u32 = 1;

/// Run-side state of one fault schedule: the delivery cursor, the
/// seed-derived victim RNG, tombstones for stale completion events of pods
/// lost mid-flight, and the delivery counters folded into the final
/// [`CapacityReport`]. Failed and retried requests are counted in the
/// run's tally.
struct FaultRuntime {
    injector: String,
    events: Vec<FaultEvent>,
    cursor: usize,
    rng: SimRng,
    lost_pods: IdSet<PodId>,
    /// Preempted nodes and the instant their termination notice expires.
    preempt_deadlines: Vec<(NodeId, SimTime)>,
    /// Degraded nodes: `(node, service-time factor, degraded until)`.
    slow: Vec<(NodeId, f64, SimTime)>,
    applied: usize,
    nodes_lost: usize,
}

impl FaultRuntime {
    fn new(schedule: FaultSchedule) -> Self {
        FaultRuntime {
            injector: schedule.injector,
            rng: SimRng::seed_from_u64(schedule.victim_seed),
            events: schedule.events,
            cursor: 0,
            lost_pods: IdSet::default(),
            preempt_deadlines: Vec::new(),
            slow: Vec::new(),
            applied: 0,
            nodes_lost: 0,
        }
    }

    /// Service-time multiplier the pod's node is currently subjected to
    /// (1.0 when healthy or unplaced).
    fn slow_factor(&self, node: Option<NodeId>, now: SimTime) -> f64 {
        let Some(node) = node else { return 1.0 };
        self.slow
            .iter()
            .filter(|(n, _, until)| *n == node && now < *until)
            .map(|(_, factor, _)| *factor)
            .fold(1.0, f64::max)
    }

    /// Pick up to `count` distinct victims among the active nodes, driven by
    /// the schedule's victim seed. The candidate list is in id order, so the
    /// same seed against the same fleet picks the same victims.
    fn pick_victims(&mut self, cluster: &Cluster, count: usize) -> Vec<NodeId> {
        let mut candidates = cluster.active_nodes();
        let mut victims = Vec::new();
        while victims.len() < count && !candidates.is_empty() {
            let idx = self.rng.int_range(0, candidates.len() as u64 - 1) as usize;
            victims.push(candidates.swap_remove(idx));
        }
        victims.sort_by_key(|id| id.0);
        victims
    }
}

/// Book-keeping behind one run's [`CapacityReport`]. Its action counters
/// (shed, failed, retried, scale-ups, scale-downs) live in the run's tally.
struct CapacityAccounting {
    events: Vec<ScalingEvent>,
    node_seconds: f64,
    billed_until: SimTime,
    peak_nodes: usize,
    peak_inflight: usize,
    pods_recycled: usize,
}

impl CapacityAccounting {
    fn new(initial_nodes: usize) -> Self {
        CapacityAccounting {
            events: Vec::new(),
            node_seconds: 0.0,
            billed_until: SimTime::ZERO,
            peak_nodes: initial_nodes,
            peak_inflight: 0,
            pods_recycled: 0,
        }
    }

    /// Bill the elapsed interval at the pre-event node count. Called before
    /// anything can change the fleet, so the node-seconds integral is exact.
    fn bill(&mut self, now: SimTime, nodes: usize) {
        self.node_seconds += now.saturating_since(self.billed_until).as_secs() * nodes as f64;
        self.billed_until = now;
        self.peak_nodes = self.peak_nodes.max(nodes);
    }

    /// Log the fleet's change from `from_nodes` to its current size at
    /// `now`, and offer it to the observer. Autoscaler actions and fault
    /// losses share the log, so determinism checks cover both.
    fn log_scaling(&mut self, fleet: &mut Fleet<'_, '_>, now: SimTime, from_nodes: usize) {
        let to_nodes = fleet.cluster.node_count();
        self.events.push(ScalingEvent {
            at: now,
            from_nodes,
            to_nodes,
        });
        emit!(
            fleet.observer,
            now,
            RecordKind::Scaling {
                from_nodes,
                to_nodes,
            }
        );
    }
}

/// The elastic-capacity side of one run, present exactly when the run has
/// [`CapacityControls`]: the policies, the fault runtime (when the controls
/// carry a schedule), the capacity book-keeping and the tick cadence.
struct ControlLoop<'c> {
    autoscaler: &'c mut dyn AutoscalerPolicy,
    admission: &'c mut dyn AdmissionPolicy,
    faults: Option<FaultRuntime>,
    accounting: CapacityAccounting,
    cadence: SimDuration,
}

impl<'c> ControlLoop<'c> {
    fn new(controls: CapacityControls<'c>, initial_nodes: usize) -> Self {
        let CapacityControls {
            autoscaler,
            admission,
            faults,
        } = controls;
        // A degenerate (zero / negative) cadence from a custom autoscaler
        // would reschedule the tick at the same instant forever, spinning
        // the event loop to its max-events cap; clamp to 1 ms.
        let floor = SimDuration::from_millis(1.0);
        let cadence = autoscaler.tick();
        ControlLoop {
            cadence: if cadence > floor { cadence } else { floor },
            autoscaler,
            admission,
            faults: faults.map(FaultRuntime::new),
            accounting: CapacityAccounting::new(initial_nodes),
        }
    }

    /// One capacity tick at `now`, in a fixed order: deliver the faults
    /// due, recycle idle pods, apply the autoscaler's decision, update the
    /// node peak, retarget the warm pool, sample telemetry, and schedule
    /// the next tick while anything can still happen.
    // Kept out of line: inlined into the event loop's match, this
    // once-per-tick body read about 4% lower `sim_req_per_ref` on
    // perfbench's tick-free `fleet_steady` (2-core host).
    #[inline(never)]
    fn capacity_tick(
        &mut self,
        policy: &mut dyn SizingPolicy,
        fleet: &mut Fleet<'_, '_>,
        arena: &mut OpenLoopArena,
        source: &dyn RequestSource,
        on_outcome: &mut dyn FnMut(RequestOutcome),
        now: SimTime,
    ) {
        let acct = &mut self.accounting;
        // Faults land before the autoscaler observes, so the same tick can
        // already react to the loss.
        if let Some(rt) = self.faults.as_mut() {
            rt.deliver_faults(policy, fleet, arena, acct, on_outcome, now);
        }
        acct.pods_recycled += fleet.pool.recycle_idle(now);
        let observation = ScalingObservation {
            now,
            active_nodes: fleet.cluster.active_node_count(),
            utilization: fleet.cluster.utilization(),
            inflight: arena.inflight.len(),
        };
        let before = fleet.cluster.node_count();
        match self.autoscaler.observe(&observation) {
            ScalingAction::Hold => {}
            ScalingAction::ScaleUp(nodes) => {
                for _ in 0..nodes {
                    fleet
                        .cluster
                        .add_node(fleet.config.cluster.node_capacity)
                        // janus-lint: allow(unwrap-discipline) — capacity came from the validated config; add_node only rejects zero
                        .expect("validated node capacity");
                }
                if nodes > 0 {
                    fleet.tally.scale_ups += 1;
                    acct.log_scaling(fleet, now, before);
                }
            }
            ScalingAction::ScaleDown(nodes) => {
                // Allocation-aware: busy nodes drain and retire once their
                // last pod leaves; the fleet never drops below one active
                // node.
                let drained = fleet.cluster.drain_least_allocated(nodes, 1);
                if !drained.is_empty() {
                    fleet.tally.scale_downs += 1;
                    acct.log_scaling(fleet, now, before);
                }
            }
        }
        acct.peak_nodes = acct.peak_nodes.max(fleet.cluster.node_count());
        // Warm-pool depth follows the fleet: the configured pool size is
        // the per-initial-fleet baseline, scaled to the current active node
        // count.
        let base_pool = fleet.config.pool.pool_size;
        let initial_nodes = fleet.config.cluster.nodes.max(1);
        let target = (base_pool * fleet.cluster.active_node_count()).div_ceil(initial_nodes);
        if target != fleet.pool.target_pool_size() {
            fleet.pool.set_target_pool_size(target);
        }
        // One telemetry sample per tick, after faults and the autoscaler
        // have acted — the flight recorder's time-series axis. Only built
        // when an observer is attached (the per-zone breakdown allocates).
        if let Some(o) = fleet.observer.as_deref_mut() {
            o.tick(&TickSample {
                at: now,
                // Arrivals the lazy discipline has not drawn yet still
                // count as queued work, so streaming and pre-seeded runs
                // report identical depths.
                queue_depth: arena.engine.pending() + source.len_hint().unwrap_or(0),
                inflight: arena.inflight.len(),
                active_nodes: fleet.cluster.active_node_count(),
                nodes_per_zone: fleet.cluster.active_nodes_per_zone(),
                utilization: fleet.cluster.utilization(),
                pool_size: fleet.pool.generic_available(),
                shed: fleet.tally.shed,
                failed: fleet.tally.failed,
                retried: fleet.tally.retried,
            });
        }
        // Keep ticking while anything can still happen.
        if arena.engine.pending() > 0 || !arena.inflight.is_empty() {
            arena.engine.schedule_in(self.cadence, Event::CapacityTick);
        }
    }

    /// The run's capacity report, once the event loop has drained; `drawn`
    /// is the number of arrivals drawn from the source.
    fn report(self, fleet: &Fleet<'_, '_>, drawn: usize) -> CapacityReport {
        let tally = &fleet.tally;
        let acct = self.accounting;
        let rt = self.faults.as_ref();
        CapacityReport {
            autoscaler: self.autoscaler.name().to_string(),
            admission: self.admission.name().to_string(),
            generated: drawn,
            admitted: tally.requests as usize,
            shed: tally.shed as usize,
            failed: tally.failed as usize,
            retried: tally.retried as usize,
            scale_ups: tally.scale_ups as usize,
            scale_downs: tally.scale_downs as usize,
            events: acct.events,
            node_seconds: acct.node_seconds,
            peak_nodes: acct.peak_nodes,
            final_nodes: fleet.cluster.node_count(),
            peak_inflight: acct.peak_inflight,
            pods_recycled: acct.pods_recycled,
            final_allocated_mc: u64::from(fleet.cluster.total_allocated().get()),
            injector: rt.map(|rt| rt.injector.clone()),
            faults_applied: rt.map_or(0, |rt| rt.applied),
            nodes_lost: rt.map_or(0, |rt| rt.nodes_lost),
        }
    }
}

#[derive(Debug)]
struct InFlight {
    input: RequestInput,
    started_at: SimTime,
    e2e: SimDuration,
    allocations: Vec<Millicores>,
    latencies: Vec<SimDuration>,
    /// Fault-triggered restarts consumed so far.
    retries: u32,
    /// Pod the in-progress function runs on (fault victim lookup).
    current_pod: Option<PodId>,
    /// Index of the in-progress function (restart target after a crash).
    current_index: usize,
    /// When the in-progress function attempt started (its wall time still
    /// counts against the request if a fault voids the attempt).
    current_started: SimTime,
    /// Execution time of the in-progress attempt.
    current_exec: SimDuration,
    /// Execution plus startup delay of the in-progress attempt: what its
    /// completion adds to `e2e`.
    current_elapsed: SimDuration,
}

/// Reusable simulation state for paired open-loop runs.
///
/// A paired session replays the same request set under several policies;
/// each run used to build a fresh engine heap and in-flight table. The
/// arena keeps those allocations alive across runs (the engine's
/// [`reset`](Engine::reset) retains its heap capacity), holds the source's
/// next arrival beside the event queue together with the spare inputs
/// later draws refill, and exposes the run statistics — events processed,
/// peak queue depth — that perfbench reports.
#[derive(Debug)]
pub struct OpenLoopArena {
    engine: Engine<Event>,
    /// Keyed by request id; only probed, counted, or collected and sorted
    /// (`deliver_faults`), so its order never reaches an output.
    inflight: IdMap<u64, InFlight>,
    /// The source's next arrival; the engine holds its firing time.
    arrival: Option<RequestInput>,
    /// Inputs of finished, shed and failed requests, refilled in place by
    /// later draws.
    spare: Vec<RequestInput>,
    peak_resident: usize,
}

impl Default for OpenLoopArena {
    fn default() -> Self {
        Self::new()
    }
}

impl OpenLoopArena {
    /// Fresh arena; allocations grow on first use and are then reused.
    pub fn new() -> Self {
        Self::with_engine_config(EngineConfig::default())
    }

    /// Arena with an explicit engine configuration. The default caps a run
    /// at 50M events; paper-scale streaming runs (`flash_scale` processes
    /// 4×10⁸) lift the cap with `max_events: None`.
    pub fn with_engine_config(config: EngineConfig) -> Self {
        OpenLoopArena {
            engine: Engine::new(config),
            inflight: IdMap::default(),
            arrival: None,
            spare: Vec::new(),
            peak_resident: 0,
        }
    }

    /// Events processed by the most recent run, each served arrival among
    /// them.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Peak event-queue depth of the most recent run, counting the arrival
    /// held beside the queue.
    pub fn peak_queue_depth(&self) -> usize {
        self.engine.peak_pending()
    }

    /// Peak number of arrivals held materialized at once during the most
    /// recent run: the requests resident inside the source plus the one
    /// arrival held beside the event queue. Slice-backed runs report ≈ the
    /// request count (the slice is already in memory); streaming runs
    /// report ≈ the stream count — the bounded-memory invariant.
    pub fn peak_resident_arrivals(&self) -> usize {
        self.peak_resident
    }
}

/// Event-driven serving simulation.
#[derive(Debug)]
pub struct OpenLoopSimulation {
    workflow: Workflow,
    config: ExecutorConfig,
}

impl OpenLoopSimulation {
    /// Create a simulation for one workflow.
    pub fn new(workflow: Workflow, config: ExecutorConfig) -> Self {
        OpenLoopSimulation { workflow, config }
    }

    /// Run the simulation: `requests` arrive at their `arrival_offset`s and
    /// are served concurrently under `policy`. Fails if the request set
    /// cannot be scheduled (an arrival behind the already-advanced clock).
    pub fn run(
        &self,
        policy: &mut dyn SizingPolicy,
        requests: &[RequestInput],
    ) -> Result<ServingReport, String> {
        self.run_traced(
            policy,
            requests,
            &mut OpenLoopArena::new(),
            None,
            None,
            None,
        )
    }

    /// The fully-instrumented serving loop over a request slice: [`run`](Self::run)
    /// with reusable state, optional metrics, optional elastic-capacity
    /// control and an optional flight-recorder hook.
    ///
    /// - The `arena` carries engine/in-flight allocations (and run
    ///   statistics) across paired runs, and every served event is tallied
    ///   by the loop and flushed into the pre-interned [`ServingMetrics`]
    ///   handles once, at the end of the run.
    /// - With [`CapacityControls`], every arrival is gated by the admission
    ///   policy (shed requests are recorded as
    ///   [`RequestDisposition::Shed`](crate::outcome::RequestDisposition::Shed)
    ///   outcomes and counted through the `shed` metric), and a periodic
    ///   capacity tick recycles idle pods, retargets the warm pool to the
    ///   fleet size, and applies the autoscaler's decisions; the returned
    ///   report then carries a [`CapacityReport`]. When the controls also
    ///   carry a compiled [`FaultSchedule`], each tick first delivers the
    ///   faults due by then — crashing, preempting or degrading nodes,
    ///   dropping the lost pods from pool and cluster tracking, and
    ///   retrying (once) or failing the requests that were running on them
    ///   — so failures, autoscaling and admission interleave on one
    ///   deterministic timeline.
    /// - With an [`Observer`] attached, every request lifecycle step
    ///   (arrival, admission verdict, placement, cold start, execution,
    ///   retry, fault delivery, scaling, shed/fail/completion) is offered as
    ///   a typed record stamped with simulated time, and every capacity tick
    ///   contributes a fleet-telemetry sample. With `None` the hooks compile
    ///   down to a branch on the `Option` discriminant — no record is
    ///   constructed and nothing is allocated, so untraced runs cost what
    ///   they did before the hooks existed (the perf bench guards this).
    pub fn run_traced(
        &self,
        policy: &mut dyn SizingPolicy,
        requests: &[RequestInput],
        arena: &mut OpenLoopArena,
        metrics: Option<&ServingMetrics>,
        controls: Option<CapacityControls<'_>>,
        observer: Option<&mut dyn Observer>,
    ) -> Result<ServingReport, String> {
        // The slice is served through the same lazy core as a true stream;
        // [`SliceSource`] yields it in stable arrival-time order, which is
        // exactly the order the historical pre-seeded queue popped it in.
        let mut source = SliceSource::new(requests);
        self.run_from_source(policy, &mut source, arena, metrics, controls, observer)
    }

    /// Serve requests pulled lazily from a [`RequestSource`], collecting
    /// outcomes into a [`ServingReport`] (sorted by request id, as the
    /// slice-backed entry points always reported). Memory stays bounded by
    /// in-flight work plus whatever the source itself holds resident — but
    /// the report still materializes one outcome per request; callers that
    /// must stay bounded at paper scale aggregate through
    /// [`run_streaming`](Self::run_streaming) instead.
    pub fn run_from_source(
        &self,
        policy: &mut dyn SizingPolicy,
        source: &mut dyn RequestSource,
        arena: &mut OpenLoopArena,
        metrics: Option<&ServingMetrics>,
        controls: Option<CapacityControls<'_>>,
        observer: Option<&mut dyn Observer>,
    ) -> Result<ServingReport, String> {
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(source.len_hint().unwrap_or(0));
        let capacity = self.run_streaming(
            policy,
            source,
            arena,
            metrics,
            controls,
            observer,
            &mut |outcome| outcomes.push(outcome),
        )?;
        // Streamed outcomes surface in completion order; reports keep the
        // historical id order.
        order_by_request_id(&mut outcomes);
        Ok(fleet::report(
            policy,
            &self.workflow,
            &self.config,
            outcomes,
            capacity,
        ))
    }

    /// The streaming core behind every entry point: arrivals are drawn from
    /// `source` one at a time as simulated time advances (one arrival held
    /// beside the queue while the source has more), and every finished
    /// request is handed to `on_outcome` in completion order and then
    /// dropped — nothing is retained per request, so aggregating callers
    /// run 10⁸-request workloads in memory bounded by in-flight work. The
    /// capacity report (when controls are attached) is returned directly;
    /// its `generated` count is the number of arrivals drawn.
    #[allow(clippy::too_many_arguments)]
    pub fn run_streaming(
        &self,
        policy: &mut dyn SizingPolicy,
        source: &mut dyn RequestSource,
        arena: &mut OpenLoopArena,
        metrics: Option<&ServingMetrics>,
        controls: Option<CapacityControls<'_>>,
        observer: Option<&mut dyn Observer>,
        on_outcome: &mut dyn FnMut(RequestOutcome),
    ) -> Result<Option<CapacityReport>, String> {
        arena.engine.reset();
        arena.inflight.clear();
        // A truncated run (event cap, horizon) can end with an arrival held.
        arena.spare.extend(arena.arrival.take());
        arena.peak_resident = 0;
        // The fleet's tally is flushed into `metrics` when the fleet is
        // dropped: when the run ends, or at an early error return.
        let mut fleet = Fleet::new(&self.workflow, &self.config, metrics, observer);
        let mut control = controls.map(|c| ControlLoop::new(c, fleet.cluster.node_count()));

        // Lazy arrival discipline: the source's next arrival is held beside
        // the queue while the source has more, and the engine delivers it
        // ahead of same-timestamp completions and ticks, reproducing the
        // pre-seeded pop order bit-for-bit.
        let mut drawn = usize::from(arena.draw_arrival(source, &self.workflow)?);
        if let Some(c) = &control {
            arena.engine.schedule_in(c.cadence, Event::CapacityTick);
        }

        // The event loop is written iteratively (rather than via Engine::run)
        // because each event needs mutable access to the policy, pool and
        // cluster in addition to the engine.
        while let Some(step) = arena.engine.step() {
            let now = arena.engine.now();
            // Bill elapsed node-seconds at the pre-event fleet size; every
            // fleet change happens inside an event.
            if let Some(c) = control.as_mut() {
                c.accounting.bill(now, fleet.cluster.node_count());
            }
            match step {
                Step::Held => {
                    let Some(input) = arena.arrival.take() else {
                        unreachable!("the engine holds an event only while an arrival is held");
                    };
                    // Refill before serving: the source's next arrival (if
                    // any) must be held before anything can observe the
                    // queue, keeping the one-held-arrival invariant and
                    // the tick reschedule condition exact.
                    drawn += usize::from(arena.draw_arrival(source, &self.workflow)?);
                    emit!(
                        fleet.observer,
                        now,
                        RecordKind::Arrival { request: input.id }
                    );
                    if let Some(c) = control.as_mut() {
                        let admitted = c.admission.admit(now, arena.inflight.len());
                        emit!(
                            fleet.observer,
                            now,
                            RecordKind::Admission {
                                request: input.id,
                                admitted,
                            }
                        );
                        if !admitted {
                            fleet.tally.shed += 1;
                            emit!(fleet.observer, now, RecordKind::Shed { request: input.id });
                            on_outcome(RequestOutcome::shed(input.id));
                            arena.spare.push(input);
                            continue;
                        }
                    }
                    fleet.tally.requests += 1;
                    if let Some(c) = control.as_ref() {
                        if c.faults.is_some() && fleet.cluster.node_count() == 0 {
                            // The whole fleet is gone and nothing has scaled
                            // it back up: an admitted request has nowhere to
                            // run.
                            fleet.tally.failed += 1;
                            emit!(
                                fleet.observer,
                                now,
                                RecordKind::Failed {
                                    request: input.id,
                                    e2e: SimDuration::ZERO,
                                }
                            );
                            on_outcome(RequestOutcome::failed(
                                input.id,
                                SimDuration::ZERO,
                                Vec::new(),
                                Vec::new(),
                            ));
                            arena.spare.push(input);
                            continue;
                        }
                    }
                    policy.on_admit(&fleet.context(input.id));
                    let request_id = input.id;
                    let state = InFlight {
                        input,
                        started_at: now,
                        e2e: SimDuration::ZERO,
                        allocations: Vec::new(),
                        latencies: Vec::new(),
                        retries: 0,
                        current_pod: None,
                        current_index: 0,
                        current_started: now,
                        current_exec: SimDuration::ZERO,
                        current_elapsed: SimDuration::ZERO,
                    };
                    arena.inflight.insert(request_id, state);
                    if let Some(c) = control.as_mut() {
                        c.accounting.peak_inflight =
                            c.accounting.peak_inflight.max(arena.inflight.len());
                    }
                    let faults = control.as_ref().and_then(|c| c.faults.as_ref());
                    arena.start_function(&mut fleet, policy, request_id, 0, now, faults);
                }
                Step::Queued(Event::FunctionComplete { request_id, pod }) => {
                    if let Some(rt) = control.as_mut().and_then(|c| c.faults.as_mut()) {
                        if rt.lost_pods.remove(&pod) {
                            // Stale completion of a pod lost to a fault; the
                            // request was already retried or failed when the
                            // node went down.
                            continue;
                        }
                    }
                    let state = arena
                        .inflight
                        .get_mut(&request_id)
                        // janus-lint: allow(unwrap-discipline) — completions only fire for requests this loop inserted; fault loss is filtered above
                        .expect("in-flight request");
                    let (index, exec) = (state.current_index, state.current_exec);
                    state.e2e += state.current_elapsed;
                    state.latencies.push(exec);
                    let finished = state.latencies.len() == self.workflow.len();
                    // Un-placing the pod may also retire a draining node.
                    fleet.finish(policy, request_id, index, pod, exec, now);
                    if finished {
                        let state = arena
                            .inflight
                            .remove(&request_id)
                            // janus-lint: allow(unwrap-discipline) — present: get_mut on the same key succeeded just above
                            .expect("in-flight request");
                        on_outcome(fleet.served(
                            request_id,
                            state.e2e,
                            state.allocations,
                            state.latencies,
                            now,
                        ));
                        arena.spare.push(state.input);
                    } else {
                        let faults = control.as_ref().and_then(|c| c.faults.as_ref());
                        arena.start_function(
                            &mut fleet,
                            policy,
                            request_id,
                            index + 1,
                            now,
                            faults,
                        );
                    }
                }
                Step::Queued(Event::CapacityTick) => {
                    // Only ever scheduled by a run with controls.
                    if let Some(c) = control.as_mut() {
                        c.capacity_tick(policy, &mut fleet, arena, &*source, &mut *on_outcome, now);
                    }
                }
            }
        }
        Ok(control.map(|c| c.report(&fleet, drawn)))
    }
}

impl FaultRuntime {
    /// Deliver every fault due at `now`: expire preemption notices, apply
    /// scheduled events, and retry or fail the requests whose pods were
    /// lost. Called at the top of each capacity tick, so fault effects and
    /// the control loops interleave on the same deterministic cadence.
    fn deliver_faults(
        &mut self,
        policy: &mut dyn SizingPolicy,
        fleet: &mut Fleet<'_, '_>,
        arena: &mut OpenLoopArena,
        acct: &mut CapacityAccounting,
        on_outcome: &mut dyn FnMut(RequestOutcome),
        now: SimTime,
    ) {
        // Preemption deadlines first: a victim still alive when its notice
        // expires is force-killed; one that finished draining beat it.
        let mut crashed: Vec<NodeId> = self
            .preempt_deadlines
            .iter()
            .filter(|(node, deadline)| {
                *deadline <= now && fleet.cluster.node_state(*node) != Some(NodeState::Retired)
            })
            .map(|(node, _)| *node)
            .collect();
        self.preempt_deadlines
            .retain(|(_, deadline)| *deadline > now);
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            let action = self.events[self.cursor].action;
            self.cursor += 1;
            self.applied += 1;
            emit!(
                fleet.observer,
                now,
                RecordKind::Fault {
                    kind: action.kind(),
                }
            );
            match action {
                FaultAction::Crash { count } => {
                    crashed.extend(self.pick_victims(&fleet.cluster, count));
                }
                FaultAction::Preempt { count, notice } => {
                    for node in self.pick_victims(&fleet.cluster, count) {
                        let _ = fleet.cluster.drain_node(node);
                        self.preempt_deadlines.push((node, now + notice));
                    }
                }
                FaultAction::ZoneOutage { zone } => {
                    crashed.extend(fleet.cluster.zone_nodes(zone));
                }
                FaultAction::SlowNodes {
                    count,
                    factor,
                    duration,
                } => {
                    for node in self.pick_victims(&fleet.cluster, count) {
                        self.slow.push((node, factor, now + duration));
                    }
                }
            }
        }
        self.slow.retain(|(_, _, until)| *until > now);
        if crashed.is_empty() {
            return;
        }

        let before = fleet.cluster.node_count();
        let mut lost: Vec<PodId> = Vec::new();
        for node in crashed {
            // Err means the node already retired (e.g. listed twice, or it
            // drained out just before its preemption deadline).
            if let Ok(pods) = fleet.cluster.crash_node(node) {
                self.nodes_lost += 1;
                lost.extend(pods);
            }
        }
        if fleet.cluster.node_count() != before {
            // Logged, but not counted as an autoscaler action.
            acct.log_scaling(fleet, now, before);
        }
        if lost.is_empty() {
            return;
        }
        lost.sort_unstable();
        fleet.pool.drop_lost(&lost);
        let lost_set: IdSet<PodId> = lost.into_iter().collect();
        let mut affected: Vec<u64> = arena
            .inflight
            .iter()
            .filter(|(_, s)| s.current_pod.is_some_and(|p| lost_set.contains(&p)))
            .map(|(id, _)| *id)
            .collect();
        affected.sort_unstable();
        self.lost_pods.extend(lost_set);
        for request_id in affected {
            let (retry, index, attempt, lost) = {
                let state = arena
                    .inflight
                    .get_mut(&request_id)
                    // janus-lint: allow(unwrap-discipline) — `affected` ids were collected from this very map a few lines up
                    .expect("in-flight request");
                // The in-progress attempt is void: its allocation entry goes
                // (it never produced a latency sample), but the wall time it
                // burned still counts against the request.
                state.allocations.pop();
                let lost = now.saturating_since(state.current_started);
                state.e2e += lost;
                state.current_pod = None;
                if state.retries < FAULT_RETRY_BUDGET {
                    state.retries += 1;
                    (true, state.current_index, state.retries, lost)
                } else {
                    (false, 0, state.retries, lost)
                }
            };
            if retry && fleet.cluster.node_count() > 0 {
                fleet.tally.retried += 1;
                emit!(
                    fleet.observer,
                    now,
                    RecordKind::Retry {
                        request: request_id,
                        attempt,
                        lost,
                    }
                );
                arena.start_function(fleet, policy, request_id, index, now, Some(&*self));
            } else {
                let state = arena
                    .inflight
                    .remove(&request_id)
                    // janus-lint: allow(unwrap-discipline) — present: get_mut on the same key succeeded in this iteration
                    .expect("in-flight request");
                fleet.tally.failed += 1;
                emit!(
                    fleet.observer,
                    now,
                    RecordKind::Failed {
                        request: request_id,
                        e2e: state.e2e,
                    }
                );
                on_outcome(RequestOutcome::failed(
                    request_id,
                    state.e2e,
                    state.allocations,
                    state.latencies,
                ));
                arena.spare.push(state.input);
            }
        }
    }
}

impl OpenLoopArena {
    /// Start function `index` of in-flight request `request_id` at `now`
    /// through the shared step and schedule its completion. The budget
    /// left is the SLO minus the wall time since the request arrived, and
    /// a degraded (slow-node fault) host multiplies the service time.
    fn start_function(
        &mut self,
        fleet: &mut Fleet<'_, '_>,
        policy: &mut dyn SizingPolicy,
        request_id: u64,
        index: usize,
        now: SimTime,
        fault_rt: Option<&FaultRuntime>,
    ) {
        let state = self
            .inflight
            .get_mut(&request_id)
            // janus-lint: allow(unwrap-discipline) — every caller inserts or verifies the entry before starting a function
            .expect("in-flight request");
        let remaining = (fleet.config.slo - now.saturating_since(state.started_at)).saturate();
        let started = fleet.start(policy, &state.input, index, remaining, now);
        let mut exec = started.exec;
        if let Some(rt) = fault_rt {
            exec = exec * rt.slow_factor(started.node, now);
        }
        let elapsed = exec + started.startup;
        state.allocations.push(started.size);
        state.current_pod = Some(started.pod);
        state.current_index = index;
        state.current_started = now;
        state.current_exec = exec;
        state.current_elapsed = elapsed;
        self.engine.schedule_in(
            elapsed,
            Event::FunctionComplete {
                request_id,
                pod: started.pod,
            },
        );
    }

    /// Draw `source`'s next arrival into a recycled input and hold it
    /// beside the event queue. Returns whether the source had one; fails if
    /// it lies behind the clock (sources yield non-decreasing offsets).
    fn draw_arrival(
        &mut self,
        source: &mut dyn RequestSource,
        workflow: &Workflow,
    ) -> Result<bool, String> {
        let mut input = self.spare.pop().unwrap_or_default();
        if !source.next_request_into(workflow, &mut input) {
            self.spare.push(input);
            return Ok(false);
        }
        self.peak_resident = self.peak_resident.max(source.resident() + 1);
        self.engine
            .hold(SimTime::ZERO + input.arrival_offset)
            .map_err(arrival_order_error)?;
        self.arrival = Some(input);
        Ok(true)
    }
}

/// Put `outcomes` in request-id order, as a stable sort by id would.
///
/// Generated request sets number their requests from 0, so the ids are
/// usually a permutation of the slots `0..n`. That is checked first, with
/// an n-bit seen-set; then each outcome is swapped into its slot, in O(n)
/// and without a second outcome buffer. Any other id set (offset, sparse or
/// duplicated ids) falls back to the stable sort. The check moves nothing,
/// so duplicated ids keep their order.
fn order_by_request_id(outcomes: &mut [RequestOutcome]) {
    let n = outcomes.len();
    let mut seen = vec![0u64; n.div_ceil(64)];
    let is_permutation = outcomes.iter().all(|o| {
        let Some(id) = usize::try_from(o.request_id).ok().filter(|&id| id < n) else {
            return false;
        };
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        let fresh = seen[word] & bit == 0;
        seen[word] |= bit;
        fresh
    });
    if !is_permutation {
        outcomes.sort_by_key(|o| o.request_id);
        return;
    }
    for slot in 0..n {
        // Every swap puts one outcome into its final slot.
        while outcomes[slot].request_id as usize != slot {
            let home = outcomes[slot].request_id as usize;
            outcomes.swap(slot, home);
        }
    }
}

/// Cold path: render a [`SimError`](janus_simcore::error::SimError) from a
/// source that yielded an arrival behind the already-advanced clock —
/// sources must produce non-decreasing `arrival_offset`s.
fn arrival_order_error(e: janus_simcore::error::SimError) -> String {
    format!("request source yielded an out-of-order arrival: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedSizingPolicy;
    use janus_workloads::apps::intelligent_assistant;
    use janus_workloads::request::RequestInputGenerator;

    #[test]
    fn open_loop_serves_every_request_exactly_once() {
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(9, SimDuration::from_millis(200.0)).generate(&ia, 80);
        let mut policy = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let report = sim.run(&mut policy, &reqs).unwrap();
        assert_eq!(report.len(), 80);
        let ids: std::collections::HashSet<u64> =
            report.outcomes.iter().map(|o| o.request_id).collect();
        assert_eq!(ids.len(), 80);
        for o in &report.outcomes {
            assert_eq!(o.allocations.len(), 3);
            assert_eq!(o.function_latencies.len(), 3);
        }
    }

    #[test]
    fn heavier_load_increases_latency_via_interference() {
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let light =
            RequestInputGenerator::new(5, SimDuration::from_millis(3000.0)).generate(&ia, 60);
        let heavy = RequestInputGenerator::new(5, SimDuration::from_millis(50.0)).generate(&ia, 60);
        let mut p1 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let light_report = sim.run(&mut p1, &light).unwrap();
        let mut p2 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let heavy_report = sim.run(&mut p2, &heavy).unwrap();
        // With 50 ms inter-arrival many requests overlap, co-locating pods of
        // the same function and prolonging execution.
        assert!(
            heavy_report.e2e_summary().unwrap().mean > light_report.e2e_summary().unwrap().mean
        );
    }

    #[test]
    fn open_loop_serves_arbitrary_arrival_shapes() {
        // Non-Poisson offsets (one dense flash-crowd window inside a sparse
        // baseline) go through the same event loop: every request is served,
        // and the in-window requests suffer more interference than the
        // stragglers outside it.
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let mut reqs = RequestInputGenerator::new(17, SimDuration::ZERO).generate(&ia, 60);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.arrival_offset = if (20..40).contains(&i) {
                // 20 requests crammed into one second.
                SimDuration::from_millis(60_000.0 + 50.0 * (i - 20) as f64)
            } else {
                SimDuration::from_secs(10.0 * i as f64)
            };
        }
        let mut policy = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let report = sim.run(&mut policy, &reqs).unwrap();
        assert_eq!(report.len(), 60);
        let mean = |ids: std::ops::Range<usize>| {
            let sel: Vec<f64> = report
                .outcomes
                .iter()
                .filter(|o| ids.contains(&(o.request_id as usize)))
                .map(|o| o.e2e.as_millis())
                .collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        assert!(
            mean(20..40) > mean(0..20),
            "burst window {} should be slower than sparse baseline {}",
            mean(20..40),
            mean(0..20)
        );
    }

    #[test]
    fn arena_reuse_is_deterministic_and_exposes_run_stats() {
        use crate::metrics::ServingMetrics;
        use janus_simcore::metrics::MetricsRegistry;
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(9, SimDuration::from_millis(200.0)).generate(&ia, 80);
        let registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);

        // One arena shared by back-to-back ("paired") runs.
        let mut arena = OpenLoopArena::new();
        let mut p1 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let first = sim
            .run_traced(&mut p1, &reqs, &mut arena, Some(&metrics), None, None)
            .unwrap();
        let events_first = arena.events_processed();
        let peak_first = arena.peak_queue_depth();
        // 80 arrivals + 3 completions per request.
        assert_eq!(events_first, 80 + 80 * 3);
        assert!(peak_first > 0 && peak_first <= 160);

        let mut p2 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let second = sim
            .run_traced(&mut p2, &reqs, &mut arena, Some(&metrics), None, None)
            .unwrap();
        assert_eq!(first, second, "arena reuse must not perturb the simulation");
        assert_eq!(arena.events_processed(), events_first);
        assert_eq!(arena.peak_queue_depth(), peak_first);
        // And the reused-arena run matches a fresh-arena uninstrumented run.
        let mut p3 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        assert_eq!(sim.run(&mut p3, &reqs).unwrap(), first);

        // Both runs recorded through the same pre-interned handles.
        assert_eq!(registry.counter(ServingMetrics::REQUESTS), 160);
        assert_eq!(registry.counter(ServingMetrics::FUNCTIONS), 2 * 80 * 3);
        assert_eq!(metrics.e2e_ms.count(), 160);
        let streaming = metrics.e2e_ms.snapshot();
        assert!(
            (streaming.mean() - first.e2e_summary().unwrap().mean).abs() < 1e-9,
            "both paired runs are identical, so the pooled mean equals each run's mean"
        );
    }

    #[test]
    fn admission_control_sheds_and_conserves_requests() {
        use crate::capacity::{QueueLengthAdmission, StaticAutoscaler};
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        // 50 ms inter-arrival: far more than 2 requests overlap, so a
        // max-inflight bound of 2 must shed.
        let reqs = RequestInputGenerator::new(5, SimDuration::from_millis(50.0)).generate(&ia, 80);
        let registry = janus_simcore::metrics::MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let mut autoscaler = StaticAutoscaler;
        let mut admission = QueueLengthAdmission::new(2).unwrap();
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                Some(&metrics),
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: None,
                }),
                None,
            )
            .unwrap();
        let cap = report.capacity.as_ref().unwrap();
        assert_eq!(cap.autoscaler, "static");
        assert_eq!(cap.admission, "queue-shed");
        // Conservation: every generated request is accounted exactly once.
        assert_eq!(cap.admitted + cap.shed, cap.generated);
        assert_eq!(cap.generated, 80);
        assert!(cap.shed > 0, "overload must shed under a depth-2 bound");
        assert_eq!(report.len(), 80);
        assert_eq!(report.served_len(), cap.admitted);
        assert_eq!(report.shed_len(), cap.shed);
        assert!(cap.peak_inflight <= 2, "bound respected");
        // Metrics agree with the report.
        assert_eq!(registry.counter(ServingMetrics::SHED), cap.shed as u64);
        assert_eq!(
            registry.counter(ServingMetrics::REQUESTS),
            cap.admitted as u64
        );
        // The static fleet never scales.
        assert!(cap.events.is_empty());
        assert_eq!(cap.peak_nodes, 1);
        assert!(cap.node_seconds > 0.0);
    }

    #[test]
    fn autoscaling_grows_the_fleet_and_reduces_interference() {
        use crate::capacity::{AdmitAll, UtilizationThresholdAutoscaler};
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        let ia = intelligent_assistant();
        // Small spread nodes so co-location (and thus interference) tracks
        // fleet size.
        let config = ExecutorConfig {
            cluster: ClusterConfig {
                nodes: 2,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 1,
            },
            ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
        };
        let sim = OpenLoopSimulation::new(ia.clone(), config);
        let reqs = RequestInputGenerator::new(7, SimDuration::from_millis(60.0)).generate(&ia, 120);

        let run_static = sim
            .run(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
            )
            .unwrap();
        let mut autoscaler =
            UtilizationThresholdAutoscaler::new(0.6, 0.1, 2, SimDuration::from_secs(2.0), 2, 12)
                .unwrap();
        let mut admission = AdmitAll;
        let registry = janus_simcore::metrics::MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let run_scaled = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                Some(&metrics),
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: None,
                }),
                None,
            )
            .unwrap();
        let cap = run_scaled.capacity.as_ref().unwrap();
        assert!(cap.scale_ups > 0, "overload must trigger scale-ups");
        assert!(cap.peak_nodes > 2);
        assert_eq!(cap.admitted, 120, "admit-all sheds nothing");
        // Metrics agree with the report.
        assert_eq!(
            registry.counter(ServingMetrics::SCALE_UPS),
            cap.scale_ups as u64
        );
        assert_eq!(
            registry.counter(ServingMetrics::SCALE_DOWNS),
            cap.scale_downs as u64
        );
        // More nodes → lower co-location → faster service.
        assert!(
            run_scaled.e2e_summary().unwrap().mean < run_static.e2e_summary().unwrap().mean,
            "autoscaled mean {} vs static {}",
            run_scaled.e2e_summary().unwrap().mean,
            run_static.e2e_summary().unwrap().mean
        );
        // Scaling events are monotone in time and internally consistent.
        for w in cap.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &cap.events {
            assert_ne!(e.from_nodes, e.to_nodes);
        }
    }

    #[test]
    fn recycled_idle_pods_release_their_cluster_allocation() {
        // Regression guard for the idle-recycling audit: a specialised pod
        // recycled after `idle_recycle_after` must not leak cluster
        // allocation. Pods release their node slot when execution finishes
        // (before going idle), so after a long-idle tail the cluster must be
        // back at its zero-allocation baseline — asserted through the
        // capacity report of a run whose span is far longer than the recycle
        // window.
        use crate::capacity::{AdmitAll, StaticAutoscaler};
        let ia = intelligent_assistant();
        let mut config = ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1);
        config.pool.idle_recycle_after = SimDuration::from_secs(30.0);
        let sim = OpenLoopSimulation::new(ia.clone(), config);
        // A burst up front, then one straggler two minutes later: the
        // burst's specialised pods sit idle well past the recycle window.
        let mut reqs = RequestInputGenerator::new(13, SimDuration::ZERO).generate(&ia, 20);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.arrival_offset = if i < 19 {
                SimDuration::from_millis(40.0 * i as f64)
            } else {
                SimDuration::from_secs(120.0)
            };
        }
        let mut autoscaler = StaticAutoscaler;
        let mut admission = AdmitAll;
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: None,
                }),
                None,
            )
            .unwrap();
        let cap = report.capacity.as_ref().unwrap();
        assert!(
            cap.pods_recycled > 0,
            "idle specialised pods must be recycled by the capacity tick"
        );
        assert_eq!(
            cap.final_allocated_mc, 0,
            "recycling must not leak cluster allocation"
        );
        assert_eq!(report.served_len(), 20, "recycling must not lose requests");
    }

    #[test]
    fn degenerate_tick_cadences_are_clamped() {
        use crate::capacity::{AdmitAll, AutoscalerPolicy, ScalingAction, ScalingObservation};
        // A custom autoscaler with a zero cadence must not spin the event
        // loop at one timestamp; the loop clamps the tick to 1 ms.
        #[derive(Debug)]
        struct SpinScaler;
        impl AutoscalerPolicy for SpinScaler {
            fn name(&self) -> &str {
                "spin"
            }
            fn tick(&self) -> SimDuration {
                SimDuration::ZERO
            }
            fn observe(&mut self, _obs: &ScalingObservation) -> ScalingAction {
                ScalingAction::Hold
            }
        }
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(1, SimDuration::from_millis(500.0)).generate(&ia, 10);
        let mut autoscaler = SpinScaler;
        let mut admission = AdmitAll;
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: None,
                }),
                None,
            )
            .unwrap();
        assert_eq!(report.served_len(), 10, "every request still served");
        assert_eq!(report.capacity.as_ref().unwrap().admitted, 10);
    }

    #[test]
    fn capacity_runs_are_deterministic() {
        use crate::capacity::{QueueLengthAdmission, UtilizationThresholdAutoscaler};
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(3, SimDuration::from_millis(80.0)).generate(&ia, 60);
        let run = || {
            let mut autoscaler =
                UtilizationThresholdAutoscaler::new(0.5, 0.1, 1, SimDuration::from_secs(2.0), 1, 8)
                    .unwrap();
            let mut admission = QueueLengthAdmission::new(12).unwrap();
            sim.run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: None,
                }),
                None,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical inputs must replay identically");
        assert_eq!(
            a.capacity.as_ref().unwrap().events,
            b.capacity.as_ref().unwrap().events,
            "scaling event sequences must be identical"
        );
    }

    fn crash_schedule(times_s: &[f64]) -> FaultSchedule {
        FaultSchedule {
            injector: "test-crash".into(),
            victim_seed: 77,
            events: times_s
                .iter()
                .map(|&s| FaultEvent {
                    at: SimTime::from_secs(s),
                    action: FaultAction::Crash { count: 1 },
                })
                .collect(),
        }
    }

    #[test]
    fn node_crashes_retry_in_flight_work_and_conserve_requests() {
        use crate::capacity::{AdmitAll, UtilizationThresholdAutoscaler};
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        use janus_simcore::metrics::MetricsRegistry;
        let ia = intelligent_assistant();
        let config = ExecutorConfig {
            cluster: ClusterConfig {
                nodes: 3,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 1,
            },
            ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
        };
        let sim = OpenLoopSimulation::new(ia.clone(), config);
        let reqs = RequestInputGenerator::new(7, SimDuration::from_millis(50.0)).generate(&ia, 80);
        let registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let mut autoscaler =
            UtilizationThresholdAutoscaler::new(0.6, 0.1, 2, SimDuration::from_secs(2.0), 2, 12)
                .unwrap();
        let mut admission = AdmitAll;
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                Some(&metrics),
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(crash_schedule(&[1.5, 2.5, 3.5])),
                }),
                None,
            )
            .unwrap();
        let cap = report.capacity.as_ref().unwrap();
        assert_eq!(cap.injector.as_deref(), Some("test-crash"));
        assert_eq!(cap.faults_applied, 3);
        assert_eq!(cap.nodes_lost, 3);
        assert!(cap.retried > 0, "mid-flight crashes must trigger retries");
        // Conservation: every generated request accounted exactly once.
        assert_eq!(report.len(), 80);
        assert_eq!(cap.generated, 80);
        assert_eq!(cap.admitted + cap.shed, 80);
        assert_eq!(report.served_len() + report.failed_len(), cap.admitted);
        assert_eq!(report.failed_len(), cap.failed);
        let ids: std::collections::HashSet<u64> =
            report.outcomes.iter().map(|o| o.request_id).collect();
        assert_eq!(ids.len(), 80);
        // The crash-path audit: abruptly lost pods must release their
        // cluster allocation and leave the pool tracking maps.
        assert_eq!(
            cap.final_allocated_mc, 0,
            "crashed pods must not leak cluster allocation"
        );
        // Metrics agree with the report.
        assert_eq!(
            registry.counter(ServingMetrics::RETRIED),
            cap.retried as u64
        );
        assert_eq!(registry.counter(ServingMetrics::FAILED), cap.failed as u64);
        // Served-after-retry requests keep the allocation/latency invariant.
        for o in report.served() {
            assert_eq!(o.allocations.len(), o.function_latencies.len());
            assert_eq!(o.function_latencies.len(), 3);
        }
        for o in report.outcomes.iter().filter(|o| !o.is_served()) {
            assert_eq!(o.allocations.len(), o.function_latencies.len());
        }
    }

    #[test]
    fn fault_runs_replay_bit_identically_per_seed() {
        use crate::capacity::{QueueLengthAdmission, UtilizationThresholdAutoscaler};
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(3, SimDuration::from_millis(60.0)).generate(&ia, 70);
        let run = || {
            let mut autoscaler =
                UtilizationThresholdAutoscaler::new(0.5, 0.1, 1, SimDuration::from_secs(2.0), 1, 8)
                    .unwrap();
            let mut admission = QueueLengthAdmission::new(12).unwrap();
            sim.run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(crash_schedule(&[1.0, 2.0])),
                }),
                None,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same fault schedule must replay identically");
        assert_eq!(
            a.capacity.as_ref().unwrap().events,
            b.capacity.as_ref().unwrap().events,
            "the scaling/fault event log must be identical"
        );
    }

    #[test]
    fn zone_outage_kills_exactly_the_zones_nodes() {
        use crate::capacity::{AdmitAll, StaticAutoscaler};
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        let ia = intelligent_assistant();
        let config = ExecutorConfig {
            cluster: ClusterConfig {
                nodes: 4,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 2,
            },
            ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
        };
        let sim = OpenLoopSimulation::new(ia.clone(), config);
        let reqs = RequestInputGenerator::new(11, SimDuration::from_millis(80.0)).generate(&ia, 60);
        let schedule = FaultSchedule {
            injector: "zone-outage".into(),
            victim_seed: 5,
            events: vec![FaultEvent {
                at: SimTime::from_secs(2.0),
                action: FaultAction::ZoneOutage { zone: 0 },
            }],
        };
        let mut autoscaler = StaticAutoscaler;
        let mut admission = AdmitAll;
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(schedule),
                }),
                None,
            )
            .unwrap();
        let cap = report.capacity.as_ref().unwrap();
        // Zones are assigned round-robin: 4 nodes over 2 zones puts exactly
        // 2 nodes in zone 0, and the outage must kill exactly those.
        assert_eq!(cap.nodes_lost, 2);
        assert_eq!(cap.final_nodes, 2, "zone-1 nodes survive");
        let outage = cap
            .events
            .iter()
            .find(|e| e.from_nodes == 4 && e.to_nodes == 2)
            .expect("the outage appears in the event log");
        assert_eq!(outage.at, SimTime::from_secs(2.0));
        assert_eq!(report.len(), 60);
        assert_eq!(report.served_len() + report.failed_len(), cap.admitted);
        assert_eq!(cap.final_allocated_mc, 0);
    }

    #[test]
    fn preemption_notice_lets_draining_beat_the_deadline() {
        use crate::capacity::{AdmitAll, AutoscalerPolicy, ScalingAction, ScalingObservation};
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        #[derive(Debug)]
        struct TickedStatic(f64);
        impl AutoscalerPolicy for TickedStatic {
            fn name(&self) -> &str {
                "static"
            }
            fn tick(&self) -> SimDuration {
                SimDuration::from_millis(self.0)
            }
            fn observe(&mut self, _obs: &ScalingObservation) -> ScalingAction {
                ScalingAction::Hold
            }
        }
        let ia = intelligent_assistant();
        // Two spread nodes: the survivor picks up new work while the
        // preempted victim drains.
        let config = ExecutorConfig {
            cluster: ClusterConfig {
                nodes: 2,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 1,
            },
            ..ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1)
        };
        let sim = OpenLoopSimulation::new(ia.clone(), config);
        // Sparse arrivals: the preempted node drains long before a 30 s
        // notice expires, so nothing is lost and nothing fails.
        let reqs =
            RequestInputGenerator::new(19, SimDuration::from_millis(500.0)).generate(&ia, 12);
        let preempt = |notice_ms: f64| FaultSchedule {
            injector: "spot-preempt".into(),
            victim_seed: 9,
            events: vec![FaultEvent {
                at: SimTime::from_secs(1.0),
                action: FaultAction::Preempt {
                    count: 1,
                    notice: SimDuration::from_millis(notice_ms),
                },
            }],
        };
        let mut autoscaler = TickedStatic(1000.0);
        let mut admission = AdmitAll;
        let graceful = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(preempt(30_000.0)),
                }),
                None,
            )
            .unwrap();
        let cap = graceful.capacity.as_ref().unwrap();
        assert_eq!(cap.faults_applied, 1);
        assert_eq!(cap.nodes_lost, 0, "draining beat the 30 s deadline");
        assert_eq!(cap.failed, 0);
        assert_eq!(graceful.served_len(), 12, "nothing lost under notice");

        // A 1 ms notice under continuous overload cannot drain in time: the
        // victim still hosts pods when the next (100 ms) tick passes the
        // deadline and is force-killed.
        let heavy =
            RequestInputGenerator::new(19, SimDuration::from_millis(40.0)).generate(&ia, 80);
        let mut autoscaler = TickedStatic(100.0);
        let mut admission = AdmitAll;
        let forced = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &heavy,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(preempt(1.0)),
                }),
                None,
            )
            .unwrap();
        let cap = forced.capacity.as_ref().unwrap();
        assert_eq!(cap.nodes_lost, 1, "the notice expired mid-drain");
        assert!(cap.retried > 0 || cap.failed > 0, "running work was lost");
    }

    #[test]
    fn total_fleet_loss_fails_every_request_nan_free() {
        use crate::capacity::{AdmitAll, AutoscalerPolicy, ScalingAction, ScalingObservation};
        use janus_simcore::metrics::MetricsRegistry;
        // A static fleet that loses every node before the first completion
        // and never recovers: the all-failed degenerate case (satellite of
        // the all-shed guards) must stay NaN-free.
        #[derive(Debug)]
        struct FastStatic;
        impl AutoscalerPolicy for FastStatic {
            fn name(&self) -> &str {
                "fast-static"
            }
            fn tick(&self) -> SimDuration {
                SimDuration::from_millis(5.0)
            }
            fn observe(&mut self, _obs: &ScalingObservation) -> ScalingAction {
                ScalingAction::Hold
            }
        }
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs =
            RequestInputGenerator::new(23, SimDuration::from_millis(100.0)).generate(&ia, 40);
        let registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let schedule = FaultSchedule {
            injector: "total-loss".into(),
            victim_seed: 3,
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                action: FaultAction::Crash { count: usize::MAX },
            }],
        };
        let mut autoscaler = FastStatic;
        let mut admission = AdmitAll;
        let report = sim
            .run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                Some(&metrics),
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults: Some(schedule),
                }),
                None,
            )
            .unwrap();
        let cap = report.capacity.as_ref().unwrap();
        assert_eq!(cap.final_nodes, 0, "nothing survives, nothing recovers");
        assert_eq!(report.served_len(), 0);
        assert_eq!(report.failed_len(), 40);
        assert_eq!(cap.failed, 40);
        assert_eq!(cap.admitted, 40, "admit-all sheds nothing");
        assert_eq!(
            registry.counter(ServingMetrics::REQUESTS),
            cap.admitted as u64
        );
        assert_eq!(cap.shed, 0);
        // Statistics degrade to empty/None, never NaN.
        assert!(report.e2e_summary().is_none());
        assert!(report.e2e_cdf().is_empty());
        assert!(report.e2e_percentile(99.0).is_none());
        assert_eq!(report.e2e_streaming().count(), 0);
        assert!(!report.slo_violation_rate().is_nan());
        assert_eq!(report.slo_violation_rate(), 0.0);
        assert_eq!(cap.final_allocated_mc, 0);
        assert_eq!(registry.counter(ServingMetrics::FAILED), 40);
    }

    #[test]
    fn slow_nodes_stretch_service_times_deterministically() {
        use crate::capacity::{AdmitAll, StaticAutoscaler};
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs =
            RequestInputGenerator::new(29, SimDuration::from_millis(400.0)).generate(&ia, 30);
        let slow_schedule = || FaultSchedule {
            injector: "slow-node".into(),
            victim_seed: 13,
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                action: FaultAction::SlowNodes {
                    count: usize::MAX,
                    factor: 4.0,
                    duration: SimDuration::from_secs(600.0),
                },
            }],
        };
        let run = |faults: Option<FaultSchedule>| {
            let mut autoscaler = StaticAutoscaler;
            let mut admission = AdmitAll;
            sim.run_traced(
                &mut FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap(),
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                Some(CapacityControls {
                    autoscaler: &mut autoscaler,
                    admission: &mut admission,
                    faults,
                }),
                None,
            )
            .unwrap()
        };
        let baseline = run(None);
        let degraded = run(Some(slow_schedule()));
        let again = run(Some(slow_schedule()));
        assert_eq!(degraded, again, "degradation is seed-deterministic");
        let cap = degraded.capacity.as_ref().unwrap();
        assert_eq!(cap.nodes_lost, 0, "slow nodes stay up");
        assert_eq!(degraded.served_len(), 30, "slow nodes still serve");
        assert!(
            degraded.e2e_summary().unwrap().mean > 1.5 * baseline.e2e_summary().unwrap().mean,
            "4x degraded service must be visibly slower: {} vs {}",
            degraded.e2e_summary().unwrap().mean,
            baseline.e2e_summary().unwrap().mean
        );
    }

    #[test]
    fn streaming_source_is_bit_identical_to_materialized_requests() {
        use janus_workloads::request::GeneratorSource;
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        for seed in [1, 9, 42] {
            let reqs =
                RequestInputGenerator::new(seed, SimDuration::from_millis(120.0)).generate(&ia, 80);
            let mut p1 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
            let mut arena = OpenLoopArena::new();
            let materialized = sim
                .run_traced(&mut p1, &reqs, &mut arena, None, None, None)
                .unwrap();
            // The slice is resident by definition: peak ≈ N.
            assert_eq!(arena.peak_resident_arrivals(), 80);
            let slice_events = arena.events_processed();

            let mut source = GeneratorSource::new(
                RequestInputGenerator::new(seed, SimDuration::from_millis(120.0)),
                80,
            );
            let mut p2 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
            let streamed = sim
                .run_from_source(&mut p2, &mut source, &mut arena, None, None, None)
                .unwrap();
            assert_eq!(materialized, streamed, "seed {seed}: streams must replay");
            assert_eq!(arena.events_processed(), slice_events);
            // Bounded memory: one held arrival, nothing resident in the
            // generator — and the queue never holds the whole request set.
            assert_eq!(arena.peak_resident_arrivals(), 1);
            assert!(
                arena.peak_queue_depth() < 80,
                "queue depth {} must be bounded by in-flight work, not N",
                arena.peak_queue_depth()
            );
        }
    }

    #[test]
    fn streaming_outcomes_arrive_in_completion_order_and_aggregate() {
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(9, SimDuration::from_millis(200.0)).generate(&ia, 40);
        let mut arena = OpenLoopArena::new();
        let mut served = 0usize;
        let mut e2e_sum = 0.0f64;
        let mut p = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let mut source = janus_workloads::request::SliceSource::new(&reqs);
        let capacity = sim
            .run_streaming(
                &mut p,
                &mut source,
                &mut arena,
                None,
                None,
                None,
                &mut |o| {
                    served += 1;
                    e2e_sum += o.e2e.as_millis();
                },
            )
            .unwrap();
        assert!(capacity.is_none(), "no controls, no capacity report");
        assert_eq!(served, 40, "every outcome flows through the callback");
        let mut p2 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let report = sim.run(&mut p2, &reqs).unwrap();
        let report_sum: f64 = report.outcomes.iter().map(|o| o.e2e.as_millis()).sum();
        assert!((e2e_sum - report_sum).abs() < 1e-9);
    }

    fn outcome_with_id(request_id: u64, tag: f64) -> RequestOutcome {
        RequestOutcome::failed(
            request_id,
            SimDuration::from_millis(tag),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn placing_outcomes_by_id_matches_a_stable_sort() {
        let mut rng = janus_simcore::rng::SimRng::seed_from_u64(5);
        let shuffled = |ids: &mut Vec<u64>, rng: &mut janus_simcore::rng::SimRng| {
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.int_range(0, i as u64 + 1) as usize);
            }
        };
        let mut cases: Vec<Vec<u64>> = vec![vec![], vec![0], vec![3], vec![1, 0]];
        for n in [2u64, 7, 64, 65, 500] {
            // A permutation of 0..n, an offset one, and one with duplicates.
            let mut ids: Vec<u64> = (0..n).collect();
            shuffled(&mut ids, &mut rng);
            cases.push(ids.clone());
            cases.push(ids.iter().map(|id| id + 10).collect());
            let mut dup = ids.clone();
            dup[0] = dup[dup.len() - 1];
            cases.push(dup);
            cases.push(ids.iter().map(|id| id / 2).collect());
        }
        cases.push(vec![u64::MAX, 0]);
        for ids in cases {
            // The tag is the input position, so stability is observable.
            let outcomes: Vec<RequestOutcome> = ids
                .iter()
                .enumerate()
                .map(|(pos, &id)| outcome_with_id(id, pos as f64))
                .collect();
            let mut sorted = outcomes.clone();
            sorted.sort_by_key(|o| o.request_id);
            let mut placed = outcomes;
            order_by_request_id(&mut placed);
            assert_eq!(placed, sorted, "ids {ids:?}");
        }
    }

    #[test]
    fn metrics_are_flushed_when_a_run_fails_early() {
        use janus_simcore::metrics::MetricsRegistry;
        use janus_workloads::request::RequestSource;
        /// Yields its requests in the given order, out of order or not.
        #[derive(Debug)]
        struct Unsorted(std::vec::IntoIter<RequestInput>);
        impl RequestSource for Unsorted {
            fn next_request_into(&mut self, _: &Workflow, slot: &mut RequestInput) -> bool {
                self.0.next().map(|request| *slot = request).is_some()
            }
            fn resident(&self) -> usize {
                self.0.len()
            }
        }
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let mut reqs =
            RequestInputGenerator::new(9, SimDuration::from_millis(200.0)).generate(&ia, 30);
        // The last arrival lies behind the clock when it is drawn.
        reqs[29].arrival_offset = SimDuration::ZERO;
        let registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&registry);
        let mut policy = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let mut completions = 0u64;
        let err = sim
            .run_streaming(
                &mut policy,
                &mut Unsorted(reqs.into_iter()),
                &mut OpenLoopArena::new(),
                Some(&metrics),
                None,
                None,
                &mut |_| completions += 1,
            )
            .unwrap_err();
        assert!(
            err.starts_with("request source yielded an out-of-order arrival: "),
            "{err}"
        );
        // Everything tallied before the error reached the registry:
        // request 29 was never admitted, the ones before it were.
        assert!(completions > 0);
        assert_eq!(registry.counter(ServingMetrics::REQUESTS), 28);
        assert_eq!(
            registry.streaming(ServingMetrics::E2E_MS).unwrap().count(),
            completions
        );
        let functions = registry.counter(ServingMetrics::FUNCTIONS);
        assert!(functions >= 3 * completions);
        assert_eq!(
            registry
                .streaming(ServingMetrics::FUNCTION_MS)
                .unwrap()
                .count(),
            functions
        );
    }

    #[test]
    fn held_arrivals_count_as_events_and_as_queue_depth() {
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let n = 25;
        let mut reqs = RequestInputGenerator::new(4, SimDuration::ZERO).generate(&ia, n);
        for (i, r) in reqs.iter_mut().enumerate() {
            // Serial: each request finishes long before the next arrives.
            r.arrival_offset = SimDuration::from_secs(100.0 * i as f64);
        }
        let mut arena = OpenLoopArena::new();
        let mut p = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let report = sim
            .run_traced(&mut p, &reqs, &mut arena, None, None, None)
            .unwrap();
        assert_eq!(report.served_len(), n);
        // One arrival and three completions per request.
        assert_eq!(arena.events_processed(), 4 * n as u64);
        // At most one completion is queued at a time; the held next arrival
        // makes the depth two.
        assert_eq!(arena.peak_queue_depth(), 2);
    }

    #[test]
    fn custom_engine_config_lifts_the_event_cap() {
        use janus_simcore::engine::EngineConfig;
        let ia = intelligent_assistant();
        let sim = OpenLoopSimulation::new(
            ia.clone(),
            ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
        );
        let reqs = RequestInputGenerator::new(2, SimDuration::from_millis(300.0)).generate(&ia, 10);
        // A pathologically low cap truncates the run …
        let mut capped = OpenLoopArena::with_engine_config(EngineConfig {
            max_events: Some(5),
            horizon: None,
        });
        let mut p = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let truncated = sim
            .run_traced(&mut p, &reqs, &mut capped, None, None, None)
            .unwrap();
        assert!(truncated.len() < 10);
        assert_eq!(capped.events_processed(), 5, "held arrivals count too");
        // A capped arena that ends with an arrival held replays the same
        // truncated run.
        let mut p = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let again = sim
            .run_traced(&mut p, &reqs, &mut capped, None, None, None)
            .unwrap();
        assert_eq!(again, truncated);
        // … and an uncapped arena serves everything.
        let mut uncapped = OpenLoopArena::with_engine_config(EngineConfig {
            max_events: None,
            horizon: None,
        });
        let mut p2 = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2000)).unwrap();
        let full = sim
            .run_traced(&mut p2, &reqs, &mut uncapped, None, None, None)
            .unwrap();
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn closed_and_open_loop_agree_for_serial_arrivals() {
        // When arrivals are so sparse that requests never overlap, the open
        // loop degenerates to the closed loop's behaviour (modulo warm-pool
        // state differences in startup delays): the same allocations, the
        // same execution times and the same lifecycle records, cold starts
        // aside.
        use janus_observe::RingObserver;
        let ia = intelligent_assistant();
        let config = ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1);
        let sim = OpenLoopSimulation::new(ia.clone(), config.clone());
        let mut reqs = RequestInputGenerator::new(11, SimDuration::ZERO).generate(&ia, 20);
        for (i, r) in reqs.iter_mut().enumerate() {
            // Deterministically spaced far apart so executions never overlap.
            r.arrival_offset = SimDuration::from_secs(100.0 * i as f64);
        }
        let mut policy = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2500)).unwrap();
        let mut open_ring = RingObserver::default();
        let open = sim
            .run_traced(
                &mut policy,
                &reqs,
                &mut OpenLoopArena::new(),
                None,
                None,
                Some(&mut open_ring),
            )
            .unwrap();
        let exec = crate::executor::ClosedLoopExecutor::new(ia.clone(), config);
        let mut policy = FixedSizingPolicy::uniform("fixed", &ia, Millicores::new(2500)).unwrap();
        let mut closed_ring = RingObserver::default();
        let closed = exec.run_traced(&mut policy, &reqs, None, Some(&mut closed_ring));
        assert_eq!(open.len(), closed.len());
        // Same inputs, same allocations: execution times must match exactly.
        for (o, c) in open.outcomes.iter().zip(closed.outcomes.iter()) {
            assert_eq!(o.request_id, c.request_id);
            assert_eq!(o.allocations, c.allocations, "req {}", o.request_id);
            for (i, (a, b)) in o
                .function_latencies
                .iter()
                .zip(c.function_latencies.iter())
                .enumerate()
            {
                assert!(
                    (a.as_millis() - b.as_millis()).abs() < 1e-9,
                    "req {} fn {}: open {} vs closed {}",
                    o.request_id,
                    i,
                    a.as_millis(),
                    b.as_millis()
                );
            }
        }
        // Both loops offer the same lifecycle, record for record. Cold
        // starts are left out: they depend on the warm pool's state.
        let lifecycle = |ring: &RingObserver| -> Vec<(&'static str, Option<u64>, Option<usize>)> {
            ring.records()
                .filter(|r| !matches!(r.kind, RecordKind::ColdStart { .. }))
                .map(|r| {
                    let function = match r.kind {
                        RecordKind::Placement { function, .. }
                        | RecordKind::ExecStart { function, .. }
                        | RecordKind::ExecEnd { function, .. } => Some(function),
                        _ => None,
                    };
                    (r.kind.kind_name(), r.kind.request(), function)
                })
                .collect()
        };
        let open_records = lifecycle(&open_ring);
        assert_eq!(open_records.len(), 20 * (2 + 3 * 3));
        assert_eq!(open_records, lifecycle(&closed_ring));
    }
}
