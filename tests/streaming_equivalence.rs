//! Streaming ≡ materialized: the lazy arrival path must reproduce the
//! pre-refactor eager path bit for bit.
//!
//! The open loop historically materialized every request up front and
//! pre-seeded the event queue; it now draws arrivals one at a time from a
//! [`RequestSource`] as simulated time advances. These tests pin the
//! refactor's contract: for every built-in arrival scenario, across seeds,
//! with and without capacity controls and injected faults, and under a full
//! flight recorder, a [`GeneratorSource`] run is indistinguishable — same
//! outcomes, same capacity report, same trace bytes — from the identical
//! workload replayed as a materialized slice.
//!
//! [`RequestSource`]: janus_workloads::request::RequestSource
//! [`GeneratorSource`]: janus_workloads::request::GeneratorSource

use janus_chaos::{FaultContext, FaultRegistry};
use janus_observe::{FlightRecorder, Observer, ObserverContext};
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry, CapacityContext};
use janus_platform::executor::ExecutorConfig;
use janus_platform::openloop::{CapacityControls, OpenLoopArena, OpenLoopSimulation};
use janus_platform::outcome::ServingReport;
use janus_platform::policy::FixedSizingPolicy;
use janus_scenarios::{tenant_stream_seed, MergedRequestSource, ScenarioContext, ScenarioRegistry};
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{
    GeneratorSource, RequestInput, RequestInputGenerator, RequestSource as _,
};
use janus_workloads::workflow::Workflow;

const REQUESTS: usize = 300;
const RPS: f64 = 20.0;

fn harness() -> (Workflow, OpenLoopSimulation) {
    let app = PaperApp::IntelligentAssistant;
    let workflow = app.workflow();
    let sim = OpenLoopSimulation::new(
        workflow.clone(),
        ExecutorConfig::paper_serving(app.default_slo(1), 1),
    );
    (workflow, sim)
}

fn policy(workflow: &Workflow) -> FixedSizingPolicy {
    FixedSizingPolicy::uniform("fixed", workflow, Millicores::new(2000)).unwrap()
}

/// A fresh generator for `scenario` at `seed` — called once per run so both
/// sides of a comparison draw from identical sampler state.
fn generator(scenario: &str, seed: u64) -> RequestInputGenerator {
    let registry = ScenarioRegistry::with_builtins();
    let ctx = ScenarioContext {
        base_rps: RPS,
        requests: REQUESTS,
        seed,
    };
    let process = registry.build(scenario, &ctx).unwrap();
    RequestInputGenerator::with_sampler(seed, process.sampler())
}

#[test]
fn every_builtin_scenario_streams_bit_identically() {
    let (workflow, sim) = harness();
    let registry = ScenarioRegistry::with_builtins();
    let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    assert!(
        names.len() >= 5,
        "expected the five built-in scenarios, found {names:?}"
    );
    for scenario in &names {
        for seed in [7, 11, 101] {
            let requests: Vec<RequestInput> =
                generator(scenario, seed).generate(&workflow, REQUESTS);
            let mut arena = OpenLoopArena::new();
            let eager = sim
                .run_traced(
                    &mut policy(&workflow),
                    &requests,
                    &mut arena,
                    None,
                    None,
                    None,
                )
                .unwrap();
            let eager_events = arena.events_processed();
            // The slice is resident wholesale; streaming holds one arrival.
            assert_eq!(arena.peak_resident_arrivals(), REQUESTS);

            let mut source = GeneratorSource::new(generator(scenario, seed), REQUESTS);
            let mut arena = OpenLoopArena::new();
            let streamed = sim
                .run_from_source(
                    &mut policy(&workflow),
                    &mut source,
                    &mut arena,
                    None,
                    None,
                    None,
                )
                .unwrap();
            assert_eq!(
                eager, streamed,
                "`{scenario}` (seed {seed}): streaming diverged from the materialized run"
            );
            assert_eq!(eager_events, arena.events_processed());
            assert_eq!(
                arena.peak_resident_arrivals(),
                1,
                "`{scenario}` (seed {seed}): the lazy pull materialized extra arrivals"
            );
        }
    }
}

/// Run one capacity-controlled (and optionally fault-injected) pass over
/// whatever source the closure hands back.
fn capacity_run(
    sim: &OpenLoopSimulation,
    workflow: &Workflow,
    seed: u64,
    fault: Option<&str>,
    run: impl FnOnce(
        &OpenLoopSimulation,
        &mut FixedSizingPolicy,
        &mut OpenLoopArena,
        CapacityControls<'_>,
    ) -> Result<ServingReport, String>,
) -> (ServingReport, usize) {
    let slo = PaperApp::IntelligentAssistant.default_slo(1);
    let ctx = CapacityContext {
        base_rps: RPS,
        requests: REQUESTS,
        initial_nodes: 1,
        slo,
    };
    let mut autoscaler = AutoscalerRegistry::with_builtins()
        .build("utilization", &ctx)
        .unwrap();
    let mut admission = AdmissionRegistry::with_builtins()
        .build("queue-shed", &ctx)
        .unwrap();
    let faults = fault.map(|name| {
        FaultRegistry::with_builtins()
            .build(
                name,
                &FaultContext {
                    seed,
                    initial_nodes: 1,
                    zones: 1,
                    base_rps: RPS,
                    requests: REQUESTS,
                    slo,
                },
            )
            .unwrap()
    });
    let mut arena = OpenLoopArena::new();
    let report = run(
        sim,
        &mut policy(workflow),
        &mut arena,
        CapacityControls {
            autoscaler: autoscaler.as_mut(),
            admission: admission.as_mut(),
            faults,
        },
    )
    .unwrap();
    (report, arena.peak_resident_arrivals())
}

#[test]
fn capacity_and_chaos_paths_stream_bit_identically() {
    let (workflow, sim) = harness();
    // `None` exercises plain elastic capacity; the injectors add faults
    // delivered through the capacity tick on top.
    for fault in [None, Some("node-crash"), Some("spot-preempt")] {
        for seed in [7, 42] {
            let requests: Vec<RequestInput> =
                generator("flash-crowd", seed).generate(&workflow, REQUESTS);
            let (eager, _) = capacity_run(&sim, &workflow, seed, fault, |sim, p, arena, c| {
                sim.run_traced(p, &requests, arena, None, Some(c), None)
            });
            let mut source = GeneratorSource::new(generator("flash-crowd", seed), REQUESTS);
            let (streamed, resident) =
                capacity_run(&sim, &workflow, seed, fault, |sim, p, arena, c| {
                    sim.run_from_source(p, &mut source, arena, None, Some(c), None)
                });
            assert_eq!(
                eager, streamed,
                "capacity run (fault {fault:?}, seed {seed}) diverged under streaming"
            );
            assert_eq!(resident, 1);
            let capacity = streamed.capacity.as_ref().unwrap();
            assert_eq!(capacity.generated, REQUESTS);
            if fault.is_some() {
                assert!(
                    capacity.failed + capacity.retried > 0,
                    "fault {fault:?} (seed {seed}) never fired; the chaos leg tests nothing"
                );
            }
        }
    }
}

#[test]
fn golden_traces_match_between_slice_and_stream() {
    let (workflow, sim) = harness();
    let observer_ctx = ObserverContext {
        seed: 7,
        policy: "fixed".to_string(),
        requests: REQUESTS,
        zones: 1,
        slo: PaperApp::IntelligentAssistant.default_slo(1),
    };
    let requests: Vec<RequestInput> = generator("bursty", 7).generate(&workflow, REQUESTS);
    let mut recorder = FlightRecorder::new(&observer_ctx);
    let mut arena = OpenLoopArena::new();
    let eager = sim
        .run_traced(
            &mut policy(&workflow),
            &requests,
            &mut arena,
            None,
            None,
            Some(&mut recorder),
        )
        .unwrap();
    let eager_trace = recorder.finish().trace.expect("slice run writes a trace");

    let mut recorder = FlightRecorder::new(&observer_ctx);
    let mut source = GeneratorSource::new(generator("bursty", 7), REQUESTS);
    let mut arena = OpenLoopArena::new();
    let streamed = sim
        .run_from_source(
            &mut policy(&workflow),
            &mut source,
            &mut arena,
            None,
            None,
            Some(&mut recorder),
        )
        .unwrap();
    let streamed_trace = recorder.finish().trace.expect("stream run writes a trace");

    assert_eq!(eager, streamed);
    assert_eq!(
        eager_trace, streamed_trace,
        "the JSONL trace must be byte-identical between slice and stream"
    );
    assert!(!eager_trace.is_empty());
}

#[test]
fn merged_tenant_streams_match_their_materialized_drain() {
    let (workflow, sim) = harness();
    let build_merged = || {
        let generators = (0..3)
            .map(|stream| {
                let seed = tenant_stream_seed(7, stream);
                let registry = ScenarioRegistry::with_builtins();
                let process = registry
                    .build(
                        if stream == 0 { "bursty" } else { "poisson" },
                        &ScenarioContext {
                            base_rps: RPS,
                            requests: REQUESTS,
                            seed,
                        },
                    )
                    .unwrap();
                RequestInputGenerator::with_sampler(seed, process.sampler())
            })
            .collect();
        MergedRequestSource::new(generators, REQUESTS).unwrap()
    };
    // Materialize by draining one merged source…
    let mut drained = build_merged();
    let mut requests: Vec<RequestInput> = Vec::with_capacity(REQUESTS);
    while let Some(req) = drained.next_request(&workflow) {
        requests.push(req);
    }
    assert_eq!(requests.len(), REQUESTS);
    let mut arena = OpenLoopArena::new();
    let eager = sim
        .run_traced(
            &mut policy(&workflow),
            &requests,
            &mut arena,
            None,
            None,
            None,
        )
        .unwrap();
    // …and serve an identical fresh one lazily.
    let mut source = build_merged();
    let mut arena = OpenLoopArena::new();
    let streamed = sim
        .run_from_source(
            &mut policy(&workflow),
            &mut source,
            &mut arena,
            None,
            None,
            None,
        )
        .unwrap();
    assert_eq!(eager, streamed);
    // Residency: one buffered head per stream plus the pending arrival.
    assert!(
        arena.peak_resident_arrivals() <= 4,
        "merged streaming resident {} exceeds streams + 1",
        arena.peak_resident_arrivals()
    );
}
