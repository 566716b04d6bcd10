//! Allocation budgets of the serving loops and of policy set-up, counted
//! exactly.
//!
//! A counting global allocator (the system allocator plus a per-thread
//! counter) counts every `alloc`, `alloc_zeroed` and `realloc` made on the
//! calling thread while a counted call runs, so tests running in parallel on
//! other threads cannot disturb the count. Requests are generated outside
//! the counted window, and each budget is read as the difference between a
//! 20k- and a 10k-request run, so set-up (building the simulator and the
//! policy, growing tables to their working size) cancels.
//!
//! A served request may allocate its two outcome `Vec`s (per-function
//! allocations and latencies) and nothing else: arrivals are refilled in
//! place and every per-event table is reused. Tighten a budget when a change
//! removes an allocation; never loosen one.
//!
//! Set-up allocates a fixed count for a given profile: hint synthesis
//! allocates the same at a 1 ms budget step as at a 10 ms one, and an ORION
//! build the same however many greedy steps it takes.

use janus_baselines::early::{orion, OrionConfig};
use janus_platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_platform::openloop::OpenLoopSimulation;
use janus_platform::outcome::ServingReport;
use janus_platform::policy::FixedSizingPolicy;
use janus_profiler::profile::WorkflowProfile;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;
use janus_synthesizer::synthesizer::{Synthesizer, SynthesizerConfig};
use janus_workloads::apps::{intelligent_assistant, PaperApp};
use janus_workloads::request::{RequestInput, RequestInputGenerator};
use janus_workloads::workflow::Workflow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations a served request may make: its two outcome `Vec`s.
const BUDGET_PER_REQUEST: f64 = 2.0;

struct Counting;

thread_local! {
    /// Allocations made on this thread since counting began; `None` while
    /// nothing is counted.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it makes on this thread. What it
/// returns is dropped after counting stops.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let counted = ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0);
    (out, counted)
}

/// The Intelligent Assistant workflow on eight spread 52-core nodes, and
/// `n` requests at 4 requests per second: a healthy operating point, where
/// in-flight work (and so every per-run table) stays bounded.
fn workload(n: usize) -> (Workflow, ExecutorConfig, Vec<RequestInput>) {
    let app = PaperApp::IntelligentAssistant;
    let workflow = app.workflow();
    let config = ExecutorConfig {
        cluster: ClusterConfig {
            nodes: 8,
            node_capacity: Millicores::from_cores(52),
            placement: PlacementPolicy::Spread,
            zones: 1,
        },
        ..ExecutorConfig::paper_serving(app.default_slo(1), 1)
    };
    let requests =
        RequestInputGenerator::new(7, SimDuration::from_millis(250.0)).generate(&workflow, n);
    (workflow, config, requests)
}

fn policy(workflow: &Workflow) -> FixedSizingPolicy {
    FixedSizingPolicy::uniform("fixed", workflow, Millicores::new(2000)).unwrap()
}

/// Allocations per served request of `serve`, read as the difference
/// between a 20k- and a 10k-request run.
fn per_request(
    serve: impl Fn(&Workflow, &ExecutorConfig, &[RequestInput]) -> ServingReport,
) -> f64 {
    let run = |n: usize| {
        let (workflow, config, requests) = workload(n);
        let (report, allocations) = allocations_of(|| serve(&workflow, &config, &requests));
        assert_eq!(report.served_len(), n, "every request is served");
        assert!(
            report.slo_violation_rate() < 0.01,
            "a healthy operating point"
        );
        allocations
    };
    let (small, large) = (run(10_000), run(20_000));
    let per_request = large.saturating_sub(small) as f64 / 10_000.0;
    eprintln!("{small} allocations for 10k requests, {large} for 20k: {per_request} per request");
    per_request
}

#[test]
fn open_loop_allocates_only_the_outcome_vecs_per_request() {
    let per_request = per_request(|workflow, config, requests| {
        let sim = OpenLoopSimulation::new(workflow.clone(), config.clone());
        let mut policy = policy(workflow);
        sim.run(&mut policy, requests).unwrap()
    });
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "open loop: {per_request} allocations per request, budget {BUDGET_PER_REQUEST}"
    );
}

#[test]
fn closed_loop_allocates_only_the_outcome_vecs_per_request() {
    let per_request = per_request(|workflow, config, requests| {
        let executor = ClosedLoopExecutor::new(workflow.clone(), config.clone());
        let mut policy = policy(workflow);
        executor.run(&mut policy, requests)
    });
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "closed loop: {per_request} allocations per request, budget {BUDGET_PER_REQUEST}"
    );
}

/// The Intelligent Assistant profiled at 300 samples per grid point.
fn ia_profile() -> WorkflowProfile {
    Profiler::new(ProfilerConfig {
        samples_per_point: 300,
        ..ProfilerConfig::default()
    })
    .unwrap()
    .profile_workflow(&intelligent_assistant(), 1)
}

#[test]
fn hint_synthesis_allocates_the_same_at_every_budget_step() {
    let profile = ia_profile();
    let synthesize = |budget_step_ms: f64| {
        let synthesizer = Synthesizer::new(SynthesizerConfig {
            budget_step_ms,
            ..SynthesizerConfig::default()
        })
        .unwrap();
        let ((_, report), allocations) = allocations_of(|| synthesizer.synthesize(&profile));
        eprintln!(
            "{budget_step_ms} ms step: {} raw hints, {allocations} allocations",
            report.raw_hints
        );
        (report.raw_hints, allocations)
    };
    let (fine_hints, fine) = synthesize(1.0);
    let (coarse_hints, coarse) = synthesize(10.0);
    assert!(
        fine_hints > 5 * coarse_hints,
        "the 1 ms sweep visits more budgets"
    );
    assert_eq!(fine, coarse, "allocations at a 1 ms step vs a 10 ms step");
}

#[test]
fn orion_allocates_the_same_however_many_greedy_steps_it_takes() {
    let profile = ia_profile();
    let config = OrionConfig::default();
    let build = |slo_ms: f64| {
        let slo = SimDuration::from_millis(slo_ms);
        let (policy, allocations) = allocations_of(|| orion(&profile, slo, &config).unwrap());
        eprintln!(
            "SLO {slo_ms} ms: {} total, {allocations} allocations",
            policy.total()
        );
        (policy.total(), allocations)
    };
    let (loose_total, loose) = build(6000.0);
    let (tight_total, tight) = build(3000.0);
    assert!(
        loose_total < tight_total,
        "the loose SLO takes more greedy steps"
    );
    assert_eq!(loose, tight, "allocations at a loose SLO vs a tight one");
}
